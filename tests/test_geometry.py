import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from htnav import geometry
from htnav.geometry import (
    Circle,
    Wall,
    bounds_walls,
    point_obstacle_clearance,
    ray_circle_distances,
    ray_obstacle_distances,
    scan_ranges,
    wrap_angle,
)


def test_wrap_angle_range_and_fixed_points():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # range is (-pi, pi]
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_angle(2 * math.pi + 0.25) == pytest.approx(0.25)


@settings(max_examples=50, deadline=None)
@given(st.floats(-50, 50))
def test_wrap_angle_is_idempotent_mod_2pi(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)
    assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)


def test_obstacle_validation():
    with pytest.raises(ValueError):
        Circle(center=(0, 0), radius=0.0)
    with pytest.raises(ValueError):
        Wall(p1=(0, 0), p2=(0, 0))
    with pytest.raises(ValueError):
        Wall(p1=(0, 0), p2=(1, 0), thickness=-0.1)


FORWARD = np.array([[1.0, 0.0]])
ORIGIN = np.zeros(2)


def test_forward_beam_hits_circle():
    # circle radius 0.5 centered 3 m ahead: forward range 2.5
    d = ray_circle_distances(ORIGIN, FORWARD, (3.0, 0.0), 0.5)
    assert d[0] == pytest.approx(2.5, rel=1e-12)


def test_miss_returns_inf():
    d = ray_circle_distances(ORIGIN, FORWARD, (0.0, 5.0), 0.5)
    assert np.isinf(d[0])


def test_ray_from_inside_circle_hits_boundary():
    d = ray_circle_distances(np.array([0.5, 0.0]), FORWARD, (0.0, 0.0), 2.0)
    assert d[0] == pytest.approx(1.5, rel=1e-12)


def test_wall_capsule_thickness():
    # wall along y at x=4 with thickness 1: forward ray hits the face at 3.5
    wall = Wall(p1=(4.0, -2.0), p2=(4.0, 2.0), thickness=1.0)
    d = ray_obstacle_distances(ORIGIN, FORWARD, wall)
    assert d[0] == pytest.approx(3.5, rel=1e-9)


def test_scan_no_obstacles_is_max_range():
    ranges = scan_ranges((50.0, 50.0), 0.3, [], n_rays=720, max_range=10.0)
    assert ranges.shape == (720,)
    np.testing.assert_array_equal(ranges, 10.0)


def test_scan_beam_zero_points_along_heading():
    circle = Circle(center=(53.0, 50.0), radius=0.5)
    ranges = scan_ranges((50.0, 50.0), 0.0, [circle])
    assert ranges[0] == pytest.approx(2.5, rel=1e-9)
    # same circle seen behind when heading is reversed
    ranges_rev = scan_ranges((50.0, 50.0), math.pi, [circle])
    assert ranges_rev[360] == pytest.approx(2.5, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.floats(-math.pi, math.pi), st.floats(1.5, 8.0), st.floats(-2.5, 2.5))
def test_scan_mirror_symmetry(psi, ahead, side):
    """Mirroring the layout across the heading axis mirrors the scan."""
    heading = np.array([math.cos(psi), math.sin(psi)])
    left = np.array([-math.sin(psi), math.cos(psi)])
    origin = np.array([20.0, 20.0])
    c1 = Circle(center=tuple(origin + ahead * heading + side * left), radius=0.4)
    c2 = Circle(center=tuple(origin + ahead * heading - side * left), radius=0.4)
    r1 = scan_ranges(tuple(origin), psi, [c1], n_rays=360)
    r2 = scan_ranges(tuple(origin), psi, [c2], n_rays=360)
    # beam k mirrors to beam (n - k) mod n
    mirrored = np.concatenate([[r2[0]], r2[1:][::-1]])
    np.testing.assert_allclose(r1, mirrored, rtol=1e-9, atol=1e-9)


def test_scan_clamped_to_max_range():
    circle = Circle(center=(80.0, 0.0), radius=1.0)
    ranges = scan_ranges((0.0, 0.0), 0.0, [circle], max_range=10.0)
    assert ranges.max() <= 10.0
    assert ranges.min() >= 0.0


def test_bounds_walls_enclose_region():
    walls = bounds_walls((0.0, 0.0, 100.0, 100.0))
    assert len(walls) == 4
    ranges = scan_ranges((50.0, 50.0), 0.0, walls, max_range=60.0)
    # rays along the axes see the walls at 50
    assert ranges[0] == pytest.approx(50.0, rel=1e-9)


def test_point_clearance():
    circle = Circle(center=(0.0, 0.0), radius=1.0)
    assert point_obstacle_clearance((3.0, 0.0), circle) == pytest.approx(2.0)
    assert point_obstacle_clearance((0.0, 0.0), circle) == pytest.approx(-1.0)
    wall = Wall(p1=(0.0, 0.0), p2=(4.0, 0.0), thickness=1.0)
    assert point_obstacle_clearance((2.0, 2.0), wall) == pytest.approx(1.5)


# --- the range cull ------------------------------------------------------
#
# scan_ranges skips obstacles wholly beyond max_range.  The oracle below
# ray-tests every obstacle, and the culled scan must match it byte for byte.


def _oracle_scan_ranges(origin, heading, obstacles, n_rays=720, max_range=10.0):
    origin = np.asarray(origin, dtype=float)
    angles = heading + np.arange(n_rays) * (2.0 * math.pi / n_rays)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    best = np.full(n_rays, np.inf)
    for obstacle in obstacles:
        best = np.minimum(best, ray_obstacle_distances(origin, dirs, obstacle))
    return np.clip(best, 0.0, max_range)


def _assert_scan_matches_oracle(origin, heading, obstacles, n_rays, max_range):
    got = scan_ranges(origin, heading, obstacles, n_rays=n_rays, max_range=max_range)
    want = _oracle_scan_ranges(origin, heading, obstacles, n_rays=n_rays, max_range=max_range)
    assert got.tobytes() == want.tobytes()


ANGLES = st.floats(-math.pi, math.pi)
N_RAYS = st.sampled_from([1, 2, 7, 360, 720])


@st.composite
def _obstacle_at(draw, origin, distance, theta):
    """A circle, wall or capsule whose outline is ``distance`` from ``origin``.

    The outline's nearest point lies in direction ``theta``; walls either
    cross that direction square on or start there and run off at an angle,
    sometimes straight along it, in line with the origin.
    """
    u = np.array([math.cos(theta), math.sin(theta)])
    kind = draw(st.sampled_from(["circle", "wall", "capsule"]))
    if kind == "circle":
        r = draw(st.floats(1e-9, 100.0))
        return Circle(center=tuple((origin + (distance + r) * u).tolist()), radius=r)
    thickness = 0.0 if kind == "wall" else draw(st.floats(1e-6, 2.0))
    p = origin + (distance + thickness / 2.0) * u
    if draw(st.booleans()):
        n = np.array([-u[1], u[0]])
        q1 = p + draw(st.floats(0.0, 100.0)) * n
        q2 = p - draw(st.floats(0.0, 100.0)) * n
    else:
        beta = draw(st.one_of(st.just(0.0), st.floats(-math.pi / 2, math.pi / 2)))
        q1 = p
        q2 = p + draw(st.floats(1e-3, 1e4)) * np.array([math.cos(theta + beta), math.sin(theta + beta)])
    assume(tuple(q1) != tuple(q2))
    return Wall(p1=tuple(q1.tolist()), p2=tuple(q2.tolist()), thickness=thickness)


@st.composite
def _near_threshold_scenes(draw):
    """Obstacles whose nearest point sits at max_range, give or take some ulps.

    The ulp offsets reach from a few ulps up to well past the cull margin
    on both sides; origins range up to 1e6.
    """
    coord = st.one_of(st.floats(-100.0, 100.0), st.floats(-1e6, 1e6))
    origin = np.array([draw(coord), draw(coord)])
    max_range = draw(st.floats(0.5, 50.0))
    ulp = math.ulp(max(max_range, *np.abs(origin).tolist()))
    thetas = draw(st.lists(ANGLES, min_size=1, max_size=4))
    obstacles = []
    for theta in thetas:
        steps = draw(st.integers(-8, 8)) * draw(st.sampled_from([1.0, 1e4, 1e8, 1e10, 1e11]))
        obstacles.append(draw(_obstacle_at(origin, max_range + steps * ulp, theta)))
    # ray 0 along a nearest-point direction hits that point (and meets an
    # in-line wall nearly parallel)
    heading = draw(st.one_of(st.sampled_from(thetas), ANGLES))
    return tuple(origin.tolist()), heading, obstacles, draw(N_RAYS), max_range


@settings(max_examples=300, deadline=None)
@given(_near_threshold_scenes())
def test_scan_matches_oracle_near_max_range(scene):
    _assert_scan_matches_oracle(*scene)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-1e6, 1e6),
    st.floats(-1e6, 1e6),
    ANGLES,
    st.floats(0.01, 0.99),
    st.floats(0.1, 20.0),
    st.floats(0.5, 50.0),
    N_RAYS,
)
def test_scan_matches_oracle_from_inside(ox, oy, theta, frac, size, max_range, n_rays):
    """An origin inside a circle and inside a capsule is never culled."""
    u = np.array([math.cos(theta), math.sin(theta)])
    n = np.array([-u[1], u[0]])
    mid = np.array([ox, oy]) + frac * size * u
    circle = Circle(center=tuple(mid.tolist()), radius=size)
    capsule = Wall(
        p1=tuple((mid + 3.0 * n).tolist()), p2=tuple((mid - 3.0 * n).tolist()), thickness=2.0 * size
    )
    for obstacles in ([circle], [capsule], [circle, capsule]):
        _assert_scan_matches_oracle((ox, oy), theta, obstacles, n_rays, max_range)


@pytest.mark.parametrize("thickness", [0.0, 0.4])
@pytest.mark.parametrize("origin", [(0.0, 9.5), (0.0, 0.0), (3.0, -20.0), (1e3, 1e3)])
def test_scan_of_tiny_wall_matches_oracle(origin, thickness):
    """A 1e-160 m wall: ex*ex + ey*ey underflows to 0, and the cull must not divide by it."""
    wall = Wall(p1=(0.0, 10.0), p2=(1e-160, 10.0), thickness=thickness)
    _assert_scan_matches_oracle(origin, 0.5, [wall], 720, 10.0)
    _assert_scan_matches_oracle(origin, 0.5, [wall], 1, 10.0)


def test_in_line_wall_beyond_range_is_still_scanned():
    """A ray nearly parallel to a wall in line with the origin reports a
    hit at 8.0 m on a wall that is 10.04 m away; the cull keeps that hit."""
    origin, heading = (-36.37338407426315, -39.40429452182745), 0.8299689199789098
    wall = Wall(p1=(-29.597718851639648, -31.996021481168505), p2=(5722.337608841569, 6256.96690978719))
    assert math.dist(origin, wall.p1) > 10.03
    assert _oracle_scan_ranges(origin, heading, [wall])[0] == 8.0
    _assert_scan_matches_oracle(origin, heading, [wall], 720, 10.0)


def test_far_obstacles_are_not_ray_tested(monkeypatch):
    tested = []
    real = geometry.ray_obstacle_distances

    def counting(origin, dirs, obstacle):
        tested.append(obstacle)
        return real(origin, dirs, obstacle)

    monkeypatch.setattr(geometry, "ray_obstacle_distances", counting)
    near = Circle(center=(55.0, 50.0), radius=1.0)
    far = [Circle(center=(70.0, 50.0), radius=1.0), Wall(p1=(50.0, 70.0), p2=(60.0, 70.0), thickness=0.4)]
    ranges = scan_ranges((50.0, 50.0), 0.0, [near, *far] + bounds_walls((0.0, 0.0, 100.0, 100.0)))
    assert tested == [near]
    assert ranges[0] == pytest.approx(4.0)
