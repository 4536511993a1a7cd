import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from htnav import geometry
import htnav.env
from htnav.config import TrainConfig
from htnav.env import SCAN_CULL_SLACK, EnvConfig
from htnav.geometry import (
    Circle,
    Wall,
    bounds_walls,
    obstacles_in_range,
    point_obstacle_clearance,
    ray_circle_distances,
    ray_obstacle_distances,
    scan_ranges,
    wrap_angle,
)
from htnav.net import ApproximatorSpec
from htnav.policy import PolicyParameters
from htnav.world import World, generate_world

from conftest import kinematic_step, oracle_settings, reference_rollout, scripted_rollout


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
    # past either end, the distance is to that endpoint
    assert point_obstacle_clearance((-3.0, 4.0), wall) == pytest.approx(4.5)
    assert point_obstacle_clearance((7.0, -4.0), wall) == pytest.approx(4.5)


_coord = st.floats(-50, 50)


@settings(max_examples=300, deadline=None)
@given(_coord, _coord, _coord, _coord, _coord, _coord, st.floats(0.0, 2.0))
def test_wall_clearance_matches_projection_onto_segment(px, py, ax, ay, bx, by, thickness):
    # reference: project the point onto the segment, clamp, measure
    assume(math.dist((ax, ay), (bx, by)) > 1e-3)
    p, a, e = np.array([px, py]), np.array([ax, ay]), np.array([bx - ax, by - ay])
    t = min(max((p - a) @ e / (e @ e), 0.0), 1.0)
    expected = math.hypot(*(p - (a + t * e))) - thickness / 2.0
    got = point_obstacle_clearance((px, py), Wall((ax, ay), (bx, by), thickness))
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


# --- the range cull, the empty scan and the ray windows -----------------
#
# scan_ranges skips obstacles wholly beyond max_range, builds no fan when
# none is left, and ray-tests each obstacle only on the rays of its
# window.  The oracle below ray-tests every obstacle on every ray, one
# primitive at a time with the plain arithmetic that follows (a capsule
# folded as side 1, side 2, cap a, cap b), and clamps with np.clip; the
# scan must match it byte for byte.


def _oracle_circle(origin, dirs, center, radius):
    f = origin - np.asarray(center, dtype=float)
    b = 2.0 * (dirs @ f)
    c = f @ f - radius * radius
    disc = b * b - 4.0 * c
    hit = disc >= 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t_near = (-b - sq) / 2.0
    t_far = (-b + sq) / 2.0
    t = np.where(t_near >= 0.0, t_near, t_far)
    return np.where(hit & (t >= 0.0), t, np.inf)


def _oracle_segment(origin, dirs, p1, p2):
    a = np.asarray(p1, dtype=float)
    e = np.asarray(p2, dtype=float) - a
    ap = a - origin
    denom = dirs[:, 0] * e[1] - dirs[:, 1] * e[0]
    ok = np.abs(denom) > 1e-12
    safe = np.where(ok, denom, 1.0)
    t = (ap[0] * e[1] - ap[1] * e[0]) / safe
    s = (ap[0] * dirs[:, 1] - ap[1] * dirs[:, 0]) / safe
    valid = ok & (t >= 0.0) & (s >= 0.0) & (s <= 1.0)
    return np.where(valid, t, np.inf)


def _capsule_parts(wall):
    """A capsule's offset sides and cap centres: ((a1, b1), (a2, b2)), (a, b)."""
    a, b = np.asarray(wall.p1, dtype=float), np.asarray(wall.p2, dtype=float)
    r = wall.thickness / 2.0
    e = b - a
    n = np.array([-e[1], e[0]]) / np.hypot(e[0], e[1])
    return ((a + n * r, b + n * r), (a - n * r, b - n * r)), (a, b)


def _oracle_obstacle(origin, dirs, obstacle):
    if isinstance(obstacle, Circle):
        return _oracle_circle(origin, dirs, obstacle.center, obstacle.radius)
    r = obstacle.thickness / 2.0
    if r == 0.0:
        return _oracle_segment(origin, dirs, obstacle.p1, obstacle.p2)
    (side1, side2), (a, b) = _capsule_parts(obstacle)
    d = np.minimum(_oracle_segment(origin, dirs, *side1), _oracle_segment(origin, dirs, *side2))
    d = np.minimum(d, _oracle_circle(origin, dirs, a, r))
    return np.minimum(d, _oracle_circle(origin, dirs, b, r))


def _oracle_fan(heading, n_rays):
    angles = heading + np.arange(n_rays) * (2.0 * math.pi / n_rays)
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _oracle_fold(origin, heading, obstacles, n_rays):
    """Each ray's nearest hit, unclamped."""
    origin = np.asarray(origin, dtype=float)
    dirs = _oracle_fan(heading, n_rays)
    best = np.full(n_rays, np.inf)
    for obstacle in obstacles:
        best = np.minimum(best, _oracle_obstacle(origin, dirs, obstacle))
    return best


def _oracle_scan_ranges(origin, heading, obstacles, n_rays=720, max_range=10.0):
    return np.clip(_oracle_fold(origin, heading, obstacles, n_rays), 0.0, max_range)


def _assert_scan_matches_oracle(origin, heading, obstacles, n_rays, max_range):
    got = scan_ranges(origin, heading, obstacles, n_rays=n_rays, max_range=max_range)
    want = _oracle_scan_ranges(origin, heading, obstacles, n_rays=n_rays, max_range=max_range)
    assert got.tobytes() == want.tobytes()


ANGLES = st.floats(-math.pi, math.pi)
N_RAYS = st.sampled_from([1, 2, 7, 360, 720])
HEADINGS = [math.pi, -math.pi, 0.0, math.pi / 2, -3.0]


@st.composite
def _ray_test_scenes(draw):
    """An origin, the directions of a run of fan rays, and an obstacle.

    Besides obstacles anywhere, axis-aligned walls and capsules on a grid
    of quarters put the origin exactly on a wall or on a capsule side's
    line, at the side's ends too, where a cap's circle passes through it:
    there the ray tests report +0.0 or -0.0 by the ray's side of the line.
    """
    kind = draw(st.sampled_from(["circle", "wall", "capsule", "on_wall", "on_side"]))
    if kind in ("on_wall", "on_side"):
        quarter = st.integers(-200, 200).map(lambda k: k / 4.0)
        x0, x1, y = draw(quarter), draw(quarter), draw(quarter)
        assume(x0 != x1)
        r = 0.0 if kind == "on_wall" else draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
        along = draw(st.one_of(st.sampled_from([x0, x1, (x0 + x1) / 2.0]), quarter))
        p1, p2, origin = (x0, y), (x1, y), (along, y + draw(st.sampled_from([r, -r])))
        if draw(st.booleans()):
            p1, p2, origin = p1[::-1], p2[::-1], origin[::-1]
        obstacle = Wall(p1, p2, thickness=2.0 * r)
    else:
        coord = st.floats(-50.0, 50.0)
        origin = (draw(coord), draw(coord))
        if kind == "circle":
            obstacle = Circle((draw(coord), draw(coord)), draw(st.floats(1e-3, 20.0)))
        else:
            p1, p2 = (draw(coord), draw(coord)), (draw(coord), draw(coord))
            assume(p1 != p2)
            obstacle = Wall(p1, p2, thickness=0.0 if kind == "wall" else draw(st.floats(1e-6, 4.0)))
    n_rays = draw(st.sampled_from([7, 720]))
    first = draw(st.integers(0, n_rays - 1))
    dirs = _oracle_fan(draw(ANGLES), n_rays)[first : first + draw(st.integers(1, n_rays - first))].copy()
    return np.array(origin), dirs, obstacle


@oracle_settings(300)
@given(_ray_test_scenes())
def test_ray_tests_match_one_primitive_at_a_time(scene):
    """A capsule's 2-row side and cap passes equal
    min(min(min(side 1, side 2), cap a), cap b) of the single-primitive
    tests, and a circle's and a wall's test equals its primitive's."""
    origin, dirs, obstacle = scene
    got = ray_obstacle_distances(origin, dirs, obstacle)
    assert got.tobytes() == _oracle_obstacle(origin, dirs, obstacle).tobytes()
    if isinstance(obstacle, Circle):
        want = _oracle_circle(origin, dirs, obstacle.center, obstacle.radius)
        assert ray_circle_distances(origin, dirs, obstacle.center, obstacle.radius).tobytes() == want.tobytes()


ZERO_HIT_SCENES = [
    # on a capsule side's line, at its ends (on a cap's circle too) and between
    ((-3.0, 0.4), [Wall((-3.0, 0.0), (3.0, 0.0), thickness=0.8)]),
    ((0.0, 0.4), [Wall((-3.0, 0.0), (3.0, 0.0), thickness=0.8), Circle((5.0, 0.5), 0.5)]),
    ((3.0, -0.4), [Wall((-3.0, 0.0), (3.0, 0.0), thickness=0.8)]),
    # on a boundary wall and in a corner, where two walls report 0
    ((0.0, 50.0), bounds_walls((0.0, 0.0, 100.0, 100.0))),
    ((0.0, 0.0), bounds_walls((0.0, 0.0, 100.0, 100.0))),
    ((100.0, 37.5), bounds_walls((0.0, 0.0, 100.0, 100.0))),
]


@pytest.mark.parametrize("n_rays", [7, 720])
@pytest.mark.parametrize("origin, obstacles", ZERO_HIT_SCENES)
def test_zero_ranges_keep_their_sign(origin, obstacles, n_rays):
    """From on an outline some rays hit at -0.0 and others at +0.0; the scan
    keeps each sign as the oracle's fold and np.clip do."""
    signs = set()
    for heading in HEADINGS:
        hits = _oracle_fold(origin, heading, obstacles, n_rays)
        signs |= set(np.signbit(hits[hits == 0.0]).tolist())
        _assert_scan_matches_oracle(origin, heading, obstacles, n_rays, 10.0)
    assert signs == {False, True}


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


@oracle_settings(300)
@given(_near_threshold_scenes())
def test_scan_matches_oracle_near_max_range(scene):
    _assert_scan_matches_oracle(*scene)


@oracle_settings(100)
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


def test_nan_origin_and_heading_match_oracle():
    """A NaN origin or heading gives no finite window bound: every ray is tested."""
    circle = Circle((2.0, 1.0), 0.5)
    capsule = Wall((3.0, -2.0), (3.0, 2.0), thickness=0.4)
    for origin, heading in (((math.nan, 1.0), 0.0), ((0.0, math.nan), 0.3), ((0.0, 0.0), math.nan)):
        for n_rays in (1, 7, 720):
            _assert_scan_matches_oracle(origin, heading, [circle, capsule], n_rays, 10.0)
    np.testing.assert_array_equal(scan_ranges((math.nan, 1.0), 0.0, [circle]), 10.0)


@pytest.mark.parametrize("heading", [1e300, -1e17, 1e6, -100.0, 7.0])
def test_far_out_headings_match_oracle(heading):
    """Far from [-2pi, 2pi] the ray angles round to coarse steps; every ray is tested."""
    obstacles = [Circle((2.0, 1.0), 0.5), Wall((-3.0, -2.0), (-3.0, 2.0), thickness=0.4), Wall((0.0, 4.0), (1.0, 4.0))]
    for n_rays in (7, 720):
        _assert_scan_matches_oracle((0.0, 0.0), heading, obstacles, n_rays, 10.0)


def test_empty_scan_builds_no_fan(monkeypatch):
    def no_fan(*args):
        raise AssertionError("a scan with nothing in range built a fan")

    monkeypatch.setattr(geometry, "_fan", no_fan)
    far = [Circle((70.0, 50.0), 1.0), Wall((50.0, 70.0), (60.0, 70.0), thickness=0.4)]
    for max_range in (10.0, 10, 0.5):
        got = scan_ranges((50.0, 50.0), 0.3, far + bounds_walls((0.0, 0.0, 100.0, 100.0)), max_range=max_range)
        want = _oracle_scan_ranges((50.0, 50.0), 0.3, [], max_range=max_range)
        assert got.tobytes() == want.tobytes()


def test_obstacles_are_ray_tested_only_inside_their_window(monkeypatch):
    tested = []
    real = geometry.ray_obstacle_distances

    def counting(origin, dirs, obstacle):
        tested.append(len(dirs))
        return real(origin, dirs, obstacle)

    monkeypatch.setattr(geometry, "ray_obstacle_distances", counting)
    # a 0.5 m circle 5 m away subtends about 11.5 degrees: 23 rays of 720,
    # plus the rounding allowance and 2 rays of pad on each side; so does
    # a 0.6 m capsule 0.4 m thick, whose sides and caps take the same rows
    scan_ranges((0.0, 0.0), 0.0, [Circle((5.0, 0.0), 0.5), Wall((-5.0, -0.3), (-5.0, 0.3), thickness=0.4)])
    assert len(tested) == 2
    assert all(23 <= rays <= 30 for rays in tested)


@pytest.mark.parametrize("n_rays", [1, 2, 3, 7, 720])
@pytest.mark.parametrize("heading", HEADINGS)
def test_windows_around_ray_zero_match_oracle(heading, n_rays):
    """Obstacles straddling ray 0 (their windows wrap past index 0), beside
    obstacles whose windows do not, and around the fan."""
    origin = np.array([20.0, 30.0])
    shapes = []
    for offset in (0.0, 0.01, -0.01, math.pi, 2.0):
        u = np.array([math.cos(heading + offset), math.sin(heading + offset)])
        n = np.array([-u[1], u[0]])
        shapes += [
            Circle(tuple((origin + 4.0 * u).tolist()), 0.5),
            Wall(tuple((origin + 6.0 * u - 2.0 * n).tolist()), tuple((origin + 6.0 * u + 2.0 * n).tolist())),
            Wall(tuple((origin + 3.0 * u + n).tolist()), tuple((origin + 8.0 * u + n).tolist()), thickness=0.3),
        ]
    for obstacle in shapes:
        _assert_scan_matches_oracle(tuple(origin.tolist()), heading, [obstacle], n_rays, 10.0)
    _assert_scan_matches_oracle(tuple(origin.tolist()), heading, shapes, n_rays, 10.0)


@pytest.mark.parametrize("n_rays", [7, 360, 720])
@pytest.mark.parametrize("heading", HEADINGS)
def test_grazing_rays_at_window_edge_match_oracle(n_rays, heading):
    """Ray k passes a circle at its radius, give or take: the circle's tangent
    bearing, the edge of its unpadded window, lies on a ray."""
    origin = np.array([-7.0, 12.0])
    for k in (0, 1, n_rays // 2, n_rays - 1):
        a = heading + k * (2.0 * math.pi / n_rays)
        u = np.array([math.cos(a), math.sin(a)])
        n = np.array([-u[1], u[0]])
        for radius in (1e-6, 0.05, 0.5, 3.0):
            for side in (1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 1e-6, -1.0, -1.0 - 1e-12):
                for along in (radius + 0.2, 6.0):
                    center = origin + along * u + side * radius * n
                    circle = Circle(tuple(center.tolist()), radius)
                    _assert_scan_matches_oracle(tuple(origin.tolist()), heading, [circle], n_rays, 10.0)


@pytest.mark.parametrize("n_rays", [1, 2, 3, 7, 720])
@pytest.mark.parametrize("where", [(0.0, 0.0), (2.9, 0.3), (-3.1, -0.35), (0.0, 0.399999)])
def test_origin_inside_capsule_matches_oracle(where, n_rays):
    """Inside the capsule (or on its outline) the window is the whole fan."""
    capsule = Wall((-3.0, 0.0), (3.0, 0.0), thickness=0.8)
    circle = Circle((5.0, 0.5), 0.5)
    for heading in HEADINGS:
        _assert_scan_matches_oracle(where, heading, [capsule], n_rays, 10.0)
        _assert_scan_matches_oracle(where, heading, [capsule, circle], n_rays, 10.0)


# --- the slack cull ------------------------------------------------------
#
# The episode loop culls once with SCAN_CULL_SLACK around an anchor and
# scans the survivors from every origin within that slack of it.  The slack
# cull must keep whatever the exact cull keeps at any such origin.


def _shifted(obstacle, v):
    """The obstacle moved by the vector v."""
    if isinstance(obstacle, Circle):
        return Circle(tuple((np.asarray(obstacle.center) + v).tolist()), obstacle.radius)
    p1, p2 = (tuple((np.asarray(p) + v).tolist()) for p in (obstacle.p1, obstacle.p2))
    return Wall(p1, p2, obstacle.thickness)


@st.composite
def _slack_scenes(draw):
    """An anchor, an origin within slack of it, and obstacles near a cull threshold.

    Obstacles sit at max_range + slack from the anchor or at max_range
    from the origin, or that plus the cull margin, give or take some ulps,
    often straight across the anchor-origin line.  Walls include in-line
    ones, ones whose line passes within 1e-9 of the origin, ones whose
    line passes at slack plus the margin from the anchor, and 1e-160 m
    ones; coordinates reach 1e6.
    """
    coord = st.one_of(st.floats(-100.0, 100.0), st.floats(1e6 - 50.0, 1e6 + 50.0), st.floats(-1e6, 1e6))
    anchor = np.array([draw(coord), draw(coord)])
    slack = draw(st.one_of(st.just(SCAN_CULL_SLACK), st.floats(0.1, 10.0)))
    max_range = draw(st.floats(0.5, 50.0))
    phi = draw(ANGLES)
    rho = slack * draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    origin = anchor + rho * np.array([math.cos(phi), math.sin(phi)])
    assume(math.hypot(*(origin - anchor).tolist()) <= slack)
    ulp = math.ulp(max(max_range + slack, *np.abs(anchor).tolist()))
    obstacles = []
    for _ in range(draw(st.integers(1, 4))):
        theta = draw(st.one_of(st.just(phi), ANGLES))
        u = np.array([math.cos(theta), math.sin(theta)])
        n = np.array([-u[1], u[0]])
        jitter = draw(
            st.one_of(
                st.integers(-8, 8).map(lambda k: k * ulp),
                st.tuples(st.integers(-8, 8), st.sampled_from([1e4, 1e8, 1e10])).map(lambda t: t[0] * t[1] * ulp),
                st.floats(-1e-3, 1e-3).map(lambda f: f * slack),
            )
        )
        kind = draw(st.sampled_from(["from_anchor", "from_origin", "line_from_anchor", "near_line", "tiny"]))
        if kind in ("from_anchor", "from_origin"):
            base, reach, pad = (anchor, max_range + slack, slack) if kind == "from_anchor" else (origin, max_range, 0.0)
            obstacle = draw(_obstacle_at(base, reach + jitter, theta))
            if draw(st.booleans()):
                obstacle = _shifted(obstacle, geometry._margin(*base.tolist(), obstacle, max_range, pad) * u)
            obstacles.append(obstacle)
            continue
        thickness = draw(st.sampled_from([0.0, 0.0, 0.4]))
        if kind == "line_from_anchor":
            # the line runs along n at slack + margin from the anchor, toward u
            start = anchor + draw(st.floats(-3.0, 3.0)) * (max_range + slack) * n
            wall = Wall(tuple(start.tolist()), tuple((start + 1e3 * n).tolist()), thickness)
            reach = slack + thickness / 2.0 + jitter
            reach += geometry._margin(*anchor.tolist(), wall, max_range, slack)
            obstacles.append(_shifted(wall, reach * u))
            continue
        offset = draw(st.floats(-1e-9, 1e-9))
        start = origin + offset * n + draw(st.floats(0.0, 3.0 * (max_range + slack))) * u
        length = 1e-160 if kind == "tiny" else draw(st.floats(1e-3, 1e4))
        end = start + length * u
        assume(tuple(start) != tuple(end))
        obstacles.append(Wall(tuple(start.tolist()), tuple(end.tolist()), thickness=thickness))
    return tuple(anchor.tolist()), tuple(origin.tolist()), obstacles, max_range, slack


@oracle_settings(300)
@given(_slack_scenes())
def test_slack_cull_keeps_what_exact_cull_keeps_nearby(scene):
    (ax, ay), (ox, oy), obstacles, max_range, slack = scene
    near = obstacles_in_range(ax, ay, obstacles, max_range, slack)
    exact = obstacles_in_range(ox, oy, obstacles, max_range)
    assert all(any(ob is kept for kept in near) for ob in exact)
    # the scan's own cull, in its ray window, is the exact cull
    windowed = [ob for ob in obstacles if geometry._window(ox, oy, 0.0, ob, 720, max_range) is not None]
    assert windowed == exact


@pytest.mark.parametrize("corner", [50.0, -1e3, 1e6])
def test_slack_cull_from_the_worst_origin(corner):
    """The origin moves slack along the diagonal away from (0, 0), where its
    own margin grows most, straight toward a circle and a capsule's line
    placed a little either side of the slack cull's thresholds."""
    slack, max_range, r = SCAN_CULL_SLACK, 10.0, 0.3
    d = np.array([1.0, 1.0]) * math.copysign(1.0 / math.sqrt(2.0), corner)
    n = np.array([-d[1], d[0]])
    anchor = np.array([corner, corner])
    ox, oy = (anchor + slack * (1.0 - 1e-15) * d).tolist()

    def circle(reach):
        return Circle(tuple((anchor + (reach + r) * d).tolist()), r)

    def capsule(reach):
        # only its line comes near the anchor: the segment starts far to the side
        start = anchor + (reach + r) * d + 3.0 * (max_range + slack) * n
        return Wall(tuple(start.tolist()), tuple((start + 100.0 * n).tolist()), thickness=2.0 * r)

    offsets = [k * 2e-7 for k in range(-20, 41)] + [-1e-4, -5e-4, -1e-3, -1.9e-3]
    for make, threshold in ((circle, max_range + slack), (capsule, slack)):
        for offset in offsets:
            # reach = threshold + margin + offset, with the margin taken where the obstacle ends up
            reach = threshold + offset
            for _ in range(3):
                reach = threshold + geometry._margin(*anchor.tolist(), make(reach), max_range, slack) + offset
            obstacle = make(reach)
            if not obstacles_in_range(*anchor.tolist(), [obstacle], max_range, slack):
                assert not obstacles_in_range(ox, oy, [obstacle], max_range), (make.__name__, offset)


def _driven_poses(world, actions, steps, env):
    """The poses of a scripted drive on flat ground, from the start through
    ``steps`` steps, by the reference step's kinematics."""
    x0, y0, x1, y1 = world.bounds
    poses = [world.start_pose]
    for action in actions[:steps]:
        x, y, psi = kinematic_step(*poses[-1], action, env)
        poses.append((min(max(x, x0), x1), min(max(y, y0), y1), psi))
    return poses


@pytest.mark.parametrize("seed", [0, 1, 3, 5])
def test_env_scans_match_oracle_across_reculls(seed, monkeypatch):
    """A robot driving through a generated obstacle world re-culls its scan
    list many times; every scan it observes still equals the all-obstacle
    oracle, whether from scan_ranges or, with nothing near, without it."""
    world = generate_world("obstacle_avoidance", seed)
    everything = list(world.obstacles) + bounds_walls(world.bounds)
    scans, culls = [], []

    def recording_scan(origin, heading, *args, **kwargs):
        scans.append((origin, heading, scan_ranges(origin, heading, *args, **kwargs)))
        return scans[-1][2]

    def recording_cull(*args):
        culls.append(args[:2])
        return obstacles_in_range(*args)

    monkeypatch.setattr(htnav.env, "scan_ranges", recording_scan)
    monkeypatch.setattr(htnav.env, "obstacles_in_range", recording_cull)
    # goal and collision radii this small let the robot scan from right
    # beside obstacles; only seed 5 ends early, clamped onto the x = 0 wall
    # at step 314, where every ray reads 0
    env = EnvConfig(dt=0.2, d_collision=1e-9, goal_radius=1e-9)
    cfg = TrainConfig(scenario="obstacle_avoidance", max_steps=10_000, env=env)
    actions = [(1.0, 0.6 * math.sin(k / 15.0)) for k in range(400)]
    traj = scripted_rollout(world, actions, cfg)
    poses = _driven_poses(world, actions, len(traj), env)
    assert len(poses) >= 315
    skipped = 0
    for k, (x, y, psi) in enumerate(poses):
        want = _oracle_scan_ranges((x, y), psi, everything)
        if scans and scans[0][:2] == ((x, y), psi):
            assert scans.pop(0)[2].tobytes() == want.tobytes(), (seed, k)
        else:
            skipped += 1
            assert want.tobytes() == np.full(720, 10.0).tobytes(), (seed, k)
        if k < len(traj):
            assert traj.features[k, 4:].tobytes() == (want / 10.0).tobytes(), (seed, k)
    assert scans == []
    assert skipped < len(poses) // 2
    assert len(culls) >= 5


def test_rollout_skips_the_scan_with_nothing_near(monkeypatch):
    """A step whose slack-culled list is empty calls scan_ranges zero times
    and observes max_range on every ray.  The robot drives 8 m toward a
    tree 16 m ahead, which the re-cull after 4 m keeps."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return scan_ranges(*args, **kwargs)

    monkeypatch.setattr(htnav.env, "scan_ranges", counting)
    cfg = TrainConfig(scenario="obstacle_avoidance")
    actions = [(1.0, 0.0)] * 80
    params = PolicyParameters(ApproximatorSpec(724), np.zeros(1448), cfg.sigma, cfg.family)
    for trees, skipped in (([], 81), ([Circle((66.0, 50.0), 0.5)], 40)):
        world = World(None, trees, (50.0, 50.0, 0.0), (50.0, 80.0), "obstacle_avoidance")
        calls.clear()
        traj = scripted_rollout(world, actions, cfg)
        poses = _driven_poses(world, actions, len(traj), cfg.env)
        assert calls == [(x, y) for x, y, _ in poses[skipped:]]
        assert traj.features[:skipped, 4:].tobytes() == np.full((min(skipped, 80), 720), 1.0).tobytes()
        want = reference_rollout(world, params, cfg, len(actions), np.asarray(actions))
        for name in ("features", "raw_actions", "rewards", "z"):
            assert getattr(traj, name).tobytes() == getattr(want, name).tobytes(), name
