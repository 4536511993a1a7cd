import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import htnav.world
from htnav.geometry import point_obstacle_clearance, wrap_angle
from htnav.terrain import Heightmap, pose_from_terrain
from htnav.world import (
    CERTIFY_TOL,
    SCENARIOS,
    GenerationError,
    WorldGenConfig,
    _grid_nodes,
    _hill_field,
    _place_start_goal,
    _separable_field,
    generate_world,
)

from conftest import elevation_at, oracle_settings, world_fields

# sha256 over repr((start_pose, goal, obstacles)) for seeds 0-19, recorded
# while flat worlds still built a 6-hill ripple heightmap.  Its 24 draws
# are still taken from the world stream; a slip there fails here first.
FLAT_WORLD_PINS = {
    "goal_reaching": "6e4f3f177008edefc6d4ee9bc197c5858575c1399694bcc03a855ebbf66ddf89",
    "obstacle_avoidance": "bc2c0cf58b4e4c7505a6e68f4139984ceeec46e60c62ebfcef2fbfb6d7db4e11",
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_same_seed_is_bit_identical(scenario):
    a = generate_world(scenario, 7)
    b = generate_world(scenario, 7)
    assert world_fields(a) == world_fields(b)


def test_different_seeds_differ():
    assert world_fields(generate_world("goal_reaching", 1)) != world_fields(
        generate_world("goal_reaching", 2)
    )


def test_goal_reaching_has_no_obstacles():
    assert generate_world("goal_reaching", 3).obstacles == []
    assert generate_world("uneven_terrain", 3).obstacles == []


def test_obstacle_avoidance_has_obstacles_with_clearance():
    world = generate_world("obstacle_avoidance", 5)
    assert len(world.obstacles) > 0
    cfg = WorldGenConfig()
    sx, sy, _ = world.start_pose
    for p in ((sx, sy), world.goal):
        for ob in world.obstacles:
            assert point_obstacle_clearance(p, ob) >= cfg.obstacle_clearance


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_uneven_terrain_elevation_gain_bounded(seed):
    world = generate_world("uneven_terrain", seed)
    z = world.heightmap.elevations
    gain = float(z.max() - z.min())
    assert gain <= 4.0 + 1e-9
    assert gain >= 2.5 - 1e-9


@pytest.mark.parametrize("cell_size", [0.7, 30.0, 45.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_terrain_nodes_lie_inside_the_bounds(seed, cell_size):
    # none of these cell sizes divides the 100 m arena
    cfg = WorldGenConfig(cell_size=cell_size)
    hm = generate_world("uneven_terrain", seed, cfg).heightmap
    x0, y0, x1, y1 = cfg.bounds
    ny, nx = hm.elevations.shape
    assert hm.origin == (x0, y0)
    xs = [x0 + i * cell_size for i in range(nx)]
    ys = [y0 + i * cell_size for i in range(ny)]
    assert xs[-1] <= x1 < xs[-1] + cell_size
    assert ys[-1] <= y1 < ys[-1] + cell_size
    # so the heights the arena can reach, its nodes among them, span the
    # rescaled gain, which lies within elevation_gain
    xs += np.linspace(x0, x1, 41).tolist()
    ys += np.linspace(y0, y1, 41).tolist()
    z = [elevation_at(hm, x, y) for x in xs for y in ys]
    low, high = cfg.elevation_gain
    assert low - 1e-9 <= max(z) - min(z) <= high + 1e-9


def test_dividing_cell_sizes_keep_their_last_node_on_the_bound():
    # 100 / (100 / 11) rounds to 10.999999999999998 cells
    for cell_size, nodes in ((0.5, 201), (1.0, 101), (0.1, 1001), (100.0 / 3.0, 4), (100.0 / 11.0, 12)):
        hm = generate_world("uneven_terrain", 0, WorldGenConfig(cell_size=cell_size)).heightmap
        assert hm.elevations.shape == (nodes, nodes), cell_size


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(SCENARIOS))
def test_start_goal_constraints(seed, scenario):
    cfg = WorldGenConfig()
    world = generate_world(scenario, seed, cfg)
    x0, y0, x1, y1 = world.bounds
    sx, sy, psi = world.start_pose
    gx, gy = world.goal
    assert x0 <= sx <= x1 and y0 <= sy <= y1
    assert x0 <= gx <= x1 and y0 <= gy <= y1
    d = math.dist((sx, sy), world.goal)
    assert cfg.separation[0] <= d <= cfg.separation[1]
    alpha = wrap_angle(math.atan2(gy - sy, gx - sx) - psi)
    assert abs(alpha) >= cfg.min_start_misalignment


@pytest.mark.parametrize("scenario", sorted(FLAT_WORLD_PINS))
def test_flat_worlds_pinned(scenario):
    digest = hashlib.sha256()
    for seed in range(20):
        world = generate_world(scenario, seed)
        digest.update(repr((world.start_pose, world.goal, world.obstacles)).encode())
    assert digest.hexdigest() == FLAT_WORLD_PINS[scenario]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_heightmap_exactly_on_uneven_terrain(scenario):
    world = generate_world(scenario, 11)
    uneven = scenario == "uneven_terrain"
    assert (world.heightmap is not None) == uneven
    other = None if uneven else generate_world("uneven_terrain", 11).heightmap
    message = f"heightmap must be {'given' if uneven else 'None'} on {scenario}"
    with pytest.raises(ValueError, match=message):
        replace(world, heightmap=other)


def test_generation_error_when_unsatisfiable():
    # separation longer than the region diagonal cannot be placed
    cfg = WorldGenConfig(separation=(500.0, 600.0), retries=20)
    with pytest.raises(GenerationError):
        generate_world("goal_reaching", 0, cfg)


def test_world_accepts_seed_sequence():
    ss = np.random.SeedSequence((4, 11, 0))
    a = generate_world("goal_reaching", ss)
    b = generate_world("goal_reaching", np.random.SeedSequence((4, 11, 0)))
    assert world_fields(a) == world_fields(b)



def _oracle_hill_field(xs, ys, centers, sigmas, amps) -> np.ndarray:
    """The full-grid meshgrid loop that ``_hill_field`` replaced: the bit-exact reference."""
    gx, gy = np.meshgrid(xs, ys)
    z = np.zeros_like(gx)
    for (cx, cy), s, a in zip(centers, sigmas, amps):
        z += a * np.exp(-((gx - cx) ** 2 + (gy - cy) ** 2) / (2.0 * s * s))
    return z


@st.composite
def _hills(draw):
    """Non-square grids at offset origins with 0-30 hills.

    Sigmas down to 0.05 cells push most nodes deep into exp's underflow
    and subnormal range; negative amplitudes make hills that cancel.
    """
    cell = draw(st.floats(0.05, 2.0))
    x0, y0 = draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0))
    xs = x0 + np.arange(draw(st.integers(1, 40))) * cell
    ys = y0 + np.arange(draw(st.integers(1, 40))) * cell
    n = draw(st.integers(0, 30))
    center = st.tuples(st.floats(x0 - 5.0, xs[-1] + 5.0), st.floats(y0 - 5.0, ys[-1] + 5.0))
    centers = np.array(draw(st.lists(center, min_size=n, max_size=n))).reshape(n, 2)
    sigmas = np.array(draw(st.lists(st.floats(0.05, 25.0), min_size=n, max_size=n)))
    amps = np.array(draw(st.lists(st.floats(-3.5, 3.5), min_size=n, max_size=n)))
    return xs, ys, centers, sigmas, amps


@settings(max_examples=300, deadline=None)
@given(_hills())
def test_hill_field_matches_oracle_bits(hills):
    got = _hill_field(*hills)
    want = _oracle_hill_field(*hills)
    assert got.shape == want.shape
    # bytes, so one ulp or a -0.0 counts
    assert got.tobytes() == want.tobytes()


def test_hill_field_matches_oracle_on_world_sized_grids():
    rng = np.random.default_rng(5)
    xs = ys = np.arange(201) * 0.5
    for n, sigma, amp in [(24, (1.2, 7.0), (0.5, 3.5)), (6, (8.0, 25.0), (-1.0, 1.0))]:
        for _ in range(5):
            hills = (
                np.column_stack([rng.uniform(0.0, 100.0, n), rng.uniform(0.0, 100.0, n)]),
                rng.uniform(*sigma, n),
                rng.uniform(*amp, n),
            )
            want = _oracle_hill_field(xs, ys, *hills)
            assert _hill_field(xs, ys, *hills).tobytes() == want.tobytes()


def _drawn_hills(seed, cfg):
    """The hill field ``generate_world`` draws for ``seed`` on ``cfg``'s grid,
    ``(xs, ys, centers, sigmas, amps)``, and the world's stream after it."""
    rng = np.random.default_rng(seed)
    x0, y0, x1, y1 = cfg.bounds
    nx, ny = map(int, _grid_nodes(cfg))
    n = htnav.world.N_HILLS
    centers = np.column_stack([rng.uniform(x0, x1, n), rng.uniform(y0, y1, n)])
    sigmas = rng.uniform(*htnav.world.HILL_SIGMA, n)
    amps = rng.uniform(*htnav.world.HILL_AMPLITUDE, n)
    return (x0 + np.arange(nx) * cfg.cell_size, y0 + np.arange(ny) * cfg.cell_size, centers, sigmas, amps), rng


def _eager_terrain(seed, cfg):
    """``(heightmap, start_pose, goal)`` of the uneven world of ``seed``, every
    node computed up front by the oracle field: the bit-exact reference."""
    hills, rng = _drawn_hills(seed, cfg)
    z = _oracle_hill_field(*hills)
    target = rng.uniform(*cfg.elevation_gain)
    gain = float(z.max() - z.min())
    if gain > 0.0:
        z = z * (target / gain)
    hm = Heightmap(cell_size=cfg.cell_size, elevations=z, origin=cfg.bounds[:2])
    start, goal = _place_start_goal("uneven_terrain", hm, [], cfg, rng)
    return hm, start, goal


def _assert_matches_eager(seed, cfg, lookups=0):
    """The lazily built world of ``seed`` holds the eager reference's bytes:
    its spawn, ``lookups`` poses read first, tile by tile, then the whole grid."""
    try:
        want, start, goal = _eager_terrain(seed, cfg)
    except GenerationError:
        with pytest.raises(GenerationError):
            generate_world("uneven_terrain", seed, cfg)
        return
    world = generate_world("uneven_terrain", seed, cfg)
    assert (world.start_pose, world.goal) == (start, goal)
    hm = world.heightmap
    x0, y0, x1, y1 = cfg.bounds
    rng = np.random.default_rng(seed)
    points = rng.uniform((x0 - 2.0, y0 - 2.0, -math.pi), (x1 + 2.0, y1 + 2.0, math.pi), (lookups, 3)).tolist()
    for x, y, psi in points:
        got = pose_from_terrain(hm, x, y, psi)
        assert [float.hex(v) for v in got] == [float.hex(v) for v in pose_from_terrain(want, x, y, psi)]
    grid = hm.elevations
    assert not np.isnan(grid).any()
    assert grid.tobytes() == want.elevations.tobytes()


TERRAIN_CONFIGS = [
    WorldGenConfig(),
    WorldGenConfig(cell_size=0.7),
    WorldGenConfig(cell_size=100.0 / 11.0),
    WorldGenConfig(bounds=(-30.0, 10.0, -8.0, 27.0), separation=(2.0, 8.0), cell_size=0.3),
    WorldGenConfig(bounds=(0.0, 0.0, 6.0, 6.0), separation=(2.0, 4.0), margin=0.5, elevation_gain=(0.5, 1.0)),
    WorldGenConfig(elevation_gain=(0.1, 9.0), min_start_misalignment=0.0),
]


@oracle_settings(30)
@given(st.integers(0, 2**32 - 1), st.sampled_from(TERRAIN_CONFIGS), st.integers(0, 300))
def test_lazy_terrain_matches_eager_bits(seed, cfg, lookups):
    # heights computed tile by tile, as lookups first read them, hold the
    # bits of the whole field computed up front, and so do the spawn and
    # every lookup
    _assert_matches_eager(seed, cfg, lookups)


def test_separable_field_certifies_far_under_its_tolerance():
    # the approximation that locates the extremes stays close to the exact
    # field on every node of 200 generated worlds
    worst = 0.0
    for seed in range(200):
        hills, _ = _drawn_hills(seed, WorldGenConfig())
        exact = _hill_field(*hills)
        worst = max(worst, float((np.abs(_separable_field(*hills) - exact) / exact).max()))
    assert worst <= CERTIFY_TOL / 100


@pytest.mark.parametrize(
    "name, value",
    [
        ("MAX_CANDIDATES", 0),  # more candidates than allowed
        ("MIN_CERTIFIED", math.inf),  # a field too low to certify
        ("HILL_SIGMA", (0.05, 0.2)),  # hills so narrow that most nodes underflow
        ("HILL_AMPLITUDE", (-1.0, 3.5)),  # terms that may be negative
    ],
)
def test_uncertified_fields_fall_back_to_every_node(monkeypatch, name, value):
    monkeypatch.setattr(htnav.world, name, value)
    verdicts = []
    certify = htnav.world._certified_extremes
    monkeypatch.setattr(
        htnav.world, "_certified_extremes", lambda *hills: verdicts.append(certify(*hills)) or verdicts[-1]
    )
    for seed in range(4):
        _assert_matches_eager(seed, WorldGenConfig(), lookups=50)
    assert verdicts == [None] * 4
