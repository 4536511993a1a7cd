import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htnav.geometry import point_obstacle_clearance, wrap_angle
from htnav.world import SCENARIOS, GenerationError, WorldGenConfig, generate_world

from conftest import world_fields


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


def test_flat_scenarios_are_nearly_flat():
    for scenario in ("goal_reaching", "obstacle_avoidance"):
        world = generate_world(scenario, 11)
        z = world.heightmap.elevations
        assert float(z.max() - z.min()) <= 2 * WorldGenConfig().ripple_amplitude + 1e-9


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

