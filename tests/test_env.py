import math

import numpy as np
import pytest

from htnav.env import EnvConfig, NavEnv, observation_dim
from htnav.geometry import Circle
from htnav.world import World, generate_world

from conftest import flat_heightmap, goal_geometry, kinematic_step


def flat_world(scenario="goal_reaching", start=(5.0, 5.0, 0.0), goal=(15.0, 5.0), obstacles=()):
    """A 40 m world; on ``uneven_terrain`` its heightmap is all zeros."""
    bounds = (0.0, 0.0, 40.0, 40.0)
    hm = flat_heightmap(40.0, cell_size=1.0) if scenario == "uneven_terrain" else None
    return World(
        heightmap=hm,
        obstacles=list(obstacles),
        start_pose=start,
        goal=goal,
        scenario=scenario,
        bounds=bounds,
    )


def test_kinematic_step_forward():
    cfg = EnvConfig()
    x, y, psi = kinematic_step(0.0, 0.0, 0.0, (1.0, 0.0), cfg)
    assert (x, y, psi) == pytest.approx((0.1, 0.0, 0.0))


def test_kinematic_step_turn_in_place():
    cfg = EnvConfig()
    x, y, psi = kinematic_step(0.0, 0.0, 0.0, (0.0, 1.0), cfg)
    assert (x, y, psi) == pytest.approx((0.0, 0.0, 0.1))


def test_kinematic_step_scales_with_limits():
    cfg = EnvConfig(v_max=2.0, omega_max=3.0, dt=0.5)
    x, y, psi = kinematic_step(1.0, 2.0, math.pi / 2, (1.0, -1.0), cfg)
    assert x == pytest.approx(1.0, abs=1e-12)
    assert y == pytest.approx(3.0)
    assert psi == pytest.approx(math.pi / 2 - 1.5)


def test_goal_geometry_example():
    d, alpha = goal_geometry(0.0, 0.0, 0.0, (3.0, 4.0))
    assert d == pytest.approx(5.0)
    assert alpha == pytest.approx(math.atan2(4.0, 3.0))


def test_goal_geometry_heading_offset_wraps():
    # facing away from the goal: offset must wrap into (-pi, pi]
    d, alpha = goal_geometry(0.0, 0.0, math.pi, (1.0, 0.0))
    assert d == pytest.approx(1.0)
    assert abs(alpha) == pytest.approx(math.pi)


@pytest.mark.parametrize(
    "scenario,expected",
    [("goal_reaching", 4), ("obstacle_avoidance", 724), ("uneven_terrain", 6)],
)
def test_observation_dims(scenario, expected):
    assert observation_dim(scenario) == expected
    world = generate_world(scenario, 0)
    env = NavEnv(world)
    assert env.reset().shape == (expected,)
    features, _, _ = env.step((0.0, 0.0))
    assert features.shape == (expected,)


def test_feature_scaling():
    world = flat_world(start=(5.0, 5.0, 0.0), goal=(15.0, 5.0))
    env = NavEnv(world)
    feats = env.reset()
    assert env.d_goal == pytest.approx(10.0)
    assert env.alpha_goal == pytest.approx(0.0)
    assert feats[0] == pytest.approx(10.0 / 20.0)
    assert feats[1] == pytest.approx(0.0)
    np.testing.assert_array_equal(feats[2:], [0.0, 0.0])


def test_prev_action_appears_in_next_observation():
    env = NavEnv(flat_world())
    env.reset()
    features, _, _ = env.step((0.25, -0.5))
    np.testing.assert_array_equal(features[2:4], [0.25, -0.5])
    features, _, _ = env.step((-1.0, 0.75))
    np.testing.assert_array_equal(features[2:4], [-1.0, 0.75])


def test_step_before_reset_raises():
    env = NavEnv(flat_world())
    with pytest.raises(RuntimeError):
        env.step((0.0, 0.0))


def test_goal_termination():
    # start 1.05 m short of the goal edge; one full-speed step covers 0.1 m
    world = flat_world(start=(13.95, 5.0, 0.0), goal=(15.0, 5.0))
    env = NavEnv(world)
    env.reset()
    _, _, cause = env.step((1.0, 0.0))
    assert cause == "goal"


def test_timeout_termination():
    env = NavEnv(flat_world(), max_steps=3)
    env.reset()
    for _ in range(2):
        _, _, cause = env.step((0.0, 0.0))
        assert cause == "running"
    _, _, cause = env.step((0.0, 0.0))
    assert cause == "timeout"


def test_collision_termination():
    wall = Circle(center=(6.0, 5.0), radius=0.6)
    world = flat_world(scenario="obstacle_avoidance", obstacles=[wall])
    env = NavEnv(world)
    env.reset()
    _, reward, cause = env.step((1.0, 0.0))
    # scan from x=5.1 sees the circle face at 0.3 <= d_collision
    assert float(env.scan.min()) == pytest.approx(0.3)
    assert cause == "collision"
    # facing the goal pays the heading's 1.0, no milestone pays, and the
    # collision costs 100
    assert reward == 1.0 - 100.0


def test_goal_beats_collision():
    # goal circle and obstacle both triggered on the same step
    wall = Circle(center=(6.0, 5.0), radius=0.6)
    world = flat_world(
        scenario="obstacle_avoidance", start=(5.0, 5.0, 0.0), goal=(5.5, 5.0), obstacles=[wall]
    )
    env = NavEnv(world)
    env.reset()
    _, _, cause = env.step((1.0, 0.0))
    assert env.d_goal <= 1.0
    assert float(env.scan.min()) <= 0.5
    assert cause == "goal"


def test_bounds_clamp():
    world = flat_world(start=(0.05, 5.0, math.pi), goal=(30.0, 30.0))
    env = NavEnv(world)
    env.reset()
    _, _, cause = env.step((1.0, 0.0))
    # driving into the west wall parks the robot on the boundary
    assert env.pose[0] == 0.0
    assert cause == "running"


@pytest.mark.parametrize(
    "start,parked",
    [
        ((0.05, 5.0, math.pi), (0.0, 5.0)),
        ((39.95, 5.0, 0.0), (40.0, 5.0)),
        ((5.0, 0.05, -math.pi / 2), (5.0, 0.0)),
        ((5.0, 39.95, math.pi / 2), (5.0, 40.0)),
    ],
)
def test_every_wall_clamps(start, parked):
    env = NavEnv(flat_world(start=start, goal=(20.0, 20.0)))
    env.reset()
    env.step((1.0, 0.0))
    assert env.pose[:2] == parked


def test_heading_reward_tracks_cone():
    world = flat_world(start=(5.0, 5.0, 0.0), goal=(15.0, 5.0))
    env = NavEnv(world)
    env.reset()
    _, reward, _ = env.step((0.0, 0.0))
    assert reward == 1.0
    aimed_away = flat_world(start=(5.0, 5.0, math.pi), goal=(15.0, 5.0))
    env = NavEnv(aimed_away)
    env.reset()
    _, reward, _ = env.step((0.0, 0.0))
    assert reward == 0.0


def test_distance_milestones_latch_once():
    # spawn 10 m out, warp to halfway by driving; half-distance bonus pays once
    world = flat_world(start=(5.0, 5.0, 0.0), goal=(15.0, 5.0))
    env = NavEnv(world, max_steps=1000)
    env.reset()
    paid = []
    for _ in range(120):
        _, reward, cause = env.step((1.0, 0.0))
        # facing the goal, every step pays the heading's 1.0
        if reward != 1.0:
            paid.append(reward - 1.0)
        if cause != "running":
            break
    assert paid == [50.0, 100.0]
    assert cause == "goal"


def test_flat_world_never_flips():
    world = flat_world(scenario="uneven_terrain")
    env = NavEnv(world, max_steps=50)
    env.reset()
    features, reward, cause = env.step((1.0, 0.5))
    np.testing.assert_array_equal(features[4:], [0.0, 0.0])
    assert reward == 1.0  # the heading alone: no tilt penalty
    assert cause == "running"


def test_env_rejects_bad_max_steps():
    with pytest.raises(ValueError):
        NavEnv(flat_world(), max_steps=0)


def test_env_config_validation():
    with pytest.raises(ValueError):
        EnvConfig(v_max=0.0)
    with pytest.raises(ValueError):
        EnvConfig(dt=-0.1)
    with pytest.raises(ValueError):
        EnvConfig(n_scan_rays=0)
    for bad in (-3.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="scan_max_range"):
            EnvConfig(scan_max_range=bad)
