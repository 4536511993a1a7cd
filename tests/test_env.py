import math
from dataclasses import replace

import numpy as np
import pytest

from htnav.config import TrainConfig
from htnav.env import EnvConfig, observation_dim, rollout
from htnav.geometry import Circle
from htnav.training import initial_params
from htnav.world import World, generate_world

from conftest import flat_heightmap, goal_geometry, kinematic_step, scripted_rollout


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
    traj = scripted_rollout(generate_world(scenario, 0), [(0.0, 0.0)] * 2)
    # the observation at reset and the one after the first step
    assert traj.features.shape == (2, expected)


def test_feature_scaling():
    world = flat_world(start=(5.0, 5.0, 0.0), goal=(15.0, 5.0))
    traj = scripted_rollout(world, [(0.0, 0.0)])
    assert traj.final_distance == pytest.approx(10.0)
    feats = traj.features[0]
    assert feats[0] == pytest.approx(10.0 / 20.0)
    assert feats[1] == pytest.approx(0.0)
    np.testing.assert_array_equal(feats[2:], [0.0, 0.0])


def test_prev_action_appears_in_next_observation():
    traj = scripted_rollout(flat_world(), [(0.25, -0.5), (-1.0, 0.75), (0.0, 0.0)])
    np.testing.assert_array_equal(traj.features[1, 2:4], [0.25, -0.5])
    np.testing.assert_array_equal(traj.features[2, 2:4], [-1.0, 0.75])


def test_goal_termination():
    # start 1.05 m short of the goal edge; one full-speed step covers 0.1 m
    world = flat_world(start=(13.95, 5.0, 0.0), goal=(15.0, 5.0))
    traj = scripted_rollout(world, [(1.0, 0.0)] * 3)
    assert traj.final_cause == "goal"
    assert len(traj) == 1


def test_timeout_termination():
    cfg = TrainConfig(max_steps=3)
    traj = scripted_rollout(flat_world(), [(0.0, 0.0)] * 2, cfg)
    assert (len(traj), traj.final_cause) == (2, "running")
    traj = scripted_rollout(flat_world(), [(0.0, 0.0)] * 5, cfg)
    assert (len(traj), traj.final_cause) == (3, "timeout")


def test_collision_termination():
    wall = Circle(center=(6.0, 5.0), radius=0.6)
    world = flat_world(scenario="obstacle_avoidance", obstacles=[wall])
    traj = scripted_rollout(world, [(1.0, 0.0)] * 3)
    # from x=5.0 the scan sees the circle face at 0.4; one step on, at
    # x=5.1, it is 0.3 <= d_collision
    assert float(traj.features[0, 4:].min()) * 10.0 == pytest.approx(0.4)
    assert traj.final_cause == "collision"
    assert len(traj) == 1
    # facing the goal pays the heading's 1.0, no milestone pays, and the
    # collision costs 100
    assert traj.rewards[0] == 1.0 - 100.0


def test_goal_beats_collision():
    # the same step collides; with the goal beside it, it also reaches the goal
    wall = Circle(center=(6.0, 5.0), radius=0.6)
    far = flat_world(scenario="obstacle_avoidance", start=(5.0, 5.0, 0.0), goal=(15.0, 5.0), obstacles=[wall])
    assert scripted_rollout(far, [(1.0, 0.0)]).final_cause == "collision"
    near = replace(far, goal=(5.5, 5.0))
    traj = scripted_rollout(near, [(1.0, 0.0)])
    assert traj.final_distance <= 1.0
    assert traj.final_cause == "goal"


def _observed_at(x, y, psi, goal):
    """The d_goal and alpha features of an observation at ``(x, y, psi)``."""
    d, alpha = goal_geometry(x, y, psi, goal)
    return [d / 20.0, alpha / math.pi]


def test_bounds_clamp():
    world = flat_world(start=(0.05, 5.0, math.pi), goal=(30.0, 30.0))
    traj = scripted_rollout(world, [(1.0, 0.0), (0.0, 0.0)])
    # driving into the west wall parks the robot on the boundary
    _, _, psi = kinematic_step(0.05, 5.0, math.pi, (1.0, 0.0), EnvConfig())
    assert traj.features[1, :2].tolist() == _observed_at(0.0, 5.0, psi, world.goal)
    assert traj.final_cause == "running"


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
    world = flat_world(start=start, goal=(20.0, 20.0))
    traj = scripted_rollout(world, [(1.0, 0.0), (0.0, 0.0)])
    x, y, psi = kinematic_step(*start, (1.0, 0.0), EnvConfig())
    # the unclamped step leaves the arena; the observation is made on the wall
    assert not (0.0 <= x <= 40.0 and 0.0 <= y <= 40.0)
    assert traj.features[1, :2].tolist() == _observed_at(*parked, psi, world.goal)


def test_heading_reward_tracks_cone():
    world = flat_world(start=(5.0, 5.0, 0.0), goal=(15.0, 5.0))
    assert scripted_rollout(world, [(0.0, 0.0)]).rewards.tolist() == [1.0]
    aimed_away = flat_world(start=(5.0, 5.0, math.pi), goal=(15.0, 5.0))
    assert scripted_rollout(aimed_away, [(0.0, 0.0)]).rewards.tolist() == [0.0]


def test_distance_milestones_latch_once():
    # spawn 10 m out and drive at the goal; each milestone pays once
    world = flat_world(start=(5.0, 5.0, 0.0), goal=(15.0, 5.0))
    traj = scripted_rollout(world, [(1.0, 0.0)] * 120, TrainConfig(max_steps=1000))
    # facing the goal, every step pays the heading's 1.0
    paid = [reward - 1.0 for reward in traj.rewards.tolist() if reward != 1.0]
    assert paid == [50.0, 100.0]
    # the goal bonus falls on the last step: reaching the goal ends the episode
    assert traj.rewards[-1] == 101.0
    assert traj.final_cause == "goal"


def test_flat_world_never_flips():
    world = flat_world(scenario="uneven_terrain")
    traj = scripted_rollout(world, [(1.0, 0.5), (0.0, 0.0)], TrainConfig(max_steps=50))
    np.testing.assert_array_equal(traj.features[1, 4:], [0.0, 0.0])
    assert traj.rewards[0] == 1.0  # the heading alone: no tilt penalty
    assert traj.final_cause == "running"


def test_env_rejects_bad_max_steps():
    cfg = TrainConfig()
    params = initial_params(cfg, 0)
    cfg.max_steps = 0  # set past TrainConfig's own check
    with pytest.raises(ValueError, match="max_steps"):
        rollout(flat_world(), params, cfg, 5)


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
