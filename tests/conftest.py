import contextlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import settings

from htnav import rewards as rw
from htnav.config import TrainConfig
from htnav.env import D_GOAL_SCALE, TILT_SCALE, observation_dim, rollout
from htnav.geometry import bounds_walls, scan_ranges, wrap_angle
from htnav.net import ApproximatorSpec, backward_batch, forward_batch
from htnav.policy import PolicyParameters, dlogp_dmean, forward_mean
from htnav.terrain import Heightmap, _elevations, pose_from_terrain
from htnav.trajectory import Trajectory
from htnav.training import usable_cpus

# `pytest --hypothesis-profile=scan-oracle` runs the oracle tests (the
# scans of tests/test_geometry.py, the terrain lookups of
# tests/test_terrain.py, the lazily built terrain of tests/test_world.py, the
# rollout of tests/test_training.py and the policy mean of
# tests/test_policy.py) on ten times their usual number of examples (a CI
# step).
settings.register_profile("scan-oracle", max_examples=1000)


def oracle_settings(max_examples):
    """``max_examples`` examples, times the loaded profile's over hypothesis's default of 100.

    The default profile runs each oracle test at its own count; the
    ``scan-oracle`` profile runs ten times as many.
    """
    scale = max(1, settings.default.max_examples // 100)
    return settings(max_examples=max_examples * scale, deadline=None)


# A wide heading cone, long steps, a big collision radius and a low tilt
# threshold make the heading, collision and tilt terms fire within 40
# steps.  At the defaults, runs that short earn 0 reward in every
# scenario, so their gradients are 0 and the weights never move.
LIVELY = {
    "rewards.angle_threshold": 1.5,
    "rewards.tilt_threshold": 0.03,
    "env.d_collision": 2.0,
    "env.dt": 0.5,
}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_params(input_dim=4, hidden=(), sigma=0.25, family="cauchy", seed=0, scale=0.5):
    """Small random policy for unit tests; weights are N(0, scale)."""
    spec = ApproximatorSpec(input_dim=input_dim, hidden_layers=hidden)
    r = np.random.default_rng(seed)
    weights = scale * r.standard_normal(spec.num_weights)
    return PolicyParameters(spec=spec, weights=weights, sigma=sigma, family=family)


LOG_2PI = float(np.log(2.0 * np.pi))


def log_density(params, obs, action) -> float:
    """Log-density of a raw action under the policy, summed over dimensions.

    The oracle that ``score`` is checked against by finite differences.
    """
    z = (np.asarray(action, dtype=float) - forward_mean(params, obs)) / params.sigma
    if params.family == "cauchy":
        per_dim = -np.log(np.pi * params.sigma) - np.log1p(z**2)
    else:
        per_dim = -0.5 * (LOG_2PI + 2.0 * np.log(params.sigma)) - 0.5 * z**2
    return float(per_dim.sum())


def score(params, obs, action) -> np.ndarray:
    """Gradient of log pi(action | obs) with respect to the flat weights, one step.

    The single-step target that ``policy.weighted_score_sum`` and the
    estimator are checked against.
    """
    obs = np.asarray(obs, dtype=float)
    mu, acts = forward_batch(params.layers, obs[None, :])
    dmu = dlogp_dmean(params, mu[0], action)
    return backward_batch(params.layers, acts, dmu[None, :])


def elevation_at(hm: Heightmap, x: float, y: float) -> float:
    """Bilinear elevation at one point, border-clamped: the ``z`` lookup of ``pose_from_terrain``."""
    return _elevations(hm, ((x, y),))[0]


def flat_heightmap(size: float, cell_size: float = 1.0, origin=(0.0, 0.0)) -> Heightmap:
    """All-zero square grid spanning ``[0, size]`` from ``origin``."""
    n = int(round(size / cell_size)) + 1
    return Heightmap(cell_size=cell_size, elevations=np.zeros((n, n)), origin=origin)


def use_workers(monkeypatch, n):
    """Make ``map_jobs`` see ``n`` usable CPUs; with 1, every job runs in this process.

    The ``n`` CPUs cycle through the real ones, so where ``n`` is more than
    the host has, some processes are placed on the same CPU.  Tests that
    record calls in this process pin 1: calls made in a worker process are
    not seen here.
    """
    cpus = usable_cpus()
    monkeypatch.setattr("htnav.training.usable_cpus", lambda: [cpus[k % len(cpus)] for k in range(n)])


@contextlib.contextmanager
def worker_only(fault, real):
    """Yield a function that calls ``fault`` in a forked worker and ``real`` in this process.

    Its first call in this process waits until a forked worker has called
    ``fault``, so with two usable CPUs and at least two jobs the fault is
    certain to happen in the forked worker, and only there.
    """
    parent = os.getpid()
    signal_r, signal_w = os.pipe()
    waited = []

    def fn(*args):
        if os.getpid() != parent:
            os.write(signal_w, b"x")
            return fault(*args)
        if not waited:
            waited.append(os.read(signal_r, 1))
        return real(*args)

    try:
        yield fn
    finally:
        os.close(signal_r)
        os.close(signal_w)


def assert_no_child_left():
    """No child process of this one is left, running or unreaped.

    ``os.waitpid(-1, WNOHANG)`` sees every child, raw forks included: it
    raises ``ChildProcessError`` only when there is none.
    """
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def world_fields(world):
    """Everything that makes a world, for field-by-field equality.

    Elevations enter as the grid shape plus their raw bytes, so one ulp or
    a -0.0 counts as a difference; flat ground has no heightmap.
    """
    hm = world.heightmap
    terrain = None
    if hm is not None:
        terrain = (hm.cell_size, hm.origin, hm.elevations.shape, hm.elevations.tobytes())
    return (world.scenario, world.bounds, world.start_pose, world.goal, world.obstacles, terrain)


def assert_manifest_lists_dir(out):
    """The run directory holds exactly the manifest and the files it lists."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"] == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    return manifest


def scripted_rollout(world, actions, cfg=None) -> Trajectory:
    """``rollout`` on ``world`` executing ``actions``, one ``(v, omega)`` row per step.

    The policy is linear with all-zero weights, so its mean is 0.0 and each
    raw action is its noise row: the wanted action, which the projection
    keeps when it lies in [-delta, delta]^2.  ``cfg`` defaults to
    ``TrainConfig``'s defaults; the episode may end before the actions do.
    """
    cfg = cfg or TrainConfig(scenario=world.scenario)
    spec = ApproximatorSpec(input_dim=observation_dim(world.scenario, cfg.env.n_scan_rays))
    params = PolicyParameters(spec=spec, weights=np.zeros(spec.num_weights), sigma=cfg.sigma, family=cfg.family)
    noise = np.asarray(actions, dtype=float).reshape(-1, 2)
    return rollout(world, params, cfg, noise.shape[0], noise)


# The reference rollout: the step arithmetic of the episode loop
# (env.rollout) written out plainly, one helper per stage, with numpy
# actions and no pre-culled scan.  The rollout must match it byte for byte.


def kinematic_step(x: float, y: float, psi: float, action, cfg) -> tuple[float, float, float]:
    """Unicycle update: commands are the projected action scaled by the limits."""
    v = float(action[0]) * cfg.v_max
    w = float(action[1]) * cfg.omega_max
    nx = x + v * math.cos(psi) * cfg.dt
    ny = y + v * math.sin(psi) * cfg.dt
    return nx, ny, wrap_angle(psi + w * cfg.dt)


def goal_geometry(x: float, y: float, psi: float, goal) -> tuple[float, float]:
    """Planar distance to the goal and the signed heading offset in (-pi, pi]."""
    dx = goal[0] - x
    dy = goal[1] - y
    return math.hypot(dx, dy), wrap_angle(math.atan2(dy, dx) - psi)


def _reference_pose(world, x, y, psi):
    if world.heightmap is None:
        return x, y, psi, 0.0, 0.0, 0.0
    return pose_from_terrain(world.heightmap, x, y, psi)


def _reference_observe(world, cfg, pose, prev_action):
    """(features, d_goal, alpha_goal, scan); the scan ray-tests every obstacle
    and boundary wall, with no pre-cull."""
    x, y, psi, _, roll, pitch = pose
    d, alpha = goal_geometry(x, y, psi, world.goal)
    base = [d / D_GOAL_SCALE, alpha / math.pi, float(prev_action[0]), float(prev_action[1])]
    scan = None
    if world.scenario == "obstacle_avoidance":
        obstacles = list(world.obstacles) + bounds_walls(world.bounds)
        scan = scan_ranges(
            (x, y), psi, obstacles, n_rays=cfg.env.n_scan_rays, max_range=cfg.env.scan_max_range
        )
        return np.concatenate([base, scan / 10.0]), d, alpha, scan
    if world.scenario == "uneven_terrain":
        base += [roll / TILT_SCALE, pitch / TILT_SCALE]
    return np.asarray(base), d, alpha, scan


def reference_rollout(world, params, cfg, steps, noise=None) -> Trajectory:
    """``training.rollout`` for the same arguments, from the reference step."""
    env, rcfg = cfg.env, cfg.rewards
    pose = _reference_pose(world, *world.start_pose)
    x, d, alpha, scan = _reference_observe(world, cfg, pose, (0.0, 0.0))
    state = rw.EpisodeRewardState(initial_distance=d)
    zs = [pose[3]]
    feats, raws, rewards = [], [], []
    cause = "running"
    for t in range(steps):
        mu, _ = forward_batch(params.layers, x[None, :])
        raw = mu[0]
        if noise is not None:
            raw = raw + noise[t]
        feats.append(x)
        raws.append(raw)
        lo = -cfg.delta
        action = np.array([lo if v < lo else cfg.delta if v > cfg.delta else v for v in raw.tolist()])
        nx, ny, npsi = kinematic_step(*pose[:3], action, env)
        x0, y0, x1, y1 = world.bounds
        pose = _reference_pose(world, min(max(nx, x0), x1), min(max(ny, y0), y1), npsi)
        roll, pitch = pose[4:]
        x, d, alpha, scan = _reference_observe(world, cfg, pose, action)
        heading = rw.r_heading(alpha, rcfg)
        dist, state = rw.r_dist(d, state, rcfg, env.goal_radius)
        obs_pen = stable_pen = 0.0
        closest = math.inf
        if world.scenario == "obstacle_avoidance":
            closest = float(scan.min())
            obs_pen = rw.r_obs(closest, env.d_collision, rcfg)
        if world.scenario == "uneven_terrain":
            stable_pen = rw.r_stable(roll, pitch, rcfg)
        rewards.append(heading + dist + obs_pen + stable_pen)
        zs.append(pose[3])
        if d <= env.goal_radius:
            cause = "goal"
        elif closest <= env.d_collision:
            cause = "collision"
        elif world.scenario == "uneven_terrain" and (
            abs(roll) >= env.flip_threshold or abs(pitch) >= env.flip_threshold
        ):
            cause = "flip_over"
        elif t + 1 >= cfg.max_steps:
            cause = "timeout"
        if cause != "running":
            break
    return Trajectory(
        features=np.asarray(feats),
        raw_actions=np.asarray(raws),
        rewards=np.asarray(rewards),
        z=np.asarray(zs),
        final_cause=cause,
        final_distance=d,
    )
