"""The episode loop: differential-drive navigation over procedural worlds.

``rollout`` is the simulator.  Unicycle kinematics, grounded on the
heightmap in ``uneven_terrain`` and level on the flat scenarios' ground,
an optional 360-degree range scan, scenario-specific observations,
sparse rewards and termination logic all run in its one loop, which keeps
the episode's state in locals.  Dynamics are purely kinematic and fully
deterministic: the only randomness in a rollout comes from the policy.
"""

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from . import rewards as rw
from .geometry import bounds_walls, obstacles_in_range, scan_ranges, wrap_angle
from .policy import PolicyParameters, forward_mean, project_action
from .terrain import pose_from_terrain
from .trajectory import Trajectory
from .typecheck import check_fields
from .world import World

if TYPE_CHECKING:
    from .config import TrainConfig

# feature scaling constants: the policy consumes O(1) inputs
D_GOAL_SCALE = 20.0
TILT_SCALE = math.pi / 2

# The scan reads the obstacles that a cull with this slack keeps around an
# anchor, re-culled when the robot is more than this far from it (20 steps
# at v_max * dt = 0.1 m).  The scan stays exact: scan_ranges still applies
# the exact cull, and a slack this far above rounding keeps everything
# that cull could keep from within the slack (geometry._beyond_range).
SCAN_CULL_SLACK = 2.0


@dataclass
class EnvConfig:
    v_max: float = 1.0
    omega_max: float = 1.0
    dt: float = 0.1
    goal_radius: float = 1.0
    d_collision: float = 0.5
    flip_threshold: float = math.pi / 3
    n_scan_rays: int = 720
    scan_max_range: float = 10.0

    def __post_init__(self):
        check_fields(self, [([f.name for f in fields(self)], lambda v: v > 0, "positive")])


def observation_dim(scenario: str, n_scan_rays: int = 720) -> int:
    return {"goal_reaching": 4, "obstacle_avoidance": 4 + n_scan_rays, "uneven_terrain": 6}[scenario]


def rollout(
    world: World,
    params: PolicyParameters,
    cfg: "TrainConfig",
    steps: int,
    noise: np.ndarray | None = None,
) -> Trajectory:
    """Run one episode for at most ``steps`` steps.

    The robot starts at ``world.start_pose``.  The raw action at step t is
    mu(s) plus ``noise[t]``, or mu(s) alone when ``noise`` is None; its
    projection onto [-delta, delta]^2 is what the robot executes.  A step
    moves the robot by unicycle kinematics, clamps it to the bounds (the
    boundary is a wall), grounds it on the terrain or keeps it level,
    observes, and pays the sum of the scenario's reward terms.  The
    features are d/20, alpha/pi and the previous executed action, followed
    by the scan over 10 (obstacle_avoidance) or roll and pitch over pi/2
    (uneven_terrain).  The episode ends on reaching the goal, else on a
    collision, else on flipping over, else at ``cfg.max_steps`` steps.
    Training and evaluation both step episodes through here.
    """
    env, rcfg = cfg.env, cfg.rewards
    max_steps = cfg.max_steps
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    scenario = world.scenario
    scanning = scenario == "obstacle_avoidance"
    tilting = scenario == "uneven_terrain"
    hm = world.heightmap  # None on flat ground
    gx, gy = world.goal
    x0, y0, x1, y1 = world.bounds
    v_max, omega_max, dt = env.v_max, env.omega_max, env.dt
    goal_radius, d_collision, flip = env.goal_radius, env.d_collision, env.flip_threshold
    delta = cfg.delta
    if scanning:
        # what the scan can hit, the obstacles near the cull anchor, the anchor
        # and the range of a ray that hits nothing
        scan_obstacles = list(world.obstacles) + bounds_walls(world.bounds)
        near: list = []
        ax = ay = math.nan
        far = float(env.scan_max_range)
    n = min(steps, max_steps)
    width = observation_dim(scenario, env.n_scan_rays)
    # Each step's outputs are written in place, through flat memoryviews
    # for single floats.  Features have a row per step and one for the
    # observation after the last step, which is made for that step's reward
    # and end test but never acted on; heights have one more entry than steps.
    feats = np.empty((n + 1, width))
    raws = np.empty((n, 2))
    rewards = np.empty(n)
    zs = np.empty(n + 1)
    cells, raw_cells, paid, heights = (memoryview(a.reshape(-1)) for a in (feats, raws, rewards, zs))
    rows = noise.tolist() if noise is not None else None
    cause = "running"
    px, py, psi = world.start_pose
    z = roll = pitch = 0.0
    if hm is not None:
        px, py, psi, z, roll, pitch = pose_from_terrain(hm, px, py, psi)
    a0 = a1 = 0.0
    # the names each step calls, looked up once
    hypot, atan2, cos, sin, pi = math.hypot, math.atan2, math.cos, math.sin, math.pi
    r_heading, r_dist, policy_mean, project, wrap = rw.r_heading, rw.r_dist, forward_mean, project_action, wrap_angle
    for t in range(n + 1):
        # observe at (px, py, psi): goal distance, heading offset wrapped
        # into (-pi, pi], then the scan or tilt
        dx = gx - px
        dy = gy - py
        d = hypot(dx, dy)
        alpha = wrap(atan2(dy, dx) - psi)
        k = t * width
        cells[k] = d / D_GOAL_SCALE
        cells[k + 1] = alpha / pi
        cells[k + 2] = a0
        cells[k + 3] = a1
        closest = math.inf
        if scanning:
            if not math.hypot(px - ax, py - ay) <= SCAN_CULL_SLACK:
                ax, ay = px, py
                near = obstacles_in_range(px, py, scan_obstacles, env.scan_max_range, SCAN_CULL_SLACK)
            if near:
                scan = scan_ranges((px, py), psi, near, n_rays=env.n_scan_rays, max_range=env.scan_max_range)
                np.divide(scan, 10.0, out=feats[t, 4:])
                closest = float(scan.min())
            else:
                # scan_ranges of no obstacle is max_range on every ray (its
                # contract, which the tests check); not calling it saves ~6 us
                feats[t, 4:] = far / 10.0
                closest = far
        elif tilting:
            cells[k + 4] = roll / TILT_SCALE
            cells[k + 5] = pitch / TILT_SCALE
        heights[t] = z

        if t == 0:  # the start: milestones count from this distance
            state = rw.EpisodeRewardState(initial_distance=d)
        else:
            # a scenario's missing terms are left out: heading (+0.0 or 1.0)
            # comes first, so the sum is never -0.0 and adding +0.0 for them
            # would change no bits
            heading = r_heading(alpha, rcfg)
            dist, state = r_dist(d, state, rcfg, goal_radius)
            reward = heading + dist
            if scanning:
                reward += rw.r_obs(closest, d_collision, rcfg)
            elif tilting:
                reward += rw.r_stable(roll, pitch, rcfg)
            paid[t - 1] = reward
            if d <= goal_radius:
                cause = "goal"
            elif closest <= d_collision:
                cause = "collision"
            elif tilting and (abs(roll) >= flip or abs(pitch) >= flip):
                cause = "flip_over"
            elif t >= max_steps:
                cause = "timeout"
            if cause != "running":
                break
        if t == n:
            break

        # act: the policy reads the row just written
        m0, m1 = policy_mean(params, feats[t])
        if rows is not None:
            n0, n1 = rows[t]
            m0, m1 = m0 + n0, m1 + n1
        raw_cells[2 * t] = m0
        raw_cells[2 * t + 1] = m1
        a0, a1 = project((m0, m1), delta)
        # unicycle kinematics: the commands are the action scaled by the limits
        v = a0 * v_max
        px = px + v * cos(psi) * dt
        py = py + v * sin(psi) * dt
        psi = wrap(psi + a1 * omega_max * dt)
        # the boundary is a wall: clamp as min(max(x, x0), x1) does
        px = x0 if x0 > px else px
        px = x1 if x1 < px else px
        py = y0 if y0 > py else py
        py = y1 if y1 < py else py
        if hm is not None:
            px, py, psi, z, roll, pitch = pose_from_terrain(hm, px, py, psi)
    return Trajectory(
        features=feats[:t],
        raw_actions=raws[:t],
        rewards=rewards[:t],
        z=zs[: t + 1],
        final_cause=cause,
        final_distance=d,
    )
