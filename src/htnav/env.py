"""Differential-drive navigation environment over procedural worlds.

Unicycle kinematics, grounded on the heightmap in ``uneven_terrain`` and
level on the flat scenarios' ground, an optional 360-degree range scan,
scenario-specific observations, sparse rewards, and termination logic.
Dynamics are purely kinematic and fully deterministic: the only
randomness in a rollout comes from the policy.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import rewards as rw
from .geometry import bounds_walls, obstacles_in_range, scan_ranges, wrap_angle
from .terrain import pose_from_terrain
from .typecheck import check_fields
from .world import World

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


class NavEnv:
    """One rollout's worth of simulation state.

    Owns the pose ``(x, y, psi, z, roll, pitch)``, whose last three are 0.0
    on flat ground, the step counter, and the per-episode reward latches,
    plus the goal distance, heading offset and (obstacle scenario only)
    scan of the latest observation.  The world boundary acts as a wall:
    positions clamp to the bounds and the scanner sees the four boundary
    segments.
    """

    def __init__(
        self,
        world: World,
        env_cfg: EnvConfig | None = None,
        reward_cfg: rw.RewardConfig | None = None,
        max_steps: int = 300,
    ):
        if max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {max_steps}")
        self.world = world
        self.cfg = env_cfg or EnvConfig()
        self.reward_cfg = reward_cfg or rw.RewardConfig()
        self.max_steps = max_steps
        self.scenario = world.scenario
        self._scan_obstacles = []  # what the scan can hit; only obstacle_avoidance scans
        if self.scenario == "obstacle_avoidance":
            self._scan_obstacles = list(world.obstacles) + bounds_walls(world.bounds)
        self._cull_anchor = (math.nan, math.nan)
        self._near_obstacles: list = []
        self.pose: tuple[float, float, float, float, float, float] | None = None
        self.steps = 0
        self.reward_state: rw.EpisodeRewardState | None = None
        self.d_goal = math.nan
        self.alpha_goal = math.nan
        self.scan: np.ndarray | None = None

    def _observe(self, pose, a0: float, a1: float) -> np.ndarray:
        """Refresh d_goal, alpha_goal (and scan) at ``pose``; return the scaled features.

        Features are d/20, alpha/pi and the previous action ``(a0, a1)``,
        followed by the scan over 10 (obstacle_avoidance) or roll and pitch
        over pi/2 (uneven_terrain).
        """
        x, y, psi, _, roll, pitch = pose
        gx, gy = self.world.goal
        dx = gx - x
        dy = gy - y
        self.d_goal = d = math.hypot(dx, dy)
        self.alpha_goal = alpha = wrap_angle(math.atan2(dy, dx) - psi)
        base = [d / D_GOAL_SCALE, alpha / math.pi, a0, a1]
        if self.scenario == "obstacle_avoidance":
            ax, ay = self._cull_anchor
            if not math.hypot(x - ax, y - ay) <= SCAN_CULL_SLACK:
                self._cull_anchor = (x, y)
                self._near_obstacles = obstacles_in_range(
                    x, y, self._scan_obstacles, self.cfg.scan_max_range, SCAN_CULL_SLACK
                )
            self.scan = scan_ranges(
                (x, y),
                psi,
                self._near_obstacles,
                n_rays=self.cfg.n_scan_rays,
                max_range=self.cfg.scan_max_range,
            )
            return np.concatenate([base, self.scan / 10.0])
        if self.scenario == "uneven_terrain":
            base += [roll / TILT_SCALE, pitch / TILT_SCALE]
        return np.array(base)

    def _ground(self, x: float, y: float, psi: float) -> tuple[float, float, float, float, float, float]:
        """The full pose at a planar pose: level on flat ground, else from the terrain."""
        if self.world.heightmap is None:
            return x, y, psi, 0.0, 0.0, 0.0
        return pose_from_terrain(self.world.heightmap, x, y, psi)

    def reset(self) -> np.ndarray:
        """Place the robot at the start pose; returns the first feature vector."""
        self.pose = self._ground(*self.world.start_pose)
        self.steps = 0
        features = self._observe(self.pose, 0.0, 0.0)
        self.reward_state = rw.EpisodeRewardState(initial_distance=self.d_goal)
        return features

    def step(self, action) -> tuple[np.ndarray, float, str]:
        """Advance one tick with an already-projected action ``(v, omega)`` in [-delta, delta]^2.

        Returns the next feature vector, the reward (the sum of the
        scenario's terms) and the cause, which is "running" until the
        episode ends.
        """
        if self.pose is None:
            raise RuntimeError("call reset() before step()")
        a0, a1 = action
        cfg = self.cfg
        x, y, psi = self.pose[0], self.pose[1], self.pose[2]
        # unicycle kinematics: the commands are the action scaled by the limits
        v = a0 * cfg.v_max
        x = x + v * math.cos(psi) * cfg.dt
        y = y + v * math.sin(psi) * cfg.dt
        psi = wrap_angle(psi + a1 * cfg.omega_max * cfg.dt)
        # the boundary is a wall: clamp as min(max(x, x0), x1) does
        x0, y0, x1, y1 = self.world.bounds
        x = x0 if x0 > x else x
        x = x1 if x1 < x else x
        y = y0 if y0 > y else y
        y = y1 if y1 < y else y
        self.pose = pose = self._ground(x, y, psi)
        self.steps += 1
        features = self._observe(pose, a0, a1)

        rcfg = self.reward_cfg
        heading = rw.r_heading(self.alpha_goal, rcfg)
        dist, self.reward_state = rw.r_dist(self.d_goal, self.reward_state, rcfg, cfg.goal_radius)
        obs_pen = stable_pen = 0.0
        closest = math.inf
        roll, pitch = pose[4], pose[5]
        if self.scenario == "obstacle_avoidance":
            closest = float(self.scan.min())
            obs_pen = rw.r_obs(closest, cfg.d_collision, rcfg)
        elif self.scenario == "uneven_terrain":
            stable_pen = rw.r_stable(roll, pitch, rcfg)
        # a scenario's missing terms are +0.0; heading (+0.0 or 1.0) comes
        # first, so the sum is never -0.0 and adding them changes no bits
        reward = heading + dist + obs_pen + stable_pen

        cause = "running"
        if self.d_goal <= cfg.goal_radius:
            cause = "goal"
        elif closest <= cfg.d_collision:
            cause = "collision"
        elif self.scenario == "uneven_terrain" and (
            abs(roll) >= cfg.flip_threshold or abs(pitch) >= cfg.flip_threshold
        ):
            cause = "flip_over"
        elif self.steps >= self.max_steps:
            cause = "timeout"
        return features, reward, cause
