"""Differential-drive navigation environment over procedural worlds.

Unicycle kinematics, grounded on the heightmap in ``uneven_terrain`` and
level on the flat scenarios' ground, an optional 360-degree range scan,
scenario-specific observations, sparse rewards, and termination logic.
Dynamics are purely kinematic and fully deterministic: the only
randomness in a rollout comes from the policy.
"""

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import rewards as rw
from .geometry import bounds_walls, obstacles_in_range, scan_ranges, wrap_angle
from .terrain import pose_from_terrain
from .typecheck import check_field_types
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
        check_field_types(self)
        # every env knob is a positive, finite number
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0 < value < math.inf:
                raise ValueError(f"{f.name} must be positive and finite, got {value}")


class RewardBreakdown(NamedTuple):
    heading: float
    dist: float
    obs: float
    stable: float
    total: float


def observation_dim(scenario: str, n_scan_rays: int = 720) -> int:
    return {"goal_reaching": 4, "obstacle_avoidance": 4 + n_scan_rays, "uneven_terrain": 6}[scenario]


def goal_geometry(x: float, y: float, psi: float, goal) -> tuple[float, float]:
    """Planar distance to the goal and the signed heading offset in (-pi, pi]."""
    dx = goal[0] - x
    dy = goal[1] - y
    d = math.hypot(dx, dy)
    alpha = wrap_angle(math.atan2(dy, dx) - psi)
    return d, alpha


def kinematic_step(
    x: float, y: float, psi: float, action, cfg: EnvConfig
) -> tuple[float, float, float]:
    """Unicycle update: commands are the projected action scaled by the limits."""
    v = float(action[0]) * cfg.v_max
    w = float(action[1]) * cfg.omega_max
    nx = x + v * math.cos(psi) * cfg.dt
    ny = y + v * math.sin(psi) * cfg.dt
    return nx, ny, wrap_angle(psi + w * cfg.dt)


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
        self._scan_obstacles = list(world.obstacles) + bounds_walls(world.bounds)
        self._cull_anchor = (math.nan, math.nan)
        self._near_obstacles: list = []
        self.pose: tuple[float, float, float, float, float, float] | None = None
        self.steps = 0
        self.reward_state: rw.EpisodeRewardState | None = None
        self.d_goal = math.nan
        self.alpha_goal = math.nan
        self.scan: np.ndarray | None = None

    def _observe(self, prev_action) -> np.ndarray:
        """Refresh d_goal, alpha_goal (and scan) at the pose; return the scaled features.

        Features are d/20, alpha/pi and the previous action, followed by
        the scan over 10 (obstacle_avoidance) or roll and pitch over pi/2
        (uneven_terrain).
        """
        x, y, psi, _, roll, pitch = self.pose
        self.d_goal, self.alpha_goal = goal_geometry(x, y, psi, self.world.goal)
        base = [
            self.d_goal / D_GOAL_SCALE,
            self.alpha_goal / math.pi,
            float(prev_action[0]),
            float(prev_action[1]),
        ]
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
            return np.asarray(base + [roll / TILT_SCALE, pitch / TILT_SCALE])
        return np.asarray(base)

    def _ground(self, x: float, y: float, psi: float) -> tuple[float, float, float, float, float, float]:
        """The full pose at a planar pose: level on flat ground, else from the terrain."""
        if self.world.heightmap is None:
            return x, y, psi, 0.0, 0.0, 0.0
        return pose_from_terrain(self.world.heightmap, x, y, psi)

    def reset(self) -> np.ndarray:
        """Place the robot at the start pose; returns the first feature vector."""
        self.pose = self._ground(*self.world.start_pose)
        self.steps = 0
        features = self._observe((0.0, 0.0))
        self.reward_state = rw.EpisodeRewardState(initial_distance=self.d_goal)
        return features

    def step(self, projected_action) -> tuple[np.ndarray, RewardBreakdown, str]:
        """Advance one tick with an already-projected action in [-delta, delta]^2.

        Returns the next feature vector, the reward terms and the cause,
        which is "running" until the episode ends.
        """
        if self.pose is None:
            raise RuntimeError("call reset() before step()")
        action = (float(projected_action[0]), float(projected_action[1]))
        x, y, psi = kinematic_step(*self.pose[:3], action, self.cfg)
        x0, y0, x1, y1 = self.world.bounds
        x = min(max(x, x0), x1)
        y = min(max(y, y0), y1)
        self.pose = self._ground(x, y, psi)
        roll, pitch = self.pose[4:]
        self.steps += 1

        features = self._observe(action)
        heading = rw.r_heading(self.alpha_goal, self.reward_cfg)
        dist, self.reward_state = rw.r_dist(
            self.d_goal, self.reward_state, self.reward_cfg, self.cfg.goal_radius
        )
        obs_pen = 0.0
        closest = math.inf
        if self.scenario == "obstacle_avoidance":
            closest = float(self.scan.min())
            obs_pen = rw.r_obs(closest, self.cfg.d_collision, self.reward_cfg)
        stable_pen = 0.0
        if self.scenario == "uneven_terrain":
            stable_pen = rw.r_stable(roll, pitch, self.reward_cfg)
        # a scenario's missing terms are +0.0; heading (+0.0 or 1.0) comes
        # first, so the sum is never -0.0 and adding them changes no bits
        total = heading + dist + obs_pen + stable_pen

        cause = "running"
        if self.d_goal <= self.cfg.goal_radius:
            cause = "goal"
        elif closest <= self.cfg.d_collision:
            cause = "collision"
        elif self.scenario == "uneven_terrain" and (
            abs(roll) >= self.cfg.flip_threshold or abs(pitch) >= self.cfg.flip_threshold
        ):
            cause = "flip_over"
        elif self.steps >= self.max_steps:
            cause = "timeout"

        return features, RewardBreakdown(heading, dist, obs_pen, stable_pen, total), cause
