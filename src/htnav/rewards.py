"""Sparse reward terms; the environment sums the ones its scenario has.

Four terms: a heading indicator, milestone distance bonuses (half the
initial distance, then the goal), a collision penalty keyed on the
minimum scan range, and a tilt penalty keyed on roll/pitch.  Boundary
semantics are inclusive everywhere: the heading indicator fires at
exactly the threshold angle, the collision penalty at exactly the
clearance distance, the tilt penalty at exactly the tilt threshold.

The distance term defaults to "latched" milestones (each bonus awarded
at most once per episode).  The "literal" mode keeps the raw Gaussian
bump form at every step, which is what the exported reward surfaces use.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .typecheck import check_fields


@dataclass
class RewardConfig:
    beta_g: float = 100.0
    sigma_g: float = 0.05
    r_collision: float = -100.0
    r_stable_penalty: float = -100.0
    dist_mode: str = "latched"
    angle_threshold: float = math.pi / 4
    tilt_threshold: float = math.pi / 4

    def __post_init__(self):
        rules = [
            (("sigma_g",), lambda v: 0.0 < v <= 0.1, "lie in (0, 0.1]"),
            (("angle_threshold", "tilt_threshold"), lambda v: 0.0 < v < math.pi / 2, "lie in (0, pi/2)"),
            (("dist_mode",), lambda v: v in ("latched", "literal"), "'latched' or 'literal'"),
            (("beta_g",), lambda v: v > 0, "positive"),
        ]
        check_fields(self, rules)


@dataclass(frozen=True)
class EpisodeRewardState:
    """Per-episode milestone accounting; flags only ever flip to True."""

    initial_distance: float
    half_awarded: bool = False
    goal_awarded: bool = False

    def __post_init__(self):
        check_fields(self)


def r_heading(alpha_goal: float, cfg: RewardConfig) -> float:
    return 1.0 if abs(alpha_goal) <= cfg.angle_threshold else 0.0


def _normal_pdf(x: float, mean: float, sd: float) -> float:
    z = (x - mean) / sd
    return math.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


def r_dist(
    d_goal: float,
    state: EpisodeRewardState,
    cfg: RewardConfig,
    goal_radius: float = 1.0,
) -> tuple[float, EpisodeRewardState]:
    """Distance milestone reward and the updated episode state.

    Latched mode pays beta_g/2 once when the distance first drops to half
    its initial value and beta_g once on reaching the goal radius (both
    may fire in the same step).  Literal mode returns the two Gaussian
    bumps of the printed form at every step, unlatched.
    """
    if cfg.dist_mode == "literal":
        value = cfg.beta_g / 2.0 * _normal_pdf(d_goal, state.initial_distance / 2.0, cfg.sigma_g)
        value += cfg.beta_g * _normal_pdf(d_goal, 0.0, cfg.sigma_g)
        return value, state
    reward = 0.0
    half, goal = state.half_awarded, state.goal_awarded
    if not half and d_goal <= state.initial_distance / 2.0:
        reward += cfg.beta_g / 2.0
        half = True
    if not goal and d_goal <= goal_radius:
        reward += cfg.beta_g
        goal = True
    if half != state.half_awarded or goal != state.goal_awarded:
        state = replace(state, half_awarded=half, goal_awarded=goal)
    return reward, state


def r_obs(closest: float, d_collision: float, cfg: RewardConfig) -> float:
    """Collision penalty when the closest scan return is at or inside the clearance."""
    if math.isnan(closest):
        raise ValueError("closest scan range must not be NaN")
    return cfg.r_collision if closest <= d_collision else 0.0


def r_stable(roll: float, pitch: float, cfg: RewardConfig) -> float:
    """Tilt penalty once roll or pitch reaches the threshold (inclusive)."""
    if abs(roll) >= cfg.tilt_threshold or abs(pitch) >= cfg.tilt_threshold:
        return cfg.r_stable_penalty
    return 0.0


def reward_surface(
    axes: str,
    cfg: RewardConfig | None = None,
    n_d: int = 200,
    n_other: int = 200,
    d_max: float = 40.0,
    initial_distance: float | None = None,
    d_collision: float = 0.5,
    scan_max: float = 10.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Total reward over a 2-D state grid (literal distance mode, stateless).

    ``dist_angle`` varies (d_goal, alpha_goal) and sums the heading and
    distance terms; ``dist_scan`` varies (d_goal, min scan range) and
    sums the distance and collision terms.  The halfway bump sits at
    half of ``initial_distance`` (default: the far end of the d axis).

    Returns (d_axis, other_axis, values) with values[i, j] at
    (d_axis[i], other_axis[j]).
    """
    cfg = cfg or RewardConfig()
    if axes not in ("dist_angle", "dist_scan"):
        raise ValueError(f"axes must be 'dist_angle' or 'dist_scan', got {axes!r}")
    if n_d < 2 or n_other < 2:
        raise ValueError("grid must be at least 2x2")
    d0 = d_max if initial_distance is None else initial_distance
    d_axis = np.linspace(0.0, d_max, n_d)
    lit = replace(cfg, dist_mode="literal")
    state = EpisodeRewardState(initial_distance=d0)
    dist_vals = np.array([r_dist(d, state, lit)[0] for d in d_axis])
    if axes == "dist_angle":
        other_axis = np.linspace(-math.pi, math.pi, n_other)
        head_vals = np.array([r_heading(a, cfg) for a in other_axis])
        values = dist_vals[:, None] + head_vals[None, :]
    else:
        other_axis = np.linspace(0.0, scan_max, n_other)
        obs_vals = np.array([r_obs(s, d_collision, cfg) for s in other_axis])
        values = dist_vals[:, None] + obs_vals[None, :]
    return d_axis, other_axis, values
