"""Sparse reward terms; the environment sums the ones its scenario has.

Four terms: a heading indicator, milestone distance bonuses (half the
initial distance, then the goal), a collision penalty keyed on the
minimum scan range, and a tilt penalty keyed on roll/pitch.  Boundary
semantics are inclusive everywhere: the heading indicator fires at
exactly the threshold angle, the collision penalty at exactly the
clearance distance, the tilt penalty at exactly the tilt threshold.

The distance term defaults to "latched" milestones: a latch the caller
keeps pays the halfway bonus once, and the goal bonus ends the episode.
The "literal" mode keeps the raw Gaussian bump form at every step, which
is what the exported reward surfaces use.
"""

import math
from dataclasses import dataclass

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


def r_heading(alpha_goal: float, cfg: RewardConfig) -> float:
    return 1.0 if abs(alpha_goal) <= cfg.angle_threshold else 0.0


def _normal_pdf(x: float, mean: float, sd: float) -> float:
    z = (x - mean) / sd
    return math.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


def _bumps(d_goal: float, initial_distance: float, cfg: RewardConfig) -> float:
    """The printed form's Gaussian bumps at half the initial distance and at the goal."""
    value = cfg.beta_g / 2.0 * _normal_pdf(d_goal, initial_distance / 2.0, cfg.sigma_g)
    value += cfg.beta_g * _normal_pdf(d_goal, 0.0, cfg.sigma_g)
    return value


def r_dist(
    d_goal: float, initial_distance: float, half_paid: bool, cfg: RewardConfig, goal_radius: float
) -> tuple[float, bool]:
    """Distance milestone reward and the updated halfway latch.

    Latched mode pays beta_g/2 once, when the distance first drops to half
    its initial value, and beta_g whenever it is within ``goal_radius``,
    with no latch, since that test ends the episode; both may fire in one
    step.  Literal mode pays the printed form's two Gaussian bumps at every
    step and returns the latch unchanged.
    """
    if cfg.dist_mode == "literal":
        return _bumps(d_goal, initial_distance, cfg), half_paid
    reward = 0.0
    if not half_paid and d_goal <= initial_distance / 2.0:
        reward += cfg.beta_g / 2.0
        half_paid = True
    if d_goal <= goal_radius:
        reward += cfg.beta_g
    return reward, half_paid


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
    """Total reward over a 2-D state grid; the distance term is the literal
    mode's bumps whatever ``cfg.dist_mode`` says.

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
    for name, d in (("d_max", d_max), ("initial_distance", initial_distance)):
        if d is not None and not 0 < d < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {d}")
    d0 = d_max if initial_distance is None else initial_distance
    d_axis = np.linspace(0.0, d_max, n_d)
    dist_vals = np.array([_bumps(d, d0, cfg) for d in d_axis])
    if axes == "dist_angle":
        other_axis = np.linspace(-math.pi, math.pi, n_other)
        other_vals = np.array([r_heading(a, cfg) for a in other_axis])
    else:
        other_axis = np.linspace(0.0, scan_max, n_other)
        other_vals = np.array([r_obs(s, d_collision, cfg) for s in other_axis])
    return d_axis, other_axis, dist_vals[:, None] + other_vals[None, :]
