"""Random-horizon trajectory gradient estimator with infinity-norm clipping.

The estimate for one episode is

    sum_{t=0}^{T} gamma^(t/2) r_t * (sum_{tau<=t} score_tau)

with the horizon T drawn from a geometric distribution with success
probability 1 - sqrt(gamma).  Rearranging the double sum gives each
step's score a scalar coefficient (a reversed cumulative sum of the
discounted rewards), so the whole estimate is a single weighted batched
backprop.  Steps past episode termination carry zero reward, so summing
over recorded steps only is exact.
"""

import numpy as np

from .policy import PolicyParameters, weighted_score_sum
from .trajectory import Trajectory


def sample_horizon(gamma: float, rng: np.random.Generator) -> int:
    """Draw T from the geometric law on {0, 1, 2, ...} with p = 1 - sqrt(gamma)."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    p = 1.0 - np.sqrt(gamma)
    # numpy's geometric counts trials until first success (support {1, 2, ...})
    return int(rng.geometric(p)) - 1


def clip_gradient(g: np.ndarray, phi: float) -> np.ndarray:
    """Clamp every component to [-phi, phi] so the infinity norm is at most phi."""
    if not phi > 0:
        raise ValueError(f"phi must be positive, got {phi}")
    return np.clip(np.asarray(g, dtype=float), -phi, phi)


def estimate_gradient(params: PolicyParameters, traj: Trajectory, gamma: float) -> np.ndarray:
    """Raw (unclipped) gradient estimate for one recorded episode."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    n = len(traj)
    if n == 0:
        raise ValueError("cannot estimate a gradient from an empty trajectory")
    t = np.arange(n)
    discounted = gamma ** (t / 2.0) * traj.rewards
    # coefficient of score_tau = sum_{t >= tau} gamma^(t/2) r_t
    coeffs = np.cumsum(discounted[::-1])[::-1]
    return weighted_score_sum(params, traj.features, traj.raw_actions, coeffs)


def estimate(
    params: PolicyParameters, traj: Trajectory, gamma: float, phi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Full per-iteration estimate: ``(raw, clipped)`` gradients."""
    raw = estimate_gradient(params, traj, gamma)
    return raw, clip_gradient(raw, phi)
