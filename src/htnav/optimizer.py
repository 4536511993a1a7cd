"""Adaptive moment-estimation ascent step.

The printed update this mirrors has no bias correction:

    m <- beta1 * m + (1 - beta1) * g
    v <- beta2 * v + (1 - beta2) * g^2
    theta <- theta + eta * m / (sqrt(v) + eps)

Note the plus sign: the objective is maximized.
"""

from dataclasses import dataclass, replace

import numpy as np

from .typecheck import check_field_types


@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    eta: float = 0.01
    # no config key sets these three; checkpoints record them
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        check_field_types(self)
        self.m = np.asarray(self.m, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.m.shape != self.v.shape:
            raise ValueError("first and second moment shapes differ")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not self.eta >= 0.0:
            raise ValueError(f"eta must be non-negative, got {self.eta}")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    @classmethod
    def fresh(cls, dim: int, eta: float = 0.01) -> "OptimizerState":
        return cls(m=np.zeros(dim), v=np.zeros(dim), eta=eta)


def ascent_step(
    state: OptimizerState,
    theta: np.ndarray,
    g: np.ndarray,
) -> tuple[OptimizerState, np.ndarray]:
    """One maximizing update; pure, returns the new state and parameters."""
    theta = np.asarray(theta, dtype=float)
    g = np.asarray(g, dtype=float)
    if theta.shape != state.m.shape or g.shape != state.m.shape:
        raise ValueError(
            f"dimension mismatch: theta {theta.shape}, g {g.shape}, moments {state.m.shape}"
        )
    m = state.beta1 * state.m + (1.0 - state.beta1) * g
    v = state.beta2 * state.v + (1.0 - state.beta2) * g**2
    theta_next = theta + state.eta * m / (np.sqrt(v) + state.epsilon)
    return replace(state, m=m, v=v, step_count=state.step_count + 1), theta_next
