"""Adaptive moment-estimation ascent step.

The printed update this mirrors has no bias correction:

    m <- beta1 * m + (1 - beta1) * g
    v <- beta2 * v + (1 - beta2) * g^2
    theta <- theta + eta * m / (sqrt(v) + eps)

Note the plus sign: the objective is maximized.
"""

from dataclasses import dataclass, replace

import numpy as np

from .typecheck import check_fields

# the printed update's constants; no config key sets them
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    step_count: int
    eta: float

    def __post_init__(self):
        check_fields(self, [(("eta",), lambda v: v >= 0, "non-negative")])
        self.m = np.asarray(self.m, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.m.shape != self.v.shape:
            raise ValueError("first and second moment shapes differ")

    @classmethod
    def fresh(cls, dim: int, eta: float) -> "OptimizerState":
        return cls(m=np.zeros(dim), v=np.zeros(dim), step_count=0, eta=eta)


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
    m = BETA1 * state.m + (1.0 - BETA1) * g
    v = BETA2 * state.v + (1.0 - BETA2) * g**2
    theta_next = theta + state.eta * m / (np.sqrt(v) + EPSILON)
    return replace(state, m=m, v=v, step_count=state.step_count + 1), theta_next
