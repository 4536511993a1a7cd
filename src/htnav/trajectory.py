"""Episode trajectory record shared by the rollout collector and the estimator."""

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Trajectory:
    """Ordered step data for one episode.

    ``features`` are the policy inputs actually consumed at each step and
    ``rewards`` are the per-step totals.  ``z`` is the robot's height,
    with one entry more than there are steps: the height after reset comes
    first.  It is 0.0 throughout on the flat scenarios, which have no
    terrain.
    """

    features: np.ndarray          # (T, obs_dim)
    raw_actions: np.ndarray       # (T, 2), before projection
    rewards: np.ndarray           # (T,)
    z: np.ndarray                 # (T + 1,)
    final_cause: str = "running"
    final_distance: float = math.nan

    def __len__(self) -> int:
        return int(self.rewards.shape[0])

    @property
    def episode_return(self) -> float:
        return float(self.rewards.sum())
