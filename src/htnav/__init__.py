"""Heavy-tailed policy gradients for sparse-reward outdoor navigation.

A Cauchy-distributed continuous-control policy trained with a
random-horizon policy-gradient estimator and an adaptive-moment ascent
step, compared against a Gaussian baseline on a deterministic 2.5D
differential-drive simulator with three sparse-reward scenarios.
"""

__version__ = "0.1.0"

from .config import ConfigError, TrainConfig, load_config
from .env import EnvConfig, NavEnv
from .evaluation import EvalReport, elevation_cost, evaluate
from .policy import PolicyParameters, init_policy
from .rewards import RewardConfig, reward_surface
from .training import rollout, run_comparison, train, train_seed
from .world import World, WorldGenConfig, generate_world

__all__ = [
    "ConfigError",
    "EnvConfig",
    "EvalReport",
    "NavEnv",
    "PolicyParameters",
    "RewardConfig",
    "TrainConfig",
    "World",
    "WorldGenConfig",
    "__version__",
    "elevation_cost",
    "evaluate",
    "generate_world",
    "init_policy",
    "load_config",
    "reward_surface",
    "rollout",
    "run_comparison",
    "train",
    "train_seed",
]
