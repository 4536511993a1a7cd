"""Post-training evaluation: success rate, trajectory length, elevation cost."""

import math
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .policy import PolicyParameters, action_noise
from .training import EVAL_SALT, map_jobs, rollout
from .world import generate_world

EVAL_MODES = ("deterministic", "stochastic")


def elevation_cost(z_trace) -> float:
    """Euclidean norm of the successive z differences along one trajectory."""
    z = np.asarray(z_trace, dtype=float)
    if z.ndim != 1 or z.shape[0] < 1:
        raise ValueError("z_trace must be a non-empty 1-d sequence")
    if z.shape[0] == 1:
        return 0.0
    return float(np.linalg.norm(np.diff(z)))


@dataclass(frozen=True)
class EpisodeResult:
    episode: int
    cause: str
    steps: int
    episode_return: float
    elevation: float
    final_distance: float

    @property
    def success(self) -> bool:
        return self.cause == "goal"


@dataclass
class EvalReport:
    """Aggregate metrics over a batch of evaluation episodes.

    ``avg_traj_length`` averages successful episodes only (failures never
    reach the goal, so their step counts measure something else); the
    ``_all`` variant includes every episode.  ``elevation_cost`` averages
    all episodes, with a successful-only variant alongside.
    """

    episodes: int
    mode: str
    success_rate: float
    avg_traj_length: float
    avg_traj_length_all: float
    elevation_cost: float
    elevation_cost_successful: float
    rows: list[EpisodeResult]

    def __post_init__(self):
        if not 0.0 <= self.success_rate <= 100.0:
            raise ValueError(f"success_rate must be in [0, 100], got {self.success_rate}")


def eval_episode(
    params: PolicyParameters, cfg: TrainConfig, seed: int, i: int, mode: str
) -> EpisodeResult:
    """Episode ``i`` of the evaluation stream of ``seed``; a pure function of its arguments."""
    world = generate_world(
        cfg.scenario, np.random.SeedSequence((seed, EVAL_SALT, i)), cfg.worldgen
    )
    noise = None  # not zeros: mu + 0.0 would turn a -0.0 into +0.0
    if mode == "stochastic":
        rng = np.random.default_rng(np.random.SeedSequence((seed, EVAL_SALT, i, 1)))
        noise = action_noise(params, rng, cfg.max_steps)
    traj = rollout(world, params, cfg, cfg.max_steps, noise)
    # summed step by step, left to right, unlike the training return
    total = 0.0
    for r in traj.rewards.tolist():
        total += r
    return EpisodeResult(
        episode=i,
        cause=traj.final_cause,
        steps=len(traj),
        episode_return=total,
        elevation=elevation_cost(traj.z),
        final_distance=traj.final_distance,
    )


def evaluate(
    params: PolicyParameters,
    cfg: TrainConfig,
    n_episodes: int,
    mode: str = "deterministic",
    seed: int = 0,
) -> EvalReport:
    """Run n_episodes on worlds drawn from the evaluation stream of ``seed``.

    Deterministic mode executes the projected location parameter mu(s);
    stochastic mode adds noise drawn as during training.  Either way an
    episode runs until it ends or reaches ``cfg.max_steps``: no horizon is
    drawn.
    """
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    if mode not in EVAL_MODES:
        raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")
    rows = map_jobs(eval_episode, [(params, cfg, seed, i, mode) for i in range(n_episodes)])
    successes = [r for r in rows if r.success]
    n_success = len(successes)
    success_rate = 100.0 * n_success / n_episodes
    avg_len = float(np.mean([r.steps for r in successes])) if successes else math.nan
    avg_len_all = float(np.mean([r.steps for r in rows]))
    elev_all = float(np.mean([r.elevation for r in rows]))
    elev_success = float(np.mean([r.elevation for r in successes])) if successes else math.nan
    return EvalReport(
        episodes=n_episodes,
        mode=mode,
        success_rate=success_rate,
        avg_traj_length=avg_len,
        avg_traj_length_all=avg_len_all,
        elevation_cost=elev_all,
        elevation_cost_successful=elev_success,
        rows=rows,
    )
