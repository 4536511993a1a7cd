"""Post-training evaluation: success rate, trajectory length, elevation cost."""

from dataclasses import dataclass

import numpy as np

from . import training
from .config import TrainConfig
from .policy import PolicyParameters, action_noise
from .training import EVAL_SALT, map_jobs
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
    # looked up on the module at each call, as training's episodes are, so a
    # wrapper put on ``training.rollout`` times evaluation's episodes too
    traj = training.rollout(world, params, cfg, cfg.max_steps, noise)
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
) -> list[EpisodeResult]:
    """Run n_episodes on worlds drawn from the evaluation stream of ``seed``;
    their results, in episode order.

    Deterministic mode executes the projected location parameter mu(s);
    stochastic mode adds noise drawn as during training.  Either way an
    episode runs until it ends or reaches ``cfg.max_steps``: no horizon is
    drawn.
    """
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be >= 1, got {n_episodes}")
    if mode not in EVAL_MODES:
        raise ValueError(f"mode must be one of {EVAL_MODES}, got {mode!r}")
    return map_jobs(eval_episode, [(params, cfg, seed, i, mode) for i in range(n_episodes)])


def summarize(rows: list[EpisodeResult], mode: str) -> dict:
    """The eval metrics of ``rows``, the document ``eval_summary.json`` holds.

    The ``_successful`` averages cover the episodes that reached the goal
    (a failure's step count measures something else) and are ``None`` when
    none did; the ``_all`` ones cover every episode.
    """
    successes = [r for r in rows if r.success]

    def successful_mean(values):
        return float(np.mean(values)) if values else None

    return {
        "episodes": len(rows),
        "mode": mode,
        "success_rate": 100.0 * len(successes) / len(rows),
        "avg_traj_length_successful": successful_mean([r.steps for r in successes]),
        "avg_traj_length_all": float(np.mean([r.steps for r in rows])),
        "elevation_cost_all": float(np.mean([r.elevation for r in rows])),
        "elevation_cost_successful": successful_mean([r.elevation for r in successes]),
    }
