"""Training loop: rollout, estimate, clip, ascend, over seeds and families.

One iteration consumes exactly one episode.  All randomness flows
through named substreams of the run seed, so a run is bit-reproducible
and the two policy families see identical per-episode worlds when
trained on the same seed.  Independent runs go through ``map_jobs``,
which spreads them over the CPUs this process may use.
"""

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .config import TrainConfig
from .env import NavEnv, observation_dim
from .estimator import estimate, sample_horizon
from .net import ApproximatorSpec
from .optimizer import OptimizerState, ascent_step
from .policy import PolicyParameters, forward_mean, init_policy, project_action, sample_action
from .trajectory import Trajectory
from .world import World, generate_world

# substream salts: worlds must not depend on the family or the episode
# outcomes, so each purpose gets its own SeedSequence branch
WORLD_SALT = 11
INIT_SALT = 13
ACTION_SALT = 19
EVAL_SALT = 23

# episodes in the trailing window behind every "final mean return" and the
# half-rise statistic
FINAL_WINDOW = 20


class TrainingAbort(RuntimeError):
    """A gradient went non-finite; the run stops rather than limping on."""


def usable_cpus() -> int:
    """CPUs this process may run on; ``taskset`` narrows them.

    Where the platform cannot say (no ``sched_getaffinity``), 1.
    """
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def map_jobs(fn, jobs: list[tuple]) -> list:
    """``[fn(*job) for job in jobs]``, with the jobs spread over the usable CPUs.

    ``fn`` must be a module-level function and each call a pure function
    of its job, so the results do not depend on which process made them;
    they come back in job order.  With one worker, or where ``fork`` is
    missing, the jobs run in a plain loop in this process.  Otherwise a
    ``fork`` pool takes one job per task, so long and short jobs balance;
    an exception raised in a worker is raised here with its own type, and
    the pool is shut down before this returns.
    """
    workers = min(len(jobs), usable_cpus())
    if workers > 1:
        # imported here: at module level they would add to every start-up
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a spawned worker re-imports numpy and htnav, which
        # costs more than a short run gains.  Nothing here has started a
        # thread before the fork, and OpenBLAS's own pool has fork hooks.
        if "fork" in multiprocessing.get_all_start_methods():
            pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
            try:
                futures = [pool.submit(fn, *job) for job in jobs]
                return [future.result() for future in futures]
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
    return [fn(*job) for job in jobs]


def policy_spec(cfg: TrainConfig) -> ApproximatorSpec:
    return ApproximatorSpec(
        input_dim=observation_dim(cfg.scenario, cfg.env.n_scan_rays),
        hidden_layers=cfg.hidden_layers,
    )


def world_for_episode(cfg: TrainConfig, seed: int, episode: int) -> World:
    ss = np.random.SeedSequence((seed, WORLD_SALT, episode))
    return generate_world(cfg.scenario, ss, cfg.worldgen)


def episode_rng(seed: int, episode: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, ACTION_SALT, episode)))


def initial_params(cfg: TrainConfig, seed: int) -> PolicyParameters:
    rng = np.random.default_rng(np.random.SeedSequence((seed, INIT_SALT)))
    return init_policy(policy_spec(cfg), cfg.sigma, cfg.family, rng)


def rollout(
    world: World,
    params: PolicyParameters,
    cfg: TrainConfig,
    rng: np.random.Generator,
    horizon: int,
    act: str = "sample",
) -> Trajectory:
    """Run one episode for at most ``min(horizon + 1, cfg.max_steps)`` steps.

    ``act="sample"`` draws every action from the policy with ``rng``;
    ``act="mean"`` executes the projected location mu(s) and leaves ``rng``
    untouched.  Training and evaluation both step episodes through here.
    """
    if act not in ("sample", "mean"):
        raise ValueError(f"act must be 'sample' or 'mean', got {act!r}")
    env = NavEnv(world, cfg.env, cfg.rewards, max_steps=cfg.max_steps)
    x = env.reset()
    poses = [env.pose]
    feats, raws, projs, rewards = [], [], [], []
    cause = "running"
    for _ in range(min(horizon + 1, cfg.max_steps)):
        if act == "mean":
            raw = forward_mean(params, x)
            projected = project_action(raw, cfg.delta)
        else:
            raw, projected = sample_action(params, x, rng, cfg.delta)
        feats.append(x)
        raws.append(raw)
        projs.append(projected)
        x, reward, cause = env.step(projected)
        rewards.append(reward.total)
        poses.append(env.pose)
        if cause != "running":
            break
    return Trajectory(
        features=np.asarray(feats),
        raw_actions=np.asarray(raws),
        projected_actions=np.asarray(projs),
        rewards=np.asarray(rewards),
        poses=np.asarray(poses),
        final_cause=cause,
        final_distance=env.d_goal,
    )


@dataclass
class SeedRun:
    """Everything one (seed, family) run produced."""

    seed: int
    family: str
    returns: np.ndarray
    steps: np.ndarray
    causes: list[str]
    grad_raw_inf: np.ndarray
    grad_clipped_inf: np.ndarray
    horizon_sampled: np.ndarray
    horizon_used: np.ndarray
    max_abs_action: np.ndarray
    params: PolicyParameters
    opt_state: OptimizerState

    def __len__(self) -> int:
        return int(self.returns.shape[0])


@dataclass
class RunRecord:
    family: str
    seed_runs: list[SeedRun]

    def returns_matrix(self) -> np.ndarray:
        """(n_seeds, episodes) stack."""
        return np.stack([run.returns for run in self.seed_runs])

    def mean_curve(self) -> np.ndarray:
        return self.returns_matrix().mean(axis=0)

    def std_curve(self) -> np.ndarray:
        return self.returns_matrix().std(axis=0)


def train_seed(cfg: TrainConfig, seed: int) -> SeedRun:
    """Run one seed start to finish; pure function of (cfg, seed)."""
    params = initial_params(cfg, seed)
    state = OptimizerState.fresh(
        params.spec.num_weights,
        eta=cfg.eta,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        epsilon=cfg.epsilon,
    )
    returns, steps, causes = [], [], []
    raw_infs, clip_infs = [], []
    h_sampled, h_used, max_acts = [], [], []
    for k in range(cfg.episodes):
        world = world_for_episode(cfg, seed, k)
        rng = episode_rng(seed, k)
        horizon = sample_horizon(cfg.gamma, rng)
        traj = rollout(world, params, cfg, rng, horizon)
        raw, clipped = estimate(params, traj, cfg.gamma, cfg.phi)
        if not np.all(np.isfinite(raw)):
            raise TrainingAbort(
                f"non-finite gradient (seed {seed}, episode {k}); "
                "this indicates a bug, not a tuning problem"
            )
        state, theta = ascent_step(state, params.weights, clipped)
        params = params.with_weights(theta)

        returns.append(traj.episode_return)
        steps.append(len(traj))
        causes.append(traj.final_cause)
        raw_infs.append(float(np.abs(raw).max()))
        clip_infs.append(float(np.abs(clipped).max()))
        h_sampled.append(horizon)
        h_used.append(len(traj) - 1)
        max_acts.append(float(np.abs(traj.projected_actions).max()))
    return SeedRun(
        seed=seed,
        family=cfg.family,
        returns=np.asarray(returns, dtype=float),
        steps=np.asarray(steps, dtype=int),
        causes=causes,
        grad_raw_inf=np.asarray(raw_infs, dtype=float),
        grad_clipped_inf=np.asarray(clip_infs, dtype=float),
        horizon_sampled=np.asarray(h_sampled, dtype=int),
        horizon_used=np.asarray(h_used, dtype=int),
        max_abs_action=np.asarray(max_acts, dtype=float),
        params=params,
        opt_state=state,
    )


def train(cfg: TrainConfig) -> RunRecord:
    runs = map_jobs(train_seed, [(cfg, seed) for seed in cfg.seeds])
    return RunRecord(family=cfg.family, seed_runs=runs)


@dataclass
class ComparisonResult:
    cauchy: RunRecord
    gaussian: RunRecord


def run_comparison(cfg: TrainConfig) -> ComparisonResult:
    """Train both families on ``cfg``'s seeds and worlds; ``cfg.family`` is not read.

    All ``2 x len(cfg.seeds)`` runs share one ``map_jobs`` call.
    """
    cauchy, gaussian = replace(cfg, family="cauchy"), replace(cfg, family="gaussian")
    runs = map_jobs(train_seed, [(c, seed) for c in (cauchy, gaussian) for seed in cfg.seeds])
    n = len(cfg.seeds)
    return ComparisonResult(
        cauchy=RunRecord(family="cauchy", seed_runs=runs[:n]),
        gaussian=RunRecord(family="gaussian", seed_runs=runs[n:]),
    )


def half_rise_episode(returns: np.ndarray) -> float:
    """First episode whose trailing ``FINAL_WINDOW``-episode mean return
    reaches half of its final value; ``math.inf`` when there are no
    episodes or that final value is not positive.
    """
    if returns.shape[0] == 0:
        return math.inf
    smoothed = np.array(
        [returns[max(0, k - FINAL_WINDOW + 1) : k + 1].mean() for k in range(returns.shape[0])]
    )
    final = smoothed[-1]
    if not final > 0:
        return math.inf
    # the final episode always qualifies, so argmax finds a hit
    return int(np.argmax(smoothed >= 0.5 * final))
