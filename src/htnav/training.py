"""Training loop: rollout, estimate, clip, ascend, over seeds and families.

One iteration consumes exactly one episode.  All randomness flows
through named substreams of the run seed, so a run is bit-reproducible
and the two policy families see identical per-episode worlds when
trained on the same seed.  Independent runs go through ``map_jobs``,
which spreads them over the CPUs this process may use.
"""

import math
import os
import pickle
from dataclasses import dataclass, replace

import numpy as np

from .config import TrainConfig
from .env import NavEnv, observation_dim
from .estimator import estimate, sample_horizon
from .net import ApproximatorSpec
from .optimizer import OptimizerState, ascent_step
from .policy import PolicyParameters, action_noise, forward_mean, init_policy, project_action
from .trajectory import Trajectory
from .world import World, generate_world

# substream salts: worlds must not depend on the family or the episode
# outcomes, so each purpose gets its own SeedSequence branch
WORLD_SALT = 11
INIT_SALT = 13
ACTION_SALT = 19
EVAL_SALT = 23

# bytes of one job index in the claim pipe; the parent writes only whole
# records and a worker reads exactly one, so no record is split between two
CLAIM_BYTES = 4

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

    Each call must be a pure function of its job, so the results do not
    depend on which process made them; they come back in job order.  With
    one worker, or where ``fork`` is missing, the jobs run in a plain loop
    in this process.  Otherwise forked workers, which inherit ``fn`` and
    ``jobs``, claim job indices one at a time from a pipe, so long and
    short jobs balance.  An exception raised in a worker is raised here
    with its own type, and every worker is reaped before this returns.
    """
    workers = min(len(jobs), usable_cpus())
    if workers < 2 or not hasattr(os, "fork"):
        return [fn(*job) for job in jobs]
    # Forking is safe here: nothing has started a thread before it, and
    # OpenBLAS's own thread pool has fork hooks.
    results = [None] * len(jobs)
    claims = b"".join(i.to_bytes(CLAIM_BYTES, "little") for i in range(len(jobs)))
    claim_r, claim_w = os.pipe()
    pipes = {}  # worker pid -> the read end of its result pipe
    finished = False
    try:
        try:
            for _ in range(workers):
                result_r, result_w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    os.close(claim_w)  # else no worker ever sees the end of the claims
                    _work(fn, jobs, claim_r, result_w)
                os.close(result_w)
                pipes[pid] = open(result_r, "rb")
        finally:
            # even after a failed fork, closing claim_w ends the claims of
            # the workers already started
            os.close(claim_r)
            try:
                _write_and_close(claim_w, claims)
            except BrokenPipeError:
                pass  # every worker is gone; their result pipes say how
        for pid, pipe in list(pipes.items()):
            with pipe:
                payload = pipe.read()
            if not payload:
                del pipes[pid]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise RuntimeError(f"a worker process died without a result (exit code {code})")
            ok, value = pickle.loads(payload)
            if not ok:
                exc, trace = value
                raise exc from RuntimeError(f"in a worker process:\n{trace}")
            for i, result in value:
                results[i] = result
        finished = True
    finally:
        for pid, pipe in pipes.items():
            pipe.close()
            if not finished:
                import signal  # here, not at the top: only a failure needs it

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _work(fn, jobs: list[tuple], claim_r: int, result_w: int) -> None:
    """A worker's whole life: run the claimed jobs, send the results, exit.

    Sends ``(True, [(index, result), ...])``, or ``(False, (exception,
    traceback text))`` for the first job that raised, pickled once down
    ``result_w``.  It leaves with ``os._exit``, so it never returns into
    the caller's code or flushes the stdio buffers it shares with the
    parent.
    """
    code = 1
    try:
        try:
            done = []
            while record := os.read(claim_r, CLAIM_BYTES):
                i = int.from_bytes(record, "little")
                done.append((i, fn(*jobs[i])))
            payload = pickle.dumps((True, done))
        except BaseException as exc:
            import traceback  # here, not at the top: only a failure needs it

            payload = pickle.dumps((False, (exc, traceback.format_exc())))
        _write_and_close(result_w, payload)
        code = 0
    finally:
        os._exit(code)


def _write_and_close(fd: int, data: bytes) -> None:
    """Write all of ``data`` to the pipe end ``fd``, then close it."""
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
    finally:
        os.close(fd)


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
    steps: int,
    noise: np.ndarray | None = None,
) -> Trajectory:
    """Run one episode for at most ``steps`` steps.

    The raw action at step t is mu(s) plus ``noise[t]``, or mu(s) alone
    when ``noise`` is None; its projection is what the robot executes.
    Training and evaluation both step episodes through here.
    """
    env = NavEnv(world, cfg.env, cfg.rewards, max_steps=cfg.max_steps)
    x = env.reset()
    poses = [env.pose]
    feats, raws, rewards = [], [], []
    rows = noise.tolist() if noise is not None else None
    cause = "running"
    for t in range(steps):
        m0, m1 = forward_mean(params, x)
        if rows is not None:
            n0, n1 = rows[t]
            m0, m1 = m0 + n0, m1 + n1
        feats.append(x)
        raws.append((m0, m1))
        x, reward, cause = env.step(project_action((m0, m1), cfg.delta))
        rewards.append(reward)
        poses.append(env.pose)
        if cause != "running":
            break
    return Trajectory(
        features=np.asarray(feats),
        raw_actions=np.asarray(raws),
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
        n = min(horizon + 1, cfg.max_steps)
        traj = rollout(world, params, cfg, n, action_noise(params, rng, n))
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
        max_acts.append(float(np.abs(np.clip(traj.raw_actions, -cfg.delta, cfg.delta)).max()))
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
