"""Training loop: rollout, estimate, clip, ascend, over seeds and families.

One iteration consumes exactly one episode.  All randomness flows
through named substreams of the run seed, so a run is bit-reproducible
and every policy family sees identical per-episode worlds when trained
on the same seed.  Independent runs go through ``map_jobs``,
which spreads them over the CPUs this process may use.
"""

import math
import os
import pickle
from dataclasses import dataclass, replace

import numpy as np

from .config import TrainConfig
from .env import observation_dim, rollout
from .estimator import estimate, sample_horizon
from .net import ApproximatorSpec
from .optimizer import OptimizerState, ascent_step
from .policy import FAMILIES, PolicyParameters, action_noise, init_policy
from .world import World, generate_world

# substream salts: worlds must not depend on the family or the episode
# outcomes, so each purpose gets its own SeedSequence branch
WORLD_SALT = 11
INIT_SALT = 13
ACTION_SALT = 19
EVAL_SALT = 23

# most claims in map_jobs' claim pipe, one byte each: claim k is jobs
# [k * size, (k + 1) * size) with size = ceil(n / MAX_CLAIMS), and all of
# them fit in one blocking write (PIPE_BUF >= 512) before any worker reads
MAX_CLAIMS = 256

# episodes in the trailing window behind every "final mean return" and the
# half-rise statistic
FINAL_WINDOW = 20


class TrainingAbort(RuntimeError):
    """A gradient went non-finite; the run stops rather than limping on."""


def usable_cpus() -> list[int]:
    """The CPUs this process may run on, in ascending order; ``taskset`` narrows them.

    Where the platform cannot say (no ``sched_getaffinity``), ``[0]``: one
    CPU, so ``map_jobs`` forks nothing and places nothing.
    """
    if not hasattr(os, "sched_getaffinity"):
        return [0]
    return sorted(os.sched_getaffinity(0))


def _pin(cpus: set[int]) -> None:
    """Run this process only on ``cpus``; where the kernel refuses, leave
    placement to the scheduler, which changes no result."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def map_jobs(fn, jobs: list[tuple]) -> list:
    """``[fn(*job) for job in jobs]``, with the jobs spread over the usable CPUs.

    Each call must be a pure function of its job, so the results do not
    depend on which process made them; they come back in job order.  With
    one worker, or where ``fork`` is missing, the jobs run in a plain loop
    in this process.  Otherwise this process writes every claim into a
    pipe, forks the other workers, which inherit ``fn`` and ``jobs``, and
    works as one of them; every worker takes one claim at a time, so long
    and short jobs balance.  Each process runs on a CPU of its own: forked
    worker ``k`` on usable CPU ``k``, this process on CPU 0 until it returns
    or raises, with its own CPU mask restored.  An exception raised in a
    forked worker is raised here with its own type; so is one raised in
    this process's own job, once the forked workers are killed.  Every
    forked worker is reaped before this returns; a job that exits the
    process here ends the caller.  On Linux a forked worker is killed when
    this process dies (see ``_die_with``); elsewhere it runs on until its
    claims run out.
    """
    cpus = usable_cpus()
    workers = min(len(jobs), len(cpus))
    if workers < 2 or not hasattr(os, "fork"):
        return [fn(*job) for job in jobs]
    results = [None] * len(jobs)
    size = math.ceil(len(jobs) / MAX_CLAIMS)
    mask = os.sched_getaffinity(0)  # restored when this returns or raises
    claim_r, claim_w = os.pipe()
    os.write(claim_w, bytes(range(math.ceil(len(jobs) / size))))
    os.close(claim_w)  # the end of the claims
    pipes = {}  # worker pid -> the read end of its result pipe
    caller = os.getpid()
    finished = False
    try:
        # Forking is safe here: nothing has started a thread before it, and
        # OpenBLAS's own thread pool has fork hooks.
        for k in range(1, workers):
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(fn, jobs, size, claim_r, result_w, caller, cpus[k])
            os.close(result_w)
            pipes[pid] = open(result_r, "rb")
        _pin({cpus[0]})  # else the scheduler may leave a worker time-sharing this CPU
        for i, result in _run_claims(fn, jobs, size, claim_r):
            results[i] = result
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
        _pin(mask)
        os.close(claim_r)
        for pid, pipe in pipes.items():
            pipe.close()
            if not finished:
                import signal  # here, not at the top: only a failure needs it

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _run_claims(fn, jobs: list[tuple], size: int, claim_r: int) -> list[tuple]:
    """``[(index, result), ...]`` of the jobs this process claims from ``claim_r``."""
    done = []
    while claim := os.read(claim_r, 1):
        for i in range(len(jobs))[claim[0] * size :][:size]:
            done.append((i, fn(*jobs[i])))
    return done


def _die_with(caller: int) -> None:
    """Have the kernel SIGKILL this forked worker when the thread that forked
    it exits (Linux's ``prctl(PR_SET_PDEATHSIG)``), and exit now if ``caller``
    died first.  Where ``prctl`` is missing or fails, do nothing."""
    import ctypes  # here, not at the top: only a forked worker needs it

    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):  # no prctl: not Linux
        return
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    # PR_SET_PDEATHSIG is 1 and SIGKILL 9 on Linux; the signal module's
    # import alone would cost a worker about 1 ms
    if prctl(1, 9) == 0 and os.getppid() != caller:
        os._exit(1)


def _work(fn, jobs: list[tuple], size: int, claim_r: int, result_w: int, caller: int, cpu: int) -> None:
    """A forked worker's whole life: move to ``cpu``, die with ``caller``, run
    the claimed jobs, send the results, exit.

    Sends ``(True, [(index, result), ...])``, or ``(False, (exception,
    traceback text))`` for the first job that raised, pickled once down
    ``result_w``.  It leaves with ``os._exit``, so it never returns into
    the caller's code or flushes the stdio buffers it shares with the
    parent.
    """
    code = 1
    try:
        _pin({cpu})
        _die_with(caller)
        try:
            payload = pickle.dumps((True, _run_claims(fn, jobs, size, claim_r)))
        except BaseException as exc:
            import traceback  # here, not at the top: only a failure needs it

            payload = pickle.dumps((False, (exc, traceback.format_exc())))
        view = memoryview(payload)
        while view:
            view = view[os.write(result_w, view) :]
        os.close(result_w)
        code = 0
    finally:
        os._exit(code)


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


@dataclass
class SeedRun:
    """Everything one (seed, family) run produced; the family is ``params.family``."""

    seed: int
    returns: np.ndarray
    steps: np.ndarray
    causes: list[str]
    grad_raw_inf: np.ndarray
    grad_clipped_inf: np.ndarray
    horizon_sampled: np.ndarray
    max_abs_action: np.ndarray
    params: PolicyParameters
    opt_state: OptimizerState

    def __len__(self) -> int:
        return int(self.returns.shape[0])


def train_seed(cfg: TrainConfig, seed: int) -> SeedRun:
    """Run one seed start to finish; pure function of (cfg, seed)."""
    params = initial_params(cfg, seed)
    state = OptimizerState.fresh(params.spec.num_weights, eta=cfg.eta)
    returns, steps, causes = [], [], []
    raw_infs, clip_infs = [], []
    h_sampled, max_acts = [], []
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
        max_acts.append(float(np.abs(np.clip(traj.raw_actions, -cfg.delta, cfg.delta)).max()))
        del traj  # else it is still alive while the next rollout fills its own
    return SeedRun(
        seed=seed,
        returns=np.asarray(returns, dtype=float),
        steps=np.asarray(steps, dtype=int),
        causes=causes,
        grad_raw_inf=np.asarray(raw_infs, dtype=float),
        grad_clipped_inf=np.asarray(clip_infs, dtype=float),
        horizon_sampled=np.asarray(h_sampled, dtype=int),
        max_abs_action=np.asarray(max_acts, dtype=float),
        params=params,
        opt_state=state,
    )


def train(cfg: TrainConfig) -> list[SeedRun]:
    """One run of ``cfg.family`` per seed of ``cfg.seeds``, in that order."""
    return map_jobs(train_seed, [(cfg, seed) for seed in cfg.seeds])


def run_comparison(cfg: TrainConfig) -> dict[str, list[SeedRun]]:
    """Train every family of ``FAMILIES`` on ``cfg``'s seeds and worlds; ``cfg.family`` is not read.

    Returns each family's runs in seed order, keyed in ``FAMILIES``' order.
    All ``len(FAMILIES) x len(cfg.seeds)`` runs share one ``map_jobs`` call,
    seed by seed: a seed's twin runs draw the same horizons, so they run
    side by side.
    """
    arms = [replace(cfg, family=family) for family in FAMILIES]
    runs = map_jobs(train_seed, [(arm, seed) for seed in cfg.seeds for arm in arms])
    return {family: runs[i :: len(arms)] for i, family in enumerate(FAMILIES)}


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
