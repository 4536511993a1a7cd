import csv
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import htnav.env
import htnav.policy
import htnav.world
from htnav.cli import write_comparison_csv, write_curves_csv, write_diagnostics_csv
from htnav.config import ConfigError, TrainConfig, apply_overrides
from htnav.env import NavEnv, observation_dim
from htnav.estimator import sample_horizon
from htnav.policy import FAMILIES, action_noise, forward_mean
from htnav.training import (
    TrainingAbort,
    episode_rng,
    initial_params,
    map_jobs,
    rollout,
    run_comparison,
    train,
    train_seed,
    world_for_episode,
)

from htnav.world import SCENARIOS, GenerationError, generate_world

from conftest import (
    LIVELY,
    assert_no_child_left,
    make_params,
    oracle_settings,
    reference_rollout,
    use_workers,
    worker_only,
    world_fields,
)

TINY = TrainConfig(episodes=4, max_steps=40, seeds=(0, 1))
# TINY earns 0 reward, so its weights never leave initial_params; on
# LIVELY_TINY reward fires and the weights move every run
LIVELY_TINY = apply_overrides(TINY, LIVELY)


@pytest.fixture
def world_requests(monkeypatch):
    """Every world training asks for, as (family, seed, episode, world_fields)."""
    calls = []
    real = world_for_episode
    use_workers(monkeypatch, 1)

    def recording(cfg, seed, episode):
        world = real(cfg, seed, episode)
        calls.append((cfg.family, seed, episode, world_fields(world)))
        return world

    monkeypatch.setattr("htnav.training.world_for_episode", recording)
    return calls


def test_rollout_respects_horizon_budget():
    world = world_for_episode(TINY, 0, 0)
    params = initial_params(TINY, 0)
    traj = rollout(world, params, TINY, 1, action_noise(params, np.random.default_rng(0), 1))
    assert len(traj) == 1
    assert traj.final_cause == "running"
    traj = rollout(world, params, TINY, 7, action_noise(params, np.random.default_rng(0), 7))
    assert len(traj) == 7


def test_rollout_caps_at_max_steps():
    cfg = replace(TINY, max_steps=5)
    world = world_for_episode(cfg, 0, 0)
    params = initial_params(cfg, 0)
    noise = action_noise(params, np.random.default_rng(0), 10_000)
    traj = rollout(world, params, cfg, 10_000, noise)
    assert len(traj) == 5
    assert traj.final_cause == "timeout"


def test_rollout_shapes_consistent():
    world = world_for_episode(TINY, 1, 2)
    params = initial_params(TINY, 1)
    noise = action_noise(params, episode_rng(1, 2), 31)
    traj = rollout(world, params, TINY, 31, noise)
    n = len(traj)
    assert traj.features.shape == (n, 4)
    assert traj.raw_actions.shape == (n, 2)
    assert traj.rewards.shape == (n,)
    assert traj.z.shape == (n + 1,)
    # each raw action is the mean plus that step's noise row
    mu = np.stack([forward_mean(params, x) for x in traj.features])
    assert traj.raw_actions.tobytes() == (mu + noise[:n]).tobytes()


@pytest.mark.parametrize("scenario", ("goal_reaching", "uneven_terrain"))
def test_rollout_poses_start_at_reset(scenario):
    cfg = replace(LIVELY_TINY, scenario=scenario)
    world = world_for_episode(cfg, 0, 1)
    params = initial_params(cfg, 0)
    traj = rollout(world, params, cfg, 13, action_noise(params, episode_rng(0, 1), 13))
    assert traj.z.shape == (len(traj) + 1,)
    env = NavEnv(world, cfg.env, cfg.rewards, max_steps=cfg.max_steps)
    np.testing.assert_array_equal(traj.features[0], env.reset())
    assert traj.z[0] == env.pose[3]
    # replaying the executed actions retraces every later step
    for t, raw in enumerate(traj.raw_actions):
        features, reward, _ = env.step(np.clip(raw, -cfg.delta, cfg.delta))
        if t + 1 < len(traj):
            np.testing.assert_array_equal(traj.features[t + 1], features)
        assert traj.z[t + 1] == env.pose[3]
        assert reward == traj.rewards[t]
    assert traj.final_distance == env.d_goal


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_only_uneven_terrain_reads_terrain(monkeypatch, scenario):
    # flat worlds build no hill field, flat steps ground no pose, and their
    # heights are all 0.0; only the scanning scenario builds walls
    calls = {"_hill_field": 0, "pose_from_terrain": 0, "bounds_walls": 0}
    owners = ((htnav.world, "_hill_field"), (htnav.env, "pose_from_terrain"), (htnav.env, "bounds_walls"))
    for owner, name in owners:

        def counting(*args, _real=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counting)
    cfg = replace(LIVELY_TINY, scenario=scenario)
    world = world_for_episode(cfg, 0, 1)
    params = initial_params(cfg, 0)
    traj = rollout(world, params, cfg, 13, action_noise(params, episode_rng(0, 1), 13))
    assert calls.pop("bounds_walls") == (scenario == "obstacle_avoidance")
    if scenario == "uneven_terrain":
        assert calls == {"_hill_field": 1, "pose_from_terrain": len(traj) + 1}
        assert traj.z.any()
    else:
        assert calls == {"_hill_field": 0, "pose_from_terrain": 0}
        np.testing.assert_array_equal(traj.z, 0.0)


def test_rollout_mean_never_touches_rng():
    cfg = LIVELY_TINY
    world = world_for_episode(cfg, 0, 0)
    params = initial_params(cfg, 0)
    params = params.with_weights(np.random.default_rng(3).normal(0.0, 0.5, params.weights.shape))
    traj = rollout(world, params, cfg, cfg.max_steps)
    assert len(traj) == cfg.max_steps or traj.final_cause != "running"
    # with no noise the raw action is the location parameter itself, bit for
    # bit (adding zeros would turn a -0.0 into +0.0), and its projection is
    # what ran: replaying it retraces every later step's features and height
    mu = np.stack([forward_mean(params, x) for x in traj.features])
    assert traj.raw_actions.tobytes() == mu.tobytes()
    env = NavEnv(world, cfg.env, cfg.rewards, max_steps=cfg.max_steps)
    env.reset()
    for t, m in enumerate(mu):
        x, _, _ = env.step(np.clip(m, -cfg.delta, cfg.delta))
        if t + 1 < len(traj):
            np.testing.assert_array_equal(traj.features[t + 1], x)
        assert traj.z[t + 1] == env.pose[3]
    again = rollout(world, params, cfg, cfg.max_steps)
    assert again.raw_actions.tobytes() == traj.raw_actions.tobytes()
    np.testing.assert_array_equal(again.z, traj.z)


def test_rollout_terminal_cause_sticks():
    # generated worlds keep start and goal far apart, so hand-build one
    from htnav.world import World

    world = World(
        heightmap=None,
        obstacles=[],
        start_pose=(5.0, 5.0, 0.0),
        goal=(6.05, 5.0),
        scenario="goal_reaching",
        bounds=(0.0, 0.0, 40.0, 40.0),
    )
    cfg = replace(TINY, max_steps=300)

    # action mean is zero at init, so drive with a biased policy instead
    params = initial_params(cfg, 0)
    w = params.weights.copy()
    w[:] = 0.0
    w[0] = 20.0  # v responds to d/20: full speed ahead
    params = params.with_weights(w)
    traj = rollout(world, params, cfg, cfg.max_steps)
    assert traj.final_cause == "goal"
    assert len(traj) < cfg.max_steps
    assert traj.final_distance <= cfg.env.goal_radius


# world layouts for the rollout oracle: the default, starts near the goal,
# where the literal distance bumps and the goal fire, and a small world
# with a few obstacles, whose boundary is never far
LAYOUTS = [
    {},
    {"worldgen.separation": [4.0, 6.0]},
    {"worldgen.separation": [2.0, 3.0]},
    {
        "worldgen.separation": [2.0, 4.0],
        "worldgen.bounds": [0.0, 0.0, 6.0, 6.0],
        "worldgen.n_trees": [0, 2],
        "worldgen.n_walls": [0, 1],
        "worldgen.obstacle_clearance": 0.5,
        "worldgen.elevation_gain": [0.5, 1.0],
        "worldgen.margin": 0.5,
    },
]


@oracle_settings(60)
@given(
    scenario=st.sampled_from(SCENARIOS),
    hidden=st.sampled_from([(), (3,)]),
    dist_mode=st.sampled_from(["latched", "literal"]),
    lively=st.booleans(),
    layout=st.sampled_from(LAYOUTS),
    fast=st.booleans(),
    flip=st.booleans(),
    family=st.sampled_from(["cauchy", "gaussian"]),
    noisy=st.booleans(),
    scale=st.sampled_from([0.05, 0.5, 3.0]),
    seed=st.integers(0, 2**32 - 1),
    steps=st.integers(1, 40),
    max_steps=st.integers(1, 40),
)
def test_rollout_matches_reference(
    scenario, hidden, dist_mode, lively, layout, fast, flip, family, noisy, scale, seed, steps,
    max_steps,
):
    # every output of rollout, byte for byte, against the step arithmetic
    # written out plainly (conftest.reference_rollout).  A fast robot meets
    # the boundary and the goal more often, and its limits round (1.0 does
    # not); a low flip threshold makes flip-overs.
    overrides = {"rewards.dist_mode": dist_mode, **layout, **(LIVELY if lively else {})}
    if fast:
        overrides["env.v_max"] = 5.3
        overrides["env.omega_max"] = 2.9
    if flip:
        overrides["env.flip_threshold"] = 0.05
    cfg = apply_overrides(
        TrainConfig(scenario=scenario, hidden_layers=hidden, max_steps=max_steps), overrides
    )
    world = generate_world(scenario, np.random.SeedSequence(seed), cfg.worldgen)
    params = make_params(observation_dim(scenario), hidden, family=family, seed=seed, scale=scale)
    noise = action_noise(params, np.random.default_rng(seed), steps) if noisy else None
    got = rollout(world, params, cfg, steps, noise)
    want = reference_rollout(world, params, cfg, steps, noise)
    for name in ("features", "raw_actions", "rewards", "z"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes()), name
    assert got.final_cause == want.final_cause
    assert np.float64(got.final_distance).tobytes() == np.float64(want.final_distance).tobytes()


def _assert_learned(run, cfg):
    """Reward fired and the weights moved, so equalities below mean something."""
    assert np.any(run.returns != 0.0)
    assert np.any(run.params.weights != initial_params(cfg, run.seed).weights)


def test_train_seed_reproducible(world_requests):
    a = train_seed(LIVELY_TINY, 0)
    first_worlds = list(world_requests)
    world_requests.clear()
    b = train_seed(LIVELY_TINY, 0)
    _assert_learned(a, LIVELY_TINY)
    np.testing.assert_array_equal(a.returns, b.returns)
    np.testing.assert_array_equal(a.params.weights, b.params.weights)
    np.testing.assert_array_equal(a.opt_state.m, b.opt_state.m)
    assert world_requests == first_worlds
    assert a.causes == b.causes


def test_train_seed_lengths_and_logs(world_requests):
    run = train_seed(TINY, 1)
    assert len(run) == TINY.episodes
    for arr in (
        run.returns,
        run.steps,
        run.grad_raw_inf,
        run.grad_clipped_inf,
        run.horizon_sampled,
        run.max_abs_action,
    ):
        assert arr.shape == (TINY.episodes,)
    assert len(run.causes) == TINY.episodes
    assert [(seed, k) for _, seed, k, _ in world_requests] == [(1, k) for k in range(TINY.episodes)]
    assert np.all(run.grad_clipped_inf <= TINY.phi + 1e-12)
    # the horizon drawn first from each episode's stream bounds its steps
    drawn = [sample_horizon(TINY.gamma, episode_rng(1, k)) for k in range(TINY.episodes)]
    np.testing.assert_array_equal(run.horizon_sampled, drawn)
    assert np.all(run.steps <= np.minimum(run.horizon_sampled + 1, TINY.max_steps))
    assert np.all(run.max_abs_action <= TINY.delta + 1e-12)


def test_zero_learning_rate_freezes_params():
    with pytest.raises(ConfigError):
        replace(TINY, eta=0.0, episodes=3)
    # eta must be positive by config contract; emulate a frozen run instead
    cfg = replace(LIVELY_TINY, eta=1e-300, episodes=3)
    run = train_seed(cfg, 0)
    np.testing.assert_allclose(run.params.weights, initial_params(cfg, 0).weights, atol=1e-290)


def test_zero_episodes_gives_empty_run():
    cfg = replace(TINY, episodes=0)
    run = train_seed(cfg, 0)
    assert len(run) == 0
    np.testing.assert_array_equal(run.params.weights, initial_params(cfg, 0).weights)
    runs = train(cfg)
    assert [run.returns.shape for run in runs] == [(0,), (0,)]


def test_worlds_do_not_depend_on_family():
    cauchy = world_fields(world_for_episode(TINY, 3, 5))
    gaussian = world_fields(world_for_episode(replace(TINY, family="gaussian"), 3, 5))
    assert cauchy == gaussian
    # the episode index, not the family, picks the world
    assert world_fields(world_for_episode(TINY, 3, 6)) != cauchy


def test_train_stacks_all_seeds():
    runs = train(TINY)
    assert [(run.seed, run.family) for run in runs] == [(0, "cauchy"), (1, "cauchy")]
    assert [run.returns.shape for run in runs] == [(TINY.episodes,)] * 2


def test_run_comparison_pairs_worlds(world_requests):
    # seed 1 is one where both families earn reward within two episodes
    cauchy = replace(LIVELY_TINY, episodes=2, seeds=(1,))
    result = run_comparison(cauchy)
    assert list(result) == list(FAMILIES)
    for family, runs in result.items():
        _assert_learned(runs[0], replace(cauchy, family=family))
    by_family = {
        family: [call[1:] for call in world_requests if call[0] == family]
        for family in ("cauchy", "gaussian")
    }
    assert [(seed, k) for seed, k, _ in by_family["cauchy"]] == [(1, 0), (1, 1)]
    assert by_family["cauchy"] == by_family["gaussian"]
    assert [run.returns.shape for runs in result.values() for run in runs] == [(2,), (2,)]


def test_run_comparison_ignores_cfg_family():
    cfg = replace(LIVELY_TINY, episodes=2, seeds=(1,))
    a = run_comparison(cfg)
    b = run_comparison(replace(cfg, family="gaussian"))
    assert list(a) == list(b) == list(FAMILIES)
    for family in FAMILIES:
        [run_a], [run_b] = a[family], b[family]
        assert run_a.family == run_b.family == family
        _assert_learned(run_a, replace(cfg, family=family))
        np.testing.assert_array_equal(run_a.returns, run_b.returns)
        np.testing.assert_array_equal(run_a.params.weights, run_b.params.weights)


def test_unpack_weights_once_per_weight_vector(monkeypatch):
    calls = []
    real = htnav.policy.unpack_weights

    def counting(spec, theta):
        calls.append(1)
        return real(spec, theta)

    monkeypatch.setattr(htnav.policy, "unpack_weights", counting)
    cfg = replace(LIVELY_TINY, seeds=(0,))
    run = train_seed(cfg, 0)
    # the initial weights, then one vector per ascent step; no step unpacks
    assert len(calls) == cfg.episodes + 1
    assert run.steps.sum() > len(calls)


def test_curves_csv_layout(tmp_path):
    runs = train(TINY)
    path = tmp_path / "curve.csv"
    write_curves_csv(runs, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["seed", "episode", "return", "steps", "cause"]
    assert len(rows) == 1 + 2 * TINY.episodes
    seen = {(int(r[0]), int(r[1])) for r in rows[1:]}
    assert seen == {(s, k) for s in (0, 1) for k in range(TINY.episodes)}
    float(rows[1][2])  # returns parse back


def test_diagnostics_csv_layout(tmp_path):
    [run] = train(replace(TINY, seeds=(0,)))
    path = tmp_path / "diag.csv"
    write_diagnostics_csv([run], path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "seed",
        "iteration",
        "grad_raw_inf",
        "grad_clipped_inf",
        "horizon_sampled",
        "horizon_used",
        "max_abs_action",
    ]
    assert len(rows) == 1 + TINY.episodes
    assert float(rows[1][3]) <= TINY.phi
    # the horizon the estimator summed over is the last step's index
    assert [int(r[5]) for r in rows[1:]] == (run.steps - 1).tolist()
    assert np.all(run.steps - 1 <= run.horizon_sampled)


def test_comparison_csv_layout(tmp_path):
    cauchy = replace(TINY, episodes=3, seeds=(0,))
    result = run_comparison(cauchy)
    path = tmp_path / "comparison.csv"
    write_comparison_csv(result, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["episode", "cauchy_mean", "cauchy_std", "gaussian_mean", "gaussian_std"]
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]


def test_training_abort_on_nonfinite(monkeypatch):
    import htnav.training as tr

    bad = (np.array([np.nan, 0.0]), np.array([0.0, 0.0]))
    monkeypatch.setattr(tr, "estimate", lambda *a, **k: bad)
    with pytest.raises(TrainingAbort, match="non-finite gradient"):
        train_seed(replace(TINY, episodes=1, seeds=(0,)), 0)


def _sleep_then_pid(seconds):
    time.sleep(seconds)
    return seconds, os.getpid()


def test_map_jobs_keeps_job_order_in_and_out_of_process(monkeypatch):
    jobs = [(k,) for k in (5, -3, 0, 12, 7)]
    use_workers(monkeypatch, 1)
    assert map_jobs(abs, jobs) == [5, 3, 0, 12, 7]
    # one usable CPU: no worker process is started
    assert map_jobs(os.getpid, [(), ()]) == [os.getpid()] * 2
    use_workers(monkeypatch, 2)
    assert map_jobs(abs, jobs) == [5, 3, 0, 12, 7]
    # two usable CPUs: whichever process claims the first job sleeps
    # through it, so the other claims the second; this process is one
    pids = [pid for _, pid in map_jobs(_sleep_then_pid, [(0.5,), (0,)])]
    assert os.getpid() in pids and len(set(pids)) == 2
    assert_no_child_left()
    assert map_jobs(abs, []) == []


@pytest.mark.parametrize("cpus, forks", [(2, 1), (3, 2)])
def test_map_jobs_forks_one_worker_fewer_than_cpus(monkeypatch, cpus, forks):
    calls = []
    real = os.fork

    def counting():
        calls.append(1)
        return real()

    use_workers(monkeypatch, cpus)
    monkeypatch.setattr(os, "fork", counting)
    assert map_jobs(abs, [(-k,) for k in range(6)]) == list(range(6))
    # a forked child's calls land in its own copy of ``calls``
    assert len(calls) == forks
    assert_no_child_left()


def _raise_here_stall_elsewhere(pid):
    if os.getpid() == pid:
        raise GenerationError("raised in the calling process")
    time.sleep(60)


def test_exception_in_own_job_keeps_its_type(monkeypatch):
    # the forked worker stalls in its job, so this process claims the
    # other; raising must not wait for the stalled worker to finish
    use_workers(monkeypatch, 2)
    started = time.monotonic()
    with pytest.raises(GenerationError, match="raised in the calling process"):
        map_jobs(_raise_here_stall_elsewhere, [(os.getpid(),)] * 2)
    assert time.monotonic() - started < 30
    assert_no_child_left()


def test_run_comparison_lists_jobs_seed_by_seed(monkeypatch):
    import htnav.training as tr

    calls = []

    def recording(fn, jobs):
        calls.append([(cfg.family, seed) for cfg, seed in jobs])
        return [f"{cfg.family}-{seed}" for cfg, seed in jobs]

    monkeypatch.setattr(tr, "map_jobs", recording)
    result = run_comparison(replace(TINY, seeds=(4, 2, 7)))
    assert calls == [[(f, s) for s in (4, 2, 7) for f in ("cauchy", "gaussian")]]
    assert result == {
        "cauchy": ["cauchy-4", "cauchy-2", "cauchy-7"],
        "gaussian": ["gaussian-4", "gaussian-2", "gaussian-7"],
    }


def test_training_abort_in_worker_keeps_its_type(monkeypatch):
    import htnav.training as tr

    use_workers(monkeypatch, 2)
    bad = (np.array([np.nan, 0.0]), np.array([0.0, 0.0]))
    with worker_only(lambda *args: bad, tr.estimate) as estimate:
        monkeypatch.setattr(tr, "estimate", estimate)
        with pytest.raises(TrainingAbort, match="non-finite gradient") as raised:
            train(replace(TINY, episodes=1, seeds=(0, 1)))
    assert "in a worker process" in str(raised.value.__cause__)
    assert_no_child_left()


def test_generation_error_in_worker_keeps_its_type(monkeypatch):
    import htnav.training as tr

    def no_world(*args):
        raise GenerationError("no placement satisfies the constraints")

    use_workers(monkeypatch, 2)
    with worker_only(no_world, tr.generate_world) as generate:
        monkeypatch.setattr(tr, "generate_world", generate)
        with pytest.raises(GenerationError, match="no placement") as raised:
            run_comparison(replace(TINY, episodes=1, seeds=(0, 1)))
    # the worker's own traceback comes along as the cause
    assert "in no_world" in str(raised.value.__cause__)
    assert_no_child_left()


def test_worker_death_is_an_error(monkeypatch):
    use_workers(monkeypatch, 2)
    with worker_only(lambda k: os._exit(3), abs) as fn:
        with pytest.raises(RuntimeError, match=r"died without a result \(exit code 3\)"):
            map_jobs(fn, [(1,), (-2,)])
    assert_no_child_left()


def test_more_jobs_than_claims(monkeypatch):
    # above 256 jobs a claim covers a run of them: 2 each for 257 jobs, the
    # last run one job short, and 79 each for 20000; results still come
    # back in order, and a worker that dies is an error, not a hang
    for n in (257, 20_000):
        jobs = [(-k,) for k in range(n)]
        for workers in (2, 3):
            use_workers(monkeypatch, workers)
            assert map_jobs(abs, jobs) == list(range(n))
    use_workers(monkeypatch, 2)
    with worker_only(lambda k: os._exit(3), abs) as fn:
        with pytest.raises(RuntimeError, match=r"died without a result \(exit code 3\)"):
            map_jobs(fn, jobs)
    assert_no_child_left()


def test_workers_claim_jobs_as_they_free_up(monkeypatch):
    # while one process sleeps through job 0, the other claims jobs 1-3; a
    # static split would hand job 2 to the sleeping one
    use_workers(monkeypatch, 2)
    results = map_jobs(_sleep_then_pid, [(1.0,), (0,), (0,), (0,)])
    assert [seconds for seconds, _ in results] == [1.0, 0, 0, 0]
    first_pid = results[0][1]
    assert all(pid != first_pid for _, pid in results[1:])
    assert os.getpid() in {pid for _, pid in results}
    assert_no_child_left()


def test_workers_need_no_pool_modules():
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "import htnav.training as tr\n"
        "tr.usable_cpus = lambda: 2\n"
        "assert tr.map_jobs(abs, [(-1,), (2,), (-3,)]) == [1, 2, 3]\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
