import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htnav.cli import write_eval_rows_csv, write_eval_summary_json
from htnav.config import TrainConfig
from htnav.evaluation import EpisodeResult, elevation_cost, evaluate, summarize
from htnav.training import initial_params
from htnav.world import GenerationError

from conftest import assert_no_child_left, use_workers, worker_only


def test_elevation_cost_examples():
    assert elevation_cost([1.0, 1.0, 1.0]) == 0.0
    assert elevation_cost([0.0]) == 0.0
    assert elevation_cost([0.0, 0.2, 0.5]) == pytest.approx(math.sqrt(0.13))
    assert elevation_cost([0.0, 1.0]) == 1.0


def test_elevation_cost_validates_input():
    with pytest.raises(ValueError):
        elevation_cost([])
    with pytest.raises(ValueError):
        elevation_cost([[0.0, 1.0]])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=20), st.floats(-3, 3))
def test_elevation_cost_shift_invariant(zs, c):
    shifted = [z + c for z in zs]
    assert elevation_cost(shifted) == pytest.approx(elevation_cost(zs), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=20), st.floats(-5, 5))
def test_elevation_cost_grows_with_extension(zs, z_new):
    assert elevation_cost(zs + [z_new]) >= elevation_cost(zs) - 1e-12


def _zero_policy(cfg):
    params = initial_params(cfg, 0)
    return params.with_weights(np.zeros_like(params.weights))


def _navigator(cfg):
    # hand-built linear weights: v tracks distance, omega tracks misalignment
    params = _zero_policy(cfg)
    n_in = params.spec.input_dim
    w = params.weights.copy()
    w[0] = 5.0  # v from d_goal / 20 (row-major (2, n_in) layout)
    w[n_in + 1] = 3.0  # omega from alpha / pi
    return params.with_weights(w)


def test_stationary_policy_times_out():
    cfg = TrainConfig(episodes=1, max_steps=25)
    rows = evaluate(_zero_policy(cfg), cfg, n_episodes=3, mode="deterministic")
    assert all(r.cause == "timeout" for r in rows)
    assert all(r.steps == 25 for r in rows)
    summary = summarize(rows, "deterministic")
    assert summary["success_rate"] == 0.0
    assert summary["avg_traj_length_successful"] is None
    assert summary["elevation_cost_successful"] is None
    assert summary["avg_traj_length_all"] == 25.0


def test_navigator_reaches_every_goal():
    cfg = TrainConfig(episodes=1, max_steps=300)
    cfg = replace(cfg, env=replace(cfg.env, v_max=2.0))
    rows = evaluate(_navigator(cfg), cfg, n_episodes=5, mode="deterministic")
    assert all(r.cause == "goal" for r in rows)
    summary = summarize(rows, "deterministic")
    assert summary["success_rate"] == 100.0
    assert summary["avg_traj_length_successful"] == summary["avg_traj_length_all"] < 300
    assert summary["elevation_cost_successful"] == summary["elevation_cost_all"]


def test_deterministic_eval_is_reproducible():
    cfg = TrainConfig(episodes=1, max_steps=30)
    params = initial_params(cfg, 2)
    a = evaluate(params, cfg, n_episodes=4, mode="deterministic", seed=9)
    b = evaluate(params, cfg, n_episodes=4, mode="deterministic", seed=9)
    assert a == b
    assert [r.episode for r in a] == [0, 1, 2, 3]


def test_stochastic_eval_is_reproducible_and_differs_from_deterministic():
    cfg = TrainConfig(episodes=1, max_steps=30)
    params = initial_params(cfg, 2)
    a = evaluate(params, cfg, n_episodes=4, mode="stochastic", seed=9)
    b = evaluate(params, cfg, n_episodes=4, mode="stochastic", seed=9)
    assert a == b
    det = evaluate(params, cfg, n_episodes=4, mode="deterministic", seed=9)
    assert any(x != y for x, y in zip(a, det))


def test_stochastic_eval_draws_no_horizon(monkeypatch):
    # every generator evaluate makes would end a sampled-horizon episode
    # after one step; stochastic eval must run to max_steps instead
    geometric_calls = []

    class _OneStepHorizon:
        def __init__(self, rng):
            self._rng = rng

        def geometric(self, p):
            geometric_calls.append(p)
            return 1

        def __getattr__(self, name):
            return getattr(self._rng, name)

    real = np.random.default_rng
    use_workers(monkeypatch, 1)
    monkeypatch.setattr(np.random, "default_rng", lambda *a: _OneStepHorizon(real(*a)))
    cfg = TrainConfig(episodes=1, max_steps=15)
    rows = evaluate(_zero_policy(cfg), cfg, n_episodes=3, mode="stochastic")
    assert geometric_calls == []
    assert [r.steps for r in rows] == [15, 15, 15]
    assert all(r.cause == "timeout" for r in rows)


def test_deterministic_eval_draws_no_noise(monkeypatch):
    import htnav.evaluation as ev

    def no_noise(*args):
        raise AssertionError("deterministic eval drew noise")

    use_workers(monkeypatch, 1)
    monkeypatch.setattr(ev, "action_noise", no_noise)
    cfg = TrainConfig(episodes=1, max_steps=10)
    rows = evaluate(_zero_policy(cfg), cfg, n_episodes=2, mode="deterministic")
    assert [r.steps for r in rows] == [10, 10]


def test_generation_error_in_eval_worker_keeps_its_type(monkeypatch):
    import htnav.evaluation as ev

    def no_world(*args):
        raise GenerationError("no placement satisfies the constraints")

    use_workers(monkeypatch, 2)
    cfg = TrainConfig(episodes=1, max_steps=10)
    with worker_only(no_world, ev.generate_world) as generate:
        monkeypatch.setattr(ev, "generate_world", generate)
        with pytest.raises(GenerationError, match="no placement") as raised:
            evaluate(_zero_policy(cfg), cfg, n_episodes=3)
    assert "in no_world" in str(raised.value.__cause__)
    assert_no_child_left()


def test_eval_seed_changes_worlds():
    cfg = TrainConfig(episodes=1, max_steps=20)
    params = _zero_policy(cfg)
    a = evaluate(params, cfg, n_episodes=2, seed=0)
    b = evaluate(params, cfg, n_episodes=2, seed=1)
    assert any(x.final_distance != y.final_distance for x, y in zip(a, b))


def test_evaluate_validates_arguments():
    cfg = TrainConfig()
    params = _zero_policy(cfg)
    with pytest.raises(ValueError):
        evaluate(params, cfg, n_episodes=0)
    with pytest.raises(ValueError):
        evaluate(params, cfg, n_episodes=1, mode="greedy")


def test_summarize_by_hand():
    rows = [
        EpisodeResult(episode=0, cause="goal", steps=10, episode_return=1.0, elevation=0.5, final_distance=0.1),
        EpisodeResult(episode=1, cause="timeout", steps=30, episode_return=0.0, elevation=1.5, final_distance=5.0),
        EpisodeResult(episode=2, cause="goal", steps=20, episode_return=2.0, elevation=1.0, final_distance=0.2),
        EpisodeResult(episode=3, cause="collision", steps=4, episode_return=-1.0, elevation=0.0, final_distance=9.0),
    ]
    assert summarize(rows, "stochastic") == {
        "episodes": 4,
        "mode": "stochastic",
        "success_rate": 50.0,
        "avg_traj_length_successful": 15.0,
        "avg_traj_length_all": 16.0,
        "elevation_cost_all": 0.75,
        "elevation_cost_successful": 0.75,
    }


def test_eval_rows_csv(tmp_path):
    cfg = TrainConfig(episodes=1, max_steps=10)
    path = tmp_path / "rows.csv"
    write_eval_rows_csv(evaluate(_zero_policy(cfg), cfg, n_episodes=3), path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["episode", "cause", "steps", "return", "elevation_cost", "final_distance"]
    assert len(rows) == 4
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]


def test_eval_summary_json_nan_becomes_null(tmp_path):
    cfg = TrainConfig(episodes=1, max_steps=10)
    path = tmp_path / "summary.json"
    rows = evaluate(_zero_policy(cfg), cfg, n_episodes=2)
    write_eval_summary_json(summarize(rows, "deterministic"), path)
    doc = json.loads(path.read_text())
    assert doc["success_rate"] == 0.0
    assert doc["avg_traj_length_successful"] is None
    assert doc["elevation_cost_successful"] is None
    assert doc["avg_traj_length_all"] == 10.0
    assert doc["mode"] == "deterministic"


def test_elevation_cost_counts_terrain(tmp_path):
    cfg = TrainConfig(scenario="uneven_terrain", episodes=1, max_steps=60)
    cfg = replace(cfg, env=replace(cfg.env, v_max=2.0))
    rows = evaluate(_navigator(cfg), cfg, n_episodes=3, mode="deterministic")
    # driving across hills must accumulate strictly positive elevation cost
    assert summarize(rows, "deterministic")["elevation_cost_all"] > 0.0
