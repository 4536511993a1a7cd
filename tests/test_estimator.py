import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htnav.estimator import clip_gradient, estimate, estimate_gradient, sample_horizon
from htnav.trajectory import Trajectory

from conftest import make_params, score


def _traj(params, rng, n):
    feats = rng.standard_normal((n, params.spec.input_dim))
    raws = rng.standard_normal((n, 2))
    rewards = rng.standard_normal(n)
    return Trajectory(
        features=feats,
        raw_actions=raws,
        rewards=rewards,
        z=np.zeros(n + 1),
    )


def _naive_estimate(params, traj, gamma):
    """Direct transcription of the double sum, one backprop per (t, tau)."""
    n = len(traj)
    grad = np.zeros_like(params.weights)
    for t in range(n):
        inner = np.zeros_like(grad)
        for tau in range(t + 1):
            inner += score(params, traj.features[tau], traj.raw_actions[tau])
        grad += gamma ** (t / 2.0) * traj.rewards[t] * inner
    return grad


@pytest.mark.parametrize("family", ["cauchy", "gaussian"])
def test_estimate_matches_naive_double_sum(family):
    params = make_params(family=family, seed=2)
    rng = np.random.default_rng(0)
    traj = _traj(params, rng, 7)
    fast = estimate_gradient(params, traj, gamma=0.9)
    slow = _naive_estimate(params, traj, gamma=0.9)
    np.testing.assert_allclose(fast, slow, rtol=1e-10, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.99))
def test_estimate_matches_naive_property(seed, gamma):
    params = make_params(hidden=(4,), seed=3)
    rng = np.random.default_rng(seed)
    traj = _traj(params, rng, int(rng.integers(1, 6)))
    np.testing.assert_allclose(
        estimate_gradient(params, traj, gamma),
        _naive_estimate(params, traj, gamma),
        rtol=1e-9,
        atol=1e-11,
    )


def test_single_step_estimate_is_reward_times_score():
    params = make_params(seed=4)
    traj = _traj(params, np.random.default_rng(1), 1)
    expected = traj.rewards[0] * score(params, traj.features[0], traj.raw_actions[0])
    np.testing.assert_allclose(estimate_gradient(params, traj, 0.5), expected, rtol=1e-12)


def test_empty_trajectory_rejected():
    params = make_params()
    traj = _traj(params, np.random.default_rng(0), 1)
    traj.rewards = np.zeros(0)
    with pytest.raises(ValueError):
        estimate_gradient(params, traj, 0.9)


def test_gamma_validated():
    params = make_params()
    traj = _traj(params, np.random.default_rng(0), 2)
    for gamma in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            estimate_gradient(params, traj, gamma)
    with pytest.raises(ValueError):
        sample_horizon(1.0, np.random.default_rng(0))


def test_horizon_support_and_mean():
    rng = np.random.default_rng(123)
    draws = np.array([sample_horizon(0.9, rng) for _ in range(20000)])
    assert draws.min() >= 0
    # geometric on {0,1,...} with p = 1 - sqrt(0.9): mean = (1-p)/p
    p = 1.0 - np.sqrt(0.9)
    assert draws.mean() == pytest.approx((1 - p) / p, abs=0.6)


def test_clip_gradient_clamps_to_phi():
    g = np.array([-20.0, 3.0, 11.0])
    np.testing.assert_array_equal(clip_gradient(g, 10.0), [-10.0, 3.0, 10.0])
    with pytest.raises(ValueError):
        clip_gradient(g, 0.0)


def test_estimate_bundle_horizon_bookkeeping():
    # estimate bundles the raw gradient and its clip; train_seed keeps the
    # horizon bookkeeping (tests/test_training.py)
    params = make_params(seed=6)
    traj = _traj(params, np.random.default_rng(2), 4)
    traj.rewards = traj.rewards * 100.0
    raw, clipped = estimate(params, traj, gamma=0.9, phi=10.0)
    np.testing.assert_array_equal(raw, estimate_gradient(params, traj, 0.9))
    assert np.abs(raw).max() > 10.0
    np.testing.assert_array_equal(clipped, clip_gradient(raw, 10.0))
