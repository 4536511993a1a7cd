import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htnav.net import ApproximatorSpec
from htnav.policy import (
    PolicyParameters,
    action_noise,
    dlogp_dmean,
    forward_mean,
    init_policy,
    project_action,
    weighted_score_sum,
)

from conftest import log_density, make_params, oracle_settings, score


def test_parameters_validate_shapes_and_sigma():
    spec = ApproximatorSpec(input_dim=4)
    with pytest.raises(ValueError):
        PolicyParameters(spec=spec, weights=np.zeros(7), sigma=0.25, family="cauchy")
    with pytest.raises(ValueError):
        PolicyParameters(spec=spec, weights=np.zeros(8), sigma=0.0, family="cauchy")
    with pytest.raises(ValueError):
        PolicyParameters(spec=spec, weights=np.zeros(8), sigma=0.25, family="levy")


def test_pickle_round_trip_recuts_layer_views():
    params = make_params(hidden=(5,), family="gaussian")
    back = pickle.loads(pickle.dumps(params))
    assert (back.spec, back.sigma, back.family) == (params.spec, params.sigma, params.family)
    assert back.weights.tobytes() == params.weights.tobytes()
    for (w, b), (w0, b0) in zip(back.layers, params.layers):
        assert np.shares_memory(w, back.weights) and np.shares_memory(b, back.weights)
        np.testing.assert_array_equal(w, w0)
        np.testing.assert_array_equal(b, b0)


def test_init_policy_mean_is_zero_everywhere():
    spec = ApproximatorSpec(input_dim=4, hidden_layers=(8,))
    params = init_policy(spec, 0.25, "cauchy", np.random.default_rng(0))
    for x in np.random.default_rng(1).standard_normal((10, 4)):
        np.testing.assert_array_equal(forward_mean(params, x), 0.0)


def _row_forward_mean(layers, obs):
    """forward_mean as a (1, d) row times each layer's transposed weights."""
    h = obs[None]
    for hw, hb in layers[:-1]:
        h = np.tanh(h @ hw.T + hb)
    w, b = layers[-1]
    mu = h @ w.T
    if b is not None:
        mu = mu + b
    return mu.tolist()[0]


@oracle_settings(100)
@given(
    st.sampled_from([4, 6, 724]),
    st.sampled_from([(), (3,)]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.05, 0.5, 3.0]),
)
def test_forward_mean_matches_row_times_transpose_bits(width, hidden, final_bias, seed, scale):
    """Each layer's matvec rounds as the (1, d) row times the transposed weights."""
    params = make_params(width, hidden, seed=seed, scale=scale)
    rng = np.random.default_rng(seed)
    w, b = params.layers[-1]
    # the final layer with and without a bias, whatever the spec gives it
    params.layers[-1] = (w, scale * rng.standard_normal(len(w)) if final_bias else None)
    obs = scale * rng.standard_normal(width)
    got, want = forward_mean(params, obs), _row_forward_mean(params.layers, obs)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert all(type(v) is float for v in got)


def test_project_action_clamps():
    assert project_action((3.0, -0.2), 1.0) == (1.0, -0.2)
    assert project_action((-3.0, 0.5), 0.3) == (-0.3, 0.3)


def _clip_edges(delta):
    """NaN, the infinities, both zeros, exactly +-delta and one ulp to either side of it."""
    out = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, -1e300]
    for edge in (delta, -delta):
        out += [edge, math.nextafter(edge, math.inf), math.nextafter(edge, -math.inf)]
    return out


@pytest.mark.parametrize("delta", [1.0, 0.3, 2.5, 1, math.inf])
def test_project_action_matches_np_clip_on_edges(delta):
    edges = _clip_edges(float(delta))
    for a in edges:
        for b in edges:
            raw = np.array([a, b])
            got = project_action((a, b), delta)
            # bytes, so -0.0 and NaN count
            assert np.array(got).tobytes() == np.clip(raw, -delta, delta).tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=2, max_size=2), st.floats(5e-324, 1e300))
def test_project_action_matches_np_clip_bits(raw, delta):
    got = project_action(raw, delta)
    assert np.array(got).tobytes() == np.clip(np.array(raw), -delta, delta).tobytes()


def test_sampling_is_reproducible():
    params = make_params()
    noise = action_noise(params, np.random.default_rng(7), 5)
    assert noise.shape == (5, 2)
    assert noise.tobytes() == action_noise(params, np.random.default_rng(7), 5).tobytes()
    assert not np.array_equal(noise, action_noise(params, np.random.default_rng(8), 5))


def _step_noise(params, rng):
    """One step's noise as the policy drew it when it sampled one action per step."""
    if params.family == "cauchy":
        return params.sigma * np.tan(np.pi * (rng.random(2) - 0.5))
    return params.sigma * rng.standard_normal(2)


@pytest.mark.parametrize("family", ["cauchy", "gaussian"])
@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_noise_for_an_episode_is_the_per_step_stream(family, n):
    # one call draws, byte for byte, what n one-step draws would
    params = make_params(family=family)
    rng = np.random.default_rng(5)
    per_step = np.stack([_step_noise(params, rng) for _ in range(n)])
    one_call = np.random.default_rng(5)
    assert action_noise(params, one_call, n).tobytes() == per_step.tobytes()
    # and leaves the generator where the n draws left it
    assert one_call.bit_generator.state == rng.bit_generator.state


def test_cauchy_log_density_at_mode():
    # two dims at the location, sigma=0.25: 2 * (-log(pi * 0.25))
    params = make_params(sigma=0.25, family="cauchy", scale=0.0)
    obs = np.zeros(4)
    assert log_density(params, obs, np.zeros(2)) == pytest.approx(0.4831289504, abs=1e-9)


def test_gaussian_log_density_at_mode():
    # one expression, two equal dims: each contributes -0.5*log(2*pi*sigma^2)
    params = make_params(sigma=0.25, family="gaussian", scale=0.0)
    obs = np.zeros(4)
    per_dim = 0.4673558279
    assert log_density(params, obs, np.zeros(2)) == pytest.approx(2 * per_dim, abs=1e-9)


def test_cauchy_density_heavier_in_tail():
    pc = make_params(sigma=0.25, family="cauchy", scale=0.0)
    pg = make_params(sigma=0.25, family="gaussian", scale=0.0)
    obs = np.zeros(4)
    far = np.array([5.0 * 0.25, 0.0])
    assert log_density(pc, obs, far) > log_density(pg, obs, far)


def test_dlogp_dmean_at_one_sigma():
    # cauchy: 2*d/(s^2+d^2) at d=s gives 1/s; gaussian: d/s^2 at d=s gives 1/s
    for family in ("cauchy", "gaussian"):
        params = make_params(sigma=0.25, family=family, scale=0.0)
        g = dlogp_dmean(params, np.zeros(2), np.array([0.25, 0.0]))
        assert g[0] == pytest.approx(4.0, rel=1e-12)
        assert g[1] == 0.0


def test_cauchy_empirical_quartiles_and_median():
    params = make_params(sigma=0.25, family="cauchy", scale=0.0)
    rng = np.random.default_rng(42)
    draws = action_noise(params, rng, 20000)
    q1, q2, q3 = np.quantile(draws[:, 0], [0.25, 0.5, 0.75])
    assert q2 == pytest.approx(0.0, abs=0.02)
    assert q1 == pytest.approx(-0.25, abs=0.02)
    assert q3 == pytest.approx(0.25, abs=0.02)


def _score_fd(params, obs, action, eps=1e-6):
    g = np.zeros_like(params.weights)
    for j in range(params.weights.size):
        up = params.weights.copy()
        dn = params.weights.copy()
        up[j] += eps
        dn[j] -= eps
        g[j] = (
            log_density(params.with_weights(up), obs, action)
            - log_density(params.with_weights(dn), obs, action)
        ) / (2 * eps)
    return g


@pytest.mark.parametrize("family", ["cauchy", "gaussian"])
@pytest.mark.parametrize("hidden", [(), (6,)])
def test_score_matches_finite_differences(family, hidden):
    params = make_params(hidden=hidden, family=family, seed=5)
    rng = np.random.default_rng(9)
    obs = rng.standard_normal(4)
    action = forward_mean(params, obs) + 0.3 * rng.standard_normal(2)
    np.testing.assert_allclose(
        score(params, obs, action), _score_fd(params, obs, action), rtol=1e-5, atol=1e-7
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["cauchy", "gaussian"]))
def test_weighted_score_sum_equals_per_step_sum(seed, family):
    params = make_params(hidden=(5,), family=family, seed=1)
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 8)
    feats = rng.standard_normal((n, 4))
    actions = rng.standard_normal((n, 2))
    coeffs = rng.standard_normal(n)
    batched = weighted_score_sum(params, feats, actions, coeffs)
    naive = sum(coeffs[t] * score(params, feats[t], actions[t]) for t in range(n))
    np.testing.assert_allclose(batched, naive, rtol=1e-10, atol=1e-10)
