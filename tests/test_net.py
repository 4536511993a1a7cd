import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htnav.net import (
    ApproximatorSpec,
    backward_batch,
    forward_batch,
    init_weights,
    unpack_weights,
)


def test_spec_validation():
    with pytest.raises(ValueError):
        ApproximatorSpec(input_dim=0)
    with pytest.raises(ValueError):
        ApproximatorSpec(input_dim=4, hidden_layers=(0,))


def test_linear_spec_has_no_bias():
    spec = ApproximatorSpec(input_dim=4)
    assert not spec.has_bias
    assert spec.num_weights == 8
    (w, b), = unpack_weights(spec, np.arange(8.0))
    assert w.shape == (2, 4)
    assert b is None
    np.testing.assert_array_equal(w, np.arange(8.0).reshape(2, 4))


def test_mlp_weight_count():
    spec = ApproximatorSpec(input_dim=4, hidden_layers=(8, 8))
    # 4->8 (40) + 8->8 (72) + 8->2 (18)
    assert spec.num_weights == 40 + 72 + 18
    layers = unpack_weights(spec, np.zeros(spec.num_weights))
    assert [w.shape for w, _ in layers] == [(8, 4), (8, 8), (2, 8)]
    assert all(b is not None for _, b in layers)


def test_unpack_rejects_wrong_length():
    spec = ApproximatorSpec(input_dim=4)
    with pytest.raises(ValueError):
        unpack_weights(spec, np.zeros(7))


def test_init_output_layer_is_zero():
    spec = ApproximatorSpec(input_dim=5, hidden_layers=(16,))
    theta = init_weights(spec, np.random.default_rng(0))
    layers = unpack_weights(spec, theta)
    np.testing.assert_array_equal(layers[-1][0], 0.0)
    np.testing.assert_array_equal(layers[-1][1], 0.0)
    # hidden weights are drawn, not zero
    assert np.abs(layers[0][0]).max() > 0


def test_init_linear_is_zero():
    spec = ApproximatorSpec(input_dim=5)
    theta = init_weights(spec, np.random.default_rng(0))
    np.testing.assert_array_equal(theta, 0.0)
    mu, _ = forward_batch(unpack_weights(spec, theta), np.ones((1, 5)))
    np.testing.assert_array_equal(mu, 0.0)


def test_linear_forward_is_matrix_product():
    spec = ApproximatorSpec(input_dim=3)
    w = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 0.5]])
    x = np.array([1.0, 1.0, 2.0])
    mu, _ = forward_batch(unpack_weights(spec, w.ravel()), x[None, :])
    np.testing.assert_allclose(mu[0], w @ x)


def test_forward_batch_matches_single():
    spec = ApproximatorSpec(input_dim=4, hidden_layers=(6,))
    rng = np.random.default_rng(3)
    theta = rng.standard_normal(spec.num_weights)
    xs = rng.standard_normal((5, 4))
    layers = unpack_weights(spec, theta)
    mu_b, _ = forward_batch(layers, xs)
    for i in range(5):
        np.testing.assert_allclose(mu_b[i], forward_batch(layers, xs[i:i + 1])[0][0])
    with pytest.raises(ValueError, match="shape"):
        forward_batch(layers, xs[:, :3])


def _fd_grad(spec, theta, xs, dmu, eps=1e-6):
    """Finite-difference gradient of sum_i <dmu_i, mu_i(theta)>."""

    def value(t):
        mu, _ = forward_batch(unpack_weights(spec, t), xs)
        return float((mu * dmu).sum())

    g = np.zeros_like(theta)
    for j in range(theta.size):
        up = theta.copy()
        dn = theta.copy()
        up[j] += eps
        dn[j] -= eps
        g[j] = (value(up) - value(dn)) / (2 * eps)
    return g


@pytest.mark.parametrize("hidden", [(), (7,), (6, 5)])
def test_backward_matches_finite_differences(hidden):
    spec = ApproximatorSpec(input_dim=4, hidden_layers=hidden)
    rng = np.random.default_rng(11)
    theta = 0.5 * rng.standard_normal(spec.num_weights)
    xs = rng.standard_normal((3, 4))
    dmu = rng.standard_normal((3, 2))
    layers = unpack_weights(spec, theta)
    _, acts = forward_batch(layers, xs)
    analytic = backward_batch(layers, acts, dmu)
    numeric = _fd_grad(spec, theta, xs, dmu)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_backward_is_linear_in_upstream(seed):
    # backprop of a|->grad is linear: g(2*dmu) == 2*g(dmu)
    spec = ApproximatorSpec(input_dim=3, hidden_layers=(5,))
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(spec.num_weights)
    xs = rng.standard_normal((4, 3))
    dmu = rng.standard_normal((4, 2))
    layers = unpack_weights(spec, theta)
    _, acts = forward_batch(layers, xs)
    g1 = backward_batch(layers, acts, dmu)
    g2 = backward_batch(layers, acts, 2.0 * dmu)
    np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-12, atol=1e-12)
