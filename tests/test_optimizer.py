import numpy as np
import pytest

from htnav.optimizer import OptimizerState, ascent_step


def test_hand_computed_first_step():
    # g=1 everywhere, defaults, no bias correction:
    # m=0.1, v=0.001, step = 0.01 * 0.1 / (sqrt(0.001) + 1e-8)
    state = OptimizerState.fresh(3)
    theta = np.zeros(3)
    new_state, theta1 = ascent_step(state, theta, np.ones(3))
    expected = 0.01 * 0.1 / (np.sqrt(0.001) + 1e-8)
    np.testing.assert_allclose(theta1, expected, rtol=1e-12)
    assert expected == pytest.approx(0.0316227, abs=1e-7)
    assert new_state.step_count == 1


def test_ascends_not_descends():
    state = OptimizerState.fresh(1)
    _, theta1 = ascent_step(state, np.zeros(1), np.array([5.0]))
    assert theta1[0] > 0
    _, theta1 = ascent_step(state, np.zeros(1), np.array([-5.0]))
    assert theta1[0] < 0


def test_step_is_pure():
    state = OptimizerState.fresh(2)
    theta = np.zeros(2)
    g = np.ones(2)
    ascent_step(state, theta, g)
    np.testing.assert_array_equal(state.m, 0.0)
    np.testing.assert_array_equal(state.v, 0.0)
    assert state.step_count == 0
    np.testing.assert_array_equal(theta, 0.0)


def test_moment_recursions():
    state = OptimizerState.fresh(1, eta=0.1)
    g1, g2 = np.array([2.0]), np.array([-1.0])
    s1, _ = ascent_step(state, np.zeros(1), g1)
    s2, _ = ascent_step(s1, np.zeros(1), g2)
    np.testing.assert_allclose(s2.m, 0.9 * (0.1 * g1) + 0.1 * g2)
    np.testing.assert_allclose(s2.v, 0.999 * (0.001 * g1**2) + 0.001 * g2**2)
    assert s2.step_count == 2


def test_zero_eta_freezes_parameters():
    state = OptimizerState.fresh(4, eta=0.0)
    theta = np.arange(4.0)
    _, theta1 = ascent_step(state, theta, np.random.default_rng(0).standard_normal(4))
    np.testing.assert_array_equal(theta1, theta)


def test_validation():
    with pytest.raises(ValueError):
        OptimizerState(m=np.zeros(2), v=np.zeros(3))
    with pytest.raises(ValueError):
        OptimizerState(m=np.zeros(2), v=np.zeros(2), beta1=1.0)
    with pytest.raises(ValueError):
        OptimizerState(m=np.zeros(2), v=np.zeros(2), epsilon=0.0)
    state = OptimizerState.fresh(2)
    with pytest.raises(ValueError):
        ascent_step(state, np.zeros(3), np.zeros(2))
