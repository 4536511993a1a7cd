"""Stochastic control policies over the mean-function approximator.

Two families share one parametrization: a heavy-tailed Cauchy policy
(location = approximator output, fixed scale sigma) and a light-tailed
Gaussian policy (mean = approximator output, fixed standard deviation
sigma).  Action dimensions are sampled independently with the shared
scalar sigma.  A raw action is mu(s) plus noise drawn for the whole
episode at once; the analytic score function operates on that raw
(pre-projection) action, and the infinity-norm projection only
constrains what gets executed.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .net import OUTPUT_DIM, ApproximatorSpec, backward_batch, forward_batch, init_weights, unpack_weights
from .typecheck import check_fields

FAMILIES = ("cauchy", "gaussian")


@dataclass
class PolicyParameters:
    """Flat weight vector plus the fixed distribution parameters.

    ``sigma`` is the Cauchy scale / Gaussian standard deviation and is
    never touched by training.  ``layers`` holds the per-layer views of
    ``weights``, cut once here rather than on every forward pass.
    """

    spec: ApproximatorSpec
    weights: np.ndarray
    sigma: float
    family: str
    layers: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.layers = unpack_weights(self.spec, self.weights)  # checks the weight count
        rules = [
            (("sigma",), lambda v: v > 0, "positive"),
            (("family",), lambda v: v in FAMILIES, f"one of {FAMILIES}"),
        ]
        check_fields(self, rules)

    def __reduce__(self):
        # pickled (to and from worker processes) without ``layers``, which
        # are cut again as views of the unpickled weights
        return PolicyParameters, (self.spec, self.weights, self.sigma, self.family)

    def with_weights(self, weights: np.ndarray) -> "PolicyParameters":
        return replace(self, weights=np.asarray(weights, dtype=float))


def init_policy(
    spec: ApproximatorSpec,
    sigma: float,
    family: str,
    rng: np.random.Generator,
) -> PolicyParameters:
    return PolicyParameters(spec=spec, weights=init_weights(spec, rng), sigma=sigma, family=family)


def forward_mean(params: PolicyParameters, obs: np.ndarray) -> list[float]:
    """Location parameter mu(s) per action dimension, as Python floats; deterministic.

    ``obs`` is a 1-d float64 array, such as the feature row ``rollout``
    has just written.  Each layer is one matvec, which the tests check
    rounds as ``forward_batch``'s ``(1, d)`` row times the transposed
    weights does.
    """
    h = obs
    layers = params.layers
    for hw, hb in layers[:-1]:
        h = np.tanh(hw @ h + hb)
    w, b = layers[-1]
    mu = w @ h
    if b is not None:
        mu += b
    return mu.tolist()


def project_action(raw, delta: float) -> tuple[float, float]:
    """Clamp one ``(v, omega)`` action component-wise to [-delta, delta] (the infinity-norm ball).

    Clamps each component as ``np.clip`` does, in Python floats: NaN and
    -0.0 pass through unchanged.  ``delta`` is positive (``TrainConfig``
    checks it) and may be an int.
    """
    v, w = raw
    hi = float(delta)
    lo = -hi
    return (lo if v < lo else hi if v > hi else v), (lo if w < lo else hi if w > hi else w)


def action_noise(params: PolicyParameters, rng: np.random.Generator, n: int) -> np.ndarray:
    """Noise for n steps, one row per step: a raw action is mu(s) plus its row.

    Cauchy noise uses the inverse CDF (tangent transform), so it is an
    exact function of the uniform stream.  Either family draws the same
    stream in one call as in n successive draws of one row.
    """
    if params.family == "cauchy":
        return params.sigma * np.tan(np.pi * (rng.random((n, OUTPUT_DIM)) - 0.5))
    return params.sigma * rng.standard_normal((n, OUTPUT_DIM))


def dlogp_dmean(params: PolicyParameters, mu: np.ndarray, action: np.ndarray) -> np.ndarray:
    """d log pi / d mu, per action dimension (the density-side chain factor)."""
    diff = np.asarray(action, dtype=float) - mu
    if params.family == "cauchy":
        return 2.0 * diff / (params.sigma**2 + diff**2)
    return diff / params.sigma**2


def weighted_score_sum(
    params: PolicyParameters,
    features: np.ndarray,
    actions: np.ndarray,
    coeffs: np.ndarray,
) -> np.ndarray:
    """sum_t coeffs[t] * grad_theta log pi(actions[t] | features[t]) in one batched pass.

    Exact by linearity of backpropagation; this is the workhorse of the
    trajectory gradient estimator.
    """
    features = np.asarray(features, dtype=float)
    actions = np.asarray(actions, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    mu, acts = forward_batch(params.layers, features)
    dmu = dlogp_dmean(params, mu, actions) * coeffs[:, None]
    return backward_batch(params.layers, acts, dmu)
