"""Small feedforward mean-function approximators with hand-written gradients.

The policy mean is produced by either a bare linear map ``W @ features``
(no bias, the classical feature-dot-weights form) or a small tanh network
whose affine layers carry biases.  All parameters live in one flat vector
so the gradient-based training loop can treat them uniformly; the
forward and backward passes take the per-layer views that
:func:`unpack_weights` cuts from it.  Gradients are computed by explicit
layer-by-layer backpropagation, no autodiff.
"""

from dataclasses import dataclass

import numpy as np

from .typecheck import check_fields

# the approximator outputs the location of the 2-D (v, omega) action
OUTPUT_DIM = 2


@dataclass(frozen=True)
class ApproximatorSpec:
    """Architecture of the mean-function approximator.

    An empty ``hidden_layers`` selects the bare linear map (a single
    bias-free weight matrix).  With hidden layers, every affine layer has
    a bias; hidden activations are tanh and the output layer is linear.
    """

    input_dim: int
    hidden_layers: tuple[int, ...] = ()

    def __post_init__(self):
        rules = [
            (("input_dim",), lambda v: v >= 1, ">= 1"),
            (("hidden_layers",), lambda hs: all(h >= 1 for h in hs), "widths >= 1"),
        ]
        check_fields(self, rules)

    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_out, fan_in) per affine layer, input to output order."""
        sizes = [self.input_dim, *self.hidden_layers, OUTPUT_DIM]
        return [(sizes[i + 1], sizes[i]) for i in range(len(sizes) - 1)]

    @property
    def has_bias(self) -> bool:
        return bool(self.hidden_layers)

    @property
    def num_weights(self) -> int:
        if not self.hidden_layers:
            return OUTPUT_DIM * self.input_dim
        return sum(out * inp + out for out, inp in self.layer_dims())


def unpack_weights(spec: ApproximatorSpec, theta: np.ndarray) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Split the flat vector into per-layer (W, b) views, layer-major order."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (spec.num_weights,):
        raise ValueError(f"expected {spec.num_weights} weights, got shape {theta.shape}")
    layers = []
    at = 0
    for out, inp in spec.layer_dims():
        w = theta[at:at + out * inp].reshape(out, inp)
        at += out * inp
        if spec.has_bias:
            b = theta[at:at + out]
            at += out
        else:
            b = None
        layers.append((w, b))
    return layers


def init_weights(spec: ApproximatorSpec, rng: np.random.Generator) -> np.ndarray:
    """Fresh flat weight vector.

    Hidden layers get 1/sqrt(fan_in)-scaled normal weights with zero
    biases; the output layer starts at zero so the initial mean function
    is identically zero (a drift-free starting policy).
    """
    chunks = []
    dims = spec.layer_dims()
    for i, (out, inp) in enumerate(dims):
        last = i == len(dims) - 1
        if last:
            w = np.zeros(out * inp)
        else:
            w = rng.normal(0.0, 1.0 / np.sqrt(inp), size=out * inp)
        chunks.append(w)
        if spec.has_bias:
            chunks.append(np.zeros(out))
    return np.concatenate(chunks) if chunks else np.zeros(0)


def forward_batch(layers, xs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Batched forward pass through the :func:`unpack_weights` layers.

    Returns the (n, OUTPUT_DIM) means together with the list of layer
    activations (input first) needed by :func:`backward_batch`.
    """
    xs = np.asarray(xs, dtype=float)
    input_dim = layers[0][0].shape[1]
    if xs.ndim != 2 or xs.shape[1] != input_dim:
        raise ValueError(f"expected inputs of shape (n, {input_dim}), got {xs.shape}")
    acts = [xs]
    h = xs
    for i, (w, b) in enumerate(layers):
        z = h @ w.T
        if b is not None:
            z = z + b
        if i < len(layers) - 1:
            h = np.tanh(z)
            acts.append(h)
        else:
            h = z
    return h, acts


def backward_batch(layers, acts: list[np.ndarray], dmu: np.ndarray) -> np.ndarray:
    """Accumulate d(sum_i <dmu_i, mu_i>)/dtheta over the batch.

    ``acts`` is the activation cache from :func:`forward_batch`; ``dmu``
    holds one upstream gradient row per batch element.
    """
    dmu = np.asarray(dmu, dtype=float)
    grads_w: list[np.ndarray] = [None] * len(layers)  # type: ignore[list-item]
    grads_b: list[np.ndarray | None] = [None] * len(layers)
    g = dmu
    for i in range(len(layers) - 1, -1, -1):
        w, b = layers[i]
        a_in = acts[i]
        grads_w[i] = g.T @ a_in
        grads_b[i] = g.sum(axis=0) if b is not None else None
        if i > 0:
            g = (g @ w) * (1.0 - acts[i] ** 2)
    flat = []
    for gw, gb in zip(grads_w, grads_b):
        flat.append(gw.ravel())
        if gb is not None:
            flat.append(gb)
    return np.concatenate(flat)
