"""Policy checkpoints: JSON documents with exact decimal weights.

A checkpoint captures everything needed to resume or evaluate a policy:
the approximator shape, the family, sigma, the flat weight vector, and
(optionally) the optimizer moments.  Floats are written via repr so a
save/load round-trip is bit-exact.  ``FIXED`` gives the values that every
checkpoint holds; the writer writes them and the reader accepts no other.
"""

import json
from pathlib import Path

import numpy as np

from .atomic import write_json
from .net import OUTPUT_DIM, ApproximatorSpec
from .optimizer import BETA1, BETA2, EPSILON, OptimizerState
from .policy import PolicyParameters
from .typecheck import fits

# per block (the top level is "checkpoint"), each key with its only value
FIXED = {
    "checkpoint": {"format": "htnav-checkpoint-v1"},
    "spec": {"activation": "tanh", "output_dim": OUTPUT_DIM},
    "optimizer": {"beta1": BETA1, "beta2": BETA2, "epsilon": EPSILON, "bias_correction": False},
}


class CheckpointError(ValueError):
    """The checkpoint file is missing keys, malformed, or inconsistent."""


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values, dtype=float)]


def checkpoint_to_dict(params: PolicyParameters, opt_state: OptimizerState | None = None) -> dict:
    doc = {
        **FIXED["checkpoint"],
        "spec": {
            "input_dim": params.spec.input_dim,
            "hidden_layers": list(params.spec.hidden_layers),
            **FIXED["spec"],
        },
        "family": params.family,
        "sigma": float(params.sigma),
        "weights": _floats(params.weights),
    }
    if opt_state is not None:
        doc["optimizer"] = {
            "m": _floats(opt_state.m),
            "v": _floats(opt_state.v),
            "step_count": opt_state.step_count,
            "eta": opt_state.eta,
            **FIXED["optimizer"],
        }
    return doc


def save_checkpoint(path, params: PolicyParameters, opt_state: OptimizerState | None = None) -> None:
    write_json(path, checkpoint_to_dict(params, opt_state))


def _block(doc, where: str, *keys: str) -> list:
    """The values of ``keys`` in ``doc``, the checkpoint block ``where``.

    ``doc`` must be a mapping that holds ``keys`` and ``FIXED[where]`` and
    nothing else, each fixed value with exactly its type and value (2.0 is
    no output_dim).  Only the top level's "optimizer" may be left out; it
    then reads as None.
    """
    if not isinstance(doc, dict):
        raise CheckpointError(f"{where} must be a mapping, got {type(doc).__name__}")
    bad = set(doc) - set(keys) - set(FIXED[where])
    if bad:
        raise CheckpointError(f"unknown {where} keys: {sorted(bad)}")
    for key in (*keys, *FIXED[where]):
        if key not in doc and key != "optimizer":
            raise CheckpointError(f"{where} is missing key {key!r}")
    for key, only in FIXED[where].items():
        if type(doc[key]) is not type(only) or doc[key] != only:
            raise CheckpointError(f"unsupported {key} {doc[key]!r}; only {only!r} exists")
    return [doc.get(key) for key in keys]


def _build(cls, where: str, *args):
    """``cls(*args)``, naming the block ``where`` when a field check rejects a value."""
    try:
        return cls(*args)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"bad {where} block: {exc}") from exc


def _numbers(values, key: str) -> np.ndarray:
    """``values`` as an array, if it is a list of finite numbers (a bool is none)."""
    if not isinstance(values, list) or not all(fits(v, float) for v in values):
        raise CheckpointError(f"checkpoint field {key!r} must be a list of finite numbers")
    return np.asarray(values, dtype=float)


def checkpoint_from_dict(doc: dict) -> tuple[PolicyParameters, OptimizerState | None]:
    """Rebuild the policy and optimizer state; numbers are type-checked as config numbers are."""
    spec_doc, family, sigma, weights, opt_doc = _block(
        doc, "checkpoint", "spec", "family", "sigma", "weights", "optimizer"
    )
    spec = _build(ApproximatorSpec, "spec", *_block(spec_doc, "spec", "input_dim", "hidden_layers"))
    weights = _numbers(weights, "weights")
    if weights.shape != (spec.num_weights,):
        raise CheckpointError(
            f"weight count {weights.shape[0]} does not match spec ({spec.num_weights})"
        )
    params = _build(PolicyParameters, "checkpoint", spec, weights, sigma, family)
    if "optimizer" not in doc:
        return params, None
    m, v, step_count, eta = _block(opt_doc, "optimizer", "m", "v", "step_count", "eta")
    opt_state = _build(OptimizerState, "optimizer", _numbers(m, "m"), _numbers(v, "v"), step_count, eta)
    if opt_state.m.shape != (spec.num_weights,):
        raise CheckpointError("optimizer moment size does not match the weight count")
    return params, opt_state


def load_checkpoint(path, data: bytes | None = None) -> tuple[PolicyParameters, OptimizerState | None]:
    """The checkpoint in the file ``path``, parsed from ``data`` when the caller has read it."""
    try:
        doc = json.loads(Path(path).read_bytes() if data is None else data)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    return checkpoint_from_dict(doc)
