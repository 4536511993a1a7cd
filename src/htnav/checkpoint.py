"""Policy checkpoints: JSON documents with exact decimal weights.

A checkpoint captures everything needed to resume or evaluate a policy:
the approximator shape, the family, sigma, the flat weight vector, and
(optionally) the optimizer moments.  Floats are written via repr so a
save/load round-trip is bit-exact.  ``activation``, ``output_dim`` and
``bias_correction`` are written as their only supported values ("tanh", 2,
false); others are rejected.
"""

import json
from pathlib import Path

import numpy as np

from .atomic import write_json
from .net import OUTPUT_DIM, ApproximatorSpec
from .optimizer import OptimizerState
from .policy import FAMILIES, PolicyParameters
from .typecheck import fits

CHECKPOINT_FORMAT = "htnav-checkpoint-v1"

# every key a checkpoint block may hold, as checkpoint_to_dict writes them
_KEYS = {
    "checkpoint": ("format", "spec", "family", "sigma", "weights", "optimizer"),
    "spec": ("input_dim", "hidden_layers", "activation", "output_dim"),
    "optimizer": ("m", "v", "step_count", "eta", "beta1", "beta2", "epsilon", "bias_correction"),
}


class CheckpointError(ValueError):
    """The checkpoint file is missing keys, malformed, or inconsistent."""


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values, dtype=float)]


def checkpoint_to_dict(params: PolicyParameters, opt_state: OptimizerState | None = None) -> dict:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "spec": {
            "input_dim": params.spec.input_dim,
            "hidden_layers": list(params.spec.hidden_layers),
            "activation": "tanh",
            "output_dim": OUTPUT_DIM,
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
            "beta1": opt_state.beta1,
            "beta2": opt_state.beta2,
            "epsilon": opt_state.epsilon,
            "bias_correction": False,
        }
    return doc


def save_checkpoint(path, params: PolicyParameters, opt_state: OptimizerState | None = None) -> None:
    write_json(path, checkpoint_to_dict(params, opt_state))


def _require(doc: dict, key: str):
    if key not in doc:
        raise CheckpointError(f"checkpoint is missing key {key!r}")
    return doc[key]


def _reject_unknown(block, where: str) -> None:
    """Name the keys of the mapping ``block`` that no checkpoint has, as configs do."""
    bad = set(block) - set(_KEYS[where]) if isinstance(block, dict) else set()
    if bad:
        raise CheckpointError(f"unknown {where} keys: {sorted(bad)}")


def _require_finite(**fields) -> None:
    for name, value in fields.items():
        if not np.all(np.isfinite(value)):
            raise CheckpointError(f"checkpoint field {name!r} must be finite")


def _numbers(block: dict, key: str) -> np.ndarray:
    """``block[key]`` as an array, if it is a list of numbers (a bool is none)."""
    values = _require(block, key)
    if not isinstance(values, list) or not all(fits(v, float) for v in values):
        raise CheckpointError(f"checkpoint field {key!r} must be a list of numbers")
    return np.asarray(values, dtype=float)


def checkpoint_from_dict(doc: dict) -> tuple[PolicyParameters, OptimizerState | None]:
    """Rebuild the policy and optimizer state; numbers are type-checked as config numbers are."""
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint must be a mapping, got {type(doc).__name__}")
    fmt = _require(doc, "format")
    if fmt != CHECKPOINT_FORMAT:
        raise CheckpointError(f"unsupported checkpoint format {fmt!r}")
    _reject_unknown(doc, "checkpoint")
    spec_doc = _require(doc, "spec")
    _reject_unknown(spec_doc, "spec")
    try:
        spec = ApproximatorSpec(
            input_dim=spec_doc["input_dim"], hidden_layers=spec_doc["hidden_layers"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad spec block: {exc}") from exc
    for key, only in (("activation", "tanh"), ("output_dim", OUTPUT_DIM)):
        value = spec_doc.get(key, only)
        if type(value) is not type(only) or value != only:
            raise CheckpointError(f"unsupported {key} {value!r}; only {only!r} exists")
    family = _require(doc, "family")
    if family not in FAMILIES:
        raise CheckpointError(f"unknown family {family!r}")
    weights = _numbers(doc, "weights")
    if weights.shape != (spec.num_weights,):
        raise CheckpointError(
            f"weight count {weights.shape[0]} does not match spec ({spec.num_weights})"
        )
    try:
        params = PolicyParameters(
            spec=spec, weights=weights, sigma=_require(doc, "sigma"), family=family
        )
    except (TypeError, ValueError) as exc:
        raise CheckpointError(str(exc)) from exc
    _require_finite(sigma=params.sigma, weights=params.weights)
    opt_state = None
    if "optimizer" in doc:
        o = doc["optimizer"]
        _reject_unknown(o, "optimizer")
        try:
            opt_state = OptimizerState(
                m=_numbers(o, "m"),
                v=_numbers(o, "v"),
                step_count=o["step_count"],
                eta=o["eta"],
                beta1=o["beta1"],
                beta2=o["beta2"],
                epsilon=o["epsilon"],
            )
            bias_correction = o["bias_correction"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"bad optimizer block: {exc}") from exc
        if bias_correction is not False:
            raise CheckpointError(
                f"unsupported bias_correction {bias_correction!r}; the ascent step has none"
            )
        if opt_state.m.shape != (spec.num_weights,):
            raise CheckpointError("optimizer moment size does not match the weight count")
        _require_finite(
            m=opt_state.m,
            v=opt_state.v,
            eta=opt_state.eta,
            beta1=opt_state.beta1,
            beta2=opt_state.beta2,
            epsilon=opt_state.epsilon,
        )
    return params, opt_state


def load_checkpoint(path, data: bytes | None = None) -> tuple[PolicyParameters, OptimizerState | None]:
    """The checkpoint in the file ``path``, parsed from ``data`` when the caller has read it."""
    try:
        doc = json.loads(Path(path).read_bytes() if data is None else data)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    return checkpoint_from_dict(doc)
