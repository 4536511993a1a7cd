import json
import math
from pathlib import Path

import numpy as np
import pytest

from htnav.checkpoint import (
    CheckpointError,
    checkpoint_from_dict,
    checkpoint_to_dict,
    load_checkpoint,
    save_checkpoint,
)
from htnav.optimizer import OptimizerState, ascent_step
from conftest import make_params


def test_round_trip_weights_bit_exact(tmp_path):
    params = make_params(input_dim=4, hidden=(5,), seed=3)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, params)
    loaded, opt = load_checkpoint(path)
    assert opt is None
    np.testing.assert_array_equal(loaded.weights, params.weights)
    assert loaded.spec == params.spec
    assert loaded.family == params.family
    assert loaded.sigma == params.sigma


def test_round_trip_with_optimizer(tmp_path):
    params = make_params(input_dim=3, seed=1)
    state = OptimizerState.fresh(params.spec.num_weights, eta=0.02)
    g = np.linspace(-1.0, 1.0, params.spec.num_weights)
    state, _ = ascent_step(state, params.weights, g)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, params, state)
    _, loaded = load_checkpoint(path)
    assert loaded is not None
    np.testing.assert_array_equal(loaded.m, state.m)
    np.testing.assert_array_equal(loaded.v, state.v)
    assert loaded.step_count == 1
    assert loaded.eta == 0.02


def test_rejects_wrong_format():
    doc = checkpoint_to_dict(make_params())
    doc["format"] = "htnav-checkpoint-v9"
    with pytest.raises(CheckpointError, match="format"):
        checkpoint_from_dict(doc)


def test_rejects_missing_keys():
    doc = checkpoint_to_dict(make_params())
    del doc["weights"]
    with pytest.raises(CheckpointError, match="weights"):
        checkpoint_from_dict(doc)


def test_rejects_weight_count_mismatch():
    doc = checkpoint_to_dict(make_params(input_dim=4))
    doc["weights"] = doc["weights"][:-1]
    with pytest.raises(CheckpointError, match="weight count"):
        checkpoint_from_dict(doc)


def test_rejects_unknown_family():
    doc = checkpoint_to_dict(make_params())
    doc["family"] = "student_t"
    with pytest.raises(CheckpointError, match="family"):
        checkpoint_from_dict(doc)


def test_rejects_bad_optimizer_block():
    params = make_params()
    state = OptimizerState.fresh(params.spec.num_weights, eta=0.01)
    doc = checkpoint_to_dict(params, state)
    doc["optimizer"]["m"] = doc["optimizer"]["m"][:-2]
    doc["optimizer"]["v"] = doc["optimizer"]["v"][:-2]
    with pytest.raises(CheckpointError, match="moment size"):
        checkpoint_from_dict(doc)
    doc = checkpoint_to_dict(params, state)
    doc["optimizer"]["m"] = doc["optimizer"]["m"][:-2]
    with pytest.raises(CheckpointError, match="optimizer block"):
        checkpoint_from_dict(doc)
    doc = checkpoint_to_dict(params, state)
    del doc["optimizer"]["eta"]
    with pytest.raises(CheckpointError, match="optimizer is missing key 'eta'"):
        checkpoint_from_dict(doc)


MISSING = object()


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("spec", "activation", "relu"),
        ("spec", "output_dim", 3),
        ("spec", "output_dim", 2.0),
        ("optimizer", "bias_correction", True),
        ("optimizer", "beta1", 0.5),
        ("optimizer", "beta2", 0.99),
        ("optimizer", "epsilon", 1e-7),
        ("spec", "activation", MISSING),
    ],
)
def test_rejects_unsupported_constant(block, key, value):
    params = make_params()
    doc = checkpoint_to_dict(params, OptimizerState.fresh(params.spec.num_weights, eta=0.01))
    if value is MISSING:
        del doc[block][key]
    else:
        doc[block][key] = value
    with pytest.raises(CheckpointError, match=key):
        checkpoint_from_dict(doc)


# an integer too large for a float is no finite number either
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="1e400")])
@pytest.mark.parametrize(
    "block, key",
    [
        (None, "sigma"),
        (None, "weights"),
        ("optimizer", "m"),
        ("optimizer", "v"),
        ("optimizer", "eta"),
        ("optimizer", "beta1"),
        ("optimizer", "beta2"),
        ("optimizer", "epsilon"),
    ],
)
def test_rejects_non_finite_field(block, key, value):
    params = make_params()
    doc = checkpoint_to_dict(params, OptimizerState.fresh(params.spec.num_weights, eta=0.01))
    owner = doc if block is None else doc[block]
    if isinstance(owner[key], list):
        owner[key][1] = value
    else:
        owner[key] = value
    with pytest.raises(CheckpointError, match=key):
        checkpoint_from_dict(doc)


@pytest.mark.parametrize(
    "block, key, typo",
    [
        # misspelt, the optimizer block used to load as no optimizer state
        # and the activation as the default
        (None, "optimizer", "optimiser"),
        ("spec", "activation", "activaton"),
        ("optimizer", "beta1", "beta_1"),
    ],
)
def test_rejects_unknown_key_by_name(block, key, typo):
    params = make_params()
    doc = checkpoint_to_dict(params, OptimizerState.fresh(params.spec.num_weights, eta=0.01))
    owner = doc if block is None else doc[block]
    owner[typo] = owner.pop(key)
    where = block or "checkpoint"
    with pytest.raises(CheckpointError, match=rf"^unknown {where} keys: \['{typo}'\]$"):
        checkpoint_from_dict(doc)


BENCH_CHECKPOINT = Path(__file__).parents[1] / "perfbench" / "eval_checkpoint.json"


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("spec", "input_dim", 6.9),
        ("spec", "input_dim", True),
        ("spec", "hidden_layers", [4.0]),
        ("spec", "output_dim", 2.5),
        ("spec", "output_dim", "2"),
        (None, "sigma", True),
        (None, "sigma", "0.25"),
        (None, "weights", "0.0"),
        (None, "weights", True),
        ("optimizer", "m", "0.0"),
        ("optimizer", "v", False),
        ("optimizer", "step_count", 2.5),
        ("optimizer", "step_count", "40"),
        ("optimizer", "eta", "0.01"),
        ("optimizer", "beta1", True),
        ("optimizer", "epsilon", None),
    ],
)
def test_rejects_mistyped_number(block, key, value):
    # numbers are held to the config rules: no int from a float, no number
    # from a string or a bool
    doc = json.loads(BENCH_CHECKPOINT.read_text())
    owner = doc if block is None else doc[block]
    if isinstance(owner[key], list) and owner[key]:
        owner[key][1] = value
    else:
        owner[key] = value
    with pytest.raises(CheckpointError, match=key):
        checkpoint_from_dict(doc)


def test_benchmark_checkpoint_loads_and_rewrites_identically(tmp_path):
    path = BENCH_CHECKPOINT
    params, state = load_checkpoint(path)
    assert state is not None
    save_checkpoint(tmp_path / "again.json", params, state)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_load_rejects_corrupt_file(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text("{lol")
    with pytest.raises(CheckpointError, match="not valid JSON"):
        load_checkpoint(path)


def test_checkpoint_dict_is_json_plain():
    doc = checkpoint_to_dict(make_params(hidden=(3,)), OptimizerState.fresh(23, eta=0.01))
    json.dumps(doc)
    assert doc["format"] == "htnav-checkpoint-v1"
    assert all(isinstance(w, float) for w in doc["weights"])
