import math

import pytest

from htnav.config import (
    DEFAULT_SEEDS,
    ConfigError,
    TrainConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)


def test_defaults_are_valid():
    cfg = TrainConfig()
    assert cfg.scenario == "goal_reaching"
    assert cfg.family == "cauchy"
    assert cfg.gamma == 0.99
    assert cfg.sigma == 0.25
    assert cfg.delta == 1.0
    assert cfg.phi == 10.0
    assert cfg.eta == 0.01
    assert cfg.episodes == 120
    assert cfg.max_steps == 300
    assert cfg.seeds == DEFAULT_SEEDS
    assert cfg.hidden_layers == ()


def test_round_trip_dict():
    cfg = TrainConfig(scenario="uneven_terrain", hidden_layers=(8, 4), seeds=(3, 7))
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg
    assert again.hidden_layers == (8, 4)
    assert again.seeds == (3, 7)


def test_round_trip_file(tmp_path):
    cfg = TrainConfig(family="gaussian", eta=0.05)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"learning_rate": 0.1})


@pytest.mark.parametrize("key", ["plateau_patience", "fixed_world", "bias_correction"])
def test_removed_keys_rejected_by_name(key):
    # config files written before these knobs were removed must fail, not be ignored
    with pytest.raises(ConfigError, match=key):
        config_from_dict({key: 1})
    with pytest.raises(ConfigError, match=key):
        apply_overrides(TrainConfig(), {key: "1"})


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigError, match="unknown rewards keys"):
        config_from_dict({"rewards": {"bonus": 5}})


@pytest.mark.parametrize(
    "kwargs",
    [
        {"scenario": "swimming"},
        {"family": "levy"},
        {"gamma": 1.0},
        {"gamma": 0.0},
        {"sigma": 0.0},
        {"eta": -0.1},
        {"beta1": 1.0},
        {"episodes": -1},
        {"max_steps": 0},
        {"seeds": ()},
        {"seeds": (1, 1)},
        {"hidden_layers": (0,)},
        {"delta": 0.0},
        {"delta": math.inf},
        {"epsilon": math.nan},
        {"episodes": 1.5},
        {"max_steps": True},
        {"seeds": (0.7,)},
        {"hidden_layers": (8.0,)},
    ],
)
def test_invalid_values_raise(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


@pytest.mark.parametrize("value", [-3.0, math.nan])
def test_invalid_env_values_raise(value):
    with pytest.raises(ConfigError, match="scan_max_range"):
        config_from_dict({"env": {"scan_max_range": value}})


def test_overrides_top_level():
    cfg = apply_overrides(TrainConfig(), {"gamma": "0.9", "episodes": "10"})
    assert cfg.gamma == 0.9
    assert cfg.episodes == 10


def test_overrides_nested_dotted():
    cfg = apply_overrides(
        TrainConfig(), {"rewards.beta_g": "200", "env.v_max": "2.0", "worldgen.n_hills": "8"}
    )
    assert cfg.rewards.beta_g == 200
    assert cfg.env.v_max == 2.0
    assert cfg.worldgen.n_hills == 8


def test_overrides_parse_json_values():
    cfg = apply_overrides(TrainConfig(), {"seeds": "[4, 5]", "hidden_layers": "[16]"})
    assert cfg.seeds == (4, 5)
    assert cfg.hidden_layers == (16,)
    cfg = apply_overrides(TrainConfig(), {"family": "gaussian"})
    assert cfg.family == "gaussian"


def test_overrides_reject_unknown_keys():
    with pytest.raises(ConfigError):
        apply_overrides(TrainConfig(), {"warmup": "3"})
    with pytest.raises(ConfigError):
        apply_overrides(TrainConfig(), {"rewards.bonus": "3"})
    with pytest.raises(ConfigError):
        apply_overrides(TrainConfig(), {"a.b.c": "3"})


def test_overrides_do_not_mutate_original():
    base = TrainConfig()
    apply_overrides(base, {"gamma": "0.5"})
    assert base.gamma == 0.99


def test_nested_defaults_survive_round_trip():
    doc = config_to_dict(TrainConfig())
    assert doc["rewards"]["beta_g"] == 100.0
    assert doc["env"]["dt"] == 0.1
    assert doc["worldgen"]["min_start_misalignment"] == pytest.approx(math.pi / 2)
    assert isinstance(doc["seeds"], list)
