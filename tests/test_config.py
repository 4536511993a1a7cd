import dataclasses
import json
import math
import re
import typing

import pytest

from htnav.atomic import write_json
from htnav.config import (
    DEFAULT_SEEDS,
    ConfigError,
    TrainConfig,
    apply_overrides,
    config_from_dict,
    config_to_dict,
    load_config,
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
    write_json(path, config_to_dict(cfg))
    assert load_config(path) == cfg


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"learning_rate": 0.1})


@pytest.mark.parametrize(
    "key",
    [
        "plateau_patience",
        "fixed_world",
        "bias_correction",
        "beta1",
        "beta2",
        "epsilon",
        "worldgen.ripple_amplitude",
        "worldgen.max_elevation_gain",
        "worldgen.tree_radius",
        "worldgen.wall_length",
        "worldgen.wall_thickness",
        "worldgen.n_hills",
        "worldgen.hill_sigma",
        "worldgen.hill_amplitude",
        "worldgen.max_spawn_slope",
    ],
)
def test_removed_keys_rejected_by_name(key):
    # config files written before these knobs were removed must fail, not be ignored
    *blocks, leaf = key.split(".")
    data = {leaf: 1}
    for block in reversed(blocks):
        data = {block: data}
    with pytest.raises(ConfigError, match=leaf):
        config_from_dict(data)
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
        {"seeds": (-1,)},
        {"episodes": -1},
        {"max_steps": 0},
        {"seeds": ()},
        {"seeds": (1, 1)},
        {"hidden_layers": (0,)},
        {"delta": 0.0},
        {"delta": math.inf},
        {"phi": math.nan},
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
        TrainConfig(), {"rewards.beta_g": "200", "env.v_max": "2.0", "worldgen.retries": "8"}
    )
    assert cfg.rewards.beta_g == 200
    assert cfg.env.v_max == 2.0
    assert cfg.worldgen.retries == 8


def test_overrides_parse_json_values():
    cfg = apply_overrides(TrainConfig(), {"seeds": "[4, 5]", "hidden_layers": "[16]"})
    assert cfg.seeds == (4, 5)
    assert cfg.hidden_layers == (16,)
    cfg = apply_overrides(TrainConfig(), {"family": "gaussian"})
    assert cfg.family == "gaussian"


def test_overrides_reject_unknown_keys():
    # a key must end at a field: not past one, not at a missing block
    for key in ("warmup", "rewards.bonus", "a.b.c", "gamma.x", "rewards.beta_g.x", "env."):
        with pytest.raises(ConfigError, match=f"^unknown config key '{key}'$"):
            apply_overrides(TrainConfig(), {key: "3"})


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


# one valid value per settable field, by dotted key, each unlike its default
CHANGED = {
    "scenario": "uneven_terrain",
    "family": "gaussian",
    "gamma": 0.95,
    "sigma": 0.5,
    "delta": 2.0,
    "phi": 5.0,
    "eta": 0.02,
    "episodes": 7,
    "max_steps": 50,
    "seeds": [9, 3],
    "hidden_layers": [5, 3],
    "rewards.beta_g": 50.0,
    "rewards.sigma_g": 0.1,
    "rewards.r_collision": -50.0,
    "rewards.r_stable_penalty": -25.0,
    "rewards.dist_mode": "literal",
    "rewards.angle_threshold": 1.5,
    "rewards.tilt_threshold": 0.3,
    "env.v_max": 2.0,
    "env.omega_max": 0.5,
    "env.dt": 0.5,
    "env.goal_radius": 2.0,
    "env.d_collision": 1.0,
    "env.flip_threshold": 1.0,
    "env.n_scan_rays": 36,
    "env.scan_max_range": 5.0,
    "worldgen.bounds": [-10.0, 0.0, 50.0, 60.0],
    "worldgen.separation": [5.0, 20.0],
    "worldgen.obstacle_clearance": 1.0,
    "worldgen.margin": 3.0,
    "worldgen.min_start_misalignment": 0.5,
    "worldgen.retries": 10,
    "worldgen.n_trees": [1, 2],
    "worldgen.n_walls": [0, 1],
    "worldgen.cell_size": 1.0,
    "worldgen.elevation_gain": [1.0, 2.0],
}


def _dotted_keys(cls, prefix=""):
    """(dotted key, annotation) of every settable field."""
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.type):
            yield from _dotted_keys(f.type, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f.type


def test_changed_values_cover_every_field():
    assert sorted(key for key, _ in _dotted_keys(TrainConfig)) == sorted(CHANGED)


# every float field, and every tuple of floats (one element made bad)
FLOAT_KEYS = sorted(
    key for key, kind in _dotted_keys(TrainConfig) if float in (kind, *typing.get_args(kind))
)


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "1e400"]
)
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_float_fields_refuse_non_finite_numbers_by_name(key, value):
    # an integer too large for a float is no finite number either
    if isinstance(CHANGED[key], list):
        value = [*CHANGED[key][:-1], value]
    with pytest.raises(ConfigError, match=f"^{re.escape(key)} must "):
        apply_overrides(TrainConfig(), {key: value})


@pytest.mark.parametrize("key", sorted(CHANGED))
def test_every_field_set_by_dotted_key_and_round_trips(key):
    cfg = apply_overrides(TrainConfig(), {key: json.dumps(CHANGED[key])})
    expected = config_to_dict(TrainConfig())
    *blocks, leaf = key.split(".")
    owner = expected
    for name in blocks:
        owner = owner[name]
    assert owner[leaf] != CHANGED[key]
    owner[leaf] = CHANGED[key]
    # the override changes exactly this field
    assert config_to_dict(cfg) == expected
    again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
    assert again == cfg
    assert config_to_dict(again) == expected


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "config must be a mapping, got list"),
        ({"env": [1]}, "env must be a mapping, got list"),
        ({"worldgen": {"depth": 1}}, r"unknown worldgen keys: \['depth'\]"),
        ({"env": {"dt": -1.0}}, "env.dt must be positive, got -1.0"),
        ({"rewards": {"beta_g": "high"}}, "rewards.beta_g must be a finite number, got 'high'"),
        ({"gamma": 2.0}, r"gamma must be in \(0, 1\), got 2.0"),
        # one node per axis: a 100 m arena at 250 m cells has no slope to read
        (
            {"worldgen": {"cell_size": 250}},
            "worldgen.cell_size must be small enough for 2 nodes on each axis, got 250",
        ),
    ],
)
def test_reader_errors_name_their_block(data, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        config_from_dict(data)
