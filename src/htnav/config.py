"""Run configuration: one dataclass tree, JSON round-trip, dotted overrides.

Precedence is overrides > config file > defaults. Every value a run may
vary lives here; the rest are constants of the code, so a run is fully
described by (config, seeds) and the code version.
"""

import dataclasses
import json
from dataclasses import dataclass, field

from .env import EnvConfig
from .policy import FAMILIES
from .rewards import RewardConfig
from .typecheck import check_fields
from .world import SCENARIOS, WorldGenConfig

DEFAULT_SEEDS = (0, 1, 2, 3, 4, 5)


class ConfigError(ValueError):
    """A config value is missing, malformed, or out of range."""


@dataclass
class TrainConfig:
    scenario: str = "goal_reaching"
    family: str = "cauchy"
    gamma: float = 0.99
    sigma: float = 0.25
    delta: float = 1.0
    phi: float = 10.0
    eta: float = 0.01
    episodes: int = 120
    max_steps: int = 300
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    hidden_layers: tuple[int, ...] = ()
    rewards: RewardConfig = field(default_factory=RewardConfig)
    env: EnvConfig = field(default_factory=EnvConfig)
    worldgen: WorldGenConfig = field(default_factory=WorldGenConfig)

    def __post_init__(self):
        rules = [
            (("scenario",), lambda v: v in SCENARIOS, f"one of {SCENARIOS}"),
            (("family",), lambda v: v in FAMILIES, f"one of {FAMILIES}"),
            (("gamma",), lambda v: 0.0 < v < 1.0, "in (0, 1)"),
            (("sigma", "delta", "phi", "eta"), lambda v: v > 0, "positive"),
            (("episodes",), lambda v: v >= 0, ">= 0"),
            (("max_steps",), lambda v: v >= 1, ">= 1"),
            (("seeds",), len, "non-empty"),
            (("seeds",), lambda s: len(set(s)) == len(s), "distinct"),
            (("seeds",), lambda s: min(s) >= 0, ">= 0"),
            (("hidden_layers",), lambda hs: all(h >= 1 for h in hs), "widths >= 1"),
        ]
        try:
            check_fields(self, rules)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def config_to_dict(cfg) -> dict:
    """``cfg`` as a JSON-ready dict: nested blocks become dicts, tuples lists."""
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(f.type):
            value = config_to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def _from_dict(cls, data, path: str = ""):
    """Build ``cls`` from a mapping; a field annotated with a dataclass is a nested block.

    ``path`` is the block's dotted key ("" for the top level); errors raised
    inside a block carry it as a prefix ("env.dt must be ...").
    """
    where = path or "config"
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(data).__name__}")
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    bad = set(data) - set(fields)
    if bad:
        raise ConfigError(f"unknown {where} keys: {sorted(bad)}")
    kwargs = {}
    for key, value in data.items():
        if dataclasses.is_dataclass(fields[key]):
            value = _from_dict(fields[key], value, f"{path}.{key}" if path else key)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        # every field check's message starts with the field's name
        raise ConfigError(f"{path}.{exc}" if path else str(exc)) from exc


def config_from_dict(data: dict) -> TrainConfig:
    return _from_dict(TrainConfig, data)


def load_config(path) -> TrainConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)


def _coerce(text: str):
    """Parse an override value: JSON first, bare words fall back to strings."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(cfg: TrainConfig, overrides: dict) -> TrainConfig:
    """Return a new config with dotted-key overrides applied.

    Keys address top-level fields ("gamma") or, dotted, the fields of
    any nested block ("rewards.beta_g"). String values are parsed as JSON
    when possible, so "0.5" becomes a float and "[0,1]" a list.
    """
    data = config_to_dict(cfg)
    for key, value in overrides.items():
        if isinstance(value, str):
            value = _coerce(value)
        *blocks, leaf = key.split(".")
        owner = data
        for name in blocks:
            owner = owner.get(name) if isinstance(owner, dict) else None
        if not isinstance(owner, dict) or leaf not in owner:
            raise ConfigError(f"unknown config key {key!r}")
        owner[leaf] = value
    return config_from_dict(data)
