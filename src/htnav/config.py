"""Run configuration: one dataclass tree, JSON round-trip, dotted overrides.

Precedence is overrides > config file > defaults. Every knob that shapes
training, the environment, the rewards, or world generation lives here so
a run is fully described by (config, seeds).
"""

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .atomic import write_json
from .env import EnvConfig
from .policy import FAMILIES
from .rewards import RewardConfig
from .typecheck import check_field_types
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
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    episodes: int = 120
    max_steps: int = 300
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    hidden_layers: tuple[int, ...] = ()
    rewards: RewardConfig = field(default_factory=RewardConfig)
    env: EnvConfig = field(default_factory=EnvConfig)
    worldgen: WorldGenConfig = field(default_factory=WorldGenConfig)

    def __post_init__(self):
        try:
            check_field_types(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError(f"gamma must be in (0, 1), got {self.gamma}")
        for name in ("sigma", "delta", "phi", "eta", "epsilon"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.episodes < 0:
            raise ConfigError(f"episodes must be >= 0, got {self.episodes}")
        if self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        self.seeds = tuple(int(s) for s in self.seeds)
        if len(self.seeds) == 0:
            raise ConfigError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {self.seeds}")
        self.hidden_layers = tuple(int(h) for h in self.hidden_layers)
        if any(h < 1 for h in self.hidden_layers):
            raise ConfigError(f"hidden layer widths must be >= 1, got {self.hidden_layers}")


_NESTED = {"rewards": RewardConfig, "env": EnvConfig, "worldgen": WorldGenConfig}


def config_to_dict(cfg: TrainConfig) -> dict:
    out = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.name in _NESTED:
            out[f.name] = dict(dataclasses.asdict(value))
        elif isinstance(value, tuple):
            out[f.name] = list(value)
        else:
            out[f.name] = value
    return out


def _build_nested(cls, data, where):
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    bad = set(data) - known
    if bad:
        raise ConfigError(f"unknown {where} keys: {sorted(bad)}")
    fixed = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if isinstance(value, list):
            value = tuple(value)
        fixed[f.name] = value
    try:
        return cls(**fixed)
    except (TypeError, ValueError) as exc:
        # every field check's message starts with the field's name
        raise ConfigError(f"{where}.{exc}") from exc


def config_from_dict(data: dict) -> TrainConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config must be a mapping, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(TrainConfig)}
    bad = set(data) - known
    if bad:
        raise ConfigError(f"unknown config keys: {sorted(bad)}")
    kwargs = {}
    for key, value in data.items():
        if key in _NESTED:
            kwargs[key] = _build_nested(_NESTED[key], value, key)
        elif isinstance(value, list):
            kwargs[key] = tuple(value)
        else:
            kwargs[key] = value
    try:
        return TrainConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def save_config(cfg: TrainConfig, path):
    write_json(path, config_to_dict(cfg))


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

    Keys address top-level fields ("gamma") or nested ones
    ("rewards.beta_g"). String values are parsed as JSON when possible,
    so "0.5" becomes a float and "[0,1]" a list.
    """
    data = config_to_dict(cfg)
    for key, value in overrides.items():
        if isinstance(value, str):
            value = _coerce(value)
        parts = key.split(".")
        if len(parts) == 1:
            if parts[0] not in data:
                raise ConfigError(f"unknown config key {key!r}")
            data[parts[0]] = value
        elif len(parts) == 2 and parts[0] in _NESTED:
            if parts[1] not in data[parts[0]]:
                raise ConfigError(f"unknown config key {key!r}")
            data[parts[0]][parts[1]] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return config_from_dict(data)
