"""Experiment configuration: JSON in, validated dataclass out.

Every validation error names the offending field path (for example
``hidden[1]: expected a positive integer``) so a bad config file points at
its own problem instead of a traceback.
"""
from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError
from .synthfuncs import LANDSCAPES
from .tunenv import MASK_LEVELS, MODES

ENV_KINDS = ("faas", "synthetic")


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings shared by the command line entry points."""

    name: str = "experiment"
    env_kind: str = "faas"
    synth_function: str = "himmelblau"
    mode: str = "test"
    mask_level: str = "coarse"
    n_scenarios: int = 20
    n_steps: int = 4
    duration_s: float = 100.0
    # agent training
    total_env_steps: int = 200_000
    num_envs: int = 4
    hidden: tuple[int, ...] = (512, 512, 512)
    lr: float = 3e-4
    batch_size: int = 256
    replay_capacity: int = 100_000
    start_steps: int = 1000
    gamma: float = 0.99
    tau: float = 0.005
    eval_every: int = 0
    n_eval_seeds: int = 20
    log_every: int = 500
    data_dir: str | None = None

    def __post_init__(self):
        _check_choice(self.env_kind, "env_kind", ENV_KINDS)
        _check_choice(self.synth_function, "synth_function", tuple(sorted(LANDSCAPES)))
        _check_choice(self.mode, "mode", MODES)
        _check_choice(self.mask_level, "mask_level", MASK_LEVELS)
        for name in ("n_scenarios", "n_steps", "total_env_steps", "num_envs",
                     "batch_size", "replay_capacity"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be a positive integer")
        for name in ("start_steps", "eval_every", "n_eval_seeds", "log_every"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name}: must not be negative")
        if self.eval_every and not self.n_eval_seeds:
            raise ConfigError("n_eval_seeds: must be positive when eval_every is")
        if self.duration_s <= 0 or self.lr <= 0:
            raise ConfigError("duration_s and lr must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError("gamma: must lie in [0, 1]")
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError("tau: must lie in [0, 1]")
        if not self.name:
            raise ConfigError("name: must not be empty")
        object.__setattr__(self, "hidden", tuple(self.hidden))

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["hidden"] = list(self.hidden)
        return payload


def _check_choice(value, path, choices):
    if value not in choices:
        raise ConfigError(f"{path}: expected one of {list(choices)}, got {value!r}")


def _parse_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _parse_float(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:   # NaN, infinite or past float range
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _parse_str(value, path):
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _parse_hidden(value, path):
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of layer widths")
    out = []
    for i, layer in enumerate(value):
        if isinstance(layer, bool) or not isinstance(layer, int) or layer < 1:
            raise ConfigError(f"{path}[{i}]: expected a positive integer")
        out.append(layer)
    return tuple(out)


# One parser per annotation in ExperimentConfig; a field of any other type
# fails at import.
_PARSERS_BY_TYPE = {
    "str": _parse_str,
    "int": _parse_int,
    "float": _parse_float,
    "tuple[int, ...]": _parse_hidden,
    "str | None": lambda v, p: None if v is None else _parse_str(v, p),
}
_PARSERS = {f.name: _PARSERS_BY_TYPE[f.type] for f in fields(ExperimentConfig)}


def config_from_dict(payload: dict) -> ExperimentConfig:
    if not isinstance(payload, dict):
        raise ConfigError("config root must be a JSON object")
    parsed = {}
    for key, value in payload.items():
        if key not in _PARSERS:
            raise ConfigError(f"{key}: unknown field")
        parsed[key] = _PARSERS[key](value, key)
    return ExperimentConfig(**parsed)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno})"
        ) from exc
    return config_from_dict(payload)
