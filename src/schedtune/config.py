"""Experiment configuration: JSON in, validated dataclass out.

Every validation error names the offending field path (for example
``hidden[1]: expected a positive integer``) so a bad config file points at
its own problem instead of a traceback.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

from .agent import SacConfig
from .data import read_fields, read_json
from .errors import ConfigError
from .synthfuncs import LANDSCAPES
from .tunenv import DEFAULT_N_STEPS, MASK_LEVELS, MODES, default_space_set
from .workload import DEFAULT_DURATION_S, MAX_TRACE_REQUESTS

ENV_KINDS = ("faas", "synthetic")
_AGENT_FIELDS = ("hidden", "lr", "batch_size", "replay_capacity", "start_steps",
                 "gamma", "tau")


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings shared by the command line entry points."""

    name: str = "experiment"
    env_kind: str = "faas"
    synth_function: str = "himmelblau"
    mode: str = "test"
    mask_level: str = "coarse"
    n_scenarios: int = 20
    n_steps: int = DEFAULT_N_STEPS
    duration_s: float = DEFAULT_DURATION_S
    # agent training; SacConfig holds the agent settings' defaults and checks
    total_env_steps: int = 200_000
    num_envs: int = 4
    hidden: tuple[int, ...] = SacConfig.hidden
    lr: float = SacConfig.lr
    batch_size: int = SacConfig.batch_size
    replay_capacity: int = SacConfig.replay_capacity
    start_steps: int = SacConfig.start_steps
    gamma: float = SacConfig.gamma
    tau: float = SacConfig.tau
    eval_every: int = 0
    n_eval_seeds: int = 20
    log_every: int = 500
    data_dir: str | None = None

    def __post_init__(self):
        _check_choice(self.env_kind, "env_kind", ENV_KINDS)
        _check_choice(self.synth_function, "synth_function", tuple(sorted(LANDSCAPES)))
        _check_choice(self.mode, "mode", MODES)
        _check_choice(self.mask_level, "mask_level", MASK_LEVELS)
        for name in ("n_scenarios", "n_steps", "total_env_steps", "num_envs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be a positive integer")
        for name in ("eval_every", "n_eval_seeds", "log_every"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name}: must not be negative")
        if self.eval_every and not self.n_eval_seeds:
            raise ConfigError("n_eval_seeds: must be positive when eval_every is")
        if self.duration_s <= 0:
            raise ConfigError("duration_s: must be positive")
        if self.env_kind == "faas":
            # A scenario splits its drawn total rate over its functions, so the
            # domain's top total rate bounds every trace this config can draw.
            rps = default_space_set().domain(self.mode)["requests_per_second"].max
            if rps * self.duration_s > MAX_TRACE_REQUESTS:
                raise ConfigError(f"duration_s {self.duration_s:g} at the {self.mode} domain's "
                                  f"top rate of {rps:g} requests per second expects "
                                  f"{rps * self.duration_s:.3g} requests, above the bound "
                                  f"of {MAX_TRACE_REQUESTS}")
        if not self.name:
            raise ConfigError("name: must not be empty")
        # The agent's own rules check its settings, at load for every command.
        object.__setattr__(self, "hidden", self.agent_config(1, 1).hidden)

    def agent_config(self, obs_dim: int, act_dim: int) -> SacConfig:
        """The agent settings of this experiment, for an environment with
        these observation and action dimensions."""
        return SacConfig(obs_dim, act_dim,
                         **{name: getattr(self, name) for name in _AGENT_FIELDS})

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["hidden"] = list(self.hidden)
        return payload


def _check_choice(value, path, choices):
    if value not in choices:
        raise ConfigError(f"{path}: expected one of {list(choices)}, got {value!r}")


def config_from_dict(payload) -> ExperimentConfig:
    return read_fields(payload, ExperimentConfig, partial=True)


def load_config(path) -> ExperimentConfig:
    return config_from_dict(read_json(path, "config"))
