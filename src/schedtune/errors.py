"""Exception types shared across the package."""


class SchedTuneError(Exception):
    """Base class for all package errors."""


class ConfigError(SchedTuneError):
    """Invalid configuration value or malformed config file."""


class UnschedulableError(SchedTuneError):
    """No feasible node for a pod during warm-up placement."""

    def __init__(self, function_name: str):
        super().__init__(f"no feasible node for function {function_name!r}")
        self.function_name = function_name


class ProtocolError(SchedTuneError):
    """Tuning-environment protocol violation (e.g. step after done)."""


class CheckpointError(SchedTuneError):
    """Corrupt, truncated or incompatible agent checkpoint."""
