"""Function catalog and Poisson request-trace generation.

The packaged catalog flags five functions as training workloads, the ones
agent training draws, and holds three more out for evaluation.  Arrival traces are
Poisson per function: exponential inter-arrival gaps drawn with the trace
seed, then merged into one time-ordered stream.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data as _data
from .cluster import ACCELERATORS, DeviceClass
from .errors import ConfigError

# Preference "any" means the function is indifferent to cloud vs edge.
LOCALITY_PREFERENCES = ("any", "cloud", "edge")

# Exec-time discount when a node carries the function's preferred accelerator.
ACCELERATOR_SPEEDUP = 0.2

# The trace horizon of a workload unless a config sets another.
DEFAULT_DURATION_S = 100.0

# Gaps in a function's first draw; one that ends too soon is redrawn doubled.
ARRIVAL_BLOCK = 1024

# The most requests a workload may expect over its horizon (sum of rates
# times duration_s): a trace of that many is on the order of 100 MB.
MAX_TRACE_REQUESTS = 10**6


@dataclass(frozen=True)
class FunctionSpec:
    """Resource demands and data dependencies of one deployable function."""

    name: str
    req_cpu: float
    req_mem: float
    preferred_accelerator: str = "none"
    preferred_locality: str = "any"
    image_name: str = ""
    image_bytes: float = 0.0
    dataset_bytes: float = 0.0
    base_exec_s: float = 1.0
    training: bool = False   # in the training set, which train mode draws from

    def __post_init__(self):
        # Written so that NaN fails too: every comparison with NaN is False.
        if not (self.req_cpu > 0 and self.req_mem > 0):
            raise ConfigError(f"{self.name}: resource requests must be positive")
        if self.preferred_accelerator not in ACCELERATORS:
            raise ConfigError(f"{self.name}: unknown accelerator {self.preferred_accelerator!r}")
        if self.preferred_locality not in LOCALITY_PREFERENCES:
            raise ConfigError(f"{self.name}: unknown locality {self.preferred_locality!r}")
        if not (self.image_bytes >= 0 and self.dataset_bytes >= 0):
            raise ConfigError(f"{self.name}: byte sizes must be nonnegative")
        if not self.base_exec_s > 0:
            raise ConfigError(f"{self.name}: base_exec_s must be positive")


@dataclass(frozen=True)
class WorkloadSpec:
    """Mix of functions with per-function arrival rates, a trace seed and
    the horizon ``duration_s``, which trace generation and the engine read."""

    functions: tuple[tuple[FunctionSpec, float], ...]
    duration_s: float = DEFAULT_DURATION_S
    seed: int = 0

    def __post_init__(self):
        if not self.functions:
            raise ConfigError("workload needs at least one function")
        names = [fn.name for fn, _ in self.functions]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate function in workload")
        # Written so that NaN fails too: every comparison with NaN is False.
        for fn, rps in self.functions:
            if not rps > 0:
                raise ConfigError(f"{fn.name}: rps must be positive")
        if not 0 < self.duration_s < np.inf:
            raise ConfigError("duration_s must be positive and finite")
        rate = sum(rps for _, rps in self.functions)
        if rate * self.duration_s > MAX_TRACE_REQUESTS:
            raise ConfigError(f"duration_s {self.duration_s:g} at {rate:g} requests per "
                              f"second expects {rate * self.duration_s:.3g} requests, "
                              f"above the bound of {MAX_TRACE_REQUESTS}")


_load_functions = _data.entry_loader("functions.json", FunctionSpec, req_mem="req_mem_mb")


def catalog(data_dir=None) -> list[FunctionSpec]:
    """All functions of ``functions.json`` in file order; at least one must
    be a training function."""
    functions = _load_functions(data_dir)
    if not any(fn.training for fn in functions):
        raise ConfigError(f"{_data.data_dir(data_dir) / 'functions.json'}: functions: "
                          f"no entry has \"training\": true")
    return functions


def execution_seconds(fn: FunctionSpec, device: DeviceClass) -> float:
    """Pure compute time of one request on one device class."""
    t = fn.base_exec_s * device.speed_factor
    if fn.preferred_accelerator != "none" and device.accelerator == fn.preferred_accelerator:
        t *= ACCELERATOR_SPEEDUP
    return t


def generate_arrivals(spec: WorkloadSpec) -> list[tuple[float, int]]:
    """Merged Poisson trace over [0, duration_s) as ``(arrival_s, index into
    spec.functions)`` pairs, sorted by time; ties keep function order.

    Each function gets its own stream of exponential gaps from one generator
    seeded from the spec, so identical specs replay identical traces.
    """
    rng = np.random.default_rng(spec.seed)
    times, owners = [], []
    for k, (_, rps) in enumerate(spec.functions):
        scale, size, state = 1.0 / rps, ARRIVAL_BLOCK, rng.bit_generator.state
        while (t := np.cumsum(rng.exponential(scale, size)))[-1] < spec.duration_s:
            rng.bit_generator.state = state
            size *= 2
        n = int(np.searchsorted(t, spec.duration_s))
        # Leave the generator as a one-gap-at-a-time loop would: n + 1 drawn.
        rng.bit_generator.state = state
        rng.exponential(scale, n + 1)
        times.append(t[:n])
        owners.append(np.full(n, k))
    t, f = np.concatenate(times), np.concatenate(owners)
    order = np.argsort(t, kind="stable")
    return list(zip(t[order].tolist(), f[order].tolist()))
