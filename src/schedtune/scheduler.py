"""Two-phase pod placement: feasibility filter, then weighted scoring.

Every scoring function maps a (pod, node) pair into [0, 1]; the placement
score of a node is the dot product of the eight scores with a weight vector
in [0, 1]^8.  Utilization-style scores are computed *as if* the pod were
already placed, but placement itself never mutates the cluster: committing
allocations is the simulation engine's job.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cluster import ACCELERATORS, Cluster
from .errors import ConfigError
from .workload import FunctionSpec

SCORING_FUNCTIONS = (
    "least_allocated",
    "most_allocated",
    "rtc_ratio",
    "locality_type",
    "data_locality",
    "capability",
    "balanced_resource",
    "latency_aware_image_locality",
)

N_WEIGHTS = len(SCORING_FUNCTIONS)

# Production default: everything on except the spread-vs-pack pair's spread
# side and the requested-to-capacity curve.
FIXED_WEIGHTS = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0])

DEFAULT_RTC_POINTS = ((0.0, 0.0), (1.0, 1.0))


@dataclass(frozen=True)
class SchedulerOptions:
    percent_nodes_to_score: float = 1.0
    rtc_points: tuple[tuple[float, float], ...] = DEFAULT_RTC_POINTS
    data_time_cap_s: float = 60.0
    image_time_cap_s: float = 60.0

    def __post_init__(self):
        if not 0.0 < self.percent_nodes_to_score <= 1.0:
            raise ConfigError("percent_nodes_to_score must lie in (0, 1]")
        if len(self.rtc_points) < 2:
            raise ConfigError("rtc_points needs at least two breakpoints")
        xs = [x for x, _ in self.rtc_points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ConfigError("rtc_points x-coordinates must be strictly increasing")
        if self.data_time_cap_s <= 0 or self.image_time_cap_s <= 0:
            raise ConfigError("time caps must be positive")


def validate_weights(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (N_WEIGHTS,):
        raise ConfigError(f"weight vector must have shape ({N_WEIGHTS},), got {w.shape}")
    # Written so that NaN fails too: every comparison with NaN is False.
    if not (w.min() >= 0.0 and w.max() <= 1.0):
        raise ConfigError("weights must lie in [0, 1]")
    return w


def piecewise_linear(u, points) -> np.ndarray:
    """Linear interpolation through breakpoints, clamped at the endpoints.

    ``points`` holds (x, y) pairs, as a sequence or an (m, 2) array."""
    xs, ys = np.asarray(points, dtype=float).T
    return np.interp(u, xs, ys)


def feasible_mask(fn: FunctionSpec, cluster: Cluster) -> np.ndarray:
    free_cpu = cluster.capacity_cpu - cluster.alloc_cpu
    free_mem = cluster.capacity_mem - cluster.alloc_mem
    mask = (free_cpu >= fn.req_cpu) & (free_mem >= fn.req_mem)
    if fn.accelerator_required:
        mask &= cluster.accel_code == ACCELERATORS.index(fn.preferred_accelerator)
    return mask


def _static_columns(fn: FunctionSpec, cluster: Cluster,
                    options: SchedulerOptions) -> tuple[np.ndarray, np.ndarray]:
    """A C-contiguous (n_nodes, 8) score template over all nodes, plus the
    rtc breakpoints as an (m, 2) array.

    The template holds the columns that depend only on the function, the
    node and the options: locality_type, data_locality and capability in
    their own columns, and in column 7 the image term of a node without the
    image.  Columns 0, 1, 2 and 6 are left for ``score_nodes`` to fill.
    Computed on first use and kept in ``cluster.static_scores``, which the
    engine's clones share.  Each element is the same float a per-candidate
    computation gives, so scores stay bit-identical.
    """
    key = (fn, options)
    entry = cluster.static_scores.get(key)
    if entry is not None:
        return entry
    template = np.zeros((cluster.n_nodes, N_WEIGHTS))
    if fn.preferred_locality == "any":
        template[:, 3] = 1.0
    else:
        want = 0 if fn.preferred_locality == "cloud" else 1
        template[:, 3] = cluster.locality_code == want

    fetch = (cluster.store_latency + fn.dataset_bytes / cluster.store_bw).min(axis=0)
    template[:, 4] = 1.0 - np.clip(fetch / options.data_time_cap_s, 0.0, 1.0)

    if fn.preferred_accelerator == "none":
        template[:, 5] = 0.5
    else:
        template[:, 5] = cluster.accel_code == ACCELERATORS.index(fn.preferred_accelerator)

    pull = cluster.registry_latency + fn.image_bytes / cluster.registry_bw
    template[:, 7] = 1.0 - np.clip(pull / options.image_time_cap_s, 0.0, 1.0)

    entry = (template, np.array(options.rtc_points, dtype=float))
    cluster.static_scores[key] = entry
    return entry


def score_nodes(fn: FunctionSpec, node_ids: np.ndarray, cluster: Cluster,
                options: SchedulerOptions) -> np.ndarray:
    """C-contiguous matrix of the eight scores, one row per node id.

    Columns follow SCORING_FUNCTIONS order.  The rows start as a copy of the
    function's template; this call writes the allocation-dependent columns
    0, 1, 2 and 6, and sets column 7 to 1.0 on nodes that hold the image.
    Callers must pass feasible ids; utilizations then stay within [0, 1] by
    construction.
    """
    ids = np.asarray(node_ids, dtype=int)
    template, rtc_points = _static_columns(fn, cluster, options)
    scores = template[ids]

    u_cpu = (cluster.alloc_cpu[ids] + fn.req_cpu) / cluster.capacity_cpu[ids]
    u_mem = (cluster.alloc_mem[ids] + fn.req_mem) / cluster.capacity_mem[ids]
    u = (u_cpu + u_mem) / 2.0

    scores[:, 0] = 1.0 - u                          # least_allocated
    scores[:, 1] = u                                # most_allocated
    scores[:, 2] = piecewise_linear(u, rtc_points)  # rtc_ratio
    # balanced_resource: the population stddev of two utilizations
    # collapses to half their gap.
    scores[:, 6] = 1.0 - np.abs(u_cpu - u_mem) / 2.0
    scores[cluster.image_mask(fn.image_name)[ids], 7] = 1.0
    return scores


def place(fn: FunctionSpec, cluster: Cluster, weights: np.ndarray,
          options: SchedulerOptions, rng: np.random.Generator) -> int | None:
    """Pick the best node for the pod, or None when nothing is feasible.

    When percent_nodes_to_score < 1, a uniform subset of the feasible set is
    scored (at least one node).  Ties on the total score go to the lowest
    node id.  The cluster is left untouched.  ``weights`` must have passed
    ``validate_weights``; the engine checks them once per run.
    """
    ids = np.nonzero(feasible_mask(fn, cluster))[0]
    if len(ids) == 0:
        return None
    k = max(1, int(math.floor(options.percent_nodes_to_score * len(ids))))
    if k < len(ids):
        ids = np.sort(rng.choice(ids, size=k, replace=False))
    totals = score_nodes(fn, ids, cluster, options) @ weights
    return int(ids[int(np.argmax(totals))])
