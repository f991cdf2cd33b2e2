"""Two-phase pod placement: feasibility filter, then weighted scoring.

Every scoring function maps a (pod, node) pair into [0, 1]; the placement
score of a node is the dot product of the eight scores with a weight vector
in [0, 1]^8.  Utilization-style scores are computed *as if* the pod were
already placed.  Placement fills the cluster copy's score caches but never
changes its allocations or images: committing allocations is the simulation
engine's job.
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

# Fetch and pull times at or beyond these score 0 in data_locality and in
# the uncached image term of latency_aware_image_locality.
DATA_TIME_CAP_S = 60.0
IMAGE_TIME_CAP_S = 60.0


def validate_weights(weights: np.ndarray) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (N_WEIGHTS,):
        raise ConfigError(f"weight vector must have shape ({N_WEIGHTS},), got {w.shape}")
    # Written so that NaN fails too: every comparison with NaN is False.
    if not (w.min() >= 0.0 and w.max() <= 1.0):
        raise ConfigError("weights must lie in [0, 1]")
    return w


def _static_columns(fn: FunctionSpec, cluster: Cluster) -> np.ndarray:
    """A C-contiguous (n_nodes, 4) block of the scores that depend only on
    the function and the node: locality_type, data_locality, capability,
    and the image term of a node without the image.

    Computed on first use and kept in ``cluster.static_scores``, which the
    engine's clones share.  Each element is the same float a per-candidate
    computation gives, so scores stay bit-identical.
    """
    static = cluster.static_scores.get(fn)
    if static is not None:
        return static
    static = np.empty((cluster.n_nodes, 4))
    if fn.preferred_locality == "any":
        static[:, 0] = 1.0
    else:
        want = 0 if fn.preferred_locality == "cloud" else 1
        static[:, 0] = cluster.locality_code == want
    static[:, 1] = 1.0 - np.clip(cluster.fetch_times(fn.dataset_bytes) / DATA_TIME_CAP_S,
                                 0.0, 1.0)
    if fn.preferred_accelerator == "none":
        static[:, 2] = 0.5
    else:
        static[:, 2] = cluster.accel_code == ACCELERATORS.index(fn.preferred_accelerator)
    static[:, 3] = 1.0 - np.clip(cluster.pull_times(fn.image_bytes) / IMAGE_TIME_CAP_S,
                                 0.0, 1.0)
    cluster.static_scores[fn] = static
    return static


@dataclass(slots=True, eq=False)
class ScoreTable:
    """One function's weighted scores on one cluster copy: ``totals``,
    every node's weighted score for the weights whose bytes are
    ``weights``, the feasibility mask, the feasible node ids in ascending
    order, ``static``, the function's block from ``_static_columns``, and
    ``seen``, the length of ``cluster.changes`` when the table was last
    brought up to date (the nodes logged after it are the rows
    ``_score_table`` recomputes before a read)."""

    totals: np.ndarray
    feasible: np.ndarray
    ids: np.ndarray
    static: np.ndarray
    seen: int
    weights: bytes


def _score_table(fn: FunctionSpec, cluster: Cluster, weights: np.ndarray) -> ScoreTable:
    """The function's score table on this cluster copy, up to date for ``weights``.

    Built in full the first time the function is scored on this copy, and
    again whenever the weights' bytes change, so an array changed in place
    gets fresh totals; kept in ``cluster.score_tables``.  Other calls
    recompute only the totals and feasibility of the nodes that
    ``cluster.changes`` logged since, from the node's allocations and its
    static row, as Python floats: Python float arithmetic rounds as numpy's
    elementwise loops do, so every total is the float the full build gives.
    The feasible ids are rebuilt only when a refreshed node's feasibility
    changed.

    Both paths add a node's eight weighted scores in one fixed order,
    ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)).  ``scores @ weights`` would
    leave the order to BLAS, whose kernels round a row differently by where
    it sits in the matrix, so bit-identical rows could get different totals
    and escape the lowest-id tie rule.
    """
    table = cluster.score_tables.get(fn)
    if table is None or table.weights != weights.tobytes():
        static = _static_columns(fn, cluster)
        w0, w1, w2, w3, w4, w5, w6, w7 = weights.tolist()
        feasible = ((cluster.capacity_cpu - cluster.alloc_cpu >= fn.req_cpu)
                    & (cluster.capacity_mem - cluster.alloc_mem >= fn.req_mem))
        u_cpu = (cluster.alloc_cpu + fn.req_cpu) / cluster.capacity_cpu
        u_mem = (cluster.alloc_mem + fn.req_mem) / cluster.capacity_mem
        u = (u_cpu + u_mem) / 2.0
        s3, s4, s5, s7 = static.T
        s7 = np.where(cluster.image_mask(fn.image_name), 1.0, s7)
        # rtc_ratio: the fixed identity shape through (0, 0) and (1, 1),
        # clamped at 1 as np.interp clamps; on feasible nodes it equals
        # most_allocated.  balanced_resource: the population stddev of two
        # utilizations collapses to half their gap.
        totals = (((1.0 - u) * w0 + u * w1) + (np.minimum(u, 1.0) * w2 + s3 * w3)) \
            + ((s4 * w4 + s5 * w5) + ((1.0 - np.abs(u_cpu - u_mem) / 2.0) * w6 + s7 * w7))
        table = cluster.score_tables[fn] = ScoreTable(
            totals, feasible, np.flatnonzero(feasible), static, len(cluster.changes),
            weights.tobytes())
    elif table.seen < len(cluster.changes):
        static, feasible, totals, changed = table.static, table.feasible, table.totals, False
        req_cpu, req_mem = fn.req_cpu, fn.req_mem
        cached = cluster.images.get(fn.image_name)
        w0, w1, w2, w3, w4, w5, w6, w7 = weights.tolist()
        for j in set(cluster.changes[table.seen:]):
            a_cpu, a_mem = cluster.alloc_cpu.item(j), cluster.alloc_mem.item(j)
            c_cpu, c_mem = cluster.capacity_cpu.item(j), cluster.capacity_mem.item(j)
            fits = c_cpu - a_cpu >= req_cpu and c_mem - a_mem >= req_mem
            if fits != feasible.item(j):   # a Python bool: comparing np.bool_ is slow
                feasible[j], changed = fits, True
            u_cpu = (a_cpu + req_cpu) / c_cpu
            u_mem = (a_mem + req_mem) / c_mem
            u = (u_cpu + u_mem) / 2.0
            s3, s4, s5, s7 = static[j].tolist()
            if cached is not None and cached[j]:
                s7 = 1.0
            totals[j] = (((1.0 - u) * w0 + u * w1) + (min(u, 1.0) * w2 + s3 * w3)) \
                + ((s4 * w4 + s5 * w5) + ((1.0 - abs(u_cpu - u_mem) / 2.0) * w6 + s7 * w7))
        if changed:
            table.ids = np.flatnonzero(feasible)
        table.seen = len(cluster.changes)
    return table


def score_nodes(table: ScoreTable, node_ids: np.ndarray) -> np.ndarray:
    """The weighted scores of the nodes ``node_ids``, gathered from the
    totals of ``table``, which ``place`` has just brought up to date for its
    weights.  Callers must pass feasible ids."""
    return table.totals.take(node_ids)


def place(fn: FunctionSpec, cluster: Cluster, weights: np.ndarray,
          percent_nodes_to_score: float, rng: np.random.Generator) -> int | None:
    """Pick the best node for the pod, or None when nothing is feasible.

    The pod goes to the best node of a uniform k-subset of the n feasible
    nodes, k = max(1, floor(percent_nodes_to_score * n)), ties to the
    lowest node id.  Only the winner is drawn: in the order (total
    descending, id ascending), the subset's first member has rank r with
    P(r >= i) = C(n - i, k) / C(n, k), read off one ``rng.random()`` by
    walking that tail.  When k = n nothing is drawn and r = 0.  The
    weighted scores of all n feasible nodes are one gather from the score
    table's totals.
    Allocations and images are left untouched.  ``weights`` must have passed
    ``validate_weights``; the engine checks them once per run.
    """
    table = _score_table(fn, cluster, weights)
    ids, n = table.ids, len(table.ids)
    if n == 0:
        return None
    totals = score_nodes(table, ids)
    k = max(1, math.floor(percent_nodes_to_score * n))
    if k < n:
        u, r, tail = rng.random(), 0, (n - k) / n
        while u < tail:
            r += 1
            tail *= (n - k - r) / (n - r)
        # Rank r is the argmax once the r ranks above it are masked; argmax
        # takes the lowest position, hence the lowest id, among equal totals.
        for _ in range(r):
            totals[totals.argmax()] = -math.inf
    return int(ids[totals.argmax()])
