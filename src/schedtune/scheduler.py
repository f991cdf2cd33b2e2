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
    """A C-contiguous (n_nodes, 8) score template over all nodes.

    The template holds the columns that depend only on the function and the
    node: locality_type, data_locality and capability in their own columns,
    and in column 7 the image term of a node without the image.  Columns 0,
    1, 2 and 6 are left for ``score_matrix`` to fill.  Computed on first use
    and kept in ``cluster.static_scores``, which the engine's clones share.
    Each element is the same float a per-candidate computation gives, so
    scores stay bit-identical.
    """
    template = cluster.static_scores.get(fn)
    if template is not None:
        return template
    template = np.zeros((cluster.n_nodes, N_WEIGHTS))
    if fn.preferred_locality == "any":
        template[:, 3] = 1.0
    else:
        want = 0 if fn.preferred_locality == "cloud" else 1
        template[:, 3] = cluster.locality_code == want
    template[:, 4] = 1.0 - np.clip(cluster.fetch_times(fn.dataset_bytes) / DATA_TIME_CAP_S,
                                   0.0, 1.0)
    if fn.preferred_accelerator == "none":
        template[:, 5] = 0.5
    else:
        template[:, 5] = cluster.accel_code == ACCELERATORS.index(fn.preferred_accelerator)
    template[:, 7] = 1.0 - np.clip(cluster.pull_times(fn.image_bytes) / IMAGE_TIME_CAP_S,
                                   0.0, 1.0)
    cluster.static_scores[fn] = template
    return template


def score_matrix(fn: FunctionSpec, cluster: Cluster) -> np.ndarray:
    """The function's (n_nodes, 8) scores on this cluster copy, computed in
    full from its template and the current allocations and images."""
    scores = _static_columns(fn, cluster).copy()
    u_cpu = (cluster.alloc_cpu + fn.req_cpu) / cluster.capacity_cpu
    u_mem = (cluster.alloc_mem + fn.req_mem) / cluster.capacity_mem
    u = (u_cpu + u_mem) / 2.0
    scores[:, 0] = 1.0 - u  # least_allocated
    scores[:, 1] = u        # most_allocated
    # rtc_ratio: the fixed identity shape through (0, 0) and (1, 1), clamped
    # at 1 as np.interp clamps; on feasible nodes it equals most_allocated.
    scores[:, 2] = np.minimum(u, 1.0)
    # balanced_resource: the population stddev of two utilizations collapses
    # to half their gap.
    scores[:, 6] = 1.0 - np.abs(u_cpu - u_mem) / 2.0
    scores[cluster.image_mask(fn.image_name), 7] = 1.0
    return scores


@dataclass(slots=True, eq=False)
class ScoreTable:
    """One function's weighted scores on one cluster copy: ``totals``,
    every node's weighted score for the weights whose bytes are
    ``weights``, the feasibility mask, the feasible node ids in ascending
    order, and ``seen``, the length of ``cluster.changes`` when the table
    was last brought up to date (the nodes logged after it are the rows
    ``_score_table`` recomputes before a read).  The (n_nodes, 8) scores
    are not kept: ``score_matrix`` computes them."""

    totals: np.ndarray
    feasible: np.ndarray
    ids: np.ndarray
    seen: int
    weights: bytes


def _score_table(fn: FunctionSpec, cluster: Cluster, weights: np.ndarray) -> ScoreTable:
    """The function's score table on this cluster copy, up to date for ``weights``.

    Built in full from ``score_matrix`` the first time the function is
    scored on this copy, and again whenever the weights' bytes change, so an
    array changed in place gets fresh totals; kept in
    ``cluster.score_tables``.  Other calls recompute only the totals and
    feasibility of the nodes that ``cluster.changes`` logged since, from
    the node's allocations and its template row, as Python floats with the
    same operations in ``weighted_totals``' order: Python float arithmetic
    rounds as numpy's elementwise loops do, so every total is the float the
    full computation gives.  The feasible ids are rebuilt only when a
    refreshed node's feasibility changed.
    """
    table = cluster.score_tables.get(fn)
    if table is None or table.weights != weights.tobytes():
        feasible = ((cluster.capacity_cpu - cluster.alloc_cpu >= fn.req_cpu)
                    & (cluster.capacity_mem - cluster.alloc_mem >= fn.req_mem))
        table = cluster.score_tables[fn] = ScoreTable(
            weighted_totals(score_matrix(fn, cluster), weights), feasible,
            np.flatnonzero(feasible), len(cluster.changes), weights.tobytes())
    elif table.seen < len(cluster.changes):
        template, feasible, totals, changed = \
            _static_columns(fn, cluster), table.feasible, table.totals, False
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
            s0, s1, s2, s6 = 1.0 - u, u, min(u, 1.0), 1.0 - abs(u_cpu - u_mem) / 2.0
            _, _, _, s3, s4, s5, _, s7 = template[j].tolist()
            if cached is not None and cached[j]:
                s7 = 1.0
            totals[j] = ((s0 * w0 + s1 * w1) + (s2 * w2 + s3 * w3)) \
                + ((s4 * w4 + s5 * w5) + (s6 * w6 + s7 * w7))
        if changed:
            table.ids = np.flatnonzero(feasible)
        table.seen = len(cluster.changes)
    return table


def score_nodes(table: ScoreTable, node_ids: np.ndarray) -> np.ndarray:
    """The weighted scores of the nodes ``node_ids``, gathered from the
    totals of ``table``, which ``place`` has just brought up to date for its
    weights.  Callers must pass feasible ids."""
    return table.totals.take(node_ids)


def weighted_totals(scores: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Each row's weighted score sum, added in the same order on every row,
    the one numpy's row sum uses, spelled out so that ``_score_table`` can
    add a refreshed row's Python floats in it too.

    ``scores @ weights`` leaves the order to BLAS, whose kernels round a row
    differently by where it sits in the matrix, so bit-identical rows could
    get different totals and escape the lowest-id tie rule.
    """
    p = scores * weights
    return (((p[:, 0] + p[:, 1]) + (p[:, 2] + p[:, 3]))
            + ((p[:, 4] + p[:, 5]) + (p[:, 6] + p[:, 7])))


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
