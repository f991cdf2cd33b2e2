"""The node scorer as it stood before the (n, 8) template, kept as a test
oracle.

``feasible_mask`` and ``score_nodes`` below are the pre-template scheduler
verbatim: the filter over all nodes' free resources, four static score rows
gathered per call and all eight columns joined with ``np.column_stack``.
One thing differs: ``_static_columns`` recomputes its
rows on every call instead of caching them in ``cluster.static_scores``, so
the oracle shares no state with the code under test and a stale cache there
shows up as a difference.  The rtc breakpoints and the time caps are the
oracle's own copies of the scorer's fixed configuration, and the rtc column
still goes through ``np.interp``.  ``place`` adds each row's weighted
scores in a fixed order, not with ``@``, whose BLAS rounding depends on the
row's position.  It draws the winner's rank from the same single uniform as
the scheduler, but reads it off the exact cumulative pmf built from
``math.comb``, and takes that rank from a full stable sort of the totals,
where the scheduler walks a float tail and masks running maxima.
``test_scoring_oracle.py`` requires the
production scorer to give the same arrays and picks, and ``engine_oracle``
places its pods with this ``place``.  Do not optimise this file.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from schedtune.cluster import ACCELERATORS, Cluster
from schedtune.workload import FunctionSpec

RTC_POINTS = ((0.0, 0.0), (1.0, 1.0))
DATA_TIME_CAP_S = 60.0
IMAGE_TIME_CAP_S = 60.0


def feasible_mask(fn: FunctionSpec, cluster: Cluster) -> np.ndarray:
    free_cpu = cluster.capacity_cpu - cluster.alloc_cpu
    free_mem = cluster.capacity_mem - cluster.alloc_mem
    return (free_cpu >= fn.req_cpu) & (free_mem >= fn.req_mem)


def _static_columns(fn: FunctionSpec, cluster: Cluster) -> tuple[np.ndarray, np.ndarray]:
    n = cluster.n_nodes
    if fn.preferred_locality == "any":
        locality_type = np.ones(n)
    else:
        want = 0 if fn.preferred_locality == "cloud" else 1
        locality_type = (cluster.locality_code == want).astype(float)

    fetch = (cluster.store_latency + fn.dataset_bytes / cluster.store_bw).min(axis=0)
    data_locality = 1.0 - np.clip(fetch / DATA_TIME_CAP_S, 0.0, 1.0)

    if fn.preferred_accelerator == "none":
        capability = np.full(n, 0.5)
    else:
        want = ACCELERATORS.index(fn.preferred_accelerator)
        capability = (cluster.accel_code == want).astype(float)

    pull = cluster.store_latency[0] + fn.image_bytes / cluster.store_bw[0]
    uncached = 1.0 - np.clip(pull / IMAGE_TIME_CAP_S, 0.0, 1.0)

    return (np.vstack([locality_type, data_locality, capability, uncached]),
            np.array(RTC_POINTS, dtype=float))


def score_nodes(fn: FunctionSpec, node_ids: np.ndarray, cluster: Cluster) -> np.ndarray:
    ids = np.asarray(node_ids, dtype=int)
    static, rtc_points = _static_columns(fn, cluster)
    locality_type, data_locality, capability, uncached = static[:, ids]

    u_cpu = (cluster.alloc_cpu[ids] + fn.req_cpu) / cluster.capacity_cpu[ids]
    u_mem = (cluster.alloc_mem[ids] + fn.req_mem) / cluster.capacity_mem[ids]
    u = (u_cpu + u_mem) / 2.0

    least_allocated = 1.0 - u
    most_allocated = u
    xs, ys = rtc_points.T
    rtc_ratio = np.interp(u, xs, ys)

    # Population stddev of two utilizations collapses to half their gap.
    balanced_resource = 1.0 - np.abs(u_cpu - u_mem) / 2.0

    latency_aware = np.where(cluster.image_mask(fn.image_name)[ids], 1.0, uncached)

    return np.column_stack([
        least_allocated, most_allocated, rtc_ratio, locality_type,
        data_locality, capability, balanced_resource, latency_aware,
    ])


def place(fn: FunctionSpec, cluster: Cluster, weights: np.ndarray,
          percent_nodes_to_score: float, rng: np.random.Generator) -> int | None:
    ids = np.nonzero(feasible_mask(fn, cluster))[0]
    if len(ids) == 0:
        return None
    n = len(ids)
    k = max(1, int(math.floor(percent_nodes_to_score * n)))
    totals = (score_nodes(fn, ids, cluster) * weights).sum(axis=1)
    r = 0
    if k < n:
        # The best of a uniform k-subset has rank r with probability
        # C(n - 1 - r, k - 1) / C(n, k).  One uniform picks r by the exact
        # cumulative pmf: r is the first rank whose upper tail 1 - F(r)
        # the uniform is not below, so small uniforms pick deep ranks.
        u, cdf = rng.random(), Fraction(math.comb(n - 1, k - 1), math.comb(n, k))
        while r < n - k and u < 1 - cdf:
            r += 1
            cdf += Fraction(math.comb(n - 1 - r, k - 1), math.comb(n, k))
    # Rank order: total descending, lowest id first among equal totals.
    order = np.argsort(-totals, kind="stable")
    return int(ids[order[r]])
