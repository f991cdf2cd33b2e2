"""Differential test: the production engine against the pre-rewrite oracle.

Both engines must give the same ``SimResult`` (per-function metrics, score
and placement list) bit for bit, compared through ``repr``, or raise the
same ``UnschedulableError``.
"""
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from schedtune import cluster as cl
from schedtune import scheduler as sched
from schedtune import simengine as se
from schedtune import workload as wl
from schedtune.errors import UnschedulableError
from tests import engine_oracle
from tests.conftest import make_function

HORIZON_S = 20.0
TICK_S = 0.125


def _dyadic_paths(cluster):
    """Zero latencies and power-of-two bandwidths.  With dyadic payloads and
    execution times every service time is a multiple of ``TICK_S``, so
    completions land exactly on arrival ticks and on each other."""
    n, stores = cluster.n_nodes, cluster.store_latency.shape[0]
    return replace(cluster, store_latency=np.zeros((stores, n)),
                   store_bw=np.full((stores, n), 2.0**20))


@st.composite
def scenarios(draw):
    spec = cl.ClusterSpec(draw(st.sampled_from(cl.PRESETS)),
                          draw(st.integers(1, 6) | st.integers(1, 40)),
                          draw(st.sampled_from(cl.TOPOLOGY_KINDS)),
                          seed=draw(st.integers(0, 1000)))
    cluster = cl.build_cluster(spec)
    if draw(st.booleans()):
        cluster = _dyadic_paths(cluster)

    functions = []
    for k in range(draw(st.integers(1, 3))):
        fn = make_function(
            name=f"f{k}",
            cpu=draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])),
            mem=draw(st.sampled_from([256.0, 512.0, 1024.0, 2048.0])),
            accel=draw(st.sampled_from(cl.ACCELERATORS)),
            locality=draw(st.sampled_from(wl.LOCALITY_PREFERENCES)),
            image_bytes=draw(st.integers(0, 8)) * 2.0**17,
            dataset_bytes=draw(st.integers(0, 8)) * 2.0**17,
            base_exec_s=draw(st.integers(1, 16)) * TICK_S)
        # Shared image names exercise the per-node cache across functions;
        # an empty name never pays a pull.
        image = draw(st.sampled_from(["", "shared", fn.image_name]))
        functions.append(replace(fn, image_name=image))

    # A short span packs the arrivals into a burst that drives the
    # autoscaler into max_replicas or the feasibility wall.
    n_requests = draw(st.integers(0, 300))
    span = draw(st.integers(1, int(HORIZON_S / TICK_S)))
    trace = np.random.default_rng(draw(st.integers(0, 2**16)))
    ticks = np.sort(trace.integers(0, span, n_requests))
    owners = trace.integers(0, len(functions), n_requests)
    arrivals = [(t * TICK_S, f) for t, f in zip(ticks.tolist(), owners.tolist())]

    min_replicas = draw(st.integers(1, 3))
    options = se.SimOptions(
        min_replicas=min_replicas,
        max_replicas=draw(st.integers(min_replicas, 100)),
        scale_factor=draw(st.integers(1, 4)),
        percent_nodes_to_score=draw(st.sampled_from([1.0, 0.75, 0.5, 0.2, 0.01])),
        seed=draw(st.integers(0, 1000)))
    weights = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
        min_size=sched.N_WEIGHTS, max_size=sched.N_WEIGHTS)))
    workload = wl.WorkloadSpec(tuple((fn, 1.0) for fn in functions), duration_s=HORIZON_S)
    return cluster, workload, arrivals, weights, options


def _outcome(simulate, args):
    try:
        return repr(simulate(*args))
    except UnschedulableError as exc:
        return f"unschedulable {exc.function_name}"


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_engine_matches_oracle(scenario):
    assert _outcome(se.simulate_requests, scenario) \
        == _outcome(engine_oracle.simulate_requests, scenario)
