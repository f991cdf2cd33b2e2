"""Differential test: the production scorer against the pre-template oracle.

A random cluster goes through an interleaved sequence of allocations, image
pulls, clones, path changes, scoring calls on arbitrary node subsets and
placements.  The scores of every scored subset, read one column at a time
as a table's totals under one-hot weights (``conftest.score_columns``), must
equal the oracle's element for element, with the same shape, dtype and
memory layout, and their ``score_nodes`` totals must be the oracle's
``weighted_totals`` of them; every ``place`` must pick the same node and
leave its generator in the same state, and the table rebuilt for weights
changed in place must equal one built on a clone.  After every operation,
the scores over all nodes must equal the oracle's, and each function's
score table on the current copy must hold, bit for bit, the oracle's
``weighted_totals`` of its scores under the weights the table was built
for, and the oracle's feasibility, on every row whose
node the cluster's change log has not named since the table's last refresh,
so a commit or image pull that fails to log a row it changed shows up; its
feasible ids must be those of its mask.
"""
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from schedtune import cluster as cl
from schedtune import scheduler as sched
from schedtune import workload as wl
from tests import scoring_oracle
from tests.conftest import make_function, score_columns

BYTES = st.sampled_from([0.0, 1e6, 1e8, 3e9, 1e12]) | st.floats(0.0, 1e10)
WEIGHTS = st.lists(st.floats(0.0, 1.0), min_size=sched.N_WEIGHTS, max_size=sched.N_WEIGHTS)


@st.composite
def sessions(draw):
    spec = cl.ClusterSpec(draw(st.sampled_from(cl.PRESETS)), draw(st.integers(1, 40)),
                          draw(st.sampled_from(cl.TOPOLOGY_KINDS)),
                          seed=draw(st.integers(0, 1000)))
    n = spec.total_nodes
    functions = []
    for k in range(draw(st.integers(1, 8))):
        fn = make_function(
            name=f"f{k}",
            cpu=draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])),
            mem=draw(st.sampled_from([256.0, 512.0, 1024.0, 2048.0])),
            accel=draw(st.sampled_from(cl.ACCELERATORS)),
            locality=draw(st.sampled_from(wl.LOCALITY_PREFERENCES)),
            image_bytes=draw(BYTES), dataset_bytes=draw(BYTES))
        functions.append(replace(fn, image_name=draw(
            st.sampled_from(["", "shared", fn.image_name]))))

    node = st.integers(0, n - 1)
    which_fn = st.integers(0, len(functions) - 1)
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("commit"), which_fn, node),
        st.tuples(st.just("image"), which_fn, node),
        st.tuples(st.just("clone")),
        st.tuples(st.just("reroute"), st.sampled_from([0.01, 0.5, 4.0])),
        st.tuples(st.just("score"), which_fn, st.lists(node, max_size=2 * n), WEIGHTS),
        st.tuples(st.just("place"), which_fn,
                  st.sampled_from([1.0, 0.75, 0.5, 0.2, 0.01]), WEIGHTS,
                  st.integers(0, 2**16)),
    ), min_size=1, max_size=40))
    return spec, functions, ops


def assert_tables_current(cluster):
    every = np.arange(cluster.n_nodes)
    for fn, table in cluster.score_tables.items():
        current = np.ones(cluster.n_nodes, dtype=bool)
        current[cluster.changes[table.seen:]] = False
        want = scoring_oracle.score_nodes(fn, every, cluster)
        assert np.array_equal(score_columns(fn, cluster), want)
        want = scoring_oracle.weighted_totals(want, np.frombuffer(table.weights))
        assert table.totals[current].tobytes() == want[current].tobytes()
        assert np.array_equal(table.feasible[current],
                              scoring_oracle.feasible_mask(fn, cluster)[current])
        assert np.array_equal(table.ids, np.flatnonzero(table.feasible))


@settings(max_examples=200, deadline=None)
@given(sessions())
def test_scorer_matches_oracle(session):
    spec, functions, ops = session
    cluster = cl.build_cluster(spec)
    for op, *args in ops:
        if op == "commit":
            fn, nid = functions[args[0]], args[1]
            cluster.commit(nid, fn.req_cpu, fn.req_mem_mb)
        elif op == "image":
            fn, nid = functions[args[0]], args[1]
            if fn.image_name:
                cluster.add_image(nid, fn.image_name)
        elif op == "clone":
            cluster = cluster.clone()
        elif op == "reroute":
            cluster = replace(cluster, store_bw=cluster.store_bw * args[0])
        elif op == "score":
            fn, ids, weights = functions[args[0]], np.array(args[1], dtype=int), np.array(args[2])
            table = sched._score_table(fn, cluster, weights)
            got = score_columns(fn, cluster).take(ids, axis=0)
            want = scoring_oracle.score_nodes(fn, ids, cluster)
            assert got.shape == want.shape == (len(ids), sched.N_WEIGHTS)
            assert got.dtype == want.dtype
            assert got.flags.c_contiguous and want.flags.c_contiguous
            assert np.array_equal(got, want)
            assert sched.score_nodes(table, ids).tobytes() \
                == scoring_oracle.weighted_totals(want, weights).tobytes()
        else:
            fn, pct, weights, seed = functions[args[0]], args[1], np.array(args[2]), args[3]
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert sched.place(fn, cluster, weights, pct, rng) \
                == scoring_oracle.place(fn, cluster, weights, pct, oracle_rng)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            # The same array changed in place is a second weight vector.
            weights[:] = 1.0 - weights
            table = sched._score_table(fn, cluster, weights)
            assert table.totals.tobytes() \
                == sched._score_table(fn, cluster.clone(), weights).totals.tobytes()
        assert_tables_current(cluster)
