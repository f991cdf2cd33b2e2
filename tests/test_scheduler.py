from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from schedtune import cluster as cl
from schedtune import scheduler as sched
from schedtune import simengine as se
from schedtune import workload as wl
from schedtune.errors import ConfigError
from tests import scoring_oracle
from tests.conftest import make_function


def test_weight_order_and_fixed_vector():
    assert sched.SCORING_FUNCTIONS == (
        "least_allocated", "most_allocated", "rtc_ratio", "locality_type",
        "data_locality", "capability", "balanced_resource",
        "latency_aware_image_locality",
    )
    assert sched.FIXED_WEIGHTS.tolist() == [0, 1, 0, 1, 1, 1, 1, 1]


def test_filter_excludes_overfull_nodes(small_cluster, probe_function):
    small_cluster.commit(0, small_cluster.capacity_cpu[0], small_cluster.capacity_mem[0])
    mask = sched._score_table(probe_function, small_cluster).feasible
    assert not mask[0]
    assert mask[1:].all()


def test_unschedulable_returns_none(small_cluster):
    fn = make_function(cpu=1e9)
    rng = np.random.default_rng(0)
    assert sched.place(fn, small_cluster, sched.FIXED_WEIGHTS,
                       1.0, rng) is None


def test_scores_lie_in_unit_interval(small_cluster, probe_function):
    rng = np.random.default_rng(1)
    for _ in range(50):
        nid = int(rng.integers(small_cluster.n_nodes))
        table = sched._score_table(probe_function, small_cluster)
        if table.feasible[nid]:
            s = table.scores[nid]
            assert s.shape == (8,)
            assert np.all(s >= 0.0) and np.all(s <= 1.0)
            small_cluster.commit(nid, 1.0, 1024.0)


def test_least_plus_most_allocated_is_one(small_cluster, probe_function):
    s = sched._score_table(probe_function, small_cluster).scores
    np.testing.assert_allclose(s[:, 0] + s[:, 1], 1.0, atol=1e-12)


def test_default_rtc_equals_most_allocated(small_cluster, probe_function):
    s = sched._score_table(probe_function, small_cluster).scores
    assert np.array_equal(s[:, 2], s[:, 1])


def test_balanced_resource_half_on_maximal_imbalance():
    c = cl.build_cluster(cl.ClusterSpec("cloud_cpu", 2))
    # fill cpu completely, touch no memory, then score a zero-footprint-ish pod
    fn = make_function(cpu=c.capacity_cpu[0], mem=c.capacity_mem[0] * 1e-12)
    s = sched._score_table(fn, c).scores[0]
    assert abs(s[6] - 0.5) < 1e-9


def test_locality_and_capability_scores():
    c = cl.build_cluster(cl.ClusterSpec("hybrid_balanced", 60, seed=2))
    cloud_pref = make_function(locality="cloud")
    any_pref = make_function(locality="any")
    gpu_pref = make_function(accel="gpu")
    none_pref = make_function(accel="none")
    is_cloud = [float(n.device.locality == "cloud") for n in c.nodes]
    is_gpu = [float(n.device.accelerator == "gpu") for n in c.nodes]
    assert sched._score_table(cloud_pref, c).scores[:, 3].tolist() == is_cloud
    assert (sched._score_table(any_pref, c).scores[:, 3] == 1.0).all()
    assert sched._score_table(gpu_pref, c).scores[:, 5].tolist() == is_gpu
    assert (sched._score_table(none_pref, c).scores[:, 5] == 0.5).all()
    assert 0.0 in is_cloud and 1.0 in is_cloud and 0.0 in is_gpu and 1.0 in is_gpu


def test_image_locality_saturates_and_prefers_cache(small_cluster):
    huge = make_function(image_bytes=1e12)
    assert sched._score_table(huge, small_cluster).scores[0, 7] == 0.0
    small_cluster.add_image(0, huge.image_name)
    assert sched._score_table(huge, small_cluster).scores[0, 7] == 1.0


def test_data_locality_decreases_with_dataset_size(small_cluster):
    near = sched._score_table(make_function(dataset_bytes=1e6), small_cluster).scores[0, 4]
    far = sched._score_table(make_function(dataset_bytes=1e10), small_cluster).scores[0, 4]
    assert near > far
    assert far == 0.0


def test_cached_columns_follow_function_and_clones():
    # One cluster scores every function in turn; each result
    # must equal the same scoring on a freshly built cluster, clone included.
    spec = cl.ClusterSpec("hybrid_balanced", 60, "urban", seed=2)
    shared = cl.build_cluster(spec)
    ids = np.arange(0, 60, 3)
    functions = [make_function(), make_function(name="g", accel="gpu", locality="cloud",
                                                dataset_bytes=1e9, image_bytes=3e8)]
    for fn in functions:
        for target in (shared, shared.clone()):
            fresh = cl.build_cluster(spec)
            assert np.array_equal(sched._score_table(fn, target).scores[ids],
                                  sched._score_table(fn, fresh).scores[ids])
    assert len(shared.static_scores) == len(shared.score_tables) == 2
    twin = shared.clone()
    assert twin.static_scores is shared.static_scores
    assert twin.score_tables == {}


def test_replaced_paths_do_not_reuse_cached_columns():
    # dataclasses.replace builds a new cluster from the fields; the columns
    # cached for the old paths must not follow it, or a slower network
    # still scores like the old one.
    spec = cl.ClusterSpec("hybrid_balanced", 60, "urban", seed=2)
    fn = make_function(dataset_bytes=1e8, image_bytes=3e8)

    def slowed(cluster):
        return replace(cluster, registry_bw=cluster.registry_bw / 100,
                       store_bw=cluster.store_bw / 100)

    scored = cl.build_cluster(spec)
    before = sched._score_table(fn, scored).scores
    slow = slowed(scored)
    assert slow.score_tables == {}
    expected = sched._score_table(fn, slowed(cl.build_cluster(spec))).scores
    assert not np.array_equal(before[:, [4, 7]], expected[:, [4, 7]])
    assert np.array_equal(sched._score_table(fn, slow).scores, expected)
    assert slow.static_scores is not scored.static_scores


def test_a_commit_for_one_function_refreshes_the_node_in_every_table():
    spec = cl.ClusterSpec("hybrid_balanced", 60, "urban", seed=2)
    a, b = make_function(name="a"), make_function(name="b", cpu=2.0, mem=512.0)
    c = cl.build_cluster(spec)
    before = sched._score_table(b, c).scores.copy()
    sched._score_table(a, c)
    c.commit(7, a.req_cpu, a.req_mem)
    assert c.changes == [7]
    assert c.score_tables[a].seen == c.score_tables[b].seen == 0
    after = sched._score_table(b, c).scores
    assert c.score_tables[b].seen == 1
    fresh = cl.build_cluster(spec)
    fresh.commit(7, a.req_cpu, a.req_mem)
    assert np.array_equal(after, sched._score_table(b, fresh).scores)
    assert [j for j in range(60) if not np.array_equal(after[j], before[j])] == [7]


def test_an_image_pull_marks_only_the_functions_that_use_the_image():
    # The pull is logged once for the node; every table refreshes that row,
    # and only the image's users see column 7 turn to 1.0.
    c = cl.build_cluster(cl.ClusterSpec("hybrid_balanced", 60, "urban", seed=2))
    a, b = make_function(name="a"), make_function(name="b")
    shared = replace(make_function(name="c"), image_name=a.image_name)
    for fn in (a, b, shared):
        sched._score_table(fn, c)
    c.add_image(4, a.image_name)
    assert c.changes == [4]
    assert [c.score_tables[fn].seen for fn in (a, b, shared)] == [0, 0, 0]
    assert sched._score_table(a, c).scores[4, 7] \
        == sched._score_table(shared, c).scores[4, 7] == 1.0
    assert sched._score_table(b, c).scores[4, 7] < 1.0
    assert [c.score_tables[fn].seen for fn in (a, b, shared)] == [1, 1, 1]


def test_one_hot_weights_pick_best_single_score(small_cluster, probe_function):
    table = sched._score_table(probe_function, small_cluster)
    ids = table.ids
    scores = table.scores[ids]
    for j in range(8):
        w = np.zeros(8)
        w[j] = 1.0
        chosen = sched.place(probe_function, small_cluster, w, 1.0,
                             np.random.default_rng(0))
        best = scores[:, j].max()
        expected = int(ids[np.nonzero(scores[:, j] == best)[0][0]])
        assert chosen == expected


def test_scale_invariance_of_argmax(small_cluster, probe_function):
    # base weights kept within [0, 0.1] so that a x10 scaling stays in bounds
    pct = 0.5
    w = np.array([0.03, 0.01, 0.02, 0.07, 0.04, 0.09, 0.05, 0.06])
    base = sched.place(probe_function, small_cluster, w, pct,
                       np.random.default_rng(77))
    for c in (0.1, 10.0):
        scaled = sched.place(probe_function, small_cluster, w * c, pct,
                             np.random.default_rng(77))
        assert scaled == base


def test_subsample_size_floor(small_cluster, probe_function):
    feasible = sched._score_table(probe_function, small_cluster).ids.tolist()
    n = len(feasible)
    pct = 1.0 / (n + 1)
    # floor gives zero, the floor of one node still applies
    chosen = sched.place(probe_function, small_cluster, sched.FIXED_WEIGHTS,
                         pct, np.random.default_rng(3))
    assert chosen in feasible


def test_place_does_not_mutate_cluster(small_cluster, probe_function):
    small_cluster.commit(2, 1.0, 256.0)
    before = (small_cluster.alloc_cpu.copy(), small_cluster.alloc_mem.copy())
    sched.place(probe_function, small_cluster, sched.FIXED_WEIGHTS,
                1.0, np.random.default_rng(0))
    assert np.array_equal(small_cluster.alloc_cpu, before[0])
    assert np.array_equal(small_cluster.alloc_mem, before[1])


def test_tie_break_lowest_node_id():
    c = cl.build_cluster(cl.ClusterSpec("cloud_cpu", 3))
    # identical empty xeon nodes: every score ties, lowest id must win
    fn = make_function()
    nid = sched.place(fn, c, sched.FIXED_WEIGHTS, 1.0,
                      np.random.default_rng(0))
    assert nid == 0


def test_bit_identical_rows_tie_to_the_lowest_node_id():
    # Nodes 58, 59 and 66 get bit-identical score rows.  A BLAS
    # matrix-vector product rounds a row by where it sits in the matrix
    # (seen with OpenBLAS 0.3.31), which gave node 66 a total one ulp above
    # node 58's; a fixed-order row sum cannot.
    c = cl.build_cluster(cl.ClusterSpec("cloud_cpu", 67, "internet", seed=0))
    fn = make_function(name="f", cpu=0.5, mem=256.0, image_bytes=4e7, dataset_bytes=3e7)
    weights = np.array([0.801, 0.691, 0.6, 0.015, 0.423, 0.552, 0.764, 0.341])
    scores = sched._score_table(fn, c).scores
    assert np.array_equal(scores[58], scores[66])
    assert sched.place(fn, c, weights, 1.0, np.random.default_rng(0)) == 58


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 400))
def test_bit_identical_rows_get_identical_totals(data, n):
    unit = st.floats(0.0, 1.0)
    scores = data.draw(arrays(np.float64, (n, sched.N_WEIGHTS), elements=unit))
    weights = data.draw(arrays(np.float64, sched.N_WEIGHTS, elements=unit))
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
    scores[rows] = scores[rows[0]]
    totals = sched.weighted_totals(scores, weights)
    assert len({totals[j].hex() for j in rows}) == 1
    assert totals[rows[0]] == sched.weighted_totals(scores[rows[:1]], weights)[0]


def test_invalid_weights_rejected(small_cluster, probe_function):
    # place trusts its weights; the engine checks them once per run
    requests = [(0.0, 0)]
    for bad in (np.ones(7), np.full(8, 1.5)):
        with pytest.raises(ConfigError):
            se.simulate_requests(small_cluster, wl.WorkloadSpec(((probe_function, 1.0),)),
                                 requests, bad, se.SimOptions())
    for bad in (0.0, 1.5, np.nan):
        with pytest.raises(ConfigError, match="percent_nodes_to_score"):
            se.SimOptions(percent_nodes_to_score=bad)


@pytest.mark.parametrize("bad", [np.full(8, np.nan),
                                 np.array([0.5] * 7 + [np.nan]),
                                 np.array([np.inf] + [0.5] * 7)])
def test_validate_weights_rejects_nan_and_inf(bad):
    # argmax over NaN totals silently picks the first candidate
    with pytest.raises(ConfigError, match="weights"):
        sched.validate_weights(bad)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       pct=st.floats(min_value=0.05, max_value=1.0))
def test_placement_feasible_and_deterministic(seed, pct):
    rng = np.random.default_rng(seed)
    c = cl.build_cluster(cl.ClusterSpec(
        cl.PRESETS[seed % len(cl.PRESETS)], 10 + seed % 30, seed=seed))
    fn = make_function(cpu=float(rng.integers(1, 4)),
                       mem=float(rng.integers(256, 2048)))
    w = rng.uniform(0, 1, 8)
    a = sched.place(fn, c, w, pct, np.random.default_rng(seed))
    b = sched.place(fn, c, w, pct, np.random.default_rng(seed))
    assert a == b
    if a is not None:
        assert sched._score_table(fn, c).feasible[a]


def test_a_refresh_that_makes_a_node_infeasible_drops_it_from_placement():
    # The function's table exists before the commit, so the node leaves the
    # candidates through a stale-row refresh.  Sampling must then draw from
    # the remaining feasible nodes exactly as the oracle does.
    c = cl.build_cluster(cl.ClusterSpec("hybrid_balanced", 60, "urban", seed=2))
    fn = make_function(name="f", cpu=2.0, mem=512.0)
    best = sched.place(fn, c, sched.FIXED_WEIGHTS, 1.0, np.random.default_rng(0))
    c.commit(best, c.capacity_cpu[best] - 1.0, 0.0)
    assert not sched._score_table(fn, c).feasible[best]
    weights = np.random.default_rng(1).uniform(0.0, 1.0, sched.N_WEIGHTS)
    for seed in range(20):
        for pct in (1.0, 0.5, 0.1):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            chosen = sched.place(fn, c, weights, pct, rng)
            assert chosen == scoring_oracle.place(fn, c, weights, pct, oracle_rng)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            assert chosen != best


def test_place_returns_none_once_no_node_fits():
    # Three 32-core nodes hold twelve 8-core pods.
    c = cl.build_cluster(cl.ClusterSpec("cloud_cpu", 3))
    fn = make_function(cpu=8.0)
    rng = np.random.default_rng(0)
    placed = []
    while (nid := sched.place(fn, c, sched.FIXED_WEIGHTS, 1.0, rng)) is not None:
        c.commit(nid, fn.req_cpu, fn.req_mem)
        placed.append(nid)
    assert sorted(placed) == [0] * 4 + [1] * 4 + [2] * 4
    assert not sched._score_table(fn, c).feasible.any()
    assert sched.place(fn, c, sched.FIXED_WEIGHTS, 0.5, rng) is None
