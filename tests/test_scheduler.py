from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats
from scipy.special import comb

from schedtune import cluster as cl
from schedtune import scheduler as sched
from schedtune import simengine as se
from schedtune import workload as wl
from schedtune.errors import ConfigError
from tests import scoring_oracle
from tests.conftest import make_function, score_columns


def _table(fn, cluster):
    """The function's score table on the cluster, totals for the fixed weights."""
    return sched._score_table(fn, cluster, sched.FIXED_WEIGHTS)


def _column(fn, cluster, j):
    """Score column ``j`` as the table keeps it: the totals under the
    one-hot weights of column ``j``, which add exact zeros to it."""
    return sched._score_table(fn, cluster, np.eye(sched.N_WEIGHTS)[j]).totals


def test_weight_order_and_fixed_vector():
    assert sched.SCORING_FUNCTIONS == (
        "least_allocated", "most_allocated", "rtc_ratio", "locality_type",
        "data_locality", "capability", "balanced_resource",
        "latency_aware_image_locality",
    )
    assert sched.FIXED_WEIGHTS.tolist() == [0, 1, 0, 1, 1, 1, 1, 1]


def test_filter_excludes_overfull_nodes(small_cluster, probe_function):
    small_cluster.commit(0, small_cluster.capacity_cpu[0], small_cluster.capacity_mem[0])
    mask = _table(probe_function, small_cluster).feasible
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
        if _table(probe_function, small_cluster).feasible[nid]:
            s = score_columns(probe_function, small_cluster)[nid]
            assert s.shape == (8,)
            assert np.all(s >= 0.0) and np.all(s <= 1.0)
            small_cluster.commit(nid, 1.0, 1024.0)


def test_least_plus_most_allocated_is_one(small_cluster, probe_function):
    s = score_columns(probe_function, small_cluster)
    np.testing.assert_allclose(s[:, 0] + s[:, 1], 1.0, atol=1e-12)


def test_default_rtc_equals_most_allocated(small_cluster, probe_function):
    s = score_columns(probe_function, small_cluster)
    assert np.array_equal(s[:, 2], s[:, 1])


def test_balanced_resource_half_on_maximal_imbalance():
    c = cl.build_cluster(cl.ClusterSpec("cloud_cpu", 2))
    # fill cpu completely, touch no memory, then score a zero-footprint-ish pod
    fn = make_function(cpu=c.capacity_cpu[0], mem=c.capacity_mem[0] * 1e-12)
    s = score_columns(fn, c)[0]
    assert abs(s[6] - 0.5) < 1e-9


def test_locality_and_capability_scores():
    c = cl.build_cluster(cl.ClusterSpec("hybrid_balanced", 60, seed=2))
    cloud_pref = make_function(locality="cloud")
    any_pref = make_function(locality="any")
    gpu_pref = make_function(accel="gpu")
    none_pref = make_function(accel="none")
    is_cloud = [float(d.locality == "cloud") for d in c.devices]
    is_gpu = [float(d.accelerator == "gpu") for d in c.devices]
    assert score_columns(cloud_pref, c)[:, 3].tolist() == is_cloud
    assert (score_columns(any_pref, c)[:, 3] == 1.0).all()
    assert score_columns(gpu_pref, c)[:, 5].tolist() == is_gpu
    assert (score_columns(none_pref, c)[:, 5] == 0.5).all()
    assert 0.0 in is_cloud and 1.0 in is_cloud and 0.0 in is_gpu and 1.0 in is_gpu


def test_image_locality_saturates_and_prefers_cache(small_cluster):
    # The table's total refreshes from the pull, as the full matrix does.
    huge = make_function(image_bytes=1e12)
    assert score_columns(huge, small_cluster)[0, 7] == 0.0
    assert _column(huge, small_cluster, 7)[0] == 0.0
    small_cluster.add_image(0, huge.image_name)
    assert score_columns(huge, small_cluster)[0, 7] == 1.0
    assert _column(huge, small_cluster, 7)[0] == 1.0


def test_data_locality_decreases_with_dataset_size(small_cluster):
    near = score_columns(make_function(dataset_bytes=1e6), small_cluster)[0, 4]
    far = score_columns(make_function(dataset_bytes=1e10), small_cluster)[0, 4]
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
            assert np.array_equal(score_columns(fn, target)[ids],
                                  score_columns(fn, fresh)[ids])
            assert np.array_equal(_table(fn, target).totals, _table(fn, fresh).totals)
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
        return replace(cluster, store_bw=cluster.store_bw / 100)

    scored = cl.build_cluster(spec)
    before = _table(fn, scored).totals
    slow = slowed(scored)
    assert slow.score_tables == {}
    fresh = slowed(cl.build_cluster(spec))
    expected = score_columns(fn, fresh)
    assert not np.array_equal(score_columns(fn, scored)[:, [4, 7]], expected[:, [4, 7]])
    assert np.array_equal(score_columns(fn, slow), expected)
    assert not np.array_equal(before, _table(fn, fresh).totals)
    assert np.array_equal(_table(fn, slow).totals, _table(fn, fresh).totals)
    assert slow.static_scores is not scored.static_scores


def test_a_commit_for_one_function_refreshes_the_node_in_every_table():
    spec = cl.ClusterSpec("hybrid_balanced", 60, "urban", seed=2)
    a, b = make_function(name="a"), make_function(name="b", cpu=2.0, mem=512.0)
    c = cl.build_cluster(spec)
    before = _table(b, c).totals.copy()
    _table(a, c)
    c.commit(7, a.req_cpu, a.req_mem_mb)
    assert c.changes == [7]
    assert c.score_tables[a].seen == c.score_tables[b].seen == 0
    after = _table(b, c).totals
    assert c.score_tables[b].seen == 1
    fresh = cl.build_cluster(spec)
    fresh.commit(7, a.req_cpu, a.req_mem_mb)
    assert np.array_equal(after, _table(b, fresh).totals)
    assert np.array_equal(after, _table(b, c.clone()).totals)
    assert np.flatnonzero(after != before).tolist() == [7]


def test_an_image_pull_marks_only_the_functions_that_use_the_image():
    # The pull is logged once for the node; every table refreshes that row,
    # and only the image's users see column 7 turn to 1.0.
    c = cl.build_cluster(cl.ClusterSpec("hybrid_balanced", 60, "urban", seed=2))
    a, b = make_function(name="a"), make_function(name="b")
    shared = replace(make_function(name="c"), image_name=a.image_name)
    for fn in (a, b, shared):
        _column(fn, c, 7)
    c.add_image(4, a.image_name)
    assert c.changes == [4]
    assert [c.score_tables[fn].seen for fn in (a, b, shared)] == [0, 0, 0]
    assert _column(a, c, 7)[4] == _column(shared, c, 7)[4] == 1.0
    assert _column(b, c, 7)[4] < 1.0
    assert [c.score_tables[fn].seen for fn in (a, b, shared)] == [1, 1, 1]


def test_one_hot_weights_pick_best_single_score(small_cluster, probe_function):
    table = _table(probe_function, small_cluster)
    ids = table.ids
    scores = score_columns(probe_function, small_cluster)[ids]
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
    feasible = _table(probe_function, small_cluster).ids.tolist()
    n = len(feasible)
    pct = 1.0 / (n + 1)
    # floor gives zero, the floor of one node still applies
    chosen = sched.place(probe_function, small_cluster, sched.FIXED_WEIGHTS,
                         pct, np.random.default_rng(3))
    assert chosen in feasible


def _cluster_with_feasible(n, blocked):
    """A cluster of n feasible nodes and the nodes ``blocked``, which are
    full, so the feasible ids are not the first n positions."""
    c = cl.build_cluster(cl.ClusterSpec("hybrid_balanced", n + len(blocked), seed=4))
    for nid in blocked:
        c.commit(nid, c.capacity_cpu[nid], c.capacity_mem[nid])
    return c


BLOCKED = (0, 5, 9, 13)
SUBSAMPLE_SEEDS = 4000


def _assert_lowest_rank_law(ranks, n, k):
    """Chi-square of the winners' ranks against the law of a uniform
    k-subset's lowest rank, P(r) = C(n - r - 1, k - 1) / C(n, k).  Cells
    expecting fewer than five are pooled into the last one."""
    counts = np.bincount(ranks, minlength=n - k + 1)
    assert len(counts) == n - k + 1
    expected = np.array([comb(n - r - 1, k - 1) for r in range(n - k + 1)]) / comb(n, k)
    expected *= len(ranks)
    cells = max(2, int(np.searchsorted(-expected, -5.0)))
    observed = np.append(counts[:cells - 1], counts[cells - 1:].sum())
    pooled = np.append(expected[:cells - 1], expected[cells - 1:].sum())
    assert stats.chisquare(observed, pooled).pvalue > 1e-3


@pytest.mark.parametrize("k", [1, 5, 11])
def test_with_tied_totals_the_winner_is_the_lowest_id_of_a_uniform_k_subset(k):
    # With every total equal, the rank order is the id order, so the
    # winner's position among the n feasible ids is the lowest position of
    # a uniform k-subset of them.
    n = 12
    c = _cluster_with_feasible(n, BLOCKED)
    fn = make_function()
    feasible = _table(fn, c).ids
    assert len(feasible) == n and not set(BLOCKED) & set(feasible.tolist())
    pct = (k + 0.5) / n
    ranks = [int(np.searchsorted(feasible, sched.place(fn, c, np.zeros(sched.N_WEIGHTS), pct,
                                                       np.random.default_rng(seed))))
             for seed in range(SUBSAMPLE_SEEDS)]
    _assert_lowest_rank_law(ranks, n, k)


def _cluster_with_distinct_totals(n):
    """A cluster of n feasible nodes among BLOCKED ones, each with its own
    allocation, and weights under which every feasible total differs."""
    c = _cluster_with_feasible(n, BLOCKED)
    for nid in range(c.n_nodes):
        if nid not in BLOCKED:
            c.commit(nid, 0.01 * nid, 0.0)
    weights = np.random.default_rng(2).uniform(0.0, 1.0, sched.N_WEIGHTS)
    return c, weights


@pytest.mark.parametrize("k", [1, 5, 11])
def test_with_distinct_totals_the_winners_rank_is_the_lowest_of_a_uniform_k_subset(k):
    # The best node of a uniform k-subset: in the order of totals, highest
    # first, the winner's rank is the subset's lowest rank.
    n = 12
    c, weights = _cluster_with_distinct_totals(n)
    fn = make_function()
    ids = _table(fn, c).ids
    totals = sched._score_table(fn, c, weights).totals[ids]
    assert len(np.unique(totals)) == n
    rank = {int(ids[i]): r for r, i in enumerate(np.argsort(-totals))}
    pct = (k + 0.5) / n
    ranks = [rank[sched.place(fn, c, weights, pct, np.random.default_rng(seed))]
             for seed in range(SUBSAMPLE_SEEDS)]
    _assert_lowest_rank_law(ranks, n, k)


@pytest.mark.parametrize("n, pct", [(2, 0.5), (12, 0.1), (12, 0.95), (40, 0.3)])
def test_a_subsampled_placement_draws_one_uniform(n, pct):
    # Whatever rank it lands on, a placement with k < n advances the
    # generator exactly as one rng.random() does.
    c = cl.build_cluster(cl.ClusterSpec("hybrid_balanced", n, seed=1))
    weights = np.random.default_rng(3).uniform(0.0, 1.0, sched.N_WEIGHTS)
    for seed in range(20):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        assert sched.place(make_function(), c, weights, pct, rng) is not None
        twin.random()
        assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("k", [1, 5, 11])
def test_with_distinct_scores_the_subsample_winner_is_feasible(k):
    n = 12
    c, weights = _cluster_with_distinct_totals(n)
    fn = make_function()
    table = _table(fn, c)
    feasible = set(table.ids.tolist())
    totals = sched._score_table(fn, c, weights).totals[table.ids]
    assert len(np.unique(totals)) == n
    for seed in range(200):
        assert sched.place(fn, c, weights, (k + 0.5) / n,
                           np.random.default_rng(seed)) in feasible


@pytest.mark.parametrize("n, pct", [(1, 1.0), (1, 0.5), (2, 1.0), (40, 1.0)])
def test_a_full_scan_draws_nothing(n, pct):
    # max(1, floor(p * n)) >= n leaves nothing to subsample.  Every
    # train-domain placement runs at p = 1.0, so its stream must stay still.
    c = cl.build_cluster(cl.ClusterSpec("hybrid_balanced", n, seed=1))
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    assert sched.place(make_function(), c, sched.FIXED_WEIGHTS, pct, rng) is not None
    assert rng.bit_generator.state == before


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
    scores = score_columns(fn, c)
    assert np.array_equal(scores[58], scores[66])
    assert sched.place(fn, c, weights, 1.0, np.random.default_rng(0)) == 58


NODE_ARRAYS = ("capacity_cpu", "capacity_mem", "alloc_cpu", "alloc_mem")


def _copy_node(source, i, target, j, fn):
    """Give node j of ``target`` node i's capacities, allocations and
    static scores."""
    for name in NODE_ARRAYS:
        getattr(target, name)[j] = getattr(source, name)[i]
    sched._static_columns(fn, target)[j] = sched._static_columns(fn, source)[i]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 400))
def test_bit_identical_rows_get_identical_totals(data, n):
    # Nodes with bit-identical inputs get bit-identical totals wherever they
    # sit in the table, and the total a lone node with those inputs gets.
    unit = st.floats(0.0, 1.0)
    c = cl.build_cluster(cl.ClusterSpec("hybrid_balanced", n))
    fn = make_function()
    sched._static_columns(fn, c)[:] = data.draw(arrays(np.float64, (n, 4), elements=unit))
    c.alloc_cpu[:] = data.draw(arrays(np.float64, n, elements=st.floats(0.0, 64.0)))
    c.alloc_mem[:] = data.draw(arrays(np.float64, n, elements=st.floats(0.0, 1e5)))
    weights = data.draw(arrays(np.float64, sched.N_WEIGHTS, elements=unit))
    rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
    for j in rows[1:]:
        _copy_node(c, rows[0], c, j, fn)
    totals = sched._score_table(fn, c, weights).totals
    assert len({totals[j].hex() for j in rows}) == 1
    lone = cl.build_cluster(cl.ClusterSpec("hybrid_balanced", 1))
    _copy_node(c, rows[0], lone, 0, fn)
    assert totals[rows[0]] == sched._score_table(fn, lone, weights).totals[0]


WIDE = st.floats(-1e200, 1e200)
WEIGHT = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_refreshed_row_totals_equal_a_full_build(data):
    # A refreshed row's total is added from Python floats in the full
    # build's order, so it is the same float however far apart the terms'
    # exponents are.  The rows get wide static scores in the block they are
    # refreshed from and wide utilizations from wide allocations; every node
    # is then logged, so every row is refreshed.  A clone starts with no
    # tables, so it builds its table in full.
    c = cl.build_cluster(cl.ClusterSpec("hybrid_balanced", 9))
    fn = make_function()
    weights = np.array(data.draw(st.lists(WEIGHT, min_size=sched.N_WEIGHTS,
                                          max_size=sched.N_WEIGHTS)))
    table = sched._score_table(fn, c, weights)
    c.static_scores[fn][:] = data.draw(arrays(np.float64, (c.n_nodes, 4), elements=WIDE))
    for j in range(c.n_nodes):
        c.commit(j, data.draw(WIDE), data.draw(WIDE))
    assert sched._score_table(fn, c, weights) is table
    assert table.seen == len(c.changes)
    assert table.totals.tobytes() == sched._score_table(fn, c.clone(), weights).totals.tobytes()


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
        assert _table(fn, c).feasible[a]


def test_a_refresh_that_makes_a_node_infeasible_drops_it_from_placement():
    # The function's table exists before the commit, so the node leaves the
    # candidates through a stale-row refresh.  Sampling must then draw from
    # the remaining feasible nodes exactly as the oracle does.
    c = cl.build_cluster(cl.ClusterSpec("hybrid_balanced", 60, "urban", seed=2))
    fn = make_function(name="f", cpu=2.0, mem=512.0)
    best = sched.place(fn, c, sched.FIXED_WEIGHTS, 1.0, np.random.default_rng(0))
    c.commit(best, c.capacity_cpu[best] - 1.0, 0.0)
    assert not _table(fn, c).feasible[best]
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
        c.commit(nid, fn.req_cpu, fn.req_mem_mb)
        placed.append(nid)
    assert sorted(placed) == [0] * 4 + [1] * 4 + [2] * 4
    assert not _table(fn, c).feasible.any()
    assert sched.place(fn, c, sched.FIXED_WEIGHTS, 0.5, rng) is None
