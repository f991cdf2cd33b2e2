import hashlib
import inspect
from dataclasses import replace

import numpy as np
import pytest

from schedtune import cluster as cl
from schedtune import scheduler as sched
from schedtune import simengine as se
from schedtune import workload as wl
from schedtune.errors import ConfigError, UnschedulableError
from schedtune.tunenv import default_space_set, sample_scenario
from tests.conftest import make_function


def _two_xeon_cluster():
    # cloud_cpu at total=2 apportions both nodes to xeon_cpu
    c = cl.build_cluster(cl.ClusterSpec("cloud_cpu", 2, "internet"))
    assert all(d.name == "xeon_cpu" for d in c.devices)
    return c


def _only(fn, duration=100.0):
    """A one-function workload for a hand-made trace; its rate goes unused."""
    return wl.WorkloadSpec(functions=((fn, 1.0),), duration_s=duration)


def _mini_workload(seed=0, rps=3.0):
    fns = (make_function(name="alpha", base_exec_s=0.5),
           make_function(name="beta", base_exec_s=0.2))
    return wl.WorkloadSpec(functions=tuple((f, rps) for f in fns), seed=seed)


def test_compute_score_midpoint_example():
    metrics = se.BenchmarkMetrics({
        "f": se.FunctionMetrics(mu_fet_s=15.0, mu_wait_s=0.0, n_success=10, n_total=10),
    })
    assert se.compute_score(metrics) == pytest.approx((0.5 + 1.0 + 1.0) / 3.0, abs=1e-12)


def test_compute_score_caps_and_zero_requests():
    metrics = se.BenchmarkMetrics({
        "f": se.FunctionMetrics(mu_fet_s=300.0, mu_wait_s=300.0, n_success=0, n_total=0),
    })
    # capped terms flip to 0; zero totals leave the ratio at 0
    assert se.compute_score(metrics) == 0.0
    assert se.compute_score(se.BenchmarkMetrics({
        "f": se.FunctionMetrics(0.0, 0.0, 5, 5)})) == 1.0


def test_a_function_that_completes_nothing_outscores_one_that_completes_slowly():
    # No completion leaves both means at 0.0, which the time terms read as best.
    starved = se.BenchmarkMetrics({"f": se.FunctionMetrics(0.0, 0.0, 0, 344)})
    assert se.compute_score(starved) == pytest.approx((1.0 + 1.0 + 0.0) / 3.0, abs=1e-12)
    slow = se.BenchmarkMetrics({"f": se.FunctionMetrics(30.0, 45.0, 10, 10)})
    assert se.compute_score(slow) == pytest.approx((0.0 + 0.0 + 1.0) / 3.0, abs=1e-12)


def test_compute_score_averages_over_functions():
    metrics = se.BenchmarkMetrics({
        "a": se.FunctionMetrics(0.0, 0.0, 1, 1),
        "b": se.FunctionMetrics(30.0, 30.0, 0, 4),
    })
    assert se.compute_score(metrics) == pytest.approx((1.0 + 0.0) / 2.0, abs=1e-12)


def test_three_request_golden_trace():
    """Hand-simulated two-node, one-function, three-request timeline."""
    c = _two_xeon_cluster()
    fn = make_function(name="f", cpu=1.0, mem=1024.0,
                       image_bytes=1.25e8, dataset_bytes=6.25e7, base_exec_s=1.0)
    reqs = [(0.0, 0), (0.1, 0), (5.0, 0)]
    opts = se.SimOptions(min_replicas=1, max_replicas=1)
    res = se.simulate_requests(c, _only(fn), reqs, sched.FIXED_WEIGHTS, opts)

    pull = (0.001 + 0.001) + 1.25e8 / 1.25e8
    fetch = (0.001 + 0.001) + 6.25e7 / 1.25e8
    s1 = 1.0 + pull + fetch          # first touch pays the registry pull
    s2 = 1.0 + fetch
    # request 2 waits for request 1; request 3 arrives at an idle replica
    expected_fet = ((s1 + s2) + s2) / 3
    expected_wait = ((0.0 + (s1 - 0.1)) + 0.0) / 3

    fm = res.metrics.per_function["f"]
    assert fm.n_total == 3
    assert fm.n_success == 3
    assert fm.mu_fet_s == expected_fet
    assert fm.mu_wait_s == expected_wait
    assert res.placements == [se.Placement("f-0", 0, 0.0)]

    m1 = 1.0 - min(max(expected_fet / 30.0, 0.0), 1.0)
    m2 = 1.0 - min(max(expected_wait / 30.0, 0.0), 1.0)
    assert res.score == ((m1 + m2 + 1.0) / 3.0)


def test_requests_after_horizon_do_not_complete():
    c = _two_xeon_cluster()
    fn = make_function(name="f", image_bytes=0.0, dataset_bytes=0.0, base_exec_s=10.0)
    reqs = [(95.0, 0)]
    res = se.simulate_requests(c, _only(fn), reqs, sched.FIXED_WEIGHTS,
                               se.SimOptions(min_replicas=1, max_replicas=1))
    fm = res.metrics.per_function["f"]
    assert fm.n_total == 1
    assert fm.n_success == 0
    assert fm.mu_fet_s == 0.0


@pytest.mark.parametrize("times, message", [
    ([(1.0, 0), (100.0, 0)], "past the horizon"),
    ([(2.0, 0), (1.0, 0)], "sorted by arrival time"),
    ([(-1.0, 0), (1.0, 0)], "sorted by arrival time"),
    ([(1.0, 0), (2.0, 1)], r"function index 1 is not in range\(1\)$"),
    ([(1.0, -1)], "function index -1 is"),
    ([(1.0, 0.0)], "function index 0.0 is"),
    # Every comparison with NaN is False, so the check must be written to fail.
    ([(1.0, 0), (float("nan"), 0), (0.5, 0)], "sorted by arrival time"),
    ([(float("nan"), 0)], "sorted by arrival time"),
])
def test_trace_must_be_sorted_and_inside_the_horizon(times, message):
    c = _two_xeon_cluster()
    fn = make_function(name="f")
    with pytest.raises(ConfigError, match=message):
        se.simulate_requests(c, _only(fn), times, sched.FIXED_WEIGHTS, se.SimOptions())


def test_duplicate_function_names_are_rejected():
    # Metrics are keyed by name, so a second entry would hide the first; the
    # engine takes its functions from a WorkloadSpec, which refuses it.
    fn = make_function(name="f")
    with pytest.raises(ConfigError, match="duplicate function"):
        wl.WorkloadSpec(functions=((fn, 1.0), (fn, 2.0)))


def test_warmup_places_min_replicas_and_commits():
    c = cl.build_cluster(cl.ClusterSpec("cloud_cpu", 10))
    spec = _mini_workload()
    res = se.run_benchmark(c, spec, sched.FIXED_WEIGHTS,
                           se.SimOptions(min_replicas=3, max_replicas=3))
    warm = [p for p in res.placements if p.time_s == 0.0]
    assert len(warm) == 6
    # the input cluster is never mutated: the run's commits, image pulls and
    # score tables all stay on its copy
    assert not c.alloc_cpu.any() and not c.alloc_mem.any()
    assert c.images == {} and c.changes == [] and c.score_tables == {}


def test_warmup_unschedulable_raises_with_function_name():
    c = cl.build_cluster(cl.ClusterSpec("edge_sbc", 3))
    giant = make_function(name="giant", cpu=1e6, mem=1e9)
    spec = wl.WorkloadSpec(functions=((giant, 1.0),), duration_s=100.0, seed=0)
    with pytest.raises(UnschedulableError) as err:
        se.run_benchmark(c, spec, sched.FIXED_WEIGHTS, se.SimOptions())
    assert err.value.function_name == "giant"


def test_conservation_success_plus_failed_equals_arrivals():
    c = cl.build_cluster(cl.ClusterSpec("edge_cloudlet", 20, seed=4))
    spec = _mini_workload(seed=9, rps=5.0)
    arrivals = wl.generate_arrivals(spec)
    res = se.run_benchmark(c, spec, sched.FIXED_WEIGHTS, se.SimOptions(seed=1))
    per_fn_arrivals = {}
    for _, f in arrivals:
        name = spec.functions[f][0].name
        per_fn_arrivals[name] = per_fn_arrivals.get(name, 0) + 1
    for name, fm in res.metrics.per_function.items():
        assert fm.n_total == per_fn_arrivals.get(name, 0)
        assert 0 <= fm.n_success <= fm.n_total
    assert sum(f.n_total for f in res.metrics.per_function.values()) == len(arrivals)


def test_run_benchmark_keeps_the_trace_contract_perfbench_reads(monkeypatch):
    # perfbench wraps simengine.generate_arrivals and simulate_requests: it
    # counts len(args[2]) as a run's requests, and requires the runs' n_total
    # to sum to len(generate_arrivals(spec)).
    seen = {}
    real_generate, real_simulate = se.generate_arrivals, se.simulate_requests

    def generate(spec):
        seen["trace"] = real_generate(spec)
        return seen["trace"]

    def simulate(*args, **kwargs):
        seen["args"] = args
        return real_simulate(*args, **kwargs)

    monkeypatch.setattr(se, "generate_arrivals", generate)
    monkeypatch.setattr(se, "simulate_requests", simulate)
    spec = _mini_workload(seed=4)
    res = se.run_benchmark(_two_xeon_cluster(), spec, sched.FIXED_WEIGHTS, se.SimOptions())
    assert list(inspect.signature(real_simulate).parameters)[2] == "trace"
    assert seen["args"][2] is seen["trace"]
    assert sum(fm.n_total for fm in res.metrics.per_function.values()) \
        == len(wl.generate_arrivals(spec)) > 0


def test_benchmark_replays_bit_identically():
    c = cl.build_cluster(cl.ClusterSpec("hybrid_balanced", 25, "urban", seed=8))
    spec = _mini_workload(seed=13, rps=8.0)
    opts = se.SimOptions(seed=3, scale_factor=2)
    w = np.array([0.2, 0.8, 0.1, 0.6, 0.9, 0.4, 0.7, 0.3])
    a = se.run_benchmark(c, spec, w, opts)
    b = se.run_benchmark(c, spec, w, opts)
    assert a.score == b.score
    assert a.placements == b.placements
    for name in a.metrics.per_function:
        fa, fb = a.metrics.per_function[name], b.metrics.per_function[name]
        assert (fa.mu_fet_s, fa.mu_wait_s, fa.n_success, fa.n_total) == \
               (fb.mu_fet_s, fb.mu_wait_s, fb.n_success, fb.n_total)


def test_autoscaler_adds_replicas_under_backlog():
    c = cl.build_cluster(cl.ClusterSpec("cloud_cpu", 10))
    fn = make_function(name="slow", image_bytes=0.0, dataset_bytes=0.0, base_exec_s=30.0)
    # a burst of arrivals forces queue > 5x replicas quickly
    reqs = [(0.01 * i, 0) for i in range(1, 30)]
    opts = se.SimOptions(min_replicas=1, max_replicas=8, scale_factor=2)
    res = se.simulate_requests(c, _only(fn), reqs, sched.FIXED_WEIGHTS, opts)
    scaled = [p for p in res.placements if p.time_s > 0.0]
    assert scaled, "backlog must trigger the autoscaler"
    assert len(res.placements) <= 8


def test_autoscaler_respects_max_replicas():
    c = cl.build_cluster(cl.ClusterSpec("cloud_cpu", 10))
    fn = make_function(name="slow", image_bytes=0.0, dataset_bytes=0.0, base_exec_s=1000.0)
    reqs = [(0.001 * i, 0) for i in range(1, 500)]
    opts = se.SimOptions(min_replicas=1, max_replicas=3, scale_factor=5)
    res = se.simulate_requests(c, _only(fn), reqs, sched.FIXED_WEIGHTS, opts)
    assert len(res.placements) == 3


def test_score_recomputable_from_metrics():
    c = cl.build_cluster(cl.ClusterSpec("edge_gpu", 15, seed=2))
    spec = _mini_workload(seed=20, rps=4.0)
    opts = se.SimOptions(seed=5)
    res = se.run_benchmark(c, spec, sched.FIXED_WEIGHTS, opts)
    assert res.score == se.compute_score(res.metrics, opts.norm)
    assert 0.0 <= res.score <= 1.0


def test_sim_options_validation():
    with pytest.raises(ConfigError):
        se.SimOptions(min_replicas=0)
    with pytest.raises(ConfigError):
        se.SimOptions(min_replicas=5, max_replicas=4)
    with pytest.raises(ConfigError):
        se.SimOptions(scale_factor=0)
    # A NaN cap would make every score NaN without a word.
    for bad in ({"fet_cap_s": 0.0}, {"fet_cap_s": np.nan}, {"wait_cap_s": np.nan}):
        with pytest.raises(ConfigError):
            se.ScoreNorm(**bad)


# Scores of six sampled scenarios (50 s horizon) under the fixed weights and
# one spread-out weight vector, as repr floats, and the SHA-256 of each run's
# (pod, node, repr(time_s)) placement list.  Any change to cluster building,
# placement or the engine that is meant to keep behaviour must keep every one
# of them bit for bit; the digests also catch a tie-break drift that happens
# to leave the score unchanged.
PINNED_WEIGHTS = np.array([0.3, 0.9, 0.1, 0.7, 0.5, 0.2, 0.8, 0.6])
PINNED_SCORES = [
    # mode, rng seed, fixed weights, PINNED_WEIGHTS    preset / topology / nodes
    ("train", 0, 0.5571078634226603, 0.5205456611664303),  # edge_cloudlet urban 107
    ("train", 2, 0.7236735136587528, 0.7119485027974675),  # edge_cloudlet internet 46
    ("train", 11, 0.7996091948396188, 0.7917092106284424),  # cloud_cpu internet 150
    ("test", 0, 0.5699950910061831, 0.5519265166023531),  # hybrid_balanced urban 302
    ("test", 1, 0.9006704151311726, 0.8123962133258833),  # edge_gpu urban 351
    ("test", 2, 0.7569715929062091, 0.7569715929062091),  # hybrid_balanced internet 221
]
PINNED_PLACEMENTS = {
    # (mode, rng seed): (fixed weights, PINNED_WEIGHTS)
    ("train", 0): (
        "8fa0b4e2f7a0485d795d5154c513997a0873988dcc0867b560e8b6005990117d",
        "1fb1fc566d47dd285b2667f3552d328567bc5c85fbde292f4561bf82416f29e6"),
    ("train", 2): (
        "76ec264eb8ece14e019235317a0f8ed6568849f7aa590f18564d30f15494bffd",
        "73cde24a184cf2273e92a7031794028ce4a3a476818b8d72b26bf5559419a463"),
    ("train", 11): (
        "ac649d1564cdcad46f6bf419d410ab79f2f3459ef492b6bf8a878f3f3f299a0e",
        "1277d0607de2d4db2302a78f82ce7fa52f79ee8750a1cb4f6ac488fa20b3570f"),
    ("test", 0): (
        "59ae97a0569e1520666217fa670de00f60c68f2067fc9e05261724f64f4bcdb0",
        "cd801416955c6507bf68acd0c1dff7fb5eb900cc92a6cd0875f7a2ebfa613aca"),
    ("test", 1): (
        "2130c3560c57a35368e968016fbc4664f5d145c285a5e5385a669f2f95ea2d7f",
        "5570dac60a35f5e54fab6e2b7be0ae820e5eae8ebe52e0857df69cb540842818"),
    ("test", 2): (
        "3d370b0475e5e1a391d9da341a51c17cebbbc778ee815aa35b5ea9a60155827c",
        "be3f528387856efd02290b26c13fae809eade9fd7d7dc034b7377c5b4954a788"),
}


def _placement_digest(result):
    rows = [(p.pod, p.node, repr(p.time_s)) for p in result.placements]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.mark.parametrize("mode, seed, fixed, spread", PINNED_SCORES)
def test_pinned_benchmark_scores(mode, seed, fixed, spread):
    scenario = sample_scenario(default_space_set(), mode,
                               np.random.default_rng(seed), duration_s=50.0)
    cluster = cl.build_cluster(scenario.cluster_spec)
    results = [se.run_benchmark(cluster, scenario.workload, w, scenario.options)
               for w in (sched.FIXED_WEIGHTS, PINNED_WEIGHTS)]
    assert [r.score for r in results] == [fixed, spread]
    assert tuple(map(_placement_digest, results)) == PINNED_PLACEMENTS[mode, seed]


def test_scale_up_stops_calling_place_after_the_feasibility_wall(monkeypatch):
    # Two 32-core nodes hold four 16-core replicas.  Allocations are never
    # released, so once place finds no node, no later scale-up can succeed.
    c = _two_xeon_cluster()
    fn = make_function(name="wide", cpu=16.0, image_bytes=0.0,
                       dataset_bytes=0.0, base_exec_s=50.0)
    reqs = [(0.01 * i, 0) for i in range(1, 200)]
    outcomes = []

    def recording_place(*args, **kwargs):
        outcomes.append(sched.place(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(se, "place", recording_place)
    res = se.simulate_requests(c, _only(fn), reqs, sched.FIXED_WEIGHTS,
                               se.SimOptions(min_replicas=1, max_replicas=100))
    assert len(res.placements) == 4
    assert outcomes.count(None) == 1
    assert outcomes[-1] is None


def test_an_arrival_that_starts_service_at_once_still_runs_the_scale_check(monkeypatch):
    # While every check may add a replica, waiting rises by at most one per
    # arrival and the threshold by five per replica, so at the default factor
    # an arrival that finds an idle replica never has a backlog to answer.
    # Below a factor of 1 it does: the third arrival goes straight into
    # service on the replica the second one added, with one request still
    # waiting, and 1 > 0.4 * 2 must add a third replica at once.
    monkeypatch.setattr(se, "QUEUE_SCALE_FACTOR", 0.4)
    c = cl.build_cluster(cl.ClusterSpec("cloud_cpu", 10))
    fn = make_function(name="slow", image_bytes=0.0, dataset_bytes=0.0, base_exec_s=50.0)
    reqs = [(0.01 * i, 0) for i in range(1, 8)]
    opts = se.SimOptions(min_replicas=1, max_replicas=5, scale_factor=1)
    res = se.simulate_requests(c, _only(fn), reqs, sched.FIXED_WEIGHTS, opts)
    # Replicas 1-4 come after arrivals 2, 3, 5 and 6; arrivals 3 and 6
    # each start at once on the replica the arrival before them added.
    assert [p.time_s for p in res.placements] == [0.0, 0.02, 0.03, 0.05, 0.06]
    assert [p.pod for p in res.placements] == [f"slow-{k}" for k in range(5)]


def test_an_arrival_takes_the_lowest_index_idle_replica(monkeypatch):
    # Replicas 0, 1 and 2 sit on an rpi3, an rpi4 and a xeon (speed factors
    # 12, 8 and 1), so after one request each they go idle in the order 2,
    # 1, 0.  A request at 10 s, with 1 and 2 idle, must join replica 1 (the
    # lowest index), not replica 2, the one that went idle first.
    c = cl.build_cluster(cl.ClusterSpec("hybrid_balanced", 9))
    assert [c.devices[n].name for n in (3, 4, 0)] == ["rpi3", "rpi4", "xeon_cpu"]
    nodes = iter([3, 4, 0])
    monkeypatch.setattr(se, "place", lambda *args: next(nodes))
    fn = replace(make_function(name="f", image_bytes=0.0, dataset_bytes=0.0), image_name="")
    reqs = [(0.0, 0), (0.0, 0), (0.0, 0), (10.0, 0)]
    opts = se.SimOptions(min_replicas=3, max_replicas=3)
    res = se.simulate_requests(c, _only(fn), reqs, sched.FIXED_WEIGHTS, opts)
    s0, s1, s2 = (12.0 + 0.002, 8.0 + 0.002, 1.0 + 0.002)
    fm = res.metrics.per_function["f"]
    assert (fm.n_success, fm.mu_wait_s) == (4, 0.0)
    # Completions at s2, s1, s0, then 10 + s1.
    assert fm.mu_fet_s == (((s2 + s1) + s0) + s1) / 4


MD1_SEEDS = range(8)
MD1_ARRIVALS = 20_000


@pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
def test_single_replica_queue_matches_pollaczek_khinchine(rho):
    # One replica serving a deterministic time s under Poisson arrivals is an
    # M/D/1 queue, whose mean wait is rho * s / (2 * (1 - rho)).  The horizon
    # leaves room for the backlog to drain, so every request completes.
    c = cl.build_cluster(cl.ClusterSpec("cloud_cpu", 1, "internet"))
    fn = wl.FunctionSpec(name="md1", req_cpu=1.0, req_mem_mb=1024.0,
                         dataset_bytes=1e7, base_exec_s=0.5)
    fetch_s = (c.store_latency[:, 0] + fn.dataset_bytes / c.store_bw[:, 0]).min()
    s = wl.execution_seconds(fn, c.devices[0]) + float(fetch_s)
    expected = rho * s / (2.0 * (1.0 - rho))
    waits = []
    for seed in MD1_SEEDS:
        times = np.cumsum(np.random.default_rng(seed).exponential(s / rho, MD1_ARRIVALS))
        opts = se.SimOptions(min_replicas=1, max_replicas=1)
        res = se.simulate_requests(c, _only(fn, float(times[-1]) + 1000.0 * s),
                                   [(t, 0) for t in times.tolist()],
                                   sched.FIXED_WEIGHTS, opts)
        fm = res.metrics.per_function["md1"]
        assert fm.n_success == fm.n_total == MD1_ARRIVALS
        assert fm.mu_fet_s == pytest.approx(s, rel=1e-12)
        waits.append(fm.mu_wait_s)
    mean = float(np.mean(waits))
    stderr = float(np.std(waits, ddof=1)) / len(waits) ** 0.5
    # The seeds resolve the mean to a few percent, so the check has power.
    assert stderr < 0.05 * expected
    assert abs(mean - expected) < 4.0 * stderr
