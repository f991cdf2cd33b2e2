"""Discrete-event benchmark engine for the placement weights.

One benchmark run plays a request trace against a cluster copy:

* Warm-up places ``min_replicas`` pods per function and commits their
  allocations.  Warm-up happens outside the measurement window (placements
  are logged at t=0) but leaves node image caches cold, so the first request
  a replica's node serves still pays the registry pull.
* Each arriving request joins the shortest queue among its function's
  replicas (in-service request counts toward the load, ties go to the oldest
  replica).  Replicas serve strictly FIFO, one request at a time.
* Service time is compute time on the device, plus the image pull on first
  touch of the node, plus the dataset fetch from the nearest data store.
* After a request is enqueued, the autoscaler adds ``scale_factor`` replicas
  for a function whenever its waiting requests (excluding those in service)
  exceed five times its replica count, capped by ``max_replicas`` and by
  feasibility.
* A request is successful iff it completes strictly before the workload's
  ``duration_s``.

The event loop makes one pass over the trace of ``(arrival_s,
function_index)`` pairs, which must be sorted by time, and validates each
arrival as it reads it.  A heap holds only pending completions; before each
arrival it is drained of the completions strictly earlier, so an arrival
goes before a completion at the same time, and completions go in the order
they were scheduled.  After the last arrival the drain runs on to the
horizon.  Each function keeps a list of replica loads (queued plus
in-service requests), the lowest load and how many replicas carry it, and a
count of waiting requests, all updated as requests arrive, start and
complete; the loads are counted only when an arrival takes the last replica
at the lowest load.  A replica's service times are summed once, when it is
placed, from per-node fetch and pull times computed once per function per
run.  The loop calls out only to place a replica and to record a pull.
Because allocations are never released, a function whose scale-up found no
feasible node skips ``place`` for the rest of the run.

The resulting per-function metrics feed a score in [0, 1]: the mean over
functions of the mean of three terms -- capped-and-flipped mean execution
time, capped-and-flipped mean queue wait, and the success ratio.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import add

import numpy as np

from .cluster import Cluster
from .errors import ConfigError, UnschedulableError
from .scheduler import place, validate_weights
from .workload import FunctionSpec, WorkloadSpec, execution_seconds, generate_arrivals

QUEUE_SCALE_FACTOR = 5.0

_TRACE_END = object()   # function index of the sentinel event at the horizon


@dataclass(frozen=True)
class ScoreNorm:
    fet_cap_s: float = 30.0
    wait_cap_s: float = 30.0

    def __post_init__(self):
        # Written so that NaN fails too: every comparison with NaN is False.
        if not (self.fet_cap_s > 0 and self.wait_cap_s > 0):
            raise ConfigError("score caps must be positive")


@dataclass(frozen=True)
class SimOptions:
    min_replicas: int = 1
    max_replicas: int = 100
    scale_factor: int = 1
    percent_nodes_to_score: float = 1.0
    norm: ScoreNorm = field(default_factory=ScoreNorm)
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ConfigError("need 1 <= min_replicas <= max_replicas")
        if self.scale_factor < 1:
            raise ConfigError("scale_factor must be >= 1")
        if not 0.0 < self.percent_nodes_to_score <= 1.0:
            raise ConfigError("percent_nodes_to_score must lie in (0, 1]")


@dataclass
class FunctionMetrics:
    mu_fet_s: float
    mu_wait_s: float
    n_success: int
    n_total: int


@dataclass
class BenchmarkMetrics:
    per_function: dict[str, FunctionMetrics]


@dataclass(frozen=True)
class Placement:
    pod: str
    node: int
    time_s: float


@dataclass
class SimResult:
    metrics: BenchmarkMetrics
    score: float
    placements: list[Placement]


def compute_score(metrics: BenchmarkMetrics, norm: ScoreNorm = ScoreNorm()) -> float:
    """Aggregate benchmark score in [0, 1]; higher is better."""
    if not metrics.per_function:
        raise ConfigError("metrics cover no functions")
    per = []
    for fm in metrics.per_function.values():
        m_fet = 1.0 - min(max(fm.mu_fet_s / norm.fet_cap_s, 0.0), 1.0)
        m_wait = 1.0 - min(max(fm.mu_wait_s / norm.wait_cap_s, 0.0), 1.0)
        m_success = fm.n_success / max(fm.n_total, 1)
        per.append((m_fet + m_wait + m_success) / 3.0)
    # A left fold, not sum(), which compensates rounding from Python 3.12 on.
    return reduce(add, per, 0.0) / len(per)


class _Replica:
    """One pod: its FIFO queue of arrival times and its service times,
    ``service_s`` (exec plus fetch) and ``cold_s`` (exec, pull, fetch), which
    is None without an image and once the first request has started."""

    __slots__ = ("index", "node_id", "queue", "service_s", "cold_s")

    def __init__(self, index: int, node_id: int, service_s: float, cold_s: float | None):
        self.index = index
        self.node_id = node_id
        self.queue: deque[float] = deque()
        self.service_s = service_s
        self.cold_s = cold_s


class _Function:
    """Per-function engine state.

    ``loads[i]`` is replica i's queued plus in-service request count,
    ``low`` the lowest of them and ``n_low`` how many replicas carry it, and
    ``waiting`` the function's queued requests that are not yet in service.
    ``unplaceable`` is set once ``place`` finds no feasible node: allocations
    are never released, so no later scale-up can succeed either.  ``fetch_s``
    and ``pull_s`` (None without an image) hold every node's transfer times.
    The totals add completed requests' times in completion order.
    """

    __slots__ = ("spec", "replicas", "loads", "low", "n_low", "waiting", "unplaceable",
                 "fetch_s", "pull_s", "fet_total", "wait_total", "n_success", "n_total")

    def __init__(self, spec: FunctionSpec, cluster: Cluster):
        self.spec = spec
        self.replicas: list[_Replica] = []
        self.loads: list[int] = []
        self.low, self.n_low = 0, 0
        self.waiting = 0
        self.unplaceable = False
        self.fetch_s = cluster.fetch_times(spec.dataset_bytes)
        self.pull_s = cluster.pull_times(spec.image_bytes) if spec.image_name else None
        self.fet_total = 0.0
        self.wait_total = 0.0
        self.n_success = 0
        self.n_total = 0


def simulate_requests(cluster: Cluster, workload: WorkloadSpec,
                      trace: list[tuple[float, int]], weights: np.ndarray,
                      options: SimOptions) -> SimResult:
    """Run a sorted ``(arrival_s, index into workload.functions)`` trace up
    to the workload's horizon; the cluster is not mutated."""
    cluster, weights = cluster.clone(), validate_weights(weights)
    rng, images = np.random.default_rng(options.seed), cluster.images
    states = [_Function(fn, cluster) for fn, _ in workload.functions]
    placements: list[Placement] = []

    def add_replica(fs: _Function, time_s: float) -> bool:
        if fs.unplaceable:
            return False
        fn = fs.spec
        nid = place(fn, cluster, weights, options.percent_nodes_to_score, rng)
        if nid is None:
            fs.unplaceable = True
            return False
        cluster.commit(nid, fn.req_cpu, fn.req_mem)
        exec_s, fetch_s = execution_seconds(fn, cluster.devices[nid]), fs.fetch_s.item(nid)
        # Summed in the order exec, pull, fetch, which the pinned scores
        # and the engine oracle use, so service times stay bit-identical.
        cold_s = None if fs.pull_s is None else exec_s + fs.pull_s.item(nid) + fetch_s
        rep = _Replica(len(fs.replicas), nid, exec_s + fetch_s, cold_s)
        fs.replicas.append(rep)
        fs.loads.append(0)
        # With every replica busy, the new one is the only idle one.
        fs.low, fs.n_low = 0, (1 if fs.low else fs.n_low + 1)
        placements.append(Placement(f"{fn.name}-{rep.index}", nid, time_s))
        return True

    for fs in states:   # warm-up
        for _ in range(options.min_replicas):
            if not add_replica(fs, 0.0):
                raise UnschedulableError(fs.spec.name)

    horizon, n_functions = workload.duration_s, len(states)
    max_replicas, scale_factor = options.max_replicas, options.scale_factor
    heappush, heappop = heapq.heappush, heapq.heappop
    completions: list[tuple] = []
    seq, prev = 0, 0.0
    for now, f in chain(trace, ((horizon, _TRACE_END),)):
        # Written so that NaN fails too: every comparison with NaN is False.
        if not prev <= now < horizon:
            if f is not _TRACE_END:
                raise ConfigError("request trace extends past the horizon" if now >= horizon
                                  else "request trace must be sorted by arrival time, from 0")
        elif type(f) is not int or not 0 <= f < n_functions:
            raise ConfigError(f"trace function index {f!r} is not in range({n_functions})")
        prev = now
        # Strictly earlier completions only: arrivals win ties.
        while completions and completions[0][0] < now:
            done, _, fs, rep, wait_s, service_s = heappop(completions)
            load = fs.loads[rep.index] = fs.loads[rep.index] - 1
            if load <= fs.low:
                fs.low, fs.n_low = load, (fs.n_low + 1 if load == fs.low else 1)
            fs.fet_total += service_s
            fs.wait_total += wait_s
            fs.n_success += 1
            if rep.queue:
                # Not the replica's first request, which started on arrival.
                fs.waiting -= 1
                seq += 1
                heappush(completions, (done + rep.service_s, seq, fs, rep,
                                       done - rep.queue.popleft(), rep.service_s))
        if f is _TRACE_END:
            break
        fs = states[f]
        fs.n_total += 1
        loads, low = fs.loads, fs.low
        # index() finds the first minimum: ties go to the oldest replica.
        k = loads.index(low)
        loads[k] = low + 1
        if fs.n_low > 1:
            fs.n_low -= 1
        else:   # the last replica at the lowest load took it
            fs.low, fs.n_low = low + 1, loads.count(low + 1)
        rep = fs.replicas[k]
        if low == 0:   # the replica was idle: the request starts now
            service_s = rep.service_s
            if rep.cold_s is not None:
                # The first request pulls the image unless the node holds
                # it; images are never evicted, so later ones never do.
                cached = images.get(fs.spec.image_name)
                if cached is None or not cached[rep.node_id]:
                    service_s = rep.cold_s
                    cluster.add_image(rep.node_id, fs.spec.image_name)
                rep.cold_s = None
            seq += 1
            heappush(completions, (now + service_s, seq, fs, rep, 0.0, service_s))
        else:
            rep.queue.append(now)
            fs.waiting += 1
        # Waiting = queued but not in service; the trigger is a strict >.
        if fs.waiting > QUEUE_SCALE_FACTOR * len(fs.replicas):
            for _ in range(scale_factor):
                if len(fs.replicas) >= max_replicas or not add_replica(fs, now):
                    break

    metrics = BenchmarkMetrics({fs.spec.name: FunctionMetrics(
        mu_fet_s=fs.fet_total / fs.n_success if fs.n_success else 0.0,
        mu_wait_s=fs.wait_total / fs.n_success if fs.n_success else 0.0,
        n_success=fs.n_success, n_total=fs.n_total) for fs in states})
    return SimResult(metrics, compute_score(metrics, options.norm), placements)


def run_benchmark(cluster: Cluster, workload: WorkloadSpec, weights: np.ndarray,
                  options: SimOptions) -> SimResult:
    """Generate the workload's trace and simulate it."""
    return simulate_requests(cluster, workload, generate_arrivals(workload), weights, options)
