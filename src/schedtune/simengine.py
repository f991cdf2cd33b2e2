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
* A request is successful iff it completes strictly before ``duration_s``.

The event loop merges two streams: the trace of ``(arrival_s,
function_index)`` pairs, which must be sorted by time and is read by
position, and a heap that holds only pending completions.  At equal times
an arrival goes before a completion, and completions go in the order they
were scheduled.  Per-event work does not grow with the trace or the replica
count: each function keeps a list of replica loads (queued plus in-service
requests) and a count of waiting requests, both updated as requests arrive,
start and complete, and each replica's compute, pull and fetch times are
computed once, when it is placed.  Arrivals, the autoscale check and
completions are handled inline in the loop, which calls out only to start
a service (one heap push, plus one image-cache lookup for a function with an
image) and to place a new replica.  Because allocations are never released,
a function whose scale-up found no feasible node skips ``place`` for the
rest of the run.

The resulting per-function metrics feed a score in [0, 1]: the mean over
functions of the mean of three terms -- capped-and-flipped mean execution
time, capped-and-flipped mean queue wait, and the success ratio.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from .cluster import Cluster
from .errors import ConfigError, UnschedulableError
from .scheduler import place, validate_weights
from .workload import FunctionSpec, WorkloadSpec, execution_seconds, generate_arrivals

QUEUE_SCALE_FACTOR = 5.0


@dataclass(frozen=True)
class ScoreNorm:
    fet_cap_s: float = 30.0
    wait_cap_s: float = 30.0

    def __post_init__(self):
        if self.fet_cap_s <= 0 or self.wait_cap_s <= 0:
            raise ConfigError("score caps must be positive")


@dataclass(frozen=True)
class SimOptions:
    duration_s: float = 100.0
    min_replicas: int = 1
    max_replicas: int = 100
    scale_factor: int = 1
    percent_nodes_to_score: float = 1.0
    norm: ScoreNorm = field(default_factory=ScoreNorm)
    seed: int = 0

    def __post_init__(self):
        if self.duration_s <= 0:
            raise ConfigError("duration_s must be positive")
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
    """One pod: its FIFO queue of arrival times and its service-time parts."""

    __slots__ = ("index", "node_id", "queue", "exec_s", "pull_s", "fetch_s")

    def __init__(self, index: int, node_id: int, exec_s: float,
                 pull_s: float | None, fetch_s: float):
        self.index = index
        self.node_id = node_id
        self.queue: deque[float] = deque()
        self.exec_s = exec_s
        self.pull_s = pull_s  # None when the function has no image
        self.fetch_s = fetch_s


class _Function:
    """Per-function engine state.

    ``loads[i]`` is replica i's queued plus in-service request count, and
    ``waiting`` the function's queued requests that are not yet in service.
    ``unplaceable`` is set once ``place`` finds no feasible node: allocations
    are never released, so no later scale-up can succeed either.  The
    totals add completed requests' times in completion order.
    """

    __slots__ = ("spec", "replicas", "loads", "waiting", "unplaceable",
                 "fet_total", "wait_total", "n_success", "n_total")

    def __init__(self, spec: FunctionSpec):
        self.spec = spec
        self.replicas: list[_Replica] = []
        self.loads: list[int] = []
        self.waiting = 0
        self.unplaceable = False
        self.fet_total = 0.0
        self.wait_total = 0.0
        self.n_success = 0
        self.n_total = 0


class _Engine:
    def __init__(self, cluster: Cluster, functions: list[FunctionSpec],
                 weights: np.ndarray, options: SimOptions):
        self.cluster = cluster.clone()
        self.weights = validate_weights(weights)
        self.options = options
        self.rng = np.random.default_rng(options.seed)
        if len({fn.name for fn in functions}) < len(functions):
            raise ConfigError("functions must have distinct names")
        self.functions = [_Function(fn) for fn in functions]
        self.placements: list[Placement] = []

    def add_replica(self, fs: _Function, time_s: float) -> bool:
        if fs.unplaceable:
            return False
        fn = fs.spec
        nid = place(fn, self.cluster, self.weights,
                    self.options.percent_nodes_to_score, self.rng)
        if nid is None:
            fs.unplaceable = True
            return False
        cluster = self.cluster
        cluster.commit(nid, fn.req_cpu, fn.req_mem)
        pull_s = cluster.image_pull_time(nid, fn.image_bytes) if fn.image_name else None
        rep = _Replica(len(fs.replicas), nid,
                       execution_seconds(fn, cluster.nodes[nid].device), pull_s,
                       cluster.data_fetch_time(nid, fn.dataset_bytes))
        fs.replicas.append(rep)
        fs.loads.append(0)
        self.placements.append(Placement(f"{fn.name}-{rep.index}", nid, time_s))
        return True

    def warm_up(self):
        for fs in self.functions:
            for _ in range(self.options.min_replicas):
                if not self.add_replica(fs, 0.0):
                    raise UnschedulableError(fs.spec.name)

    def run(self, trace: list[tuple[float, int]]) -> SimResult:
        self.warm_up()
        horizon = self.options.duration_s
        functions, n_functions = self.functions, len(self.functions)
        prev = 0.0
        for arrival_s, f in trace:
            # Written so that NaN fails too: every comparison with NaN is False.
            if not prev <= arrival_s < horizon:
                if arrival_s >= horizon:
                    raise ConfigError("request trace extends past the horizon")
                raise ConfigError("request trace must be sorted by arrival time, from 0")
            if type(f) is not int or not 0 <= f < n_functions:
                raise ConfigError(f"trace function index {f!r} is not in range({n_functions})")
            prev = arrival_s

        cluster, images = self.cluster, self.cluster.images
        max_replicas, scale_factor = self.options.max_replicas, self.options.scale_factor
        completions: list[tuple] = []
        seq = 0

        def start_service(fs: _Function, rep: _Replica, now: float):
            nonlocal seq
            arrival_s = rep.queue.popleft()
            fs.waiting -= 1
            # Added in the order exec, pull, fetch, like the per-request sum
            # this replaces, so service times stay bit-identical.
            service = rep.exec_s
            if rep.pull_s is not None:
                image = fs.spec.image_name
                cached = images.get(image)
                if cached is None or not cached[rep.node_id]:
                    service += rep.pull_s
                    cluster.add_image(rep.node_id, image)
            service += rep.fetch_s
            seq += 1
            heapq.heappush(completions,
                           (now + service, seq, fs, rep, arrival_s, now, service))

        n, i, last = len(trace), 0, 0.0
        while True:
            # Arrivals win ties, so at equal times they go first.
            if i < n and (not completions or trace[i][0] <= completions[0][0]):
                now, f = trace[i]
                i += 1
                assert now >= last, "event times must be nondecreasing"
                last = now
                fs = functions[f]
                fs.n_total += 1
                loads = fs.loads
                # index() finds the first minimum: ties go to the oldest replica.
                k = loads.index(min(loads))
                loads[k] += 1
                rep = fs.replicas[k]
                rep.queue.append(now)
                fs.waiting += 1
                if loads[k] == 1:
                    start_service(fs, rep, now)
                # Waiting = queued but not in service; the trigger is a strict >.
                if fs.waiting > QUEUE_SCALE_FACTOR * len(fs.replicas):
                    for _ in range(scale_factor):
                        if len(fs.replicas) >= max_replicas or not self.add_replica(fs, now):
                            break
            elif completions and completions[0][0] < horizon:
                now, _, fs, rep, arrival_s, start_s, service_s = heapq.heappop(completions)
                assert now >= last, "event times must be nondecreasing"
                last = now
                fs.loads[rep.index] -= 1
                fs.fet_total += service_s
                fs.wait_total += start_s - arrival_s
                fs.n_success += 1
                if rep.queue:
                    start_service(fs, rep, now)
            else:
                break

        per = {}
        for fs in self.functions:
            done = fs.n_success
            per[fs.spec.name] = FunctionMetrics(
                mu_fet_s=fs.fet_total / done if done else 0.0,
                mu_wait_s=fs.wait_total / done if done else 0.0,
                n_success=done,
                n_total=fs.n_total,
            )
        metrics = BenchmarkMetrics(per)
        return SimResult(metrics, compute_score(metrics, self.options.norm), self.placements)


def simulate_requests(cluster: Cluster, functions: list[FunctionSpec],
                      trace: list[tuple[float, int]], weights: np.ndarray,
                      options: SimOptions) -> SimResult:
    """Run a sorted ``(arrival_s, function_index)`` trace; the cluster is not mutated."""
    return _Engine(cluster, functions, weights, options).run(trace)


def run_benchmark(cluster: Cluster, workload: WorkloadSpec, weights: np.ndarray,
                  options: SimOptions) -> SimResult:
    """Generate the workload's trace and simulate it."""
    if abs(workload.duration_s - options.duration_s) > 1e-12:
        raise ConfigError("workload and simulation horizons disagree")
    functions = [fn for fn, _ in workload.functions]
    return simulate_requests(cluster, functions, generate_arrivals(workload), weights, options)
