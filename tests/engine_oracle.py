"""The event engine as it stood before the hot-path rewrite, kept as a test
oracle.

``_Engine`` and ``_Replica`` below are the pre-rewrite engine verbatim: one
heap for arrivals and completions, a shortest-queue scan per arrival, a
waiting-count sum per autoscale check and per-request service times.  Three
edits: the image-cache check reads ``Cluster.image_mask``, which replaced
``has_image``, the two averages total their lists with a left fold
instead of ``sum``, which compensates rounding from Python 3.12 on, and the
pull and fetch times come from ``_pull_time`` and ``_fetch_time`` below, the
scalar formulas that ``Cluster`` has since replaced with per-node arrays.
``simulate_requests`` converts the production ``(arrival_s,
function_index)`` trace to the ``Request`` objects the engine reads, and
hands the engine the workload's horizon as ``options.duration_s``, where
``SimOptions`` once held it; pods are placed by the pre-template scorer of
``scoring_oracle``.  The differential test in ``test_engine_oracle.py``
requires the production engine and scorer to give bit-identical
``SimResult``s.  Do not optimise this file.
"""
from __future__ import annotations

import heapq
from collections import deque
from functools import reduce
from operator import add
from types import SimpleNamespace

import numpy as np

from schedtune.cluster import Cluster
from schedtune.errors import ConfigError, UnschedulableError
from schedtune.scheduler import validate_weights
from schedtune.simengine import (QUEUE_SCALE_FACTOR, BenchmarkMetrics,
                                 FunctionMetrics, Placement, SimOptions,
                                 SimResult, compute_score)
from schedtune.workload import FunctionSpec, WorkloadSpec, execution_seconds
from tests.arrivals_oracle import Request
from tests.scoring_oracle import place


def _fetch_time(cluster: Cluster, node_id: int, nbytes: float) -> float:
    """Transfer time from the nearest data store to a node."""
    times = cluster.store_latency[:, node_id] + nbytes / cluster.store_bw[:, node_id]
    return float(times.min())


def _pull_time(cluster: Cluster, node_id: int, nbytes: float) -> float:
    """Transfer time from the registry, beside store 0, to a node."""
    return float(cluster.store_latency[0, node_id] + nbytes / cluster.store_bw[0, node_id])


class _Replica:
    __slots__ = ("pod", "function_name", "node_id", "queue", "serving")

    def __init__(self, pod: str, function_name: str, node_id: int):
        self.pod = pod
        self.function_name = function_name
        self.node_id = node_id
        self.queue: deque[Request] = deque()
        self.serving: Request | None = None

    @property
    def load(self) -> int:
        return len(self.queue) + (1 if self.serving is not None else 0)


class _Engine:
    def __init__(self, cluster: Cluster, functions: list[FunctionSpec],
                 weights: np.ndarray, options: SimOptions):
        self.cluster = cluster.clone()
        self.functions = functions
        self.weights = validate_weights(weights)
        self.options = options
        self.rng = np.random.default_rng(options.seed)
        self.replicas: dict[str, list[_Replica]] = {fn.name: [] for fn in functions}
        self.placements: list[Placement] = []
        self.heap: list[tuple] = []
        self.seq = 0
        self.fet: dict[str, list[float]] = {fn.name: [] for fn in functions}
        self.wait: dict[str, list[float]] = {fn.name: [] for fn in functions}
        self.n_total: dict[str, int] = {fn.name: 0 for fn in functions}

    def add_replica(self, fn: FunctionSpec, time_s: float) -> bool:
        nid = place(fn, self.cluster, self.weights,
                    self.options.percent_nodes_to_score, self.rng)
        if nid is None:
            return False
        self.cluster.commit(nid, fn.req_cpu, fn.req_mem_mb)
        reps = self.replicas[fn.name]
        pod = f"{fn.name}-{len(reps)}"
        reps.append(_Replica(pod, fn.name, nid))
        self.placements.append(Placement(pod, nid, time_s))
        return True

    def warm_up(self):
        for fn in self.functions:
            for _ in range(self.options.min_replicas):
                if not self.add_replica(fn, 0.0):
                    raise UnschedulableError(fn.name)

    def push(self, time_s: float, kind: str, payload):
        self.seq += 1
        heapq.heappush(self.heap, (time_s, self.seq, kind, payload))

    def start_service(self, rep: _Replica, now: float):
        req = rep.queue.popleft()
        rep.serving = req
        fn = req.function
        service = execution_seconds(fn, self.cluster.devices[rep.node_id])
        if fn.image_name and not self.cluster.image_mask(fn.image_name)[rep.node_id]:
            service += _pull_time(self.cluster, rep.node_id, fn.image_bytes)
            self.cluster.add_image(rep.node_id, fn.image_name)
        service += _fetch_time(self.cluster, rep.node_id, fn.dataset_bytes)
        self.push(now + service, "complete", (rep, req.arrival_s, now, service))

    def maybe_scale(self, fn: FunctionSpec, now: float):
        # Waiting = queued but not in service; the trigger is a strict >.
        reps = self.replicas[fn.name]
        waiting = sum(len(r.queue) for r in reps)
        if waiting <= QUEUE_SCALE_FACTOR * len(reps):
            return
        for _ in range(self.options.scale_factor):
            if len(reps) >= self.options.max_replicas:
                break
            if not self.add_replica(fn, now):
                break

    def on_arrival(self, req: Request, now: float):
        reps = self.replicas[req.function.name]
        self.n_total[req.function.name] += 1
        target = min(enumerate(reps), key=lambda pair: (pair[1].load, pair[0]))[1]
        target.queue.append(req)
        if target.serving is None:
            self.start_service(target, now)
        self.maybe_scale(req.function, now)

    def run(self, requests: list[Request]) -> SimResult:
        self.warm_up()
        for i, req in enumerate(requests):
            if req.arrival_s >= self.options.duration_s:
                raise ConfigError("request trace extends past the horizon")
            heapq.heappush(self.heap, (req.arrival_s, -len(requests) + i, "arrival", req))
        last = 0.0
        while self.heap and self.heap[0][0] < self.options.duration_s:
            now, _, kind, payload = heapq.heappop(self.heap)
            assert now >= last, "event times must be nondecreasing"
            last = now
            if kind == "arrival":
                self.on_arrival(payload, now)
            else:
                rep, arrival_s, start_s, service_s = payload
                rep.serving = None
                self.fet[rep.function_name].append(service_s)
                self.wait[rep.function_name].append(start_s - arrival_s)
                if rep.queue:
                    self.start_service(rep, now)

        per = {}
        for fn in self.functions:
            fets, waits = self.fet[fn.name], self.wait[fn.name]
            per[fn.name] = FunctionMetrics(
                mu_fet_s=reduce(add, fets, 0.0) / len(fets) if fets else 0.0,
                mu_wait_s=reduce(add, waits, 0.0) / len(waits) if waits else 0.0,
                n_success=len(fets),
                n_total=self.n_total[fn.name],
            )
        metrics = BenchmarkMetrics(per)
        return SimResult(metrics, compute_score(metrics, self.options.norm), self.placements)


def simulate_requests(cluster: Cluster, workload: WorkloadSpec,
                      trace: list[tuple[float, int]], weights: np.ndarray,
                      options: SimOptions) -> SimResult:
    functions = [fn for fn, _ in workload.functions]
    requests = [Request(functions[f], t) for t, f in trace]
    options = SimpleNamespace(**vars(options), duration_s=workload.duration_s)
    return _Engine(cluster, functions, weights, options).run(requests)
