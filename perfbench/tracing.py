"""Per-layer spans and counters, recorded around calls into schedtune.

Nothing here edits the package: ``install_layers`` replaces module and class
attributes with timing wrappers, at the place each name is looked up.  A
name imported with ``from x import f`` must be patched in the importing
module (``simengine.place``, ``tunenv.build_cluster``), or calls bypass the
wrapper and its count stays at 0.

A span's self time is its duration minus the time of the traced spans it
directly contains; the stack of open spans is kept in memory.
"""
from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

# Layer span names in report order; each yields ``<name>.calls`` and
# ``<name>.s`` (self time).
SPANS = (
    "cluster.build_cluster",
    "workload.generate_arrivals",
    "simengine.simulate_requests",
    "scheduler.place",
    "scheduler.score_nodes",
    "tunenv.reset",
    "tunenv.step",
    "optimizers.suggest",
    "agent.update",
    "agent.replay_sample",
    "agent.act",
    "nn.forward",
    "nn.backward",
    "nn.adam_step",
    "agent.save",
    "agent.load",
    "report.write_trials_csv",
)

# Counters: name -> unit.
COUNTERS = {
    "cluster.nodes_built": "count",
    "workload.requests_generated": "count",
    "simengine.requests": "count",
    "simengine.completions": "count",
    "simengine.placements": "count",
    "scheduler.place.unplaced": "count",
    "scheduler.nodes_scored": "count",
    "agent.save.bytes": "B",
    "agent.load.bytes": "B",
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.durations = defaultdict(list)
        self.counts = defaultdict(int)
        self._stack: list[list[float]] = []   # child time of each open span
        self._restore: list[tuple] = []

    def span(self, name, fn, count=None):
        """Wrap ``fn`` so each call records a span; ``count(tracer, result,
        args, kwargs)`` adds counters after the call returns."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append([0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                children = stack.pop()[0]
                if stack:
                    stack[-1][0] += dur
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - children
                self.durations[name].append(dur)
            if count is not None:
                count(self, result, args, kwargs)
            return result

        return wrapper

    def patch(self, owner, attr, name, count=None):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = staticmethod(self.span(name, getattr(owner, attr), count))
        else:
            wrapped = self.span(name, raw, count)
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def metrics(self) -> dict:
        out = {}
        for name in SPANS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.s"] = (self.self_s[name], "s")
        for name, unit in COUNTERS.items():
            out[name] = (self.counts[name], unit)
        updates = self.durations["agent.update"]
        out["agent.update.s.p50"] = (statistics.median(updates) if updates else 0.0, "s")
        update_s = self.total_s["agent.update"]
        out["agent.updates_per_s"] = (len(updates) / update_s if update_s else 0.0, "1/s")
        sim_s = self.total_s["simengine.simulate_requests"]
        out["simengine.requests_per_s"] = (
            self.counts["simengine.requests"] / sim_s if sim_s else 0.0, "1/s")
        return out


def _add(key, value_of):
    def count(tracer, result, args, kwargs):
        tracer.counts[key] += value_of(result, args)
    return count


def _count_simulation(tracer, result, args, kwargs):
    tracer.counts["simengine.requests"] += len(args[2])
    tracer.counts["simengine.completions"] += sum(
        m.n_success for m in result.metrics.per_function.values())
    tracer.counts["simengine.placements"] += len(result.placements)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer entry point the workloads reach."""
    from schedtune import agent, cli, nn, optimizers, scheduler, simengine, tunenv

    tracer.patch(tunenv, "build_cluster", "cluster.build_cluster",
                 _add("cluster.nodes_built", lambda r, a: r.n_nodes))
    tracer.patch(simengine, "generate_arrivals", "workload.generate_arrivals",
                 _add("workload.requests_generated", lambda r, a: len(r)))
    tracer.patch(simengine, "simulate_requests", "simengine.simulate_requests",
                 _count_simulation)
    tracer.patch(simengine, "place", "scheduler.place",
                 _add("scheduler.place.unplaced", lambda r, a: r is None))
    tracer.patch(scheduler, "score_nodes", "scheduler.score_nodes",
                 _add("scheduler.nodes_scored", lambda r, a: len(a[1])))
    tracer.patch(tunenv.TuningEnv, "reset", "tunenv.reset")
    tracer.patch(tunenv.TuningEnv, "step", "tunenv.step")
    for cls in set(optimizers.OPTIMIZERS.values()):
        tracer.patch(cls, "suggest", "optimizers.suggest")
    tracer.patch(agent.SacAgent, "update", "agent.update")
    tracer.patch(agent.ReplayBuffer, "sample", "agent.replay_sample")
    tracer.patch(agent.SacAgent, "act", "agent.act")
    tracer.patch(agent.SacAgent, "act_batch", "agent.act")
    tracer.patch(nn.Mlp, "forward", "nn.forward")
    tracer.patch(nn.Mlp, "backward", "nn.backward")
    tracer.patch(nn.Adam, "step", "nn.adam_step")
    tracer.patch(agent.SacAgent, "save", "agent.save",
                 _add("agent.save.bytes", lambda r, a: os.path.getsize(a[1])))
    tracer.patch(agent.SacAgent, "load", "agent.load",
                 _add("agent.load.bytes", lambda r, a: os.path.getsize(a[0])))
    tracer.patch(cli, "write_trials_csv", "report.write_trials_csv")
