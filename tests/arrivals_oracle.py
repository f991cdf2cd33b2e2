"""The arrival-trace generator as it stood before the columnar rewrite, kept
as a test oracle.

``generate_arrivals`` below is the pre-rewrite generator verbatim: one
scalar exponential draw per request, one ``Request`` per arrival, then a
stable sort by time.  ``arrival_pairs`` converts its output to the
production ``(arrival_s, function_index)`` format.  The differential test in
``test_workload.py`` requires the production generator to give equal pairs,
element for element.  Do not optimise this file.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from schedtune.workload import FunctionSpec, WorkloadSpec


@dataclass(frozen=True)
class Request:
    function: FunctionSpec
    arrival_s: float


def generate_arrivals(spec: WorkloadSpec) -> list[Request]:
    """Merged Poisson trace over [0, duration_s), sorted by arrival time.

    Each function gets its own stream of exponential gaps; the generator is
    seeded from the spec so identical specs replay identical traces.
    """
    rng = np.random.default_rng(spec.seed)
    requests = []
    for fn, rps in spec.functions:
        t = 0.0
        scale = 1.0 / rps
        while True:
            t += float(rng.exponential(scale))
            if t >= spec.duration_s:
                break
            requests.append(Request(fn, t))
    requests.sort(key=lambda r: r.arrival_s)
    return requests


def arrival_pairs(spec: WorkloadSpec) -> list[tuple[float, int]]:
    index = {fn.name: k for k, (fn, _) in enumerate(spec.functions)}
    return [(r.arrival_s, index[r.function.name]) for r in generate_arrivals(spec)]
