"""Benchmark entry point for schedtune.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds 25] [--trace 0|1]

Each workload runs in a fresh interpreter (bench.py) whose environment pins
the BLAS thread count, so timings do not depend on how many cores OpenBLAS
happens to grab.  For one workload the child's output is passed through:
its last line is the result JSON.  With ``--workload all`` (the default)
the three workloads run one after another, every metric is printed by name
with its unit, and the last line is a JSON object keyed by workload.

Every run does one fixed round of work, sized to take about RUN_SECONDS
(``run_seconds`` in BENCHMARK.json) at the speed measured when the benchmark
was made; a faster program finishes the round sooner.  ``--seconds`` is part
of the benchmark's command line and must equal RUN_SECONDS: the round does not
stretch or shrink with it, so runs always compare.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("tune-test", "train-faas", "eval-test")
BLAS_THREADS = "1"
BLAS_ENV = {name: BLAS_THREADS for name in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
RUN_SECONDS = 25
CHILD_TIMEOUT_S = 170


def run_workload(workload: str, seed: int, trace: int):
    """Run one workload in a child process; return (exit code, stdout)."""
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, env={**os.environ, **BLAS_ENV},
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: {workload} did not finish in {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="schedtune benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS,
                        help=f"must be {RUN_SECONDS}: the work per run is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds != RUN_SECONDS:
        parser.error(f"--seconds must be {RUN_SECONDS}; each workload runs a fixed "
                     f"round sized for {RUN_SECONDS} s")

    if args.workload != "all":
        code, out = run_workload(args.workload, args.seed, args.trace)
        sys.stdout.write(out)
        return code

    results, status = {}, 0
    for workload in WORKLOADS:
        code, out = run_workload(workload, args.seed, args.trace)
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if code != 0 or result is None:
            sys.stdout.write(out)
            status = status or code or 1
            if result is None:
                continue
        results[workload] = result
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:34s} {metric['value']:>14.6g} {metric['unit']}")
    if status == 0:
        print(json.dumps(results))
    return status


if __name__ == "__main__":
    sys.exit(main())
