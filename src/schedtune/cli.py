"""Command line entry points.

Subcommands:
  simulate     run one benchmark with the fixed weights, dump run records
  tune         tune weights on sampled scenarios with a baseline method
  train-agent  train the soft actor-critic tuner and save a checkpoint
  eval         tune scenarios with a trained agent checkpoint
  report       summarize a trials table per method: a stdout table,
               summary.csv, an SVG chart and report.md

All scenario seeds derive from ``--seed``, so different methods invoked with
the same seed tune exactly the same scenarios.
"""
from __future__ import annotations

import argparse
import copy
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import replace
from pathlib import Path

import numpy as np

from .agent import ReplayBuffer, SacAgent, evaluate_policy, train_agent
from .config import ExperimentConfig, load_config
from .errors import ConfigError, SchedTuneError, writing
from .optimizers import OPTIMIZERS, run_tuning
from .report import (
    CHART_FILENAME,
    CSV_SCHEMA_VERSION,
    append_rows,
    read_trials_csv,
    render_report_md,
    render_score_chart,
    require_paired,
    starts_new_table,
    summarize_trials,
    trial_rows,
    trials_header,
    write_summary_csv,
    write_trials_csv,
)
from .synthfuncs import SyntheticTuningEnv
from .tunenv import FaasTuningEnv, VectorEnv

RUNRECORD_FIELDS = ("schema_version", "experiment", "scenario_seed",
                    "scenario_digest", "preset", "topology", "num_nodes",
                    "function", "requests_per_second", "n_total", "n_success",
                    "fetch_mean_s", "wait_mean_s", "benchmark_score")


def make_env(config: ExperimentConfig):
    if config.env_kind == "synthetic":
        return SyntheticTuningEnv(config.synth_function, mode=config.mode,
                                  mask_level=config.mask_level,
                                  n_steps=config.n_steps)
    return FaasTuningEnv(mode=config.mode, mask_level=config.mask_level,
                         n_steps=config.n_steps, duration_s=config.duration_s,
                         data_dir=config.data_dir)


def scenario_seeds(seed: int, count: int) -> list[int]:
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1, dtype=np.uint64)[0] % (2**63 - 1))
            for c in children]


def _tune_worker(task) -> tuple[list[dict], float]:
    """Tune one scenario; ``task`` is (env, experiment name, method,
    checkpoint, scenario seed).  Return its trial rows and wall time in s."""
    start = time.perf_counter()
    env, experiment, method, checkpoint, scenario_seed = task
    if method == "agent":
        agent = SacAgent.load(checkpoint, acting_only=True)
        episode = evaluate_policy(agent, env, [scenario_seed])[0]
    else:
        episode = run_tuning(OPTIMIZERS[method](), env, seed=scenario_seed)
    rows = trial_rows(experiment, method, scenario_seed, episode,
                      env.space.action_names)
    return rows, time.perf_counter() - start


def _report_progress(index: int, total: int, rows: list[dict], seconds: float):
    """One stderr line per finished scenario: reference and best score."""
    r0 = float(rows[0]["score"])
    best = max(float(row["score"]) for row in rows[1:])
    print(f"[{index}/{total}] scenario {rows[0]['scenario_digest']}: "
          f"r0 {r0:.4f} best {best:.4f} ({seconds:.2f} s)",
          file=sys.stderr, flush=True)


def make_out_dir(out) -> Path:
    """Create the directory ``out``, or fail with one ``error:`` line."""
    out_dir = Path(out)
    with writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def run_tune(config: ExperimentConfig, method: str, seed: int, out_dir: Path,
             checkpoint=None, jobs: int = 1) -> Path:
    if method == "agent" and checkpoint is None:
        raise ConfigError("evaluating the agent requires --checkpoint")
    if jobs < 1:
        raise ConfigError(f"--jobs: expected a positive integer, got {jobs}")
    path = out_dir / "trials.csv"
    env = make_env(config)
    action_names = env.space.action_names
    # A table with other columns fails here, before any scenario is tuned.
    starts_new_table(path, trials_header(action_names))
    make_out_dir(out_dir)
    # Every scenario runs in this one environment.  A pool pickles it into
    # each task before any reset, so it carries no episode.
    tasks = [(env, config.name, method, checkpoint, s)
             for s in scenario_seeds(seed, config.n_scenarios)]
    all_rows = []
    with ExitStack() as stack:
        if jobs > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            results = pool.map(_tune_worker, tasks)
        else:
            results = (_tune_worker(t) for t in tasks)
        for index, task in enumerate(tasks, start=1):
            # Results arrive in task order, so a failure is this task's.  A
            # dead worker breaks the pool, failing this and every later task.
            try:
                rows, seconds = next(results)
            except (SchedTuneError, BrokenProcessPool) as exc:
                reason = "worker process died" if isinstance(exc, BrokenProcessPool) else exc
                raise SchedTuneError(f"scenario {index} of {len(tasks)} "
                                     f"(seed {task[-1]}): {reason}") from exc
            _report_progress(index, len(tasks), rows, seconds)
            all_rows.extend(rows)
    write_trials_csv(path, all_rows, action_names)
    return path


# -- subcommand handlers -----------------------------------------------------

def cmd_simulate(args) -> int:
    config = _config_of(args)
    if config.env_kind != "faas":
        raise ConfigError(f"env_kind: simulate runs the FaaS cluster, got "
                          f"{config.env_kind!r}")
    env = make_env(config)
    # Drawn before --out exists: a seed with no schedulable scenario fails first.
    scenario, _, result = env.draw_scenario(np.random.default_rng(args.seed))
    path = make_out_dir(args.out) / "runrecords.csv"
    spec, digest = scenario.cluster_spec, scenario.digest()
    rps = dict((fn.name, r) for fn, r in scenario.workload.functions)
    append_rows(path, RUNRECORD_FIELDS, [{
        "schema_version": CSV_SCHEMA_VERSION,
        "experiment": config.name,
        "scenario_seed": args.seed,
        "scenario_digest": digest,
        "preset": spec.preset,
        "topology": spec.topology_kind,
        "num_nodes": spec.total_nodes,
        "function": name,
        "requests_per_second": f"{rps[name]:.6f}",
        "n_total": metrics.n_total,
        "n_success": metrics.n_success,
        "fetch_mean_s": f"{metrics.mu_fet_s:.6f}",
        "wait_mean_s": f"{metrics.mu_wait_s:.6f}",
        "benchmark_score": f"{result.score:.6f}",
    } for name, metrics in sorted(result.metrics.per_function.items())])
    print(f"scenario {digest} on {spec.preset} ({spec.total_nodes} nodes, "
          f"{spec.topology_kind}): score {result.score:.4f}")
    print(f"run records written to {path}")
    return 0


def cmd_tune(args) -> int:
    config = _config_of(args)
    path = run_tune(config, args.method, args.seed, Path(args.out),
                    jobs=args.jobs)
    print(f"tuned {config.n_scenarios} scenarios with method "
          f"{args.method!r}; trials appended to {path}")
    return 0


def cmd_train_agent(args) -> int:
    config = _config_of(args)
    # The copies share one read of the data; a reset gives each its own episode.
    env = make_env(config)
    vec = VectorEnv([copy.copy(env) for _ in range(config.num_envs)])
    eval_env = make_env(replace(config, mode="test")) if config.eval_every else None
    # Built before --out exists: an arena or a replay buffer too large to
    # allocate fails first.
    agent = SacAgent(config.agent_config(vec.observation_dim, vec.action_dim),
                     seed=args.seed)
    buffer = ReplayBuffer(config.replay_capacity, vec.observation_dim, vec.action_dim)
    out_dir = make_out_dir(args.out)
    checkpoint = out_dir / "agent.ckpt"

    def report_eval(entry: dict):
        """One stderr line per finished evaluation, like tune's progress."""
        print(f"[eval] {entry['env_steps']}/{config.total_env_steps} env steps: "
              f"mean best {entry['mean_best_score']:.4f} "
              f"improvement {entry['mean_improvement']:+.4f}",
              file=sys.stderr, flush=True)

    train_agent(
        agent, vec, total_env_steps=config.total_env_steps, seed=args.seed,
        eval_env=eval_env,
        eval_seeds=scenario_seeds(args.seed + 1, config.n_eval_seeds),
        eval_every=config.eval_every,
        checkpoint_path=checkpoint,
        log_every=config.log_every,
        log_path=out_dir / "train_log.csv",
        on_eval=report_eval,
        buffer=buffer,
    )
    print(f"trained for {agent.env_steps} environment steps; "
          f"checkpoint at {checkpoint}")
    return 0


def cmd_eval(args) -> int:
    config = _config_of(args)
    path = run_tune(config, "agent", args.seed, Path(args.out),
                    checkpoint=args.checkpoint, jobs=args.jobs)
    print(f"evaluated checkpoint on {config.n_scenarios} scenarios; "
          f"trials appended to {path}")
    return 0


def cmd_report(args) -> int:
    config = _config_of(args) if args.config else None
    out_dir = Path(args.out)
    rows = read_trials_csv(out_dir / "trials.csv")
    summaries = summarize_trials(rows)
    # Every method must cover the same scenarios, or no file is written.
    require_paired(rows)
    write_summary_csv(out_dir / "summary.csv", summaries)
    markdown = render_report_md(
        summaries, config_echo=None if config is None else config.to_dict())
    for name, text in ((CHART_FILENAME, render_score_chart(summaries)),
                       ("report.md", markdown)):
        with writing(out_dir / name):
            (out_dir / name).write_text(text, encoding="utf-8")
    width = max(len(s.method) for s in summaries)
    print(f"{'method'.ljust(width)}  scenarios  mean initial  mean best  "
          f"improvement  win rate")
    for s in summaries:
        print(f"{s.method.ljust(width)}  {s.n_scenarios:9d}  "
              f"{s.mean_reference:12.4f}  {s.mean_best:9.4f}  "
              f"{s.mean_improvement:+11.4f}  {s.win_rate:8.0%}")
    print(f"summary.csv, {CHART_FILENAME} and report.md written to {out_dir}")
    return 0


def _config_of(args) -> ExperimentConfig:
    return load_config(args.config) if args.config else ExperimentConfig()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schedtune",
        description="Benchmark-driven tuning of scheduler scoring weights.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, jobs=False, method=False, checkpoint=False):
        p.add_argument("--config", help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=0,
                       help="master seed; scenario seeds derive from it")
        p.add_argument("--out", required=True,
                       help="output directory for artifacts")
        if method:
            p.add_argument("--method", default="random",
                           choices=sorted(OPTIMIZERS),
                           help="tuning method")
        if checkpoint:
            p.add_argument("--checkpoint",
                           help="path to a trained agent checkpoint")
        if jobs:
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes for scenario fan-out")

    p = sub.add_parser("simulate", help="run one benchmark with fixed weights")
    common(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("tune", help="tune scenarios with a baseline method")
    common(p, jobs=True, method=True)
    p.set_defaults(handler=cmd_tune)

    p = sub.add_parser("train-agent", help="train the actor-critic tuner")
    common(p)
    p.set_defaults(handler=cmd_train_agent)

    p = sub.add_parser("eval", help="tune scenarios with a trained agent")
    common(p, jobs=True, checkpoint=True)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("report", help="summarize a trials table per method")
    common(p)
    p.set_defaults(handler=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every subcommand takes --seed; numpy refuses a negative one late.
        if args.seed < 0:
            raise ConfigError(f"--seed: expected a non-negative integer, got {args.seed}")
        return args.handler(args)
    except SchedTuneError as exc:
        # One line, whatever line breaks a name read from a file holds.
        print("error: " + "\\n".join(str(exc).splitlines()), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
