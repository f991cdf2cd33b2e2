"""One benchmark workload in one process; started by ``run.py``.

Workloads (see README.md):

  tune-test   ``schedtune tune --method bo --jobs 1`` on a fixed list of
              held-out test-domain scenarios
  train-faas  ``schedtune train-agent`` on the train-domain FaaS env, default
              network, ``start_steps`` lowered to one batch
  eval-test   ``schedtune eval --jobs 1`` on the first scenarios of the
              tune-test list, with a fixed-seed default-size checkpoint

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Timings are scaled to a reference
host speed (see ``probe``); a ``# wall clock`` line before the result gives
them unscaled.  With ``--trace 1`` the workload
first runs untraced, then repeats the same operations with every layer
wrapped (tracing.py), and reports per-layer metrics plus the overhead.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("tune-test", "train-faas", "eval-test")

SETUP_REPEATS = 5
# tune-test and eval-test tune a fixed list of test-domain scenarios,
# scenario_seeds(SCENARIO_LIST_SEED, n).  Every run is the same whole round;
# n is sized so that a round takes about 25 s at 2.7 (tune-test) and 1.6
# (eval-test) episodes/s, the rates measured when the benchmark was made.
SCENARIO_LIST_SEED = 20260310
WARM_UP_SEED = SCENARIO_LIST_SEED + 1
EPISODES = {"tune-test": 68, "eval-test": 40}
# Host speed.  On the shared 2-core test machine the same code runs up to 46 %
# faster in one 25-s stretch than in another, and process CPU time drifts with
# wall time, so raw wall times of two runs differ by more than a change worth
# measuring.  probe() is a fixed mix of interpreter and numpy work, run after
# every timed episode or vector step, outside the timed part; a time t
# measured next to probes of mean p is reported as t * PROBE_REF_S / p, the
# time on a host where probe() takes PROBE_REF_S (its median on the machine
# in README.md).
PROBE_REF_S = 0.0185
PROBE_MATRIX = np.random.default_rng(0).standard_normal((96, 96))
AGENT_SEED = 12345         # eval-test checkpoint; independent of --seed
TRAIN_START_STEPS = 256    # one batch: updates begin as soon as they can
TRAIN_LOG_EVERY = 64
# Lockstep episode groups in the train-faas window: 8 groups of about 3.1 s
# (4 vector steps with 4 updates each) make a window of about 25 s.
TRAIN_WINDOW_GROUPS = 8


def import_program():
    """Import schedtune from this checkout's ``src`` and nowhere else."""
    if not (SRC / "schedtune" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'schedtune'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import schedtune
    if Path(schedtune.__file__).resolve().parent != (SRC / "schedtune").resolve():
        sys.exit(f"error: imported schedtune from {schedtune.__file__}, not {SRC}")


def machine_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def cold_import() -> None:
    """Start a fresh interpreter that imports the CLI module, as every
    ``schedtune`` command does before its own set-up."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import schedtune.cli"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def probe() -> float:
    """Run the fixed host-speed probe; return its wall time."""
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(24000):
        table[i % 97] = table.get(i % 97, 0.0) + (i * 0.5) % 7.0
    m = PROBE_MATRIX
    for _ in range(160):
        m = np.tanh(m @ PROBE_MATRIX * 0.01)
    return time.perf_counter() - t0


def host_scale(probes) -> float:
    """Factor from wall time measured next to ``probes`` to reference time."""
    return PROBE_REF_S / statistics.fmean(probes)


# -- run observation ----------------------------------------------------------

class RunRecord(NamedTuple):
    episode: int | None
    n_nodes: int
    workload: object     # the WorkloadSpec the run replayed
    norm: object         # its ScoreNorm
    per_fn: tuple        # (mu_fet_s, mu_wait_s, n_success, n_total) per function
    score: float


class RunLog:
    """Every benchmark run the tuning envs make, seen at ``tunenv.run_benchmark``."""

    def __init__(self):
        self.attempts = 0
        self.records: list[RunRecord] = []
        self.episode = None

    def install(self):
        from schedtune import tunenv
        real = tunenv.run_benchmark

        def observed(cluster, workload, weights, options):
            self.attempts += 1
            result = real(cluster, workload, weights, options)
            per_fn = tuple((m.mu_fet_s, m.mu_wait_s, m.n_success, m.n_total)
                           for m in result.metrics.per_function.values())
            self.records.append(RunRecord(self.episode, cluster.n_nodes, workload,
                                          options.norm, per_fn, result.score))
            return result

        tunenv.run_benchmark = observed
        return lambda: setattr(tunenv, "run_benchmark", real)


def paper_score(per_fn, norm) -> float:
    """Mean over functions of (flipped capped fet + flipped capped wait +
    success ratio) / 3, recomputed from the per-function metrics."""
    terms = []
    for fet, wait, ok, total in per_fn:
        m_fet = 1.0 - min(max(fet / norm.fet_cap_s, 0.0), 1.0)
        m_wait = 1.0 - min(max(wait / norm.wait_cap_s, 0.0), 1.0)
        terms.append((m_fet + m_wait + ok / max(total, 1)) / 3.0)
    return sum(terms) / len(terms)


def check_runs(log: RunLog, errors: list) -> dict:
    """Score, conservation and success checks on every run; returns the
    trace length of each distinct workload."""
    from schedtune.workload import generate_arrivals
    arrivals: dict = {}
    for episode, _, workload, norm, per_fn, score in log.records:
        if workload not in arrivals:
            arrivals[workload] = len(generate_arrivals(workload))
        mine = paper_score(per_fn, norm)
        if not (0.0 <= mine <= 1.0 and abs(mine - score) <= 1e-12):
            errors.append(f"episode {episode}: score {score!r}, recomputed {mine!r}")
        if sum(total for *_, total in per_fn) != arrivals[workload]:
            errors.append(f"episode {episode}: n_total sum differs from "
                          f"{arrivals[workload]} arrivals")
        if any(ok > total for _, _, ok, total in per_fn):
            errors.append(f"episode {episode}: n_success exceeds n_total")
    return arrivals


def check(errors: list, ok: bool, message: str) -> None:
    if not ok:
        errors.append(message)


# -- tune-test / eval-test ----------------------------------------------------

class TuneWorkload:
    """``schedtune tune --method bo --jobs 1`` (tune-test) or ``schedtune
    eval --jobs 1`` (eval-test), run through ``cli.main`` on a fixed list."""

    def __init__(self, name: str, work: Path):
        self.name, self.work = name, work
        self.method = "bo" if name == "tune-test" else "agent"
        self.episodes = EPISODES[name]

    def setup(self):
        from schedtune import cli
        from schedtune.agent import SacAgent, SacConfig
        from schedtune.config import config_from_dict
        self.config = config_from_dict({"name": f"perfbench-{self.name}",
                                        "n_scenarios": self.episodes})
        self.config_path = self.work / f"{self.name}.json"
        self.warm_up_path = self.work / f"{self.name}-warm-up.json"
        self.config_path.write_text(json.dumps(self.config.to_dict()), encoding="utf-8")
        warm_up = {**self.config.to_dict(), "n_scenarios": 1}
        self.warm_up_path.write_text(json.dumps(warm_up), encoding="utf-8")
        env = cli.make_env(self.config)
        self.act_dim = env.action_dim
        self.checkpoint = None
        if self.method == "agent":
            self.checkpoint = self.work / "agent.ckpt"
            agent = SacAgent(SacConfig(obs_dim=env.observation_dim,
                                       act_dim=env.action_dim), seed=AGENT_SEED)
            agent.save(self.checkpoint)

    def command(self, config_path: Path, seed: int, out: Path) -> list[str]:
        if self.method == "agent":
            head = ["eval", "--checkpoint", str(self.checkpoint)]
        else:
            head = ["tune", "--method", self.method]
        return head + ["--jobs", "1", "--config", str(config_path),
                       "--seed", str(seed), "--out", str(out)]

    def warm_up(self):
        from schedtune import cli
        out = self.work / "warm-up"
        if cli.main(self.command(self.warm_up_path, WARM_UP_SEED, out)) != 0:
            raise RuntimeError("the warm-up episode failed")

    def timed(self) -> dict:
        """Run the command on the whole list.  Episode times come from
        wrapping ``cli._tune_worker``, which ``run_tune`` looks up per call;
        eval-test also records every action the policy returns."""
        from schedtune import cli
        from schedtune.agent import SacAgent
        log = RunLog()
        run = {"log": log, "times": [], "actions": [], "probes": [],
               "attempted": self.episodes}
        real_worker, real_act = cli._tune_worker, SacAgent.act

        def worker(payload):
            log.episode = len(run["times"])
            t0 = time.perf_counter()
            rows = real_worker(payload)
            run["times"].append(time.perf_counter() - t0)
            run["probes"].append(probe())
            return rows

        def act(agent, obs, *args, **kwargs):
            action = real_act(agent, obs, *args, **kwargs)
            run["actions"].append(np.array(action, dtype=float))
            return action

        out = self.work / f"{self.name}-{time.monotonic_ns()}"
        uninstall = log.install()
        cli._tune_worker, SacAgent.act = worker, act
        command = self.command(self.config_path, SCENARIO_LIST_SEED, out)
        try:
            start = time.perf_counter()
            run["status"] = cli.main(command)
            run["wall"] = time.perf_counter() - start - sum(run["probes"])
        finally:
            cli._tune_worker, SacAgent.act = real_worker, real_act
            uninstall()
        run["failed"] = self.episodes - len(run["times"])
        run["path"] = out / "trials.csv"
        return run

    def metrics(self, run: dict, scale: float) -> dict:
        n, wall = len(run["times"]), run["wall"] * scale
        return {
            "episodes_per_s": (n / wall, "1/s"),
            "episode_s.p50": (statistics.median(run["times"]) * scale, "s"),
            "env_steps_per_s": (n * self.config.n_steps / wall, "1/s"),
        }

    def check(self, run: dict, errors: list) -> None:
        from schedtune.report import read_trials_csv, summarize_trials
        n_steps = self.config.n_steps
        log = run["log"]
        episodes = len(run["times"])
        if run["status"] != 0 or run["failed"]:
            errors.append(f"{run['failed']} of {run['attempted']} episodes failed "
                          f"(exit status {run['status']})")
            return
        arrivals = check_runs(log, errors)

        rows = read_trials_csv(run["path"])
        groups: dict[int, list] = {}
        for row in rows:
            groups.setdefault(row["scenario_seed"], []).append(row)
        check(errors, len(groups) == episodes,
              f"{len(groups)} scenarios in the table, {episodes} episodes run")
        for seed, group in groups.items():
            check(errors, [r["trial"] for r in group] == list(range(n_steps + 1)),
                  f"scenario {seed}: trials {[r['trial'] for r in group]}")
        check(errors, len(log.records) == episodes * (n_steps + 1),
              f"{len(log.records)} benchmark runs for {episodes} episodes")
        check(errors, [r["score"] for r in rows] == [rec.score for rec in log.records],
              "table scores differ from the scores the runs returned")

        improvements, refs, bests = [], [], []
        for group in groups.values():
            r0, best = group[0]["score"], max(r["score"] for r in group[1:])
            refs.append(r0)
            bests.append(best)
            improvements.append((best - r0) / max(r0, 1e-6))
        if groups:
            summary = summarize_trials(rows)
            check(errors, len(summary) == 1 and summary[0].n_scenarios == episodes,
                  "summary scenario count differs")
            for name, mine in (("mean_improvement", improvements),
                               ("mean_reference", refs), ("mean_best", bests)):
                theirs = getattr(summary[0], name)
                check(errors, math.isclose(theirs, statistics.fmean(mine),
                                           rel_tol=1e-9, abs_tol=1e-12),
                      f"{name} {theirs!r}, recomputed {statistics.fmean(mine)!r}")

        # The policy's own outputs, before the env clips them.
        actions = run["actions"]
        if self.method == "agent":
            check(errors, len(actions) == episodes * n_steps,
                  f"{len(actions)} policy actions for {episodes} episodes")
            check(errors, all(a.shape == (self.act_dim,)
                              and np.all((a >= 0.0) & (a <= 1.0)) for a in actions),
                  "a policy action lies outside [0, 1]^8")
        else:
            check(errors, not actions, "the policy acted on a BO run")

        seeds = list(groups)
        for i in sorted({0, len(seeds) // 2, len(seeds) - 1} if seeds else ()):
            digest, r0 = reproduce_r0(seeds[i], self.config)
            check(errors, digest == groups[seeds[i]][0]["scenario_digest"]
                  and r0 == groups[seeds[i]][0]["score"],
                  f"scenario {seeds[i]}: r0 not reproduced ({r0!r})")
        run["arrivals"] = arrivals

    def check_trace(self, run: dict, tracer, errors: list) -> None:
        if "arrivals" not in run:
            return   # check() already reported the failed episodes
        calls, counts = tracer.calls, tracer.counts
        log, n_steps = run["log"], self.config.n_steps
        episodes = len(run["times"])
        retries = log.attempts - len(log.records)
        agent = self.method == "agent"
        expect = {
            "tunenv.reset": episodes,
            "tunenv.step": episodes * n_steps,
            "cluster.build_cluster": episodes + retries,
            "workload.generate_arrivals": log.attempts,
            "simengine.simulate_requests": log.attempts,
            "optimizers.suggest": 0 if agent else episodes * n_steps,
            "agent.load": episodes if agent else 0,
            "agent.act": episodes * n_steps if agent else 0,
            "nn.forward": episodes * n_steps if agent else 0,
            "nn.backward": 0, "nn.adam_step": 0, "agent.update": 0,
            "agent.replay_sample": 0, "agent.save": 0,
            "report.write_trials_csv": 1,
            "scheduler.score_nodes":
                calls["scheduler.place"] - counts["scheduler.place.unplaced"],
        }
        check_calls(expect, calls, errors)
        check(errors, calls["scheduler.place"] == counts["simengine.placements"]
              + counts["scheduler.place.unplaced"], "place calls != outcomes")
        check(errors, counts["simengine.completions"]
              == sum(ok for rec in log.records for _, _, ok, _ in rec.per_fn),
              "completions differ from the runs' n_success")
        if retries == 0:
            check(errors, counts["cluster.nodes_built"]
                  == sum(rec.n_nodes for rec in log.records[::n_steps + 1]),
                  "nodes_built differs from the scenarios' node counts")
            generated = sum(run["arrivals"][rec.workload] for rec in log.records)
            check(errors, counts["workload.requests_generated"] == generated
                  == counts["simengine.requests"],
                  "requests generated/simulated differ from the arrival traces")
        if agent:
            size = self.checkpoint.stat().st_size
            check(errors, counts["agent.load.bytes"] == episodes * size,
                  "agent.load.bytes != loads x checkpoint size")


def reproduce_r0(scenario_seed: int, config):
    """Digest and fixed-weight score of a scenario, rebuilt directly."""
    from schedtune.cluster import build_cluster
    from schedtune.errors import UnschedulableError
    from schedtune.scheduler import FIXED_WEIGHTS
    from schedtune.simengine import run_benchmark
    from schedtune.tunenv import default_space_set, sample_scenario
    rng = np.random.default_rng(scenario_seed)
    space = default_space_set()
    for _ in range(10):   # FaasTuningEnv's reset retries
        sc = sample_scenario(space, config.mode, rng, duration_s=config.duration_s)
        try:
            return sc.digest(), run_benchmark(build_cluster(sc.cluster_spec),
                                              sc.workload, FIXED_WEIGHTS,
                                              sc.options).score
        except UnschedulableError:
            continue
    return None, None


def check_calls(expect: dict, calls, errors: list) -> None:
    for name, want in expect.items():
        check(errors, calls[name] == want,
              f"trace: {name}.calls = {calls[name]}, expected {want}")


# -- train-faas ---------------------------------------------------------------

class TrainWorkload:
    """``schedtune train-agent`` on the train domain.

    Updates cannot start before the replay buffer holds one batch (256
    transitions), so the first 64 vector steps only simulate.  The timed
    window starts at the vector step after the first one that updates, and
    runs ``window`` vector steps (whole lockstep episodes) plus the final
    checkpoint save: the regime in which default training spends >99 % of
    its steps.
    """

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self):
        from schedtune import cli
        from schedtune.agent import SacAgent, SacConfig
        from schedtune.config import ExperimentConfig, config_from_dict
        from schedtune.tunenv import VectorEnv
        base = ExperimentConfig()
        k = base.num_envs
        first_update = -(-max(TRAIN_START_STEPS, base.batch_size) // k)
        if first_update % base.n_steps:
            raise RuntimeError("the timed window would not start at an episode boundary")
        self.window_start = first_update + 1
        self.window = base.n_steps * TRAIN_WINDOW_GROUPS
        self.config = config_from_dict({
            "name": "perfbench-train-faas", "mode": "train",
            "start_steps": TRAIN_START_STEPS, "log_every": TRAIN_LOG_EVERY,
            "total_env_steps": k * (first_update + self.window)})
        self.config_path = self.work / "train.json"
        self.config_path.write_text(json.dumps(self.config.to_dict()), encoding="utf-8")
        # What cmd_train_agent builds before its loop.
        probe = cli.make_env(self.config)
        cfg = self.config
        SacAgent(SacConfig(obs_dim=probe.observation_dim, act_dim=probe.action_dim,
                           hidden=cfg.hidden, gamma=cfg.gamma, tau=cfg.tau, lr=cfg.lr,
                           batch_size=cfg.batch_size,
                           replay_capacity=cfg.replay_capacity,
                           start_steps=cfg.start_steps), seed=self.seed)
        VectorEnv([cli.make_env(self.config) for _ in range(k)])

    def warm_up(self):
        pass   # the simulate-only vector steps precede the timed window

    def timed(self) -> dict:
        from schedtune import cli
        log = RunLog()
        uninstall = log.install()
        run = {"log": log, "step_starts": [], "terminal": [], "probes": []}
        probes = run["probes"]
        real_train = cli.train_agent

        def train(agent, vec, *args, **kwargs):
            real_step = vec.step

            def step(actions):
                run["step_starts"].append(time.perf_counter() - sum(probes))
                obs, rewards, dones, infos = real_step(actions)
                run["terminal"].extend(float(r) for r in rewards[dones])
                if len(run["step_starts"]) >= self.window_start:
                    probes.append(probe())
                return obs, rewards, dones, infos

            vec.step = step
            run["agent"] = agent
            return real_train(agent, vec, *args, **kwargs)

        out = self.work / f"agent-{time.monotonic_ns()}"
        cli.train_agent = train
        try:
            start = time.perf_counter()
            status = cli.main(["train-agent", "--config", str(self.config_path),
                               "--seed", str(self.seed), "--out", str(out)])
            end = time.perf_counter() - sum(probes)
        finally:
            cli.train_agent = real_train
            uninstall()
        if status != 0:
            raise RuntimeError(f"train-agent exited with status {status}")
        starts = run["step_starts"]
        bounds = starts[self.window_start - 1:] + [end]
        # Episode groups: vector steps [j, j + n_steps) inside the window.
        n_steps = self.config.n_steps
        run["episode_s"] = [bounds[i + n_steps] - bounds[i]
                            for i in range(0, self.window, n_steps)]
        run.update(wall=end - start, window_s=end - bounds[0], out=out,
                   attempted=self.config.total_env_steps, failed=0)
        return run

    def metrics(self, run: dict, scale: float) -> dict:
        k, window_s = self.config.num_envs, run["window_s"] * scale
        return {
            "episodes_per_s": (k * len(run["episode_s"]) / window_s, "1/s"),
            "episode_s.p50": (statistics.median(run["episode_s"]) * scale, "s"),
            "env_steps_per_s": (k * self.window / window_s, "1/s"),
        }

    def expected_loop(self) -> dict:
        """Gradient steps and policy calls implied by train_agent's loop."""
        cfg = self.config
        k, env_steps, grads, acts = cfg.num_envs, 0, 0, 0
        while env_steps < cfg.total_env_steps:
            acts += env_steps >= cfg.start_steps
            env_steps += k
            if env_steps >= cfg.start_steps and env_steps >= cfg.batch_size:
                grads += k   # updates_per_step defaults to 1
        return {"env_steps": env_steps, "grad_steps": grads, "act_calls": acts}

    def check(self, run: dict, errors: list) -> None:
        from schedtune.agent import SacAgent
        cfg = self.config
        check_runs(run["log"], errors)
        agent, want = run["agent"], self.expected_loop()
        check(errors, agent.env_steps == cfg.total_env_steps == want["env_steps"],
              f"env_steps {agent.env_steps}, requested {cfg.total_env_steps}")
        check(errors, agent.grad_steps == want["grad_steps"],
              f"grad_steps {agent.grad_steps}, expected {want['grad_steps']}")
        per_env = cfg.total_env_steps // cfg.num_envs
        check(errors, len(run["terminal"]) == cfg.num_envs * (per_env // cfg.n_steps),
              f"{len(run['terminal'])} terminal episodes")
        check(errors, all(math.isfinite(r) and r >= -1.0 for r in run["terminal"]),
              "a terminal reward is below -1 or not finite")

        with open(run["out"] / "train_log.csv", newline="", encoding="utf-8") as fh:
            logged = [row for row in csv.DictReader(fh) if row.get("critic_loss")]
        check(errors, bool(logged), "train_log.csv has no entry with losses")
        for row in logged:
            losses = [float(row[k]) for k in ("critic_loss", "actor_loss", "alpha_loss")]
            check(errors, all(map(math.isfinite, losses)) and float(row["alpha"]) > 0.0,
                  f"log at {row['env_steps']} steps: non-finite loss or alpha <= 0")

        loaded = SacAgent.load(run["out"] / "agent.ckpt")
        mine, theirs = dict(agent._named_arrays()), dict(loaded._named_arrays())
        check(errors, mine.keys() == theirs.keys() and all(
            np.array_equal(mine[n], theirs[n]) for n in mine),
            "reloaded checkpoint arrays differ")
        check(errors, (loaded.env_steps, loaded.grad_steps)
              == (agent.env_steps, agent.grad_steps), "checkpoint step counts differ")
        observations = np.random.default_rng(self.seed).uniform(
            -1.0, 1.0, (3, agent.config.obs_dim))
        check(errors, all(np.array_equal(agent.act(o), loaded.act(o))
                          for o in observations),
              "reloaded agent acts differently on the probe observations")

    def check_trace(self, run: dict, tracer, errors: list) -> None:
        calls, counts = tracer.calls, tracer.counts
        want, log = self.expected_loop(), run["log"]
        grads, k = want["grad_steps"], self.config.num_envs
        resets = k + len(run["terminal"])
        retries = log.attempts - len(log.records)
        check_calls({
            "agent.update": grads, "agent.replay_sample": grads,
            # Per update: 3 policy + 5 critic forwards, 5 backwards, 3 Adam steps.
            "nn.forward": 8 * grads + want["act_calls"],
            "nn.backward": 5 * grads, "nn.adam_step": 3 * grads,
            "agent.act": want["act_calls"], "agent.save": 1, "agent.load": 0,
            "tunenv.step": self.config.total_env_steps, "tunenv.reset": resets,
            "cluster.build_cluster": resets + retries,
            "workload.generate_arrivals": log.attempts,
            "simengine.simulate_requests": log.attempts,
            "optimizers.suggest": 0, "report.write_trials_csv": 0,
        }, calls, errors)
        check(errors, counts["agent.save.bytes"]
              == (run["out"] / "agent.ckpt").stat().st_size, "agent.save.bytes")


# -- entry point --------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    print("# machine " + json.dumps(machine_info()), flush=True)

    out_root = ROOT / ".perfbench_out"
    work = out_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            out_root.rmdir()
        except OSError:
            pass


def run_workload(args, work: Path) -> int:
    from tracing import Tracer, install_layers
    if args.workload == "train-faas":
        workload = TrainWorkload(args.seed, work)
    else:
        workload = TuneWorkload(args.workload, work)

    setup_times, setup_probes = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cold_import()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
        setup_probes.append(probe())
    workload.warm_up()

    errors: list[str] = []
    run = workload.timed()
    workload.check(run, errors)
    if run["failed"]:
        errors.append(f"{run['failed']} of {run['attempted']} operations failed")
    if args.trace:
        tracer = Tracer()
        install_layers(tracer)
        try:
            traced = workload.timed()
        finally:
            tracer.uninstall()
        workload.check(traced, errors)
        workload.check_trace(traced, tracer, errors)
        metrics = tracer.metrics()
        metrics["host.probe_s"] = (statistics.fmean(traced["probes"]), "s")
        # Both walls at reference host speed, so that host drift between
        # the two runs does not pass for tracing overhead.
        untraced = run["wall"] * host_scale(run["probes"])
        overhead = traced["wall"] * host_scale(traced["probes"]) - untraced
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_share"] = (overhead / untraced, "ratio")
    else:
        setup_s = statistics.median(setup_times)
        metrics = {"setup_s": (setup_s * host_scale(setup_probes), "s")}
        metrics.update(workload.metrics(run, host_scale(run["probes"])))
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        wall_clock = {name: value for name, (value, _) in
                      workload.metrics(run, 1.0).items()}
        print("# wall clock " + json.dumps({
            "setup_s": setup_s, **wall_clock,
            "probe_s": statistics.fmean(run["probes"])}), flush=True)

    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
