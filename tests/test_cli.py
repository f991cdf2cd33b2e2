"""Command line behavior, driven through main()."""
import csv
import hashlib
import io
import json
import math
import os
import re
import struct
from dataclasses import asdict

import pytest

from schedtune import agent as agent_module
from schedtune import cli
from schedtune.agent import LOG_COLUMNS, SacAgent, SacConfig, checkpoint_layout
from schedtune.cli import main, make_env, scenario_seeds
from schedtune.config import load_config
from schedtune.data import data_dir
from schedtune.errors import ConfigError
from schedtune.report import read_trials_csv
from schedtune.tunenv import FaasTuningEnv
from tests.test_agent import _forge_checkpoint, _write_checkpoint
from tests.test_tunenv import DATA_FILES, _record_reads


def write_config(tmp_path, **overrides):
    payload = {
        "name": "cli-test",
        "env_kind": "synthetic",
        "synth_function": "himmelblau",
        "mode": "test",
        "mask_level": "full",
        "n_scenarios": 3,
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_scenario_seeds_deterministic_and_distinct():
    first = scenario_seeds(7, 50)
    assert first == scenario_seeds(7, 50)
    assert len(set(first)) == 50
    assert all(0 <= s < 2**63 - 1 for s in first)
    assert first != scenario_seeds(8, 50)


def test_tune_report_round_trip(tmp_path, capsys):
    config = write_config(tmp_path)
    out = str(tmp_path / "run")
    for method in ("fixed", "random"):
        assert main(["tune", "--config", config, "--seed", "5",
                     "--out", out, "--method", method]) == 0
    capsys.readouterr()
    assert main(["report", "--config", config, "--out", out]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == ["method", "scenarios", "mean", "initial", "mean",
                                "best", "improvement", "win", "rate"]
    assert [line.split()[0] for line in table[1:3]] == ["fixed", "random"]

    with open(tmp_path / "run" / "summary.csv", newline="") as fh:
        summaries = list(csv.DictReader(fh))
    assert [s["method"] for s in summaries] == ["fixed", "random"]
    fixed, random = summaries
    # same master seed => both methods tuned identical scenarios
    assert fixed["mean_reference"] == random["mean_reference"]
    assert fixed["n_scenarios"] == random["n_scenarios"] == "3"
    assert float(fixed["mean_improvement"]) == 0.0

    report = (tmp_path / "run" / "report.md").read_text()
    assert "![score chart](scores.svg)" in report
    assert '"name": "cli-test"' in report
    assert (tmp_path / "run" / "scores.svg").read_text().startswith("<svg")


def test_trials_table_shape(tmp_path, capsys):
    config = write_config(tmp_path, n_scenarios=2)
    out = tmp_path / "run"
    assert main(["tune", "--config", config, "--seed", "1",
                 "--out", str(out), "--method", "random"]) == 0
    rows = read_trials_csv(out / "trials.csv")
    # one progress line per scenario, in scenario order
    progress = capsys.readouterr().err.splitlines()
    assert len(progress) == 2
    for i, line in enumerate(progress):
        match = re.fullmatch(r"\[(\d)/2\] scenario (\S+): r0 (\S+) best (\S+) "
                             r"\((\d+\.\d\d) s\)", line)
        assert match, line
        index, digest, r0, best, _ = match.groups()
        trials = rows[5 * i: 5 * i + 5]
        assert int(index) == i + 1
        assert digest == trials[0]["scenario_digest"]
        assert r0 == f"{trials[0]['score']:.4f}"
        assert best == f"{max(t['score'] for t in trials[1:]):.4f}"
    assert len(rows) == 2 * (1 + 4)  # per scenario: reference + 4 trials
    by_seed = {}
    for row in rows:
        by_seed.setdefault(row["scenario_seed"], []).append(row["trial"])
    assert all(sorted(trials) == [0, 1, 2, 3, 4]
               for trials in by_seed.values())
    with open(out / "trials.csv") as fh:
        header = next(csv.reader(fh))
    assert header[-2:] == ["z_x", "z_y"]


def test_parallel_jobs_match_serial(tmp_path):
    config = write_config(tmp_path, n_scenarios=4)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert main(["tune", "--config", config, "--seed", "9",
                 "--out", str(serial), "--method", "bo"]) == 0
    assert main(["tune", "--config", config, "--seed", "9",
                 "--out", str(parallel), "--method", "bo", "--jobs", "2"]) == 0
    assert (serial / "trials.csv").read_text() == \
        (parallel / "trials.csv").read_text()


# The trials table of a small FaaS tuning run, byte for byte.  Every trial
# replays the cluster under its own weights, so a change to scoring,
# placement or the engine that moves any score changes this digest.
PINNED_TUNE_TRIALS_SHA256 = "4c87747f6eb6724f9f502f2160945c6b2ba1f9812b67a8f5fc676a2e595f4995"


def test_faas_tune_trials_table_is_pinned(tmp_path, capsys):
    config = write_config(tmp_path, env_kind="faas", mask_level="full",
                          n_scenarios=4, duration_s=50.0)
    out = tmp_path / "run"
    assert main(["tune", "--config", config, "--seed", "3", "--out", str(out),
                 "--method", "random", "--jobs", "1"]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((out / "trials.csv").read_bytes()).hexdigest()
    assert digest == PINNED_TUNE_TRIALS_SHA256


# Every method's table on the FaaS config above, and TPE's on the synthetic
# landscape.  BO and TPE condition on the reference pair and every trial, so
# a change to how a method reads the episode's history moves its digest.
PINNED_METHOD_TRIALS_SHA256 = {
    ("faas", "fixed"): "7367c456088d77b3aed6849ea8fdc730eb76efa0db1919651e4b1c3a05b8a604",
    ("faas", "random"): PINNED_TUNE_TRIALS_SHA256,
    ("faas", "bo"): "4e40ca4444290271ac447eb80ba8c6b16a60acea84b3e4e3aafda312a37f2bef",
    ("faas", "tpe"): "fef27640f07fe7533a419717891b93edda69ad63453b9ff39105f0458e3c265e",
    ("synthetic", "tpe"): "760c8ac2382cbb4ce5667cc96979ce0ec69d44ebb206d3e4505e1d272bec9713",
}


@pytest.mark.parametrize("env_kind, method", list(PINNED_METHOD_TRIALS_SHA256),
                         ids=[f"{k}-{m}" for k, m in PINNED_METHOD_TRIALS_SHA256])
def test_every_method_trials_table_is_pinned(tmp_path, capsys, env_kind, method):
    if env_kind == "faas":
        config = write_config(tmp_path, env_kind="faas", n_scenarios=4, duration_s=50.0)
    else:
        config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["tune", "--config", config, "--seed", "3", "--out", str(out),
                 "--method", method, "--jobs", "1"]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((out / "trials.csv").read_bytes()).hexdigest()
    assert digest == PINNED_METHOD_TRIALS_SHA256[env_kind, method]


# The trials table a fixed-seed tiny agent's checkpoint gives under eval, on
# the FaaS config above and on the synthetic one, byte for byte.  Only the
# policy acts, so a change to how a checkpoint stores or loads it that
# moves any weight or action changes these digests.
PINNED_EVAL_TRIALS_SHA256 = {
    "faas": "a26798a50b16296fe32e1c9dd515033b35feb11fe1f06e123e23a22df3c2e5a8",
    "synthetic": "827f363f110b55901a1f72a5dbe0ce552da9f0b75c77d3ae5f239a518808c505",
}


@pytest.mark.parametrize("env_kind", list(PINNED_EVAL_TRIALS_SHA256))
def test_eval_trials_table_is_pinned(tmp_path, capsys, env_kind):
    if env_kind == "faas":
        config = write_config(tmp_path, env_kind="faas", n_scenarios=4, duration_s=50.0)
    else:
        config = write_config(tmp_path)
    env = make_env(load_config(config))
    checkpoint = tmp_path / "agent.ckpt"
    SacAgent(SacConfig(obs_dim=env.observation_dim, act_dim=env.action_dim,
                       hidden=(16, 16), batch_size=4, replay_capacity=16),
             seed=11).save(checkpoint)
    out = tmp_path / "run"
    assert main(["eval", "--config", config, "--seed", "3", "--out", str(out),
                 "--checkpoint", str(checkpoint), "--jobs", "1"]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((out / "trials.csv").read_bytes()).hexdigest()
    assert digest == PINNED_EVAL_TRIALS_SHA256[env_kind]


# A tiny synthetic train-agent's log, byte for byte: every loss, alpha and
# entropy it records is a float of the updates, so a change that moves any
# update's bits changes this digest.
PINNED_TRAIN_LOG_SHA256 = "bd3df9a4bad6750b46e6e68d14ac8359024aa06e9bffd6af71f6a2997fc98af0"


def test_train_agent_log_is_pinned(tmp_path, capsys):
    config = write_config(
        tmp_path, mode="train", total_env_steps=120, start_steps=40,
        num_envs=2, hidden=[16, 16], batch_size=16, replay_capacity=256,
        log_every=20)
    out = tmp_path / "agent"
    assert main(["train-agent", "--config", config, "--seed", "4",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((out / "train_log.csv").read_bytes()).hexdigest()
    assert digest == PINNED_TRAIN_LOG_SHA256


def test_train_agent_then_eval(tmp_path, capsys):
    train_config = write_config(
        tmp_path, mode="train", total_env_steps=150, start_steps=50,
        num_envs=2, hidden=[16, 16], batch_size=16, eval_every=0,
        log_every=50)
    agent_dir = tmp_path / "agent"
    assert main(["train-agent", "--config", train_config, "--seed", "2",
                 "--out", str(agent_dir)]) == 0
    assert (agent_dir / "agent.ckpt").exists()
    with open(agent_dir / "train_log.csv", newline="") as f:
        log_rows = list(csv.DictReader(f))
    assert log_rows and tuple(log_rows[0]) == LOG_COLUMNS

    eval_config = write_config(tmp_path, n_scenarios=2)
    out = tmp_path / "run"
    assert main(["eval", "--config", eval_config, "--seed", "3",
                 "--out", str(out), "--checkpoint",
                 str(agent_dir / "agent.ckpt")]) == 0
    rows = read_trials_csv(out / "trials.csv")
    assert {row["method"] for row in rows} == {"agent"}
    assert len(rows) == 2 * 5
    capsys.readouterr()


def test_train_agent_prints_one_line_per_evaluation(tmp_path, capsys):
    config = write_config(
        tmp_path, mode="train", total_env_steps=120, start_steps=40,
        num_envs=2, hidden=[8], batch_size=16, eval_every=40,
        n_eval_seeds=2, log_every=0)
    assert main(["train-agent", "--config", config, "--seed", "2",
                 "--out", str(tmp_path / "agent")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3
    for i, line in enumerate(lines, start=1):
        match = re.fullmatch(r"\[eval\] (\d+)/120 env steps: mean best "
                             r"(-?\d+\.\d{4}) improvement ([+-]\d+\.\d{4})", line)
        assert match, line
        assert int(match[1]) == 40 * i


def test_train_agent_prints_one_progress_line_per_log_row(tmp_path, capsys):
    config = write_config(
        tmp_path, mode="train", total_env_steps=120, start_steps=40,
        num_envs=2, hidden=[8], batch_size=16, log_every=20)
    out = tmp_path / "agent"
    assert main(["train-agent", "--config", config, "--seed", "2",
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().err.splitlines()
    with open(out / "train_log.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(lines) == len(rows) == 6
    for line, row in zip(lines, rows):
        match = re.fullmatch(r"\[train\] (\d+)/120 env steps: (\d+\.\d{2}) s, "
                             r"(\d+\.\d) env steps/s, (\d+\.\d) updates/s, "
                             r"mean terminal reward ([+-]\d+\.\d{4})", line)
        assert match, line
        assert match[1] == row["env_steps"]
        assert float(match[5]) == round(float(row["mean_terminal_reward"]), 4)
        # One update per env step from the 40th on: 2 per vector step of 2 envs.
        env_rate, update_rate = float(match[3]), float(match[4])
        updates = max(int(match[1]) - 40 + 2, 0)
        assert update_rate == pytest.approx(env_rate * updates / int(match[1]), abs=0.11)


def test_train_agent_with_evaluation_but_no_seeds_fails(tmp_path, capsys):
    config = write_config(tmp_path, mode="train", total_env_steps=40,
                          hidden=[8], batch_size=16, eval_every=20,
                          n_eval_seeds=0)
    out = tmp_path / "agent"
    assert main(["train-agent", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n_eval_seeds") and err.count("\n") == 1
    assert not out.exists()


def _oversized_field(text):
    return text.replace("random", "r" * 200_000, 1)


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.encode() + b"\xff\xfe\n", "not a CSV table"),
    (lambda text: _oversized_field(text).encode(), "not a CSV table"),
    (lambda text: re.sub(r"(\n(?:[^,\n]*,){6})[^,\n]+", r"\1nan", text).encode(),
     "line 2: score nan is not finite"),
    (lambda text: re.sub(r"(\n(?:[^,\n]*,){6})[^,\n]+", r"\1-inf", text).encode(),
     "line 2: score -inf is not finite"),
    # Scores lie in [0, 1]; -1e308 once overflowed the mean improvement.
    (lambda text: re.sub(r"(\n(?:[^,\n]*,){6})[^,\n]+", r"\1-0.5", text).encode(),
     "line 2: score -0.5 lies outside [0, 1]"),
    (lambda text: re.sub(r"(\n(?:[^,\n]*,){6})[^,\n]+", r"\1-1e308", text).encode(),
     "line 2: score -1e308 lies outside [0, 1]"),
    (lambda text: re.sub(r"\n((?:[^,\n]*,){3}[^,\n]*)[^\n]*", r"\n\1", text,
                         count=1).encode(),
     "line 2: row does not have the header's"),
    (lambda text: re.sub(r"\n([^\n]+)", r"\n\1,x", text, count=1).encode(),
     "line 2: row does not have the header's"),
    # int() and float() read these; the writer never puts them in.
    (lambda text: re.sub(r"(\n(?:[^,\n]*,){6})[^,\n]+", r"\g<1>0.8_0", text).encode(),
     "line 2: score '0.8_0' is not a number as this program writes it"),
    (lambda text: re.sub(r"(\n(?:[^,\n]*,){5})[^,\n]+", r"\1 1 ", text, count=1).encode(),
     "line 2: trial ' 1 ' is not a number as this program writes it"),
    (lambda text: re.sub(r"(\n(?:[^,\n]*,){5})[^,\n]+", r"\1+0", text, count=1).encode(),
     "line 2: trial '+0' is not a number as this program writes it"),
    (lambda text: re.sub(r"(\n(?:[^,\n]*,){6})[^,\n]+", r"\g<1>+0.5", text).encode(),
     "line 2: score '+0.5' is not a number as this program writes it"),
    (lambda text: re.sub(r"(\n(?:[^,\n]*,){3})[^,\n]+", r"\1" + "\u0663", text,
                         count=1).encode(),
     "line 2: scenario_seed '\u0663' is not a number as this program writes it"),
    (lambda text: re.sub(r"(\n(?:[^,\n]*,){6})[^,\n]+", r"\g<1>0.50", text).encode(),
     "line 2: score '0.50' is not a number as this program writes it"),
], ids=["non-utf8", "csv-error", "nan-score", "inf-score", "negative-score", "huge-score",
        "short-row", "long-row", "underscore-score", "spaced-trial", "plus-trial",
        "plus-score", "non-ascii-seed", "padded-score"])
def test_report_on_a_damaged_table_fails_with_one_error_line(tmp_path, capsys,
                                                             edit, message):
    out = tmp_path / "run"
    assert main(["tune", "--config", write_config(tmp_path, n_scenarios=1),
                 "--out", str(out), "--method", "random"]) == 0
    table = out / "trials.csv"
    table.write_bytes(edit(table.read_text()))
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    for name in ("summary.csv", "report.md", "scores.svg"):
        assert not (out / name).exists()


@pytest.mark.parametrize("content, message", [
    (b'{"name": "caf\xe9"}', "not UTF-8 text"),
    (b'{"batch_size": 64, "replay_capacity": 32}',
     "replay_capacity: must hold at least one batch of 64, got 32"),
], ids=["non-utf8", "replay-below-batch"])
def test_tune_with_a_bad_config_fails_with_one_error_line(tmp_path, capsys,
                                                          content, message):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    out = tmp_path / "run"
    assert main(["tune", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_a_horizon_past_the_trace_bound_fails_tune_with_one_error_line(tmp_path, capsys):
    # WorkloadSpec refuses the horizon before any arrival is drawn.
    config = write_config(tmp_path, env_kind="faas", n_scenarios=1, duration_s=1e12)
    out = tmp_path / "run"
    assert main(["tune", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: duration_s 1e+12 at ") and err.count("\n") == 1
    assert "above the bound of 1000000" in err
    assert not (out / "trials.csv").exists()


@pytest.mark.parametrize("command, overrides", [
    ("tune", {"n_scenarios": 5}),
    ("train-agent", {"mode": "train", "eval_every": 8}),
], ids=["tune", "train-agent-test-mode-eval"])
def test_a_horizon_the_domain_could_push_past_the_trace_bound_fails_at_load(
        tmp_path, capsys, command, overrides):
    # 50 000 s at the test domain's 30 requests per second; train-agent
    # evaluates in test mode, so its eval env is held to that rate too.
    config = write_config(tmp_path, env_kind="faas", duration_s=50000, **overrides)
    out = tmp_path / "run"
    assert main([command, "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: duration_s 50000 at the test domain's top rate of 30 ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_simulate_with_a_synthetic_config_fails_with_one_error_line(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", write_config(tmp_path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: env_kind: ") and err.count("\n") == 1
    assert "'synthetic'" in err
    assert not out.exists()


def test_trials_table_with_other_columns_fails_with_one_error_line(tmp_path, capsys):
    out = tmp_path / "run"
    faas = write_config(tmp_path, env_kind="faas", mode="train",
                        duration_s=20.0, n_scenarios=1)
    assert main(["tune", "--config", faas, "--seed", "1",
                 "--out", str(out), "--method", "random"]) == 0
    before = (out / "trials.csv").read_text()
    synthetic = write_config(tmp_path, n_scenarios=1)
    capsys.readouterr()
    assert main(["tune", "--config", synthetic, "--seed", "1",
                 "--out", str(out), "--method", "random"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'w_least_allocated'" in err and "'z_x'" in err
    assert (out / "trials.csv").read_text() == before


def test_tune_into_an_empty_trials_table_writes_its_header_once(tmp_path):
    config = write_config(tmp_path, n_scenarios=2)
    fresh, empty = tmp_path / "fresh", tmp_path / "empty"
    empty.mkdir()
    (empty / "trials.csv").touch()
    for out in (fresh, empty):
        assert main(["tune", "--config", config, "--seed", "4",
                     "--out", str(out), "--method", "random"]) == 0
    text = (empty / "trials.csv").read_text()
    assert text.count("scenario_seed") == 1
    assert text == (fresh / "trials.csv").read_text()


def test_simulate_appends_run_records(tmp_path, capsys):
    config = write_config(tmp_path, env_kind="faas", mode="train",
                          duration_s=20.0)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", config, "--seed", "4",
                 "--out", str(out)]) == 0
    assert main(["simulate", "--config", config, "--seed", "5",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "runrecords.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    assert {row["scenario_seed"] for row in rows} == {"4", "5"}
    for row in rows:
        assert row["schema_version"] == "1"
        assert int(row["n_success"]) <= int(row["n_total"])
        assert 0.0 <= float(row["benchmark_score"]) <= 1.0
    text = (out / "runrecords.csv").read_text()
    assert text.count("schema_version,") == 1  # single header after append


def test_simulate_reports_the_r0_that_tune_records(tmp_path, capsys):
    config = write_config(tmp_path, env_kind="faas", mode="train",
                          duration_s=20.0, n_scenarios=2)
    assert main(["tune", "--config", config, "--seed", "0", "--method", "fixed",
                 "--out", str(tmp_path / "tune")]) == 0
    references = [row for row in read_trials_csv(tmp_path / "tune" / "trials.csv")
                  if row["trial"] == 0]
    assert len(references) == 2
    for ref in references:
        out = tmp_path / f"sim-{ref['scenario_seed']}"
        assert main(["simulate", "--config", config, "--seed", str(ref["scenario_seed"]),
                     "--out", str(out)]) == 0
        with open(out / "runrecords.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["scenario_digest"] for row in rows} == {ref["scenario_digest"]}
        assert {row["benchmark_score"] for row in rows} == {f"{ref['score']:.6f}"}


def test_agent_method_requires_checkpoint(tmp_path, capsys):
    config = write_config(tmp_path)
    code = main(["eval", "--config", config, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "requires --checkpoint" in capsys.readouterr().err
    # the agent is evaluated with `eval` only; `tune` takes baselines
    for extra in (["--method", "agent"], ["--checkpoint", "agent.ckpt"]):
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--config", config, "--out", str(tmp_path / "x")] + extra)
        assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command, jobs, extra", [
    ("tune", "0", []),
    ("eval", "-1", ["--checkpoint", "agent.ckpt"]),
])
def test_nonpositive_jobs_fail_with_one_error_line(tmp_path, capsys, command,
                                                   jobs, extra):
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main([command, "--config", config, "--out", str(out),
                 "--jobs", jobs] + extra) == 2
    err = capsys.readouterr().err
    assert err == f"error: --jobs: expected a positive integer, got {jobs}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("simulate", []),
    ("tune", []),
    ("train-agent", []),
    ("eval", ["--checkpoint", "agent.ckpt"]),
])
def test_negative_seed_fails_with_one_error_line(tmp_path, capsys, command, extra):
    # numpy's SeedSequence refuses it only after --out exists, with a traceback
    config = write_config(tmp_path, env_kind="faas", n_scenarios=1, duration_s=5.0,
                          total_env_steps=8, num_envs=1, hidden=[8], batch_size=4)
    out = tmp_path / "run"
    assert main([command, "--config", config, "--out", str(out),
                 "--seed", "-1"] + extra) == 2
    err = capsys.readouterr().err
    assert err == "error: --seed: expected a non-negative integer, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command, overrides", [
    ("simulate", {"env_kind": "faas", "duration_s": 5.0}),
    ("tune", {}),
    ("train-agent", {"mode": "train", "total_env_steps": 8, "num_envs": 1,
                     "hidden": [8], "batch_size": 4}),
], ids=["simulate", "tune", "train-agent"])
def test_an_out_below_a_file_fails_with_one_error_line(tmp_path, capsys, command,
                                                        overrides):
    # mkdir raises NotADirectoryError, an OSError, not a SchedTuneError.
    config = write_config(tmp_path, **overrides)
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory\n")
    out = blocker / "x"
    assert main([command, "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert blocker.read_text() == "not a directory\n"


# A tiny synthetic run of each command that writes files into --out.
_TRAIN = {"mode": "train", "total_env_steps": 16, "start_steps": 8, "num_envs": 2,
          "hidden": [8], "batch_size": 4, "replay_capacity": 64, "log_every": 8}
_SIMULATE = {"env_kind": "faas", "duration_s": 5.0}


@pytest.mark.parametrize("command, overrides, name", [
    ("simulate", _SIMULATE, "runrecords.csv"),
    ("tune", {}, "trials.csv"),
    ("train-agent", _TRAIN, "train_log.csv"),
    ("train-agent", _TRAIN, "agent.ckpt"),
    ("report", {}, "summary.csv"),
    ("report", {}, "scores.svg"),
    ("report", {}, "report.md"),
])
def test_an_output_that_cannot_be_written_fails_with_one_error_line(
        tmp_path, capsys, command, overrides, name):
    # A directory where the file goes: opening it, or replacing it with the
    # checkpoint's temporary file, raises IsADirectoryError, an OSError.
    config = write_config(tmp_path, **overrides)
    out = tmp_path / "run"
    if command == "report":
        assert main(["tune", "--config", config, "--out", str(out)]) == 0
    (out / name).mkdir(parents=True)
    capsys.readouterr()
    assert main([command, "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith(f"error: cannot write {out / name}: ")
    assert (out / name).is_dir() and not list((out / name).iterdir())
    assert not [p for p in out.iterdir() if p.suffix == ".tmp"]


def test_a_disk_that_fills_during_the_checkpoint_fails_with_one_error_line(
        tmp_path, capsys, monkeypatch):
    real_open = open

    class DiskFull(io.FileIO):
        def write(self, data):
            raise OSError(28, "No space left on device")

    def failing_open(file, mode="r", *args, **kwargs):
        return DiskFull(file, mode) if "wb" in mode else real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(agent_module, "open", failing_open, raising=False)
    config = write_config(tmp_path, **_TRAIN)
    out = tmp_path / "run"
    assert main(["train-agent", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == (f"error: cannot write {out / 'agent.ckpt'}: "
                       f"[Errno 28] No space left on device")
    assert sorted(p.name for p in out.iterdir()) == ["train_log.csv"]


def _die(task):
    os._exit(1)   # as the kernel's out-of-memory killer would end a worker


def test_a_dead_worker_fails_tune_with_one_error_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_tune_worker", _die)
    config = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["tune", "--config", config, "--seed", "4", "--jobs", "2",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: scenario 1 of 3 (seed "
                                       f"{scenario_seeds(4, 3)[0]}): worker process died\n")
    assert not (out / "trials.csv").exists()


def _array_offset(raw, name):
    """Offset in checkpoint bytes ``raw`` of the first byte of array ``name``."""
    header_len = struct.unpack("<Q", raw[8:16])[0]
    offset = 16 + header_len
    for array, (length,) in json.loads(raw[16:offset])["arrays"]:
        if array == name:
            return offset
        offset += 4 * length
    raise KeyError(name)


def _damage_checkpoint(path, damage):
    agent = SacAgent(SacConfig(obs_dim=24, act_dim=2, hidden=(8,),
                               batch_size=4, replay_capacity=16), seed=1)
    if damage == "version-3":
        _forge_checkpoint(path, agent, version=3)
    elif damage == "f8-payload":
        _forge_checkpoint(path, agent, dtype="<f8")
    elif damage == "negative-hidden":
        agent.save(path)
        raw = path.read_bytes()
        header_len = struct.unpack("<Q", raw[8:16])[0]
        blob = raw[16:16 + header_len].replace(b'"hidden": [8]', b'"hidden": [-8]')
        _write_checkpoint(path, blob, raw[16 + header_len:])
    elif damage.startswith("header:"):   # header:<key>=<raw JSON token>
        key, token = damage[len("header:"):].split("=")
        agent.save(path)
        raw = path.read_bytes()
        header_len = struct.unpack("<Q", raw[8:16])[0]
        blob, n = re.subn(rf'"{key}": [^,}}]+'.encode(), f'"{key}": {token}'.encode(),
                          raw[16:16 + header_len])
        assert n == 1
        _write_checkpoint(path, blob, raw[16 + header_len:])
    elif damage.startswith("old-setting:"):   # a v2 config key this build does not take
        setting = {"target_entropy": b'"target_entropy": -2.0, ',
                   "updates_per_step": b'"updates_per_step": 1, '}[damage.split(":")[1]]
        agent.save(path)
        raw = path.read_bytes()
        header_len = struct.unpack("<Q", raw[8:16])[0]
        blob = raw[16:16 + header_len].replace(b'"config": {', b'"config": {' + setting)
        _write_checkpoint(path, blob, raw[16 + header_len:])
    elif damage == "repeated-key":
        agent.save(path)
        raw = path.read_bytes()
        header_len = struct.unpack("<Q", raw[8:16])[0]
        blob = raw[16:16 + header_len]
        assert blob.startswith(b'{"arrays"')
        _write_checkpoint(path, b'{"env_steps": 0, ' + blob[1:], raw[16 + header_len:])
    elif damage == "oversized-hidden":
        # A consistent header for 4.4 PB of arrays, and no payload.
        config = SacConfig(obs_dim=24, act_dim=2, hidden=(10_000_000, 10_000_000))
        header = {"config": asdict(config),
                  "arrays": [[n, [length]] for n, length in checkpoint_layout(config)],
                  "env_steps": 0, "grad_steps": 0,
                  "payload_sha256": hashlib.sha256(b"").hexdigest(), "dtype": "<f4"}
        _write_checkpoint(path, json.dumps(header).encode())
    else:
        agent.save(path)
        raw = bytearray(path.read_bytes())
        if damage == "truncated":
            del raw[-10:]
        elif damage == "flipped-byte":
            raw[-3] ^= 0x01
        else:   # flip a byte inside the named array
            raw[_array_offset(raw, damage.split(":")[1]) + 5] ^= 0x01
        path.write_bytes(bytes(raw))


@pytest.mark.parametrize("damage, message", [
    ("version-3", "unsupported checkpoint version 3, expected 4"),
    ("f8-payload", "holds '<f8' arrays, this build reads '<f4'"),
    ("truncated", "payload is"),
    ("flipped-byte", "payload does not match its digest"),
    ("flipped:policy", "payload does not match its digest"),
    ("flipped:q2", "payload does not match its digest"),
    ("flipped:opt_critic.v1", "payload does not match its digest"),
    ("oversized-hidden", "payload is 0 bytes, expected 4400012880000092"),
    ("negative-hidden", "malformed header: ConfigError"),
    # The payload digest does not cover the header, so its config is checked.
    ("header:lr=NaN", "malformed header: ConfigError lr"),
    ("header:lr=Infinity", "malformed header: ConfigError lr"),
    ("header:lr=-Infinity", "malformed header: ConfigError lr"),
    # Adam's bias correction at step grad_steps + 1 would be 1 - beta**0 = 0.
    ("header:grad_steps=-1",
     "malformed header: ValueError negative step count: env_steps 0, grad_steps -1"),
    ("old-setting:target_entropy", "malformed header: TypeError"),
    ("old-setting:updates_per_step", "malformed header: TypeError"),
    # Which of two values counts is not for the loader to guess.
    ("repeated-key", "corrupt header: repeated key 'env_steps'"),
])
def test_bad_checkpoint_fails_eval_with_one_error_line(tmp_path, capsys,
                                                        damage, message):
    checkpoint = tmp_path / "agent.ckpt"
    _damage_checkpoint(checkpoint, damage)
    out = tmp_path / "run"
    assert main(["eval", "--config", write_config(tmp_path, n_scenarios=1),
                 "--out", str(out), "--checkpoint", str(checkpoint)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not (out / "trials.csv").exists()


def test_bad_config_fails_cleanly(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n_scenarios": 0}')
    code = main(["tune", "--config", str(path), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "n_scenarios" in capsys.readouterr().err


def test_report_without_trials_fails_cleanly(tmp_path, capsys):
    code = main(["report", "--out", str(tmp_path / "empty")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unpaired_methods_fail_with_one_error_line(tmp_path, capsys):
    config = write_config(tmp_path, n_scenarios=2)
    out = str(tmp_path / "run")
    assert main(["tune", "--config", config, "--seed", "1",
                 "--out", out, "--method", "random"]) == 0
    assert main(["tune", "--config", config, "--seed", "2",
                 "--out", out, "--method", "fixed"]) == 0
    capsys.readouterr()
    assert main(["report", "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "fixed" in err and "random" in err
    for name in ("summary.csv", "report.md", "scores.svg"):
        assert not (tmp_path / "run" / name).exists()


def test_compare_is_not_a_command(tmp_path, capsys):
    # report prints the per-method table; there is no second summary command.
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'compare'" in capsys.readouterr().err


def test_unknown_method_rejected_by_parser(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tune", "--out", str(tmp_path / "x"), "--method", "grid"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_out_flag_is_required(capsys):
    with pytest.raises(SystemExit):
        main(["tune", "--method", "random"])
    capsys.readouterr()


def _drop(entry, field):
    del entry[field]


def _set_all(entries, field, value):
    for entry in entries:
        entry[field] = value


def _edge_tpu_sums_to_0_9(payload):
    payload["presets"]["edge_tpu"]["coral_devboard"] = 0.25


def write_data_dir(tmp_path, file_name=None, edit=None):
    """A copy of the packaged data files, with ``edit`` applied to
    ``file_name``'s payload (its return value, if any, replaces it)."""
    data = tmp_path / "data"
    data.mkdir()
    for name in ("devices.json", "presets.json", "functions.json"):
        payload = json.loads((data_dir() / name).read_text())
        if name == file_name:
            payload = edit(payload) or payload
        if not isinstance(payload, bytes):
            payload = json.dumps(payload).encode()
        (data / name).write_bytes(payload)
    return data


@pytest.mark.parametrize("file_name, edit, where", [
    ("functions.json", lambda p: _drop(p["functions"][0], "image_name"),
     "functions[0].image_name: missing"),
    ("functions.json", lambda p: p["functions"][2].update(req_cpu="2"),
     "functions[2].req_cpu: expected a number"),
    ("functions.json", lambda p: p.update(functions={}),
     "functions: expected a list"),
    ("devices.json", lambda p: p["devices"][1].update(cpu_cores="32"),
     "devices[1].cpu_cores: expected an integer"),
    ("devices.json", lambda p: p["devices"].__setitem__(0, "xeon_cpu"),
     "devices[0]: expected an object"),
    ("presets.json", lambda p: p["presets"]["edge_sbc"].update(rpi3=None),
     "presets.edge_sbc.rpi3: expected a number"),
    ("presets.json", lambda p: _drop(p, "presets"), "presets: missing"),
    ("presets.json", lambda p: [p], "top level: expected an object"),
    # JSON parsing accepts NaN and Infinity; every number must be finite.
    ("functions.json", lambda p: _set_all(p["functions"], "base_exec_s", math.nan),
     "functions[0].base_exec_s: expected a finite number, got nan"),
    ("functions.json", lambda p: p["functions"][1].update(req_cpu=math.nan),
     "functions[1].req_cpu: expected a finite number"),
    ("functions.json", lambda p: p["functions"][2].update(req_mem_mb=math.inf),
     "functions[2].req_mem_mb: expected a finite number, got inf"),
    ("functions.json", lambda p: p["functions"][0].update(image_bytes=math.inf),
     "functions[0].image_bytes: expected a finite number"),
    ("functions.json", lambda p: p["functions"][3].update(dataset_bytes=-math.inf),
     "functions[3].dataset_bytes: expected a finite number, got -inf"),
    ("devices.json", lambda p: p["devices"][2].update(speed_factor=math.nan),
     "devices[2].speed_factor: expected a finite number"),
    ("presets.json", lambda p: p["presets"]["edge_sbc"].update(rpi3=math.inf),
     "presets.edge_sbc.rpi3: expected a finite number"),
    ("devices.json", lambda p: p["devices"][0].update(memory_mb=10**400),
     "devices[0].memory_mb: expected a finite number"),
    # A file that is not UTF-8 fails as one error, not a decoding traceback.
    ("devices.json", lambda p: b"\xff" + json.dumps(p).encode(), "not UTF-8 text (byte 0"),
    ("functions.json", lambda p: json.dumps(p).encode("utf-16"), "not UTF-8 text (byte 0"),
    # Every preset is checked when the data is loaded, not when a scenario
    # draws it: a train-mode run never draws edge_tpu.
    ("presets.json", _edge_tpu_sums_to_0_9, "presets.edge_tpu: fractions sum to 0.9, expected 1"),
    ("presets.json", lambda p: p["presets"]["edge_tpu"].update(coral_devboard=1.5),
     "presets.edge_tpu.coral_devboard: expected a fraction in [0, 1], got 1.5"),
    ("presets.json", lambda p: p["presets"]["edge_tpu"].update(
        tpu_pod=p["presets"]["edge_tpu"].pop("coral_devboard")),
     "presets.edge_tpu.tpu_pod: unknown device"),
    ("presets.json", lambda p: _drop(p["presets"], "edge_tpu"), "presets.edge_tpu: missing"),
    # Names are unique per file.
    ("devices.json", lambda p: p["devices"].append(dict(p["devices"][0])),
     "devices[9].name: duplicate name 'xeon_cpu'"),
    ("functions.json", lambda p: p["functions"].append(dict(p["functions"][0])),
     "functions[8].name: duplicate name 'resnet50_training'"),
    # A value the entry's own class refuses names the file and the entry.
    ("devices.json", lambda p: p["devices"][0].update(cpu_cores=0),
     "devices[0]: xeon_cpu: cpu_cores must be >= 1"),
    ("devices.json", lambda p: p["devices"][1].update(memory_mb=0),
     "devices[1]: xeon_gpu: memory_mb must be > 0"),
    ("devices.json", lambda p: p["devices"][3].update(speed_factor=13),
     "devices[3]: rpi3: speed_factor must lie in [1, 12]"),
    ("devices.json", lambda p: p["devices"][4].update(accelerator="fpga"),
     "devices[4]: rpi4: unknown accelerator 'fpga'"),
    ("devices.json", lambda p: p["devices"][5].update(locality="orbit"),
     "devices[5]: nvidia_nano: unknown locality 'orbit'"),
    ("functions.json", lambda p: p["functions"][0].update(req_cpu=0),
     "functions[0]: resnet50_training: resource requests must be positive"),
    ("functions.json", lambda p: p["functions"][1].update(req_mem_mb=0),
     "functions[1]: resnet50_preprocessing: resource requests must be positive"),
    ("functions.json", lambda p: p["functions"][2].update(image_bytes=-1),
     "functions[2]: resnet50_inference: byte sizes must be nonnegative"),
    ("functions.json", lambda p: p["functions"][3].update(base_exec_s=0),
     "functions[3]: mobilenet_inference: base_exec_s must be positive"),
    ("functions.json", lambda p: p["functions"][5].update(preferred_accelerator="fpga"),
     "functions[5]: mobilenet_training: unknown accelerator 'fpga'"),
    ("functions.json", lambda p: p["functions"][6].update(preferred_locality="orbit"),
     "functions[6]: speech_preprocessing: unknown locality 'orbit'"),
    # The training flag defines the training set, so it is required and a
    # boolean, and a catalog without a training function is refused.
    ("functions.json", lambda p: _drop(p["functions"][6], "training"),
     "functions[6].training: missing"),
    ("functions.json", lambda p: p["functions"][0].update(training=1),
     "functions[0].training: expected a boolean, got int"),
    ("functions.json", lambda p: _set_all(p["functions"], "training", False),
     "functions: no entry has \"training\": true"),
    # A line break in a name read from the file stays inside the one line.
    ("devices.json", lambda p: p["devices"][0].update(name="xeon\ncpu", cpu_cores=0),
     "devices[0]: xeon\\ncpu: cpu_cores must be >= 1"),
    ("presets.json", lambda p: p["presets"]["edge_tpu"].update(
        {"tpu\npod": p["presets"]["edge_tpu"].pop("coral_devboard")}),
     "presets.edge_tpu.tpu\\npod: unknown device"),
    # A repeated key is refused, not read as its last value.
    ("presets.json", lambda p: json.dumps(p).replace(
        '"cloud_cpu": {', '"cloud_cpu": {"xeon_cpu": 0.5, ', 1).encode(),
     "repeated key 'xeon_cpu'"),
    # An integer literal past Python's digit limit is refused by the parser.
    ("devices.json", lambda p: json.dumps(p).replace(
        '"cpu_cores": 32', '"cpu_cores": ' + "1" * 5000, 1).encode(), ""),
])
def test_malformed_data_file_fails_with_one_error_line(tmp_path, capsys,
                                                        file_name, edit, where):
    data = write_data_dir(tmp_path, file_name, edit)
    config = write_config(tmp_path, env_kind="faas", mode="train",
                          duration_s=20.0, data_dir=str(data))
    assert main(["simulate", "--config", config, "--out",
                 str(tmp_path / "sim")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"{file_name}: {where}" in err


def test_a_line_break_in_a_config_key_stays_inside_the_one_error_line(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"\\nv_kind": "faas"}')
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 2
    assert capsys.readouterr().err == "error: \\nv_kind: unknown field\n"


def test_a_config_past_the_integer_digit_limit_fails_with_one_error_line(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"n_scenarios": ' + "1" * 5000 + "}")
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {config}: ")


@pytest.mark.parametrize("command, settings", [
    (["tune", "--method", "random"], {"mode": "test", "n_scenarios": 12}),
    (["train-agent"], {"mode": "train", "total_env_steps": 8, "num_envs": 1,
                       "hidden": [8], "batch_size": 4, "start_steps": 4,
                       "eval_every": 4, "n_eval_seeds": 1}),
])
def test_a_broken_preset_fails_before_any_work(tmp_path, capsys, command, settings):
    data = write_data_dir(tmp_path, "presets.json", _edge_tpu_sums_to_0_9)
    config = write_config(tmp_path, env_kind="faas", duration_s=20.0,
                          data_dir=str(data), **settings)
    out = tmp_path / "out"
    assert main(command + ["--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {data / 'presets.json'}: presets.edge_tpu: fractions sum to 0.9, "
        f"expected 1\n")
    assert not out.exists()


def test_an_unschedulable_scenario_fails_simulate_before_out_exists(tmp_path, capsys):
    # No device has more than 32 cores, so every draw fails its warm-up.
    data = write_data_dir(tmp_path, "functions.json",
                          lambda p: _set_all(p["functions"], "req_cpu", 1000))
    config = write_config(tmp_path, env_kind="faas", mode="train",
                          duration_s=20.0, data_dir=str(data))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: could not find a schedulable scenario in 10 attempts: "
                          "no feasible node for function ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_an_unschedulable_scenario_fails_tune_naming_its_position_and_seed(
        tmp_path, capsys, jobs):
    # A pool worker's error crosses back to the same one line.
    data = write_data_dir(tmp_path, "functions.json",
                          lambda p: _set_all(p["functions"], "req_cpu", 1000))
    config = write_config(tmp_path, env_kind="faas", mode="train",
                          duration_s=20.0, data_dir=str(data))
    assert main(["tune", "--config", config, "--seed", "4", "--method", "fixed",
                 "--jobs", jobs, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: scenario 1 of 3 (seed {scenario_seeds(4, 3)[0]}): "
                          f"could not find a schedulable scenario in 10 attempts: "
                          f"no feasible node for function ")
    assert err.count("\n") == 1


def test_a_mid_run_failure_names_the_failing_scenario(tmp_path, monkeypatch, capsys):
    # The second scenario's draw fails; the first one's finished.
    config = write_config(tmp_path, env_kind="faas", duration_s=20.0)
    real_draw, calls = FaasTuningEnv.draw_scenario, []

    def draw(env, rng):
        calls.append(rng)
        if len(calls) == 2:
            raise ConfigError("injected")
        return real_draw(env, rng)

    monkeypatch.setattr(FaasTuningEnv, "draw_scenario", draw)
    assert main(["tune", "--config", config, "--seed", "4", "--method", "fixed",
                 "--out", str(tmp_path / "run")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    progress, error = err.splitlines()
    assert progress.startswith("[1/3] scenario ")
    assert error == f"error: scenario 2 of 3 (seed {scenario_seeds(4, 3)[1]}): injected"


def test_a_repeated_config_key_fails_with_one_error_line(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"env_kind": "synthetic", "n_scenarios": 5, "n_scenarios": 7}')
    out = tmp_path / "out"
    assert main(["tune", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {config}: repeated key 'n_scenarios'\n"
    assert not out.exists()


def test_tune_and_eval_read_each_data_file_once(tmp_path, monkeypatch, capsys):
    config = write_config(tmp_path, env_kind="faas", duration_s=20.0, n_scenarios=3)
    env = make_env(load_config(config))
    checkpoint = tmp_path / "agent.ckpt"
    SacAgent(SacConfig(obs_dim=env.observation_dim, act_dim=env.action_dim, hidden=(8,),
                       batch_size=4, replay_capacity=16), seed=1).save(checkpoint)
    reads = _record_reads(monkeypatch)
    for command in (["tune", "--method", "random"], ["eval", "--checkpoint", str(checkpoint)]):
        reads.clear()
        assert main(command + ["--config", config, "--out", str(tmp_path / command[0])]) == 0
        assert sorted(path.name for path in reads) == list(DATA_FILES)
    capsys.readouterr()


@pytest.mark.parametrize("num_envs", [1, 4])
def test_train_agent_without_evaluations_reads_each_data_file_once(tmp_path, monkeypatch,
                                                                    capsys, num_envs):
    # The training envs share one read of the data and, with eval_every 0,
    # no evaluation env reads it again.
    config = write_config(tmp_path, env_kind="faas", mode="train", duration_s=20.0,
                          total_env_steps=4, num_envs=num_envs, hidden=[8], batch_size=4,
                          replay_capacity=16, start_steps=4, eval_every=0)
    reads = _record_reads(monkeypatch)
    assert main(["train-agent", "--config", config, "--out", str(tmp_path / "agent")]) == 0
    assert sorted(path.name for path in reads) == list(DATA_FILES)
    capsys.readouterr()


# 10**400 is past float range, so the config refuses it; the arena of the
# other two cannot be mapped in any 64-bit Linux address space, so no test
# touches real memory.
@pytest.mark.parametrize("width, message", [
    (10**400, "hidden[0]: expected a finite number"),
    (10**30, "-byte arena"),
    (2**50, "-byte arena"),
], ids=["10**400", "10**30", "2**50"])
def test_a_huge_layer_width_fails_train_agent_with_one_error_line(tmp_path, capsys,
                                                                   width, message):
    config = write_config(tmp_path, mode="train", total_env_steps=8, num_envs=1,
                          hidden=[width], batch_size=4, replay_capacity=16,
                          start_steps=4)
    out = tmp_path / "agent"
    assert main(["train-agent", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


# 10**13 transitions need petabytes, more than any 64-bit Linux address
# space, so the system refuses the buffer outright and no test touches real
# memory.
def test_a_huge_replay_capacity_fails_train_agent_with_one_error_line(tmp_path, capsys):
    config = write_config(tmp_path, mode="train", total_env_steps=8, num_envs=1,
                          hidden=[8], batch_size=4, replay_capacity=10**13,
                          start_steps=4)
    out = tmp_path / "agent"
    assert main(["train-agent", "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(r"replay_capacity: cannot allocate a \d+-byte replay buffer", err)
    assert not out.exists()
