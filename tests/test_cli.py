"""Command line behavior, driven through main()."""
import csv
import hashlib
import json
import math
import re
import struct
from dataclasses import asdict

import pytest

from schedtune.agent import LOG_COLUMNS, SacAgent, SacConfig, checkpoint_layout
from schedtune.cli import main, scenario_seeds
from schedtune.data import data_dir
from schedtune.report import read_trials_csv
from tests.test_agent import _forge_checkpoint, _write_checkpoint


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


def test_tune_compare_report_round_trip(tmp_path, capsys):
    config = write_config(tmp_path)
    out = str(tmp_path / "run")
    for method in ("fixed", "random"):
        assert main(["tune", "--config", config, "--seed", "5",
                     "--out", out, "--method", method]) == 0
    assert main(["compare", "--out", out]) == 0
    table = capsys.readouterr().out
    assert "fixed" in table and "random" in table

    with open(tmp_path / "run" / "summary.csv", newline="") as fh:
        summaries = list(csv.DictReader(fh))
    assert [s["method"] for s in summaries] == ["fixed", "random"]
    fixed, random = summaries
    # same master seed => both methods tuned identical scenarios
    assert fixed["mean_reference"] == random["mean_reference"]
    assert fixed["n_scenarios"] == random["n_scenarios"] == "3"
    assert float(fixed["mean_improvement"]) == 0.0

    assert main(["report", "--config", config, "--out", out]) == 0
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


def test_train_agent_then_eval(tmp_path, capsys):
    train_config = write_config(
        tmp_path, mode="train", total_env_steps=150, start_steps=50,
        num_envs=2, hidden=[16, 16], batch_size=16, eval_every=0,
        log_every=50)
    agent_dir = tmp_path / "agent"
    assert main(["train-agent", "--config", train_config, "--seed", "2",
                 "--out", str(agent_dir)]) == 0
    assert (agent_dir / "agent.ckpt").exists()
    log_rows = list(csv.DictReader(open(agent_dir / "train_log.csv")))
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
], ids=["non-utf8", "csv-error", "nan-score", "inf-score"])
def test_compare_on_a_damaged_table_fails_with_one_error_line(tmp_path, capsys,
                                                              edit, message):
    out = tmp_path / "run"
    assert main(["tune", "--config", write_config(tmp_path, n_scenarios=1),
                 "--out", str(out), "--method", "random"]) == 0
    table = out / "trials.csv"
    table.write_bytes(edit(table.read_text()))
    capsys.readouterr()
    assert main(["compare", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not (out / "summary.csv").exists()


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


def _array_offset(raw, name):
    """Offset in checkpoint bytes ``raw`` of the first byte of array ``name``."""
    header_len = struct.unpack("<Q", raw[8:16])[0]
    offset = 16 + header_len
    for array, shape in json.loads(raw[16:offset])["arrays"]:
        if array == name:
            return offset
        offset += 4 * math.prod(shape)
    raise KeyError(name)


def _damage_checkpoint(path, damage):
    agent = SacAgent(SacConfig(obs_dim=24, act_dim=2, hidden=(8,),
                               batch_size=4, replay_capacity=16), seed=1)
    if damage == "version-1":   # the float64 layout with no dtype field
        _forge_checkpoint(path, agent, dtype="<f8", drop=["dtype"], version=1)
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
    elif damage == "oversized-hidden":
        # A consistent header for 4.4 PB of arrays, and no payload.
        config = SacConfig(obs_dim=24, act_dim=2, hidden=(10_000_000, 10_000_000))
        header = {"config": asdict(config),
                  "arrays": [[n, list(s)] for n, s in checkpoint_layout(config)],
                  "env_steps": 0, "grad_steps": 0,
                  "adam_steps": {"opt_policy": 0, "opt_critic": 0, "opt_alpha": 0},
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
    ("version-1", "unsupported checkpoint version 1, expected 2"),
    ("f8-payload", "holds '<f8' arrays, this build reads '<f4'"),
    ("truncated", "payload is"),
    ("flipped-byte", "payload does not match its digest"),
    ("flipped:policy.w0", "payload does not match its digest"),
    ("flipped:q2.w0", "payload does not match its digest"),
    ("flipped:opt_critic.v1", "payload does not match its digest"),
    ("oversized-hidden", "payload is 0 bytes, expected 4400012880000092"),
    ("negative-hidden", "malformed header: ConfigError"),
    # The payload digest does not cover the header, so its config is checked.
    ("header:lr=NaN", "malformed header: ConfigError lr"),
    ("header:lr=Infinity", "malformed header: ConfigError lr"),
    ("header:lr=-Infinity", "malformed header: ConfigError lr"),
    ('header:target_entropy="x"', "malformed header: ConfigError target_entropy"),
    ("header:target_entropy=NaN", "malformed header: ConfigError target_entropy"),
    ("header:target_entropy=Infinity", "malformed header: ConfigError target_entropy"),
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


def test_compare_without_trials_fails_cleanly(tmp_path, capsys):
    code = main(["compare", "--out", str(tmp_path / "empty")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compare", "report"])
def test_unpaired_methods_fail_with_one_error_line(tmp_path, capsys, command):
    config = write_config(tmp_path, n_scenarios=2)
    out = str(tmp_path / "run")
    assert main(["tune", "--config", config, "--seed", "1",
                 "--out", out, "--method", "random"]) == 0
    assert main(["tune", "--config", config, "--seed", "2",
                 "--out", out, "--method", "fixed"]) == 0
    capsys.readouterr()
    assert main([command, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "fixed" in err and "random" in err
    assert not (tmp_path / "run" / "summary.csv").exists()


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
])
def test_malformed_data_file_fails_with_one_error_line(tmp_path, capsys,
                                                        file_name, edit, where):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("devices.json", "presets.json", "functions.json"):
        payload = json.loads((data_dir() / name).read_text())
        if name == file_name:
            payload = edit(payload) or payload
        (data / name).write_text(json.dumps(payload))
    config = write_config(tmp_path, env_kind="faas", mode="train",
                          duration_s=20.0, data_dir=str(data))
    assert main(["simulate", "--config", config, "--out",
                 str(tmp_path / "sim")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert f"{file_name}: {where}" in err
