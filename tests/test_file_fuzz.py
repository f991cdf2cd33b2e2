"""Fuzz the data-file, config and trials-table boundaries.

Each data-file example damages one of the packaged files and runs a
train-mode ``schedtune simulate`` of 20 s on the copy: the run must exit 0,
or exit 2 with exactly one stderr line that starts with ``error:``.  The
scenario's size comes from the config and the domain space, never from the
data files, so no example can start a large run.  Each config example
damages a full config and only loads it, so no mutation can start a run at
all: it must load, or fail with a ``ConfigError`` (``main`` prints any
``ConfigError`` as one line).  Each table example damages a small
``trials.csv`` of two methods and runs ``report`` on it: it must exit 0, or
exit 2 with exactly one ``error:`` line.
"""
import contextlib
import csv
import io
import json
import shutil

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from schedtune.cli import main
from schedtune.config import ExperimentConfig, load_config
from schedtune.data import data_dir
from schedtune.errors import ConfigError
from tests.test_cli import write_config

FUZZ = settings(max_examples=100, deadline=None)
DATA_FILES = ("devices.json", "presets.json", "functions.json")
PACKAGED = {name: (data_dir() / name).read_bytes() for name in DATA_FILES}
CONFIG = ExperimentConfig().to_dict()

# Raw JSON tokens a value can become: non-finite, huge (past float range,
# past Python's integer digit limit) or of another type.
TOKENS = st.one_of(
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1" * 5000,
                     "1" + "0" * 400, "1e308", "0", "-1", "0.5", "13", "null", "true",
                     "false", '"8"', '""', "[]", "{}", "[8, 8]"]),
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(json.dumps),
)
# Raw JSON strings a key can be renamed to.
KEYS = st.text(max_size=12).map(json.dumps)
EDITS = ("replace", "drop", "repeat", "rename")
PLACEHOLDER = "\x00value"   # stands in for the token until the payload is text


def value_paths(value, parents=()):
    """The key path to every value nested in ``value``, itself excluded."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    paths = []
    for key, child in items:
        paths.append(parents + (key,))
        paths.extend(value_paths(child, parents + (key,)))
    return paths


# Each data file's name, with the path to one of its values.
TARGETS = [(name, path) for name, raw in PACKAGED.items() for path in value_paths(json.loads(raw))]
CONFIG_PATHS = value_paths(CONFIG)


def edited(payload, edit: str, path, token: str, first: bool) -> bytes:
    """``payload`` as JSON with the value at ``path`` replaced by the raw
    ``token``, dropped, its key renamed to ``token`` (a JSON string), or its
    key repeated with ``token`` as the value, first or last in its object;
    any other ``edit`` leaves it as it is."""
    *parents, last = path
    owner = payload
    for key in parents:
        owner = owner[key]
    body = json.dumps(owner)
    if edit == "replace":
        owner[last] = PLACEHOLDER
    elif edit == "drop":
        del owner[last]
    elif edit == "rename":
        owner[PLACEHOLDER] = owner.pop(last)
    text = json.dumps(payload)
    if edit == "repeat":
        key = json.dumps(last) + ": " + json.dumps(PLACEHOLDER)
        text = text.replace(body, "{" + key + ", " + body[1:] if first
                            else body[:-1] + ", " + key + "}", 1)
    return text.replace(json.dumps(PLACEHOLDER), token).encode()


def damaged(raw: bytes, edit: str, offset: int, mask: int) -> bytes:
    """``raw`` cut at ``offset``, with the byte there flipped by ``mask``,
    or with a byte that is never UTF-8 put in at ``offset``."""
    offset %= len(raw)
    if edit == "truncate":
        return raw[:offset]
    if edit == "flip":
        return raw[:offset] + bytes([raw[offset] ^ mask]) + raw[offset + 1:]
    return raw[:offset] + b"\xff" + raw[offset:]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("file-fuzz")


def run_simulate(work, name: str, raw: bytes) -> int:
    """Simulate on the packaged data with ``name`` replaced by ``raw``;
    check the outcome and return the status."""
    data, out = work / "data", work / "sim"
    shutil.rmtree(data, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    data.mkdir()
    for other, packaged in PACKAGED.items():
        (data / other).write_bytes(raw if other == name else packaged)
    config = write_config(work, env_kind="faas", mode="train", duration_s=20.0,
                          data_dir=str(data))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        status = main(["simulate", "--config", config, "--out", str(out)])
    assert status in (0, 2)
    if status == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    return status


def load(work, raw: bytes):
    """The config in the bytes ``raw``, or None if it fails with a
    ``ConfigError``, which ``main`` prints as its one error line."""
    path = work / "fuzzed.json"
    path.write_bytes(raw)
    try:
        return load_config(path)
    except ConfigError:
        return None


def test_the_packaged_files_simulate(work):
    assert run_simulate(work, "devices.json", PACKAGED["devices.json"]) == 0


@FUZZ
@given(name=st.sampled_from(DATA_FILES), edit=st.sampled_from(["truncate", "flip", "utf8"]),
       offset=st.integers(0, 2**16), mask=st.integers(1, 255))
# Each packaged file ends in "}\n": this cut removes only the newline.
@example(name="devices.json", edit="truncate", offset=len(PACKAGED["devices.json"]) - 1,
         mask=1)
def test_a_damaged_data_file_exits_0_or_fails_with_one_error_line(work, name, edit,
                                                                  offset, mask):
    raw = damaged(PACKAGED[name], edit, offset, mask)
    status = run_simulate(work, name, raw)
    if edit == "truncate" and raw == PACKAGED[name].rstrip():
        assert status == 0
    elif edit != "flip":
        assert status == 2


@FUZZ
@given(target=st.sampled_from(TARGETS), edit=st.sampled_from(EDITS), token=TOKENS, key=KEYS,
       first=st.booleans())
# A line break in a device name once split the error line in two.
@example(target=("presets.json", ("presets", "cloud_cpu", "xeon_cpu")), edit="rename",
         token="0", key='"\\n"', first=False)
def test_an_edited_data_file_exits_0_or_fails_with_one_error_line(work, target, edit, token,
                                                                  key, first):
    name, path = target
    assume(edit not in ("repeat", "rename") or isinstance(path[-1], str))
    raw = edited(json.loads(PACKAGED[name]), edit, path,
                 key if edit == "rename" else token, first)
    run_simulate(work, name, raw)


@FUZZ
@given(edit=st.sampled_from(["truncate", "flip", "utf8"]), offset=st.integers(0, 2**16),
       mask=st.integers(1, 255))
def test_a_damaged_config_loads_or_fails_with_one_error(work, edit, offset, mask):
    config = load(work, damaged(json.dumps(CONFIG).encode(), edit, offset, mask))
    if edit != "flip":
        assert config is None


@FUZZ
@given(edit=st.sampled_from(EDITS), path=st.sampled_from(CONFIG_PATHS), token=TOKENS,
       key=KEYS, first=st.booleans())
def test_an_edited_config_loads_or_fails_with_one_error(work, edit, path, token, key, first):
    assume(edit not in ("repeat", "rename") or isinstance(path[-1], str))
    load(work, edited(json.loads(json.dumps(CONFIG)), edit, path,
                      key if edit == "rename" else token, first))


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    """The bytes of a synthetic ``trials.csv``: two methods, two scenarios."""
    work = tmp_path_factory.mktemp("table")
    config = write_config(work, n_scenarios=2)
    for method in ("random", "tpe"):
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            assert main(["tune", "--method", method, "--config", config, "--out", str(work)]) == 0
    return (work / "trials.csv").read_bytes()


def cell_edited(raw: bytes, edit: str, row: int, column: int, token: str) -> bytes:
    """The CSV table ``raw`` with one cell replaced by ``token`` or dropped,
    or with one row repeated."""
    rows = list(csv.reader(io.StringIO(raw.decode(), newline="")))
    cells = rows[row % len(rows)]
    if edit == "replace":
        cells[column % len(cells)] = token
    elif edit == "drop":
        del cells[column % len(cells)]
    else:
        rows.insert(row % len(rows), list(cells))
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    return out.getvalue().encode()


def run_report(work, raw: bytes) -> None:
    """``report`` on the trials table ``raw``: it exits 0, or exits 2 with
    one ``error:`` line and writes nothing."""
    out = work / "table-run"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    (out / "trials.csv").write_bytes(raw)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        status = main(["report", "--out", str(out)])
    assert status in (0, 2)
    if status == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert [p.name for p in out.iterdir()] == ["trials.csv"]


def test_the_undamaged_table_reports(work, table):
    run_report(work, table)
    assert (work / "table-run" / "report.md").exists()


@FUZZ
@given(edit=st.sampled_from(["truncate", "flip", "utf8"]), offset=st.integers(0, 2**16),
       mask=st.integers(1, 255))
def test_a_damaged_table_exits_0_or_fails_with_one_error_line(work, table, edit, offset,
                                                              mask):
    run_report(work, damaged(table, edit, offset, mask))


@FUZZ
@given(edit=st.sampled_from(["replace", "drop", "repeat"]), row=st.integers(0, 2**16),
       column=st.integers(0, 2**16),
       token=TOKENS | st.sampled_from(["nan", "inf", "-inf", "1e-320", "2", "-0.0", "1_0",
                                       " 0.5", "", "\n", '"']))
# A score outside [0, 1] once overflowed the improvement into a RuntimeWarning.
@example(edit="replace", row=1, column=6, token="-1e308")
def test_an_edited_table_exits_0_or_fails_with_one_error_line(work, table, edit, row, column,
                                                             token):
    run_report(work, cell_edited(table, edit, row, column, token))
