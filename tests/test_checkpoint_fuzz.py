"""Fuzz the checkpoint boundary through ``schedtune eval``.

Each example damages a tiny agent's checkpoint (obs 24, act 2, hidden (8,))
and evaluates it on one synthetic scenario.  The run must exit 0, or exit 2
with exactly one stderr line that starts with ``error:``; a damaged payload
must exit 2.  Every mutation keeps the config's sizes or changes them to a
value the loader refuses before it allocates, so no example can start a
large allocation.
"""
import contextlib
import io
import json
import shutil
import struct
from dataclasses import fields
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from schedtune.agent import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    SacAgent,
    SacConfig,
    checkpoint_layout,
)
from schedtune.cli import main
from tests.test_cli import write_config
from tests.test_file_fuzz import edited

TINY = SacConfig(obs_dim=24, act_dim=2, hidden=(8,), batch_size=4, replay_capacity=16)
FUZZ = settings(max_examples=100, deadline=None)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A working directory, an eval config, a checkpoint's bytes and the
    offset of its payload."""
    work = tmp_path_factory.mktemp("fuzz")
    SacAgent(TINY, seed=5).save(work / "agent.ckpt")
    raw = (work / "agent.ckpt").read_bytes()
    return SimpleNamespace(work=work, config=write_config(work, n_scenarios=1), raw=raw,
                           payload_start=16 + struct.unpack("<Q", raw[8:16])[0])


def run_eval(base, raw: bytes) -> int:
    """Evaluate checkpoint bytes ``raw``; check the outcome, return the status."""
    path, out = base.work / "damaged.ckpt", base.work / "run"
    path.write_bytes(raw)
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        status = main(["eval", "--config", base.config, "--out", str(out),
                       "--checkpoint", str(path)])
    assert status in (0, 2)
    if status == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    return status


def test_the_undamaged_checkpoint_evaluates(base):
    assert run_eval(base, base.raw) == 0


@FUZZ
@given(data=st.data())
def test_a_truncated_checkpoint_fails_with_one_error_line(base, data):
    cut = data.draw(st.integers(0, len(base.raw) - 1))
    assert run_eval(base, base.raw[:cut]) == 2


@FUZZ
@given(data=st.data(), mask=st.integers(1, 255))
def test_a_flipped_byte_exits_0_or_fails_with_one_error_line(base, data, mask):
    offset = data.draw(st.integers(0, len(base.raw) - 1))
    damaged = bytearray(base.raw)
    damaged[offset] ^= mask
    status = run_eval(base, bytes(damaged))
    if offset >= base.payload_start:
        assert status == 2


# Raw JSON tokens a header value can become: non-finite, huge (past float
# range, past Python's integer digit limit) or of another type.
TOKENS = st.one_of(
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1" * 5000,
                     "1e308", "0", "-1", "0.5", "24.0", "null", "true", '"8"',
                     "[]", "{}", "[8, 8]", "[1e308]", "[-8]", "[0]"]),
    st.integers(-2**70, 2**70).map(str),
    st.floats().map(json.dumps),
)
# Every value in the header an edit can replace, drop or repeat, as the keys
# that lead to it.
PATHS = ([(key,) for key in ("arrays", "config", "dtype", "env_steps", "grad_steps")]
         + [("config", f.name) for f in fields(SacConfig)]
         + [("arrays", i, 1, 0) for i in range(len(checkpoint_layout(TINY)))]
         + [("arrays", i, 2) for i in range(len(checkpoint_layout(TINY)))])


def replaced(path, token):
    """An example that replaces the value at ``path`` by ``token``."""
    return example(edit="replace", path=path, token=token, first=False,
                   dtype="<f4", version=CHECKPOINT_VERSION)


@FUZZ
@given(edit=st.sampled_from(["replace", "drop", "repeat", "dtype", "version"]),
       path=st.sampled_from(PATHS), token=TOKENS, first=st.booleans(),
       dtype=st.sampled_from(["<f8", ">f4", "<f2", "<i4", "float32", ""]),
       version=st.integers(0, 2**32 - 1).filter(lambda v: v != CHECKPOINT_VERSION))
# Edits that once ended in a traceback instead of an error line.
@replaced(("env_steps",), "Infinity")
@replaced(("grad_steps",), "1" * 5000)
@replaced(("config", "obs_dim"), "24.0")
@replaced(("config", "hidden"), "[-8]")
def test_an_edited_header_exits_0_or_fails_with_one_error_line(
        base, edit, path, token, first, dtype, version):
    raw, payload_start = base.raw, base.payload_start
    header = json.loads(raw[16:payload_start])
    if edit == "dtype":
        header["dtype"] = dtype
    if edit != "version":
        version = CHECKPOINT_VERSION
    assume(edit != "repeat" or isinstance(path[-1], str))
    blob = edited(header, edit, path, token, first)
    status = run_eval(base, CHECKPOINT_MAGIC + struct.pack("<IQ", version, len(blob))
                      + blob + raw[payload_start:])
    if edit in ("dtype", "version"):
        assert status == 2
