"""Resolution and loading of the calibration data files.

Device classes, preset distributions and the function catalog ship with the
package under ``schedtune/data``.  An alternative directory can be selected
with the ``SCHEDTUNE_DATA_DIR`` environment variable or an explicit path,
which makes it easy to run experiments against modified calibrations without
touching the installed package.  Loading checks the type of every field the
loaders read, that every number is finite as a float (JSON parsing
accepts ``NaN`` and ``Infinity``) and that no two devices or functions share
a name, so a malformed file fails with one error naming the file and the
field path (``functions.json: functions[0].image_name: missing``).
"""
from __future__ import annotations

import json
import os
import sys
from importlib import resources
from pathlib import Path

from .errors import ConfigError

DATA_DIR_ENV = "SCHEDTUNE_DATA_DIR"
SCHEMA_VERSION = 1

_NUMBER = (int, float)
_KIND_NAMES = {str: "a string", int: "an integer", _NUMBER: "a number",
               list: "a list", dict: "an object"}
_MISSING = object()

# Per data file: the top-level key, and the type of each field of its list
# entries (None for presets.json: {preset: {device: fraction}}).
_FILES = {
    "devices.json": ("devices", {
        "name": str, "cpu_cores": int, "speed_factor": _NUMBER,
        "memory_mb": int, "accelerator": str, "locality": str}),
    "presets.json": ("presets", None),
    "functions.json": ("functions", {
        "name": str, "req_cpu": _NUMBER, "req_mem_mb": _NUMBER,
        "preferred_accelerator": str, "preferred_locality": str,
        "image_name": str, "image_bytes": _NUMBER, "dataset_bytes": _NUMBER,
        "base_exec_s": _NUMBER}),
}


def data_dir(override: str | os.PathLike | None = None) -> Path:
    """Directory holding the calibration files, honoring the env override."""
    if override is not None:
        return Path(override)
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    return Path(str(resources.files("schedtune") / "data"))


def read_json(path, what: str):
    """The JSON value in the UTF-8 file ``path``.  A file that cannot be
    read, decoded or parsed fails with one error naming it; ``what`` says
    what kind of file it is (``config``, ``data file``)."""
    try:
        with open(path, "rb") as fh:   # decoded whole, so a bad byte's offset is the file's
            return json.loads(fh.read().decode("utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON (line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg})") from exc


def load_json(name: str, override: str | os.PathLike | None = None) -> dict:
    if name not in _FILES:
        raise ConfigError(f"unknown data file {name!r}, expected one of {tuple(_FILES)}")
    path = data_dir(override) / name
    payload = read_json(path, "data file")
    _check(payload, dict, f"{path}: top level")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version {version!r} unsupported (expected {SCHEMA_VERSION})"
        )
    key, fields = _FILES[name]
    where = f"{path}: {key}"
    if fields is None:
        for preset, dist in _check(payload.get(key, _MISSING), dict, where).items():
            for device, frac in _check(dist, dict, f"{where}.{preset}").items():
                _check(frac, _NUMBER, f"{where}.{preset}.{device}")
    else:
        names = set()
        for i, entry in enumerate(_check(payload.get(key, _MISSING), list, where)):
            _check(entry, dict, f"{where}[{i}]")
            for field, kind in fields.items():
                _check(entry.get(field, _MISSING), kind, f"{where}[{i}].{field}")
            if entry["name"] in names:
                raise ConfigError(f"{where}[{i}].name: duplicate name {entry['name']!r}")
            names.add(entry["name"])
    return payload


def _check(value, kind, where: str):
    """``value`` if it has type ``kind`` (a bool is never a number, and a
    number must be finite as a float)."""
    if value is _MISSING:
        raise ConfigError(f"{where}: missing")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(
            f"{where}: expected {_KIND_NAMES[kind]}, got {type(value).__name__}")
    if isinstance(value, _NUMBER) and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return value
