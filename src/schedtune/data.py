"""Resolution and loading of the calibration data files, and the one check
that turns a JSON value into a typed field, for them and the config.

Device classes, preset distributions and the function catalog ship with the
package under ``schedtune/data``.  An explicit path (the config's
``data_dir``) selects an alternative directory, which makes it easy to run
experiments against modified calibrations without touching the installed
package.  Each list entry of ``devices.json`` and ``functions.json`` is
built as its dataclass (:func:`entry_loader`), every field read from its
own key and checked against the field's annotation.
Every number must be finite as a float (JSON parsing accepts ``NaN`` and
``Infinity``) and no two entries may share a name, so a malformed file fails
with one error naming the file and the field path
(``functions.json: functions[0].image_name: missing``), or the entry when
its class refuses a value (``devices.json: devices[0]: xeon_cpu: ...``).
"""
from __future__ import annotations

import json
import os
import sys
from dataclasses import fields
from importlib import resources
from pathlib import Path

from .errors import ConfigError

SCHEMA_VERSION = 1

_KIND_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "a boolean",
               list: "a list", dict: "an object"}
# The kind a data-file entry field is read as, by its annotation; an entry
# class with a field of any other annotation fails at import.
_ENTRY_KINDS = {"str": str, "int": int, "float": float, "bool": bool}
_MISSING = object()


def data_dir(override: str | os.PathLike | None = None) -> Path:
    """The calibration files' directory: ``override``, else the package's own."""
    if override is not None:
        return Path(override)
    return Path(str(resources.files("schedtune") / "data"))


def unique_keys(pairs) -> dict:
    """A JSON object's ``(key, value)`` pairs as a dict; a repeated key is a
    ``ValueError``, not its last value."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def read_json(path, what: str):
    """The JSON value in the UTF-8 file ``path``.  A file that cannot be
    read, decoded or parsed, or that repeats a key in an object, fails with
    one error naming it; ``what`` says what kind of file it is (``config``,
    ``data file``)."""
    try:
        with open(path, "rb") as fh:   # decoded whole, so a bad byte's offset is the file's
            return json.loads(fh.read().decode("utf-8"), object_pairs_hook=unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON (line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg})") from exc
    except ValueError as exc:   # a repeated key, or an integer past Python's digit limit
        raise ConfigError(f"{path}: {exc}") from exc


def check(value, kind, where: str):
    """``value`` if it is of ``kind`` (``str``, ``int``, ``float``, ``bool``,
    ``list`` or ``dict``), as a float for ``float``, which also takes an
    int.  A bool is never a number, and a number must be finite as a float."""
    if value is _MISSING:
        raise ConfigError(f"{where}: missing")
    if (isinstance(value, bool) is not (kind is bool)
            or not isinstance(value, (int, float) if kind is float else kind)):
        raise ConfigError(
            f"{where}: expected {_KIND_NAMES[kind]}, got {type(value).__name__}")
    if kind in (int, float) and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return float(value) if kind is float else value


def load_json(name: str, kind, override: str | os.PathLike | None = None):
    """The path of the data file ``name`` and the value of ``kind`` under
    its key (``devices`` for ``devices.json``), after checking its
    ``schema_version``."""
    path = data_dir(override) / name
    payload = check(read_json(path, "data file"), dict, f"{path}: top level")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version {version!r} unsupported (expected {SCHEMA_VERSION})"
        )
    key = name.removesuffix(".json")
    return path, check(payload.get(key, _MISSING), kind, f"{path}: {key}")


def entry_loader(name: str, cls, **keys):
    """A function of the data directory that reads the data file ``name``
    and builds each entry of its list as the dataclass ``cls``.  Each field
    is required and read from its own key, or from ``keys[field]``, as the
    kind of its annotation; names must be unique.  A ``ConfigError`` from
    ``cls`` itself comes back naming the file and the entry."""
    table = [(f.name, keys.get(f.name, f.name), _ENTRY_KINDS[f.type]) for f in fields(cls)]
    key = name.removesuffix(".json")

    def load(override: str | os.PathLike | None = None) -> list:
        path, entries = load_json(name, list, override)
        built, names = [], set()
        for i, entry in enumerate(entries):
            where = f"{path}: {key}[{i}]"
            check(entry, dict, where)
            values = {field: check(entry.get(source, _MISSING), kind, f"{where}.{source}")
                      for field, source, kind in table}
            if values["name"] in names:
                raise ConfigError(f"{where}.name: duplicate name {values['name']!r}")
            names.add(values["name"])
            try:
                built.append(cls(**values))
            except ConfigError as exc:
                raise ConfigError(f"{where}: {exc}") from exc
        return built

    return load
