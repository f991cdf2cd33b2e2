"""Resolution and loading of the calibration data files, and the one reader
of a JSON object into a dataclass, which they, the config and the checkpoint
header share (:func:`read_fields`).

Device classes, preset distributions and the function catalog ship with the
package under ``schedtune/data``.  An explicit path (the config's
``data_dir``) selects an alternative directory, which makes it easy to run
experiments against modified calibrations without touching the installed
package.  Each list entry of ``devices.json`` and ``functions.json`` is
built as its dataclass.  Every number must be finite as a float (JSON
parsing accepts ``NaN`` and ``Infinity``) and no two entries may share a
name, so a malformed file fails with one error naming the file and the field
path (``functions.json: functions[0].image_name: missing``), or the entry
when its class refuses a value (``devices.json: devices[0]: xeon_cpu: ...``).
"""
from __future__ import annotations

import functools
import json
import os
import sys
from dataclasses import MISSING, fields, is_dataclass
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import get_type_hints

from .errors import ConfigError

SCHEMA_VERSION = 1

_KIND_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "a boolean",
               list: "a list", dict: "an object"}
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
    ``schema_version``.  The top level holds those two keys alone: any
    other (the first in sorted order) fails as an unknown field."""
    path = data_dir(override) / name
    payload = check(read_json(path, "data file"), dict, f"{path}: top level")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: schema_version {version!r} unsupported (expected {SCHEMA_VERSION})"
        )
    key = name.removesuffix(".json")
    if unknown := sorted(payload.keys() - {"schema_version", key}):
        raise ConfigError(f"{path}: {unknown[0]}: unknown field")
    return path, check(payload.get(key, _MISSING), kind, f"{path}: {key}")


def _read(value, kind, where: str, partial: bool):
    """``value`` as ``kind``, a field's type (see :func:`read_fields`)."""
    if is_dataclass(kind):
        return read_fields(value, kind, where, partial)
    if kind == tuple[int, ...]:
        return tuple(check(v, int, f"{where}[{i}]")
                     for i, v in enumerate(check(value, list, where)))
    if kind == str | None:
        return None if value is None else check(value, str, where)
    return check(value, kind, where)


@functools.cache
def field_kinds(cls) -> MappingProxyType:
    """Each field of the dataclass ``cls`` by name, with the type its
    annotation names: worked out once per class, as a read-only mapping."""
    hints = get_type_hints(cls)
    return MappingProxyType({f.name: (f, hints[f.name]) for f in fields(cls)})


def read_fields(value, cls, where: str = "", partial: bool = False):
    """The dataclass ``cls`` built from the JSON object ``value``, each field
    from its own key as the kind its type names: one of :func:`check`'s, a
    list of integers, a string or null, or an object read the same way.  A
    key that names no field fails (the first in sorted order), and so does a
    missing field, unless ``partial`` is set and the field has a default.
    A ``ConfigError`` from ``cls`` comes back prefixed with ``where``."""
    prefix = f"{where}." if where else ""
    value = check(value, dict, where or "top level")
    kinds = field_kinds(cls)
    if unknown := sorted(value.keys() - kinds.keys()):
        raise ConfigError(f"{prefix}{unknown[0]}: unknown field")
    values = {}
    for name, (f, kind) in kinds.items():
        if name in value or not (partial and f.default is not MISSING):
            values[name] = _read(value.get(name, _MISSING), kind, prefix + name, partial)
    try:
        return cls(**values)
    except ConfigError as exc:
        if not where:
            raise
        raise ConfigError(f"{where}: {exc}") from exc


def entry_loader(name: str, cls):
    """A function of the data directory that reads the data file ``name``
    and builds each entry of its list as the dataclass ``cls``, every field
    required; names must be unique."""
    key = name.removesuffix(".json")

    def load(override: str | os.PathLike | None = None) -> list:
        path, entries = load_json(name, list, override)
        built, names = [], set()
        for i, entry in enumerate(entries):
            where = f"{path}: {key}[{i}]"
            built.append(item := read_fields(entry, cls, where))
            if item.name in names:
                raise ConfigError(f"{where}.name: duplicate name {item.name!r}")
            names.add(item.name)
        return built

    return load
