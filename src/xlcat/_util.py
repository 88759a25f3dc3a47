"""Small shared helpers: deterministic RNG streams, an ordered serial map,
stable JSON writing, the versioned artifact envelope, and the one type
check of every JSON field read from a config or a JSON-lines record.
"""

from __future__ import annotations

import json
import random
from dataclasses import MISSING
from pathlib import Path
from reprlib import repr as abridged
from typing import AbstractSet, Any, Callable, Iterable, Mapping, Optional, Sequence, TypeVar

from .errors import CorpusFormatError, DataError

T = TypeVar("T")
R = TypeVar("R")


def stable_rng(*parts: object) -> random.Random:
    """Mersenne Twister seeded from a string key (the stdlib hashes the key
    bytes with SHA-512); independent of PYTHONHASHSEED and platform, so every
    derived stream reproduces across runs and machines."""
    return random.Random(":".join(str(p) for p in parts))


def ordered_map(fn: Callable[[T], R], items: Sequence[T], workers: int = 1) -> list[R]:
    """[fn(x) for x in items], in one thread whatever `workers` is; the
    parameter stays only because the benchmark's tracer reads it (ROADMAP item 1)."""
    return [fn(x) for x in items]


_encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode  # the C encoder


def dump_json(obj: Any, path: str | Path) -> None:
    """Write canonical JSON: sorted keys, UTF-8, trailing newline; the bytes
    of json.dump(obj, sort_keys=True, ensure_ascii=False, indent=2) plus
    "\n", dict keys being strings. json.dump's indenting encoder is a set of
    closures that refer to each other, a reference cycle per call; this
    writer leaves none."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_indented(fh.write, obj, "\n")
        fh.write("\n")


def _write_indented(write: Callable[[str], Any], obj: Any, newline: str) -> None:
    """Write obj as json.dump(..., indent=2) does at the depth whose line
    break is `newline`; a non-empty container's items go one per line, one
    level deeper, every other value through the C encoder."""
    if isinstance(obj, dict) and obj:
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            write(sep + _encode(key) + ": ")
            _write_indented(write, obj[key], inner)
            sep = "," + inner
        write(newline + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            write(sep)
            _write_indented(write, item, inner)
            sep = "," + inner
        write(newline + "]")
    else:
        write(_encode(obj))


def load_json(path: str | Path, error: type = DataError) -> Any:
    """The JSON value in file `path`; JSON it cannot parse raises `error` naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise error(f"{path}: malformed JSON: {exc}") from exc


# The current version of each xlcat file format; load_artifact accepts no other.
ARTIFACT_VERSIONS = {"interpreter": 2, "feature-space": 1, "model": 1,
                     "report": 1, "report-aggregate": 1, "ablation": 1}
# Dict entries per encoder call in dump_artifact: 1024 was no faster and held 3x the memory.
_CHUNK = 128


def envelope(kind: str, fields: Mapping[str, Any]) -> dict:
    """`fields` under the header every xlcat file format carries:
    {"format": "xlcat-<kind>", "version": ARTIFACT_VERSIONS[kind]}."""
    return {"format": "xlcat-" + kind, "version": ARTIFACT_VERSIONS[kind], **fields}


def dump_artifact(path: str | Path, kind: str, fields: Mapping[str, Any]) -> None:
    """Write envelope(kind, fields) as the bytes of json.dump(...,
    sort_keys=True, ensure_ascii=False) plus "\n", dict keys being strings.
    json.dump never takes the C encoder; here a dict-valued field is encoded
    in chunks of _CHUNK sorted keys, one C encoder call per chunk, and every
    other value whole, so no one string holds the file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        sep = "{"
        for key, value in sorted(envelope(kind, fields).items()):
            fh.write(sep + _encode(key) + ": ")
            if isinstance(value, dict) and value:
                keys, inner = sorted(value), "{"
                for i in range(0, len(keys), _CHUNK):
                    fh.write(inner + _encode({k: value[k] for k in keys[i:i + _CHUNK]})[1:-1])
                    inner = ", "
                fh.write("}")
            else:
                fh.write(_encode(value))
            sep = ", "
        fh.write("}\n")


def load_artifact(
    path: str | Path, kind: str, convert: Callable[[dict], T], error: type = DataError
) -> T:
    """convert(payload) for a file written by dump_artifact with this kind.
    A file that is not JSON, not an object, or carries another format or
    version raises `error` naming the path; so does a DataError of the
    loaded class. convert reads each field by json_field(payload, key,
    kind, path, 1), the file being one line."""
    payload = load_json(path, error)
    header = envelope(kind, {})
    if not isinstance(payload, dict) or payload.get("format") != header["format"]:
        raise error(f"{path}: not an {header['format']} file")
    if type(payload.get("version")) is not int or payload["version"] != header["version"]:
        raise error(f"{path}: unsupported {kind} version {payload.get('version')!r}")
    try:
        return convert(payload)
    except CorpusFormatError:  # json_field's, already naming path:1
        raise
    except DataError as exc:
        raise error(f"{path}: bad {kind} file: {exc}") from exc


def dump_jsonl(records: Iterable[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(_encode(rec))
            fh.write("\n")


_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string",
               list: "array", dict: "object"}
_TYPES = {**{kind: {kind} for kind in _JSON_TYPES}, float: {int, float}}  # json.load's types


def json_field(
    obj: Mapping, key: Optional[str], kind: type, where: str | Path = "", line: int = 0,
    default: Any = MISSING, *, of: Optional[type] = None, keys: Optional[AbstractSet[str]] = None,
) -> Any:
    """obj[key], or obj itself when key is None, checked to be a JSON value
    of `kind`: a bool is not an integer, an integer is a number (float). An
    array's items, or an object's values, must be JSON values of `of`, and an
    object's keys must lie in `keys`. An absent key gives `default`, as does
    the default object itself (a null where the default is None); with no
    default it is an error.

    Errors name their place. A config field (line 0) is named by its dotted
    key, where + key, in a DataError; a config object read with key None is
    named by `where` without its final dot. A field of a JSON-lines record
    or one-line artifact is named by its key, at file `where` and line
    `line`, in a CorpusFormatError. A wrong value is quoted abridged; of an
    array or object with a wrong item, only the first such item is, with its
    index or key. A value of `kind` with no items or keys to check returns at
    once, so a valid record builds no string; record readers pass `where`
    and `line` by position, which is the cheaper call."""
    value = obj if key is None else obj.get(key, default)
    if type(value) is kind and of is None and keys is None:
        return value
    if value is default and default is not MISSING:
        return value
    unknown = None
    if type(value) in _TYPES[kind] and (
        of is None or set(map(type, value.values() if kind is dict else value)) <= _TYPES[of]
    ):
        unknown = sorted(value.keys() - keys) if keys is not None else None
        if not unknown:
            return value
    if line:
        name, field = key, ("line" if key is None else f"field {key!r}")
    else:
        name = str(where)[:-1] if key is None else f"{where}{key}"
        field = f"config field {name!r}" if name else "config"
    if value is MISSING:
        problem = f"missing required {field}"
    elif unknown:
        problem = f"unknown config field {(name + '.' if name else '') + unknown[0]!r}"
    else:
        what = _JSON_TYPES[kind] + (f" of {_JSON_TYPES[of]}s" if of is not None else "")
        got = abridged(value)
        if of is not None and type(value) in _TYPES[kind]:  # an item is wrong
            pairs = value.items() if kind is dict else enumerate(value)
            place, item = next(pair for pair in pairs if type(pair[1]) not in _TYPES[of])
            got = f"{abridged(item)} at {'key' if kind is dict else 'index'} {abridged(place)}"
        problem = f"{field} must be a JSON {what}, got {got}"
    raise CorpusFormatError(problem, where, line) if line else DataError(problem)
