"""Small shared helpers: deterministic RNG streams, ordered parallel map,
stable JSON writing, the versioned artifact envelope, typed config fields.
"""

from __future__ import annotations

import json
import random
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, TypeVar

from .errors import DataError

T = TypeVar("T")
R = TypeVar("R")


def stable_rng(*parts: object) -> random.Random:
    """Mersenne Twister seeded from a string key (the stdlib hashes the key
    bytes with SHA-512); independent of PYTHONHASHSEED and platform, so every
    derived stream reproduces across runs and machines."""
    return random.Random(":".join(str(p) for p in parts))


def ordered_map(fn: Callable[[T], R], items: Sequence[T], workers: int = 1) -> list[R]:
    """Apply fn to items, preserving input order regardless of scheduling."""
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def dump_json(obj: Any, path: str | Path) -> None:
    """Write canonical JSON: sorted keys, UTF-8, trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, sort_keys=True, ensure_ascii=False, indent=2)
        fh.write("\n")


def load_json(path: str | Path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# The current version of each xlcat file format; load_artifact accepts no other.
ARTIFACT_VERSIONS = {"interpreter": 2, "feature-space": 1, "model": 1,
                     "report": 1, "report-aggregate": 1, "ablation": 1}
_encode = json.JSONEncoder(sort_keys=True, ensure_ascii=False).encode  # the C encoder
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
    version raises `error` naming the path, and so does a KeyError,
    TypeError, ValueError or AttributeError from `convert` (a missing or
    wrongly typed field) or a DataError (a value the loaded class rejects)."""
    try:
        payload = load_json(path)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: malformed JSON: {exc}") from exc
    header = envelope(kind, {})
    if not isinstance(payload, dict) or payload.get("format") != header["format"]:
        raise error(f"{path}: not an {header['format']} file")
    if type(payload.get("version")) is not int or payload["version"] != header["version"]:
        raise error(f"{path}: unsupported {kind} version {payload.get('version')!r}")
    try:
        return convert(payload)
    except (KeyError, TypeError, ValueError, AttributeError, DataError) as exc:
        raise error(f"{path}: bad {kind} file: {type(exc).__name__}: {exc}") from exc


def dump_jsonl(records: Iterable[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, ensure_ascii=False))
            fh.write("\n")


_REQUIRED = object()
_JSON_TYPES = {bool: "boolean", int: "integer", str: "string", dict: "object", list: "list"}


def config_field(
    d: Mapping, key: str, kind: type, default: Any = _REQUIRED, where: str = "",
    of: Optional[type] = None,
) -> Any:
    """d[key], checked to be a JSON value of `kind` whose items (list) or
    values (object) are of `of`; a bool is not an integer here. A missing key
    gives `default`, or a DataError when there is none. Errors name the
    field as where + key."""
    name = where + key
    if key not in d:
        if default is _REQUIRED:
            raise DataError(f"experiment config is missing key {name!r}")
        return default
    value = d[key]
    ok = _is(value, kind)
    if ok and of is not None:
        ok = all(_is(v, of) for v in (value.values() if isinstance(value, dict) else value))
    if not ok:
        what = _JSON_TYPES[kind] + (f" of {_JSON_TYPES[of]}s" if of is not None else "")
        raise DataError(f"experiment config field {name!r} must be a JSON {what}, got {value!r}")
    return value


def _is(value: Any, kind: type) -> bool:
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))
