"""Small shared helpers: the integer rule, deterministic RNG streams, an
ordered serial map, block bounds and their per-CPU split, tasks forked to
run beside the caller, the paused collector, stable JSON writing, the
versioned artifact envelope, the one type check of every JSON field read
from a config or a JSON-lines record, and the JsonConfig codec of the
config dataclasses built on it.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import random
import reprlib
import sys
import threading
from contextlib import contextmanager
from dataclasses import MISSING, fields
from functools import cache
from pathlib import Path
from types import MappingProxyType
from typing import (
    AbstractSet, Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar,
    get_args, get_origin, get_type_hints,
)

from .errors import CorpusFormatError, DataError

T = TypeVar("T")
R = TypeVar("R")
_in_child = False  # set in a child of `forked`, so that a forked task never forks


def abridged(value: object) -> str:
    """reprlib.repr, but an integer too long for str() is quoted by its bit length."""
    try:
        return reprlib.repr(value)
    except ValueError:  # int-to-str conversion past sys.get_int_max_str_digits()
        return f"{'-' * (value < 0)}<integer of {value.bit_length()} bits>"


def int_at_least(value: object, low: int, name: str, error: type = ValueError) -> int:
    """value, if an integer (not a bool) >= low, else `error` "<name> must be an integer
    >= <low>, got <value>": the one rule of every integer argument and config or record field."""
    if type(value) is int and value >= low:
        return value
    raise error(f"{name} must be an integer >= {low}, got {abridged(value)}")


def stable_rng(*parts: object) -> random.Random:
    """Mersenne Twister seeded from a string key (the stdlib hashes the key
    bytes with SHA-512); independent of PYTHONHASHSEED and platform, so every
    derived stream reproduces across runs and machines."""
    return random.Random(":".join(str(p) for p in parts))


def ordered_map(fn: Callable[[T], R], items: Sequence[T], workers: int = 1) -> list[R]:
    """[fn(x) for x in items], in one thread whatever `workers` is; the
    parameter stays only because the benchmark's tracer reads it (ROADMAP item 1)."""
    return [fn(x) for x in items]


def block_bounds(n: int, blocks: int) -> list[int]:
    """Bounds of `blocks` contiguous blocks of range(n), sizes within one
    and larger first: block b is range(bounds[b], bounds[b + 1])."""
    base, extra = divmod(n, blocks)  # the first `extra` blocks hold one more
    return [b * base + min(b, extra) for b in range(blocks + 1)]


def cpu_blocks(n: int) -> list[int]:
    """block_bounds of range(n) in a block per process `forked` may use
    (fork_workers()), but in no more blocks than items and at least one."""
    return block_bounds(n, max(1, min(fork_workers(), n)))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def fork_workers() -> int:
    """The processes `forked` may use, this one included: the usable CPUs, or
    1 in a child of `forked`, without os.fork or beside another live thread
    (fork() copies only the calling thread, and another's locks would stay held in the child)."""
    return _usable_cpus() if hasattr(os, "fork") and not _in_child and threading.active_count() == 1 else 1


@contextmanager
def forked(tasks: Sequence[Callable[[], T]]) -> Iterator[list[T]]:
    """`with forked(tasks) as results:` runs each task in a forked child
    while the body runs here; `results` then holds each task's value, in
    task order. A child pickles its value into its own pipe, read to EOF
    before the child is reaped; if the body raises, the pipes are closed
    unread, so a child blocked on one exits 1. A task whose child exited
    non-zero runs here again, in order, to give its value or raise its
    error. With fork_workers() 1 the tasks run after the body. Only its
    value and its files leave a child; the body must not touch those files."""
    global _in_child
    forking, pids, pipes, results = fork_workers() > 1, [], [], []
    try:
        for task in tasks if forking else ():
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            with open(write, "wb") as out:
                sys.stdout.flush()  # else the child would print what is buffered again
                sys.stderr.flush()
                pid = os.fork()
                if pid == 0:  # the child: exit 0 once its value is in the pipe, else 1
                    _in_child = True
                    try:
                        for pipe in pipes:  # so a pipe the parent closes has no reader left
                            pipe.close()
                        pickle.dump(task(), out, pickle.HIGHEST_PROTOCOL)
                        out.close()
                        os._exit(0)
                    finally:
                        os._exit(1)
            pids.append(pid)
        yield results
        values = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for i, task in enumerate(tasks):
        results.append(pickle.loads(values[i]) if forking and codes[i] == 0 else task())


@contextmanager
def paused_gc() -> Iterator[None]:
    """The body, or the function it decorates, with the collector off, then on if it was: for a
    body that builds only acyclic values, never around a `yield`. A child `forked` inside
    inherits the pause and ends by os._exit, so the pause cannot outlive the body."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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


@paused_gc()
def load_json(path: str | Path, error: type = DataError) -> Any:
    """The JSON value in file `path`, parsed with the collector paused; a file
    that is not UTF-8, or JSON it cannot parse, raises `error` naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # also not UTF-8, too deep, too many digits
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
# json.load's types; an object may also be a config's read-only copy of one
_TYPES = {**{kind: {kind} for kind in _JSON_TYPES}, float: {int, float}, dict: {dict, MappingProxyType}}


def objects_as(kind: type, value: Any) -> Any:
    """A copy of value in which it and every object within it is a `kind`: a
    MappingProxyType to keep read-only, a dict to encode. Other values as they are."""
    return kind({k: objects_as(kind, v) for k, v in value.items()}) if type(value) in _TYPES[dict] else value


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


@cache
def _config_fields(cls: type) -> list:
    """(name, JSON key, JSON type or JsonConfig class, item type, type an
    array is stored as) of each field of config class cls."""
    hints, plan = get_type_hints(cls), []
    for f in fields(cls):
        hint = hints[f.name]
        origin, args = get_origin(hint), get_args(hint)
        kind = ((list, args[0], origin) if origin in (tuple, frozenset)  # Tuple[X, ...], FrozenSet[X]
                else (dict, args[1], None) if origin is dict else (hint, None, None))  # Dict[str, X]
        plan.append((f.name, cls._json_keys.get(f.name, f.name.rstrip("_")), *kind))
    return plan


class JsonConfig:
    """A frozen dataclass as a JSON config object. A field's key is its name
    without a trailing "_" ("lambda_" as "lambda"), or its _json_keys entry,
    where "a.b" is key b of the object a. Its annotation is its JSON type:
    FrozenSet[X] a sorted array of X, Tuple[X, ...] an array of X, Dict[str,
    X] an object of X, a JsonConfig class an object of that class's fields.
    However a config is built (from_dict, the constructor, replace),
    __post_init__ holds each field to its _least value, if any, then to
    json_field's rule for its type; an array may be a tuple (a set for a
    FrozenSet) and is stored as its annotation, an object as a read-only
    copy, and a nested config must be an instance. So a built config never
    changes, whatever a caller does to what it passed. from_dict checks the
    keys (an absent one takes its field's default; a field with none is
    required) and reads a nested object by its class's from_dict; base_dir
    is for a subclass that resolves paths. to_dict writes dicts and lists.
    Errors name the key as _where + key."""

    _where = ""
    _json_keys = {}  # field name -> its JSON key, where that is not the name
    _least = {}  # integer field name -> its least value

    def __post_init__(self):
        for name, key, kind, of, stored in _config_fields(type(self)):
            value, where = getattr(self, name), self._where + key
            if name in self._least:
                int_at_least(value, self._least[name], f"config field {where!r}", DataError)
            if issubclass(kind, JsonConfig):
                if not isinstance(value, kind):
                    raise DataError(f"config field {where!r} must be a {kind.__name__} object, got {abridged(value)}")
            elif stored:
                items = list(value) if isinstance(value, (set, frozenset) if stored is frozenset else tuple) else value
                object.__setattr__(self, name, stored(json_field(items, None, list, where + ".", of=of)))
            else:
                json_field(value, None, kind, where + ".", of=of)
                object.__setattr__(self, name, objects_as(MappingProxyType, value))

    @classmethod
    def from_dict(cls, d: Mapping, base_dir: str | Path = ".") -> Any:
        keys = {key: (name, kind) for name, key, kind, _, _ in _config_fields(cls)}
        d = json_field(d, None, dict, cls._where, keys=keys.keys())
        for f, key in zip(fields(cls), keys):  # keys is in field order
            if f.default is MISSING and f.default_factory is MISSING and key not in d:
                raise DataError(f"missing required config field {cls._where + key!r}")
        return cls(**{name: kind.from_dict(d[key]) if issubclass(kind, JsonConfig) and type(d[key]) is dict
                      else d[key] for key, (name, kind) in keys.items() if key in d})

    @classmethod
    def from_file(cls, path: str | Path) -> Any:
        """from_dict of the JSON in file `path`, with base_dir its directory."""
        return cls.from_dict(load_json(path), base_dir=Path(path).parent)

    def to_dict(self) -> dict:
        out: dict = {}
        for name, key, kind, _, stored in _config_fields(type(self)):
            value = getattr(self, name)
            if issubclass(kind, JsonConfig):
                value = value.to_dict()
            else:  # a frozenset as a sorted list, a tuple as a list, an object as dicts
                value = sorted(value) if stored is frozenset else list(value) if stored else objects_as(dict, value)
            parent, _, last = key.rpartition(".")
            (out.setdefault(parent, {}) if parent else out)[last] = value
        return out
