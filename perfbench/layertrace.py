"""Per-layer tracing of xlcat from outside the program.

`Tracer.install()` replaces each target function with a timing wrapper at
every `xlcat` module attribute bound to it (so `from .x import y` copies are
caught too) and, for methods, at the class attribute. Each wrapper pushes a
frame on a per-thread span stack, so a span's self time is its duration minus
that of its wrapped children. Spans, per-layer totals and the counters the
observers below take at layer boundaries stay in memory; `dump()` writes them
out once the run ends. Wrappers never touch arguments or results, so traced
outputs are byte-identical to untraced ones.

A target that cannot be found is recorded in `missing`, never skipped
silently.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# Layer name -> the functions whose calls make up its spans
# ("module:attribute" or "module:Class.method").
LAYERS = {
    "corpus.tokenize": ["xlcat.corpus:tokenize"],
    "corpus.load": ["xlcat.corpus:load_support_corpus", "xlcat.corpus:load_labeled_dataset"],
    "corpus.filter": ["xlcat.corpus:filter_articles"],
    "interpreter.build": ["xlcat.interpreter:build_interpreter"],
    "interpreter.interpret": ["xlcat.interpreter:interpret"],
    "interpreter.load": ["xlcat.interpreter:SemanticInterpreter.load"],
    "features.generate": ["xlcat.features:document_features"],
    "features.meta": ["xlcat.features:enrich_with_meta", "xlcat.features:filter_meta_features"],
    "features.select": ["xlcat.features:select_features"],
    "features.information_gain": ["xlcat.features:information_gain"],
    "learner.train": ["xlcat.learner:train"],
    "learner.evaluate": ["xlcat.learner:evaluate"],
    "virtualdocs.construct": ["xlcat.virtualdocs:construct_virtual_document"],
    "virtualdocs.prominent_terms": ["xlcat.virtualdocs:prominent_terms"],
    "ontology.support_count": ["xlcat.ontology:support_count"],
    "ontology.merge_hierarchies": ["xlcat.ontology:merge_hierarchies"],
    "ontology.languages_with_support": ["xlcat.ontology:SupportIndex.languages_with_support"],
    "pipeline.prepare": ["xlcat.pipeline:prepare_semantic_resources"],
    "pipeline.load_resources": ["xlcat.pipeline:load_resources"],
    "pipeline.artifacts": [
        "xlcat.interpreter:SemanticInterpreter.save",
        "xlcat.features:FeatureSpace.save",
        "xlcat.features:save_vectors",
        "xlcat.learner:LinearModel.save",
        "xlcat.virtualdocs:save_virtual_docs",
        "xlcat._util:dump_json",
    ],
    "util.ordered_map": ["xlcat._util:ordered_map"],
}

# The layer whose calls may fan work out to pool threads; top-level spans on
# other threads while it is open count as its children.
POOL_LAYER = "util.ordered_map"


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


# Observers take counts at a layer boundary after a successful call. They run
# outside the timed span and return (counter, increment) pairs.
def _tokenize(tracer, fn, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    tracer.distinct_texts.add(text)
    return [("corpus.tokenize.chars", len(text))]


def _interpret(tracer, fn, args, kwargs, result):
    if len(args) == 2:
        si, doc = args
    else:
        bound = _bound(fn, args, kwargs)
        si, doc = bound["si"], bound["doc"]
    index = si.term_index
    oov = sum(1 for token in doc if token not in index)
    return [
        ("interpreter.tokens", len(doc)),
        ("interpreter.oov_tokens", oov),
        (f"interpreter.tokens.{si.language}", len(doc)),
        (f"interpreter.oov_tokens.{si.language}", oov),
    ]


def _generate(tracer, fn, args, kwargs, result):
    return [("features.empty_docs", 0 if result else 1)]


def _filter(tracer, fn, args, kwargs, result):
    return [("corpus.filter.dropped", len(_bound(fn, args, kwargs)["articles"]) - len(result))]


def _select(tracer, fn, args, kwargs, result):
    return [
        ("features.select.space_in", len(_bound(fn, args, kwargs)["space"])),
        ("features.select.space_out", len(result[0])),
    ]


def _train(tracer, fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    epochs = bound.get("epochs", inspect.signature(fn).parameters["epochs"].default)
    return [("learner.train.updates", epochs * len(bound["vectors"]) * len(result.categories))]


def _ordered_map(tracer, fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    workers = bound.get("workers", 1)
    # ordered_map runs serially for fewer than two items whatever is asked.
    used = workers if workers > 1 and len(bound["items"]) > 1 else 1
    tracer.max_workers = max(tracer.max_workers, used)
    return []


OBSERVERS = {
    "corpus.tokenize": _tokenize,
    "interpreter.interpret": _interpret,
    "features.generate": _generate,
    "corpus.filter": _filter,
    "features.select": _select,
    "learner.train": _train,
    "util.ordered_map": _ordered_map,
}


class _Totals:
    __slots__ = ("calls", "incl_s", "self_s", "child_s")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0  # outermost spans of the layer only
        self.self_s = 0.0
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._restore = []
        self._pool = None  # (frame, thread ident) of the open POOL_LAYER span
        self.t0 = time.perf_counter()
        self.spans = []  # (id, parent id, layer, thread, start, end, error)
        self.totals = defaultdict(_Totals)
        self.errors = defaultdict(lambda: defaultdict(int))
        self.counts = defaultdict(int)
        self.distinct_texts = set()  # of the current operation
        self.distinct_total = 0  # summed over finished operations
        self.max_workers = 0
        self.missing = []
        self.wrapped = 0

    # -- installation ------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every target; record those that cannot be found."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "xlcat" or name.startswith("xlcat."))
        ]
        for layer, targets in LAYERS.items():
            for target in targets:
                if not self._wrap_target(layer, target, modules):
                    self.missing.append(target)
        return self

    def _wrap_target(self, layer, target, modules) -> bool:
        module_name, _, qualname = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *class_path, attr = qualname.split(".")
        for part in class_path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if class_path:
            raw = vars(owner).get(attr)
            if raw is None:
                return False
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrapper(layer, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrapper(layer, raw)
            else:
                return False
            self._set(owner, attr, raw, wrapped)
            return True
        fn = getattr(owner, attr, None)
        if not inspect.isfunction(fn):
            return False
        wrapper = self._wrapper(layer, fn)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, name, fn, wrapper)
        return True

    def _set(self, owner, name, old, new) -> None:
        setattr(owner, name, new)
        self._restore.append((owner, name, old))
        self.wrapped += 1

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._restore):
            setattr(owner, name, old)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans -------------------------------------------------------------

    def _wrapper(self, layer, fn):
        observe = OBSERVERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._call(layer, fn, args, kwargs)
            if observe is not None:
                increments = observe(self, fn, args, kwargs, result)
                if increments:
                    with self._lock:
                        for key, n in increments:
                            self.counts[key] += n
            return result

        return wrapper

    def _call(self, layer, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        # frame: layer, span id, start, time covered by children
        frame = [layer, next(self._ids), time.perf_counter(), 0.0]
        stack.append(frame)
        me = threading.get_ident()
        if layer == POOL_LAYER and self._pool is None:
            self._pool = (frame, me)
        error = None
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - frame[2]
            pool = self._pool
            with self._lock:
                if parent is not None:
                    parent[3] += duration
                    parent_id = parent[1]
                elif pool is not None and pool[1] != me:
                    pool[0][3] += duration
                    parent_id = pool[0][1]
                else:
                    parent_id = 0
                if pool is not None and pool[0] is frame:
                    self._pool = None
                totals = self.totals[layer]
                totals.calls += 1
                if not any(f[0] == layer for f in stack):
                    totals.incl_s += duration
                totals.self_s += duration - frame[3]
                totals.child_s += frame[3]
                if error is not None:
                    self.errors[layer][error] += 1
                self.spans.append(
                    (frame[1], parent_id, layer, me, frame[2] - self.t0, end - self.t0, error)
                )

    def end_operation(self) -> None:
        """Close an operation: inputs repeated across operations are not
        counted as reuse by `corpus.tokenize.unique_ratio`."""
        self.distinct_total += len(self.distinct_texts)
        self.distinct_texts.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, n_ops: int) -> dict:
        """Per-layer metrics; counts and times are per operation."""
        n = max(n_ops, 1)
        t, c = self.totals, self.counts

        def calls(layer):
            return t[layer].calls / n

        def incl(layer):
            return t[layer].incl_s / n

        def self_s(layer):
            return t[layer].self_s / n

        def ratio(num, den):
            return num / den if den else 0.0

        construct = t["virtualdocs.construct"].calls
        skipped = self.errors["virtualdocs.construct"].get("InsufficientAncestryError", 0)
        pool = t[POOL_LAYER]
        return {
            "corpus.tokenize.calls": calls("corpus.tokenize"),
            "corpus.tokenize.s": incl("corpus.tokenize"),
            "corpus.tokenize.chars_per_s": ratio(c["corpus.tokenize.chars"], t["corpus.tokenize"].incl_s),
            "corpus.tokenize.unique_ratio": ratio(self.distinct_total + len(self.distinct_texts), t["corpus.tokenize"].calls),
            "corpus.load.s": incl("corpus.load"),
            "corpus.filter.dropped": c["corpus.filter.dropped"] / n,
            "interpreter.build.calls": calls("interpreter.build"),
            "interpreter.build.self_s": self_s("interpreter.build"),
            "interpreter.interpret.docs_per_s": ratio(t["interpreter.interpret"].calls, t["interpreter.interpret"].incl_s),
            "interpreter.oov_token_ratio": ratio(c["interpreter.oov_tokens"], c["interpreter.tokens"]),
            "interpreter.load.s": incl("interpreter.load"),
            "features.generate.calls": calls("features.generate"),
            "features.generate.self_s": self_s("features.generate"),
            "features.meta.s": incl("features.meta"),
            "features.empty_docs": c["features.empty_docs"] / n,
            "features.select.s": incl("features.select"),
            "features.select.space_in": c["features.select.space_in"] / n,
            "features.select.space_out": c["features.select.space_out"] / n,
            "features.information_gain.calls": calls("features.information_gain"),
            "learner.train.s": incl("learner.train"),
            "learner.train.updates": c["learner.train.updates"] / n,
            "learner.train.updates_per_s": ratio(c["learner.train.updates"], t["learner.train"].incl_s),
            "learner.evaluate.s": incl("learner.evaluate"),
            "virtualdocs.construct.calls": construct / n,
            "virtualdocs.construct.self_s": self_s("virtualdocs.construct"),
            "virtualdocs.construct.built_ratio": ratio(construct - sum(self.errors["virtualdocs.construct"].values()), construct),
            "virtualdocs.construct.skipped": skipped / n,
            "virtualdocs.prominent_terms.calls": calls("virtualdocs.prominent_terms"),
            "virtualdocs.prominent_terms.self_s": self_s("virtualdocs.prominent_terms"),
            "ontology.support_count.calls": calls("ontology.support_count"),
            "ontology.support_count.s": incl("ontology.support_count"),
            "ontology.merge_hierarchies.calls": calls("ontology.merge_hierarchies"),
            "ontology.merge_hierarchies.s": incl("ontology.merge_hierarchies"),
            "ontology.languages_with_support.calls": calls("ontology.languages_with_support"),
            "ontology.languages_with_support.s": incl("ontology.languages_with_support"),
            "pipeline.prepare.calls": calls("pipeline.prepare"),
            "pipeline.prepare.self_s": self_s("pipeline.prepare"),
            "pipeline.load_resources.calls": calls("pipeline.load_resources"),
            "pipeline.load_resources.s": incl("pipeline.load_resources"),
            "pipeline.artifacts.s": incl("pipeline.artifacts"),
            "util.ordered_map.s": incl(POOL_LAYER),
            "util.ordered_map.busy_ratio": ratio(pool.child_s, pool.incl_s),
            "util.ordered_map.workers": float(self.max_workers),
            "trace.missing_targets": float(len(self.missing)),
        }

    def oov_by_language(self) -> dict:
        c = self.counts
        langs = sorted(k.rsplit(".", 1)[1] for k in c if k.startswith("interpreter.tokens."))
        return {
            lang: c[f"interpreter.oov_tokens.{lang}"] / c[f"interpreter.tokens.{lang}"]
            for lang in langs
            if c[f"interpreter.tokens.{lang}"]
        }

    def dump(self, path: str | Path, n_ops: int) -> None:
        """Write totals, counters and every span (times in seconds from the
        tracer's creation) as one JSON document."""
        layers = {
            layer: {
                "calls": tot.calls,
                "incl_s": tot.incl_s,
                "self_s": tot.self_s,
                "errors": dict(self.errors.get(layer, {})),
            }
            for layer, tot in sorted(self.totals.items())
        }
        payload = {
            "n_ops": n_ops,
            "missing_targets": self.missing,
            "wrapped_bindings": self.wrapped,
            "layers": layers,
            "counts": dict(sorted(self.counts.items())),
            "oov_by_language": self.oov_by_language(),
            "span_fields": ["id", "parent", "layer", "thread", "start_s", "end_s", "error"],
            "spans": self.spans,
        }
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")
