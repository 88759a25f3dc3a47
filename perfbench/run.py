"""xlcat benchmark: synthetic corpora, closed-loop pipeline operations,
checked outputs, end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload experiment_m --seed 0 --seconds 28 --trace 0

Run from the repository root. The program is imported from `src/` of the
checkout this file sits in; without it the benchmark exits with code 1 and
prints no result. Set-up synthesizes the workload's corpus with
`xlcat.synth` from `--seed` and writes the experiment config, several times
over. Then one client runs operations back to back until `--seconds` have
passed. An operation is one pipeline call (`run_experiment` or `ablation`)
followed by an in-process `xlcat classify` of the target-language test set
with the model artifacts that call wrote (an ablation writes none, so there
set-up runs one experiment for them). Set-up has already imported the
program and written the corpus, which stays in the file cache, so the first
operation is timed like the rest.

Timings are given at a reference host speed. The host is shared, and its
speed drifts by tens of percent within a minute, which wall times of single
runs cannot separate from changes of the program. So after every timed step
the benchmark times a fixed probe (`HostProbe`), and scales the step's wall
seconds by the probe's reference time over its mean measured time in the
run. The lines for people give the wall figures too.

Every operation's output digest (report `data` and `results`, or the
ablation `curves`, plus the classify predictions) must equal the digest
pinned in `reference.json` for the seed or, when none is pinned, the run's
first operation's. An operation that raises or disagrees counts as failed.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` one untraced operation is followed by traced ones (see
`layertrace.py`) and it carries the per-layer metrics. Lines before it are
for people: per-metric sample counts, run metadata and the digest.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
SETUP_REPEATS = 3
# Seconds the host probe takes at the reference speed. On a 2-vCPU Intel Xeon
# VM of a shared host it takes 0.2-0.4 s.
REFERENCE_PROBE_S = 0.25

# Support articles of synthetic corpora are short; the default filter would
# drop them all. This keeps every real article and drops the decoys.
FILTER = {"min_chars": 30, "min_links_in": 1, "min_links_out": 1}


@dataclass(frozen=True)
class Workload:
    """A corpus shape plus the operation run on it. `corpus` is a
    SyntheticCorpusSpec without its seed; `experiment` the experiment config
    without paths, filter and seed; `ablation` the keyword arguments of
    `pipeline.ablation`, or None for `run_experiment`. Classify runs on the
    target-language test set `classify_batches` times per operation, so that
    a small test set still gives classify enough time to measure."""

    corpus: dict
    experiment: dict
    workers: int = 1
    ablation: dict | None = None
    classify_batches: int = 1


# Why each workload exists, and the layer it stresses, is in BENCHMARK.json.
WORKLOADS = {
    "experiment_m": Workload(
        corpus=dict(
            n_concepts=150, n_meta_levels=2, branching=4, vocab_size_per_language=5000,
            n_languages=3, n_categories=8, docs_per_category=75,
            support_doc_length=300, doc_length=120,
        ),
        experiment=dict(
            setup="UCLTC", source_languages=["l0", "l1"], target_languages=["l2"],
            samples_per_category_per_language=50,
            hyperparams=dict(k_doc=20, m=2, p=4, t=40, epochs=10),
        ),
    ),
    "learn_l": Workload(
        corpus=dict(
            n_concepts=2000, n_meta_levels=3, branching=4, vocab_size_per_language=25000,
            n_languages=2, n_categories=8, docs_per_category=100,
            support_docs_per_pair=1, support_doc_length=40, doc_length=120,
        ),
        experiment=dict(
            setup="CLTC2", source_languages=["l0"], target_languages=["l1"],
            samples_per_category_per_language=60,
            hyperparams=dict(k_doc=100, m=3, p=4, t=40, epochs=10, n_select=1000),
        ),
        workers=2,
    ),
    "ablate_virtual": Workload(
        corpus=dict(
            n_concepts=80, n_meta_levels=2, branching=4, vocab_size_per_language=2000,
            n_languages=2, n_categories=3, docs_per_category=100, support_docs_per_pair=3,
            category_layout="interleaved", group_word_weight=0.30,
            cross_group_word_weight=0.30,
        ),
        experiment=dict(
            setup="CLTC2", source_languages=["l0"], target_languages=["l1"],
            samples_per_category_per_language=50,
            hyperparams=dict(k_doc=4, m=1, p=16, t=40),
        ),
        ablation=dict(toggle="virtual_docs", prefix_fraction=0.7, n_blocks=3),
        classify_batches=6,
    ),
}


def import_xlcat():
    """Import xlcat from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import xlcat
        from xlcat import cli, pipeline, synth, _util
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import xlcat from {src}: {exc}")
    if src.resolve() not in Path(xlcat.__file__).resolve().parents:
        raise SystemExit(f"perfbench: xlcat was imported from {xlcat.__file__}, not {src}")
    return cli, pipeline, synth, _util


def in_child(fn) -> None:
    """Run fn in a forked child and wait for it, so that the memory set-up
    takes does not count toward this process's peak."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            fn()
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("set-up failed; see the traceback above")


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()


class HostProbe:
    """A fixed piece of pure-Python work like the pipeline's own: splitting
    texts, counting tokens in a dict, sorting the counts. The host is shared,
    and other tenants slow every step down by 10-60% for seconds to minutes
    at a time. The probe runs after every timed step, so the mean of its
    times over a run measures how slow the host was while the steps ran, and
    `host_factor` divides that out. Its inputs are fixed, never the
    workload's, and it runs with the garbage collector off so that the
    program's heap does not change its time."""

    def __init__(self):
        rng = random.Random(0)
        self.texts = [" ".join(f"w{rng.randrange(3000)}" for _ in range(120)) for _ in range(150)]
        self.times = []

    def __call__(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        try:
            for _ in range(40):
                counts = {}
                for text in self.texts:
                    for token in text.split():
                        counts[token] = counts.get(token, 0) + 1
                sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        finally:
            if enabled:
                gc.enable()
        self.times.append(time.perf_counter() - t0)


def host_factor(probe_times) -> float:
    """Multiplies wall seconds into seconds at the reference host speed."""
    return REFERENCE_PROBE_S / statistics.mean(probe_times)


class Operation(NamedTuple):
    """One operation's wall times, its output digest and the times of the
    host probes that followed its two steps."""

    run_s: float
    classify_s: float
    n_docs: int
    digest: str
    probe_times: tuple


class Bench:
    """One workload at one seed, set up in a private work directory."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl, self.seed, self.work = wl, seed, Path(work)
        t0 = time.perf_counter()
        self.cli, self.pipeline, self.synth, self.util = import_xlcat()
        self.import_s = time.perf_counter() - t0
        self.probe = HostProbe()
        self.probe()
        self.corpus_dir = self.work / "corpus"
        self.config_path = self.corpus_dir / "experiment.json"
        self.run_dir = self.work / "run"
        # An ablation writes no model, so classify uses one experiment's.
        self.model_dir = self.run_dir if wl.ablation is None else self.work / "model"
        self.setup_samples = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.work, ignore_errors=True)
            t0 = time.perf_counter()
            in_child(self._set_up)
            self.setup_samples.append(time.perf_counter() - t0)
            self.probe()
        self.setup_factor = host_factor(self.probe.times)
        self.cfg = self.pipeline.ExperimentConfig.from_file(self.config_path)
        (target,) = self.cfg.target_languages
        self.test_path = self.cfg.datasets[target]["test"]

    def _set_up(self) -> None:
        spec = self.synth.SyntheticCorpusSpec(**self.wl.corpus, seed=self.seed)
        corpus = self.synth.generate_synthetic_corpus(spec, self.corpus_dir)
        config = dict(self.wl.experiment, seed=self.seed, filter=FILTER)
        config["paths"] = {
            "corpus": corpus.paths["corpus"].name,
            "concepts": corpus.paths["concepts"].name,
            "hierarchy": corpus.paths["hierarchy"].name,
            "datasets": {
                lang: {split: p.name for split, p in per.items()}
                for lang, per in corpus.paths["datasets"].items()
            },
        }
        self.util.dump_json(config, self.config_path)
        if self.wl.ablation is not None:
            cfg = self.pipeline.ExperimentConfig.from_file(self.config_path)
            self.pipeline.run_experiment(cfg, out_dir=self.model_dir, workers=self.wl.workers)

    @property
    def setup_s(self) -> float:
        """Import plus the median set-up, at the reference host speed."""
        return (self.import_s + statistics.median(self.setup_samples)) * self.setup_factor

    def operation(self) -> Operation:
        """Run one operation: the pipeline call, then classify, each followed
        by a host probe."""
        digest = hashlib.sha256()
        n_probes = len(self.probe.times)
        t0 = time.perf_counter()
        if self.wl.ablation is None:
            report = self.pipeline.run_experiment(self.cfg, out_dir=self.run_dir, workers=self.wl.workers)
            run_s = time.perf_counter() - t0
            digest.update(canonical([report["data"], report["results"]]))
        else:
            result = self.pipeline.ablation(self.cfg, out_dir=self.run_dir, workers=self.wl.workers, **self.wl.ablation)
            run_s = time.perf_counter() - t0
            digest.update(canonical(result["curves"]))

        out = self.work / "classify"
        argv = [
            "classify", "--config", str(self.config_path), "--out-dir", str(out),
            "--workers", str(self.wl.workers), "--dataset", str(self.test_path),
            "--model", str(self.model_dir / "model.json"),
            "--space", str(self.model_dir / "feature_space.json"),
            "--interpreters", str(self.model_dir),
        ]
        self.probe()
        classify_s, batches = 0.0, []
        for _ in range(self.wl.classify_batches):
            messages = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(messages), contextlib.redirect_stderr(messages):
                code = self.cli.main(argv)
            classify_s += time.perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"xlcat classify exited {code}: {messages.getvalue().strip()}")
            batches.append((out / "predictions.jsonl").read_bytes())
        self.probe()
        predictions = batches[0]
        if batches.count(predictions) != len(batches):
            raise RuntimeError("classify predicted differently for the same documents")
        expected = [json.loads(line)["doc_id"] for line in Path(self.test_path).read_text().splitlines()]
        got = [json.loads(line)["doc_id"] for line in predictions.decode().splitlines()]
        if got != expected:
            raise RuntimeError(f"classify predicted {len(got)} documents for {len(expected)} inputs")
        digest.update(predictions)
        return Operation(
            run_s, classify_s, len(got) * len(batches), digest.hexdigest(), tuple(self.probe.times[n_probes:])
        )


def measure(wl: Workload, seed: int, seconds: float, trace: bool, work: Path, reference: str | None = None) -> dict:
    """Set up, run operations for `seconds` (at least one) and return the
    result: correctness, counts, metrics and the details printed for people."""
    bench = Bench(wl, seed, work)
    attempted = failed = 0
    digests, ops, errors = [], [], []

    def attempt() -> Operation | None:
        nonlocal attempted, failed
        attempted += 1
        try:
            op = bench.operation()
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            errors.append(f"{type(exc).__name__}: {exc}")
            return None
        expected = reference or (digests[0] if digests else op.digest)
        digests.append(op.digest)
        if op.digest != expected:
            failed += 1
            errors.append(f"output digest {op.digest} differs from {expected}")
        return op

    tracer = untraced = None
    start = time.perf_counter()
    if trace:
        import layertrace

        untraced = attempt()
        tracer = layertrace.Tracer()
    with tracer or contextlib.nullcontext():
        while True:
            op = attempt()
            if tracer is not None:
                tracer.end_operation()
            if op is not None:
                ops.append(op)
            if time.perf_counter() - start >= seconds:
                break

    if tracer is None:
        # Totals over the operations, scaled to the reference speed by
        # the host's mean speed while they ran.
        n = len(ops)
        probes = [t for op in ops for t in op.probe_times]
        factor = host_factor(probes) if probes else 0.0
        run_s = sum(op.run_s for op in ops)
        classify_s = sum(op.classify_s for op in ops)
        n_docs = sum(op.n_docs for op in ops)
        host = f"host factor {factor:.4f} from {len(probes)} probes"
        metrics = {
            "run_ref_s": (
                run_s * factor / n if n else 0.0, "s",
                f"n={n} operations, mean; wall mean {run_s / max(n, 1):.4f} s; {host}",
            ),
            "classify_docs_per_ref_s": (
                n_docs / (classify_s * factor) if n_docs else 0.0, "docs/s",
                f"n={n} operations, {n_docs} docs in total; wall {n_docs / classify_s if n_docs else 0.0:.4f} docs/s; {host}",
            ),
            "setup_s": (
                bench.setup_s, "s",
                f"n={len(bench.setup_samples)} set-ups, median plus import; wall "
                f"{bench.import_s + statistics.median(bench.setup_samples):.4f} s; host factor {bench.setup_factor:.4f}",
            ),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", "n=1, set-up excluded"),
        }
    else:
        n_ops = attempted - 1
        layer = tracer.metrics(n_ops)
        traced_s = statistics.median([op.run_s for op in ops]) if ops else 0.0
        layer["trace.overhead_s"] = traced_s - (untraced.run_s if untraced else 0.0)
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        detail = f"n={n_ops} traced operations"
        metrics = {name: (value, units.get(name, ""), detail) for name, value in layer.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "digest": digests[0] if digests else None,
        "errors": errors,
        "tracer": tracer,
    }


def metadata() -> dict:
    """Run context that is recorded but not gated."""
    import numpy

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    references = json.loads((BENCH_DIR / "reference.json").read_text())
    reference = references.get(args.workload, {}).get(str(args.seed))
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as work:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), Path(work), reference)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} operations, {result['failed']} failed "
          f"(failed_ratio {result['failed'] / result['attempted']:.4f}); one client, closed loop")
    for error in result["errors"]:
        print(f"  failure: {error}", file=sys.stderr)
    for name, (value, unit, detail) in result["metrics"].items():
        print(f"  {name:40s} {value:14.6f} {unit:9s} {detail}")
    tracer = result["tracer"]
    if tracer is not None:
        trace_path = WORK_DIR / f"trace_{args.workload}.json"
        tracer.dump(trace_path, result["attempted"] - 1)
        print(f"  oov token ratio by language: {json.dumps(tracer.oov_by_language(), sort_keys=True)}")
        if tracer.missing:
            print(f"  trace targets not found: {tracer.missing}", file=sys.stderr)
        print(f"  spans written to {trace_path}")
    pinned = "pinned" if reference else "not pinned for this seed"
    print(f"  output digest {result['digest']} (reference {pinned})")
    print(f"  meta {json.dumps(metadata(), sort_keys=True)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
