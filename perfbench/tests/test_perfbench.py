"""Tests of the benchmark itself, at a tiny corpus scale.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import layertrace  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_CORPUS = dict(
    n_concepts=24, n_meta_levels=2, branching=3, vocab_size_per_language=400,
    n_languages=2, n_categories=3, docs_per_category=12,
)
TINY = {
    "tiny_experiment": run.Workload(
        corpus=TINY_CORPUS,
        experiment=dict(
            setup="CLTC2", source_languages=["l0"], target_languages=["l1"],
            samples_per_category_per_language=6,
            hyperparams=dict(k_doc=5, m=1, p=2, t=10, epochs=2, n_select=10),
        ),
        workers=2,
    ),
    "tiny_ablation": run.Workload(
        corpus=dict(TINY_CORPUS, category_layout="interleaved"),
        experiment=dict(
            setup="CLTC2", source_languages=["l0"], target_languages=["l1"],
            samples_per_category_per_language=6,
            hyperparams=dict(k_doc=3, m=1, p=2, t=10, epochs=2),
        ),
        ablation=dict(toggle="virtual_docs", prefix_fraction=0.7, n_blocks=3),
    ),
}


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    for name, wl in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, name, wl)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_end_to_end_metric_prints_with_its_unit(name, tiny_workloads, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert result["metrics"][metric]["value"] > 0
        assert any(re.match(rf"\s+{re.escape(metric)}\s+\S+\s+{re.escape(unit)}\s+n=\d+", line) for line in lines)


def test_tampered_digest_counts_as_failed(tmp_path):
    result = run.measure(TINY["tiny_experiment"], 0, 0, False, tmp_path, reference="0" * 64)
    assert not result["correct"]
    assert result["attempted"] == result["failed"] == 1
    assert "differs" in result["errors"][0]


def test_operations_of_a_run_must_agree(tmp_path, monkeypatch):
    bench_cls = run.Bench
    calls = []

    class Drifting(bench_cls):
        def operation(self):
            op = super().operation()
            calls.append(op.digest)
            return op if len(calls) == 1 else op._replace(digest="drifted")

    monkeypatch.setattr(run, "Bench", Drifting)
    result = run.measure(TINY["tiny_experiment"], 0, 0, True, tmp_path)
    assert result["attempted"] == 2 and result["failed"] == 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_digests_match(name, tmp_path):
    bench = run.Bench(TINY[name], 5, tmp_path)
    import xlcat.corpus

    tokenize = xlcat.corpus.tokenize
    untraced = bench.operation().digest
    with layertrace.Tracer() as tracer:
        assert xlcat.corpus.tokenize is not tokenize
        traced = bench.operation().digest
    assert tracer.missing == []
    assert xlcat.corpus.tokenize is tokenize
    assert traced == untraced
    assert bench.operation().digest == untraced


def test_classify_batches_count_every_document_and_keep_the_digest(tmp_path):
    once = run.Bench(TINY["tiny_ablation"], 1, tmp_path / "once").operation()
    wl = run.Workload(**{**TINY["tiny_ablation"].__dict__, "classify_batches": 3})
    thrice = run.Bench(wl, 1, tmp_path / "thrice").operation()
    assert thrice.digest == once.digest
    assert thrice.n_docs == 3 * once.n_docs
    assert len(thrice.probe_times) == 2


def test_trace_reports_every_per_layer_metric(tmp_path):
    result = run.measure(TINY["tiny_experiment"], 0, 0, True, tmp_path / "e")
    assert result["correct"] and result["attempted"] == 2
    metrics = {k: v[0] for k, v in result["metrics"].items()}
    units = {k: v[1] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["trace.missing_targets"] == 0
    assert metrics["features.information_gain.calls"] > 0
    assert metrics["features.select.space_out"] == 10
    assert metrics["util.ordered_map.workers"] == 2
    assert metrics["virtualdocs.construct.calls"] == 0
    assert metrics["corpus.filter.dropped"] > 0

    ablation = run.measure(TINY["tiny_ablation"], 0, 0, True, tmp_path / "a")
    metrics = {k: v[0] for k, v in ablation["metrics"].items()}
    assert metrics["virtualdocs.construct.calls"] > 0
    assert 0 < metrics["virtualdocs.construct.built_ratio"] <= 1
    assert metrics["features.information_gain.calls"] == 0
    assert metrics["util.ordered_map.workers"] == 1
    assert metrics["corpus.tokenize.unique_ratio"] < 0.5


def test_unique_ratio_counts_reuse_within_an_operation():
    run.import_xlcat()
    import xlcat.corpus

    with layertrace.Tracer() as tracer:
        for _ in range(2):
            xlcat.corpus.tokenize("a b")
            xlcat.corpus.tokenize("a b")
            xlcat.corpus.tokenize("c d")
            tracer.end_operation()
    assert tracer.metrics(2)["corpus.tokenize.unique_ratio"] == 4 / 6


def test_missing_trace_target_is_reported(monkeypatch):
    run.import_xlcat()
    monkeypatch.setitem(layertrace.LAYERS, "corpus.tokenize", ["xlcat.corpus:tokenize", "xlcat.corpus:no_such_function"])
    with layertrace.Tracer() as tracer:
        pass
    assert tracer.missing == ["xlcat.corpus:no_such_function"]
    assert tracer.metrics(1)["trace.missing_targets"] == 1


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"][1:] == ["perfbench/run.py"]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "experiment_m", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "perfbench:" in proc.stderr
    assert '"metrics"' not in proc.stdout
