import json
import subprocess
import sys

import pytest

from xlcat import cli, pipeline
from xlcat import corpus as corpus_module
from xlcat.synth import SyntheticCorpusSpec

from conftest import make_config, make_corpus


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "xlcat", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic corpus plus experiment and synth config files on disk."""
    root = tmp_path_factory.mktemp("cli")
    spec = SyntheticCorpusSpec(
        n_concepts=12,
        n_meta_levels=2,
        branching=3,
        vocab_size_per_language=300,
        n_languages=2,
        n_categories=3,
        docs_per_category=15,
        noise_rate=0.05,
        seed=21,
    )
    corpus = make_corpus(root, spec, "data")
    cfg = make_config(corpus, seed=21, samples=10, k_doc=4, m=2, p=3, t=12)
    cfg_path = root / "experiment.json"
    cfg_path.write_text(json.dumps(cfg.to_dict(), indent=2), encoding="utf-8")
    synth_path = root / "synth.json"
    synth_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    return {"root": root, "corpus": corpus, "config": cfg_path, "synth": synth_path}


class TestExitCodes:
    def test_usage_error_is_one(self):
        proc = run_cli("experiment")  # missing required flags
        assert proc.returncode == 1

    def test_unknown_command_is_one(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 1

    def test_data_error_is_two(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        proc = run_cli("experiment", "--config", str(bad), "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 2

    def test_setup_violation_is_three(self, workspace, tmp_path):
        cfg = json.loads(workspace["config"].read_text())
        cfg["setup"] = "CLTC2"
        cfg["target_languages"] = cfg["source_languages"]
        bad = tmp_path / "violation.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        proc = run_cli("experiment", "--config", str(bad), "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 3

    def test_success_is_zero(self, workspace, tmp_path):
        proc = run_cli(
            "experiment", "--config", str(workspace["config"]),
            "--out-dir", str(tmp_path / "run"),
        )
        assert proc.returncode == 0, proc.stderr


BAD_HYPERPARAMS = [
    ("lambda", 0),
    ("lambda", -1e-4),
    ("lambda", "1e-4"),
    ("epochs", "20"),
    ("epochs", 0),
    ("k_term", True),
    ("k_doc", 0),
    ("m", -1),
    ("m", 1.5),
    ("p", None),
    ("t", "40"),
    ("n_select", 0),
]


# (top-level key, value, the field the error must name)
BAD_CONFIG_FIELDS = [
    ("samples_per_category_per_language", "5", "samples_per_category_per_language"),
    ("paths", [], "paths"),
    ("filter", {"min_chars": "5"}, "filter.min_chars"),
    ("filter", {"drop_flags": "redirect"}, "filter.drop_flags"),
    ("filter", {"min_links_in": -1}, "min_links_in"),
    ("hyperparams", [1], "hyperparams"),
    ("seeds", 3, "seeds"),
    ("seeds", [1, 1], "seeds"),
    ("stopwords", [], "stopwords"),
    ("source_languages", "l0", "source_languages"),
    ("seed", 1.5, "seed"),
    ("virtual_docs", "false", "virtual_docs"),
]


def assert_data_error_naming(tmp_path, cfg, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg), encoding="utf-8")
    proc = run_cli("experiment", "--config", str(bad), "--out-dir", str(tmp_path / "o"))
    assert proc.returncode == 2, proc.stderr
    assert repr(field) in proc.stderr
    assert "Traceback" not in proc.stderr


class TestHyperparamValidation:
    @pytest.mark.parametrize("field,value", BAD_HYPERPARAMS)
    def test_bad_field_is_data_error(self, workspace, tmp_path, field, value):
        cfg = json.loads(workspace["config"].read_text())
        cfg["hyperparams"][field] = value
        assert_data_error_naming(tmp_path, cfg, field)


class TestConfigValidation:
    @pytest.mark.parametrize("key,value,field", BAD_CONFIG_FIELDS)
    def test_bad_field_is_data_error(self, workspace, tmp_path, key, value, field):
        cfg = json.loads(workspace["config"].read_text())
        cfg[key] = value
        assert_data_error_naming(tmp_path, cfg, field)


class TestChainedWorkflow:
    def test_stage_by_stage_pipeline(self, workspace, tmp_path):
        cfg = str(workspace["config"])
        corpus = workspace["corpus"]
        out = tmp_path

        steps = [
            ("synth", "--config", str(workspace["synth"]), "--out-dir", str(out / "synth")),
            ("build-interpreter", "--config", cfg, "--out-dir", str(out / "si")),
            ("make-virtual-docs", "--config", cfg, "--out-dir", str(out / "virt")),
            (
                "gen-features", "--config", cfg,
                "--dataset", str(corpus.paths["datasets"]["l0"]["train"]),
                "--interpreters", str(out / "si"),
                "--out-dir", str(out / "feat"),
            ),
            (
                "train", "--config", cfg,
                "--space", str(out / "feat" / "feature_space.json"),
                "--vectors", str(out / "feat" / "vectors.jsonl"),
                "--out-dir", str(out / "model"),
            ),
            (
                "classify", "--config", cfg,
                "--model", str(out / "model" / "model.json"),
                "--space", str(out / "feat" / "feature_space.json"),
                "--interpreters", str(out / "si"),
                "--dataset", str(corpus.paths["datasets"]["l1"]["test"]),
                "--out-dir", str(out / "pred"),
            ),
            (
                "evaluate",
                "--predictions", str(out / "pred" / "predictions.jsonl"),
                "--dataset", str(corpus.paths["datasets"]["l1"]["test"]),
                "--out-dir", str(out / "eval"),
            ),
        ]
        for step in steps:
            proc = run_cli(*step)
            assert proc.returncode == 0, f"{step[0]} failed: {proc.stderr}"

        evaluation = json.loads((out / "eval" / "eval.json").read_text())
        assert 0.5 <= evaluation["accuracy"] <= 1.0
        predictions = (out / "pred" / "predictions.jsonl").read_text().strip().splitlines()
        assert len(predictions) == 45

    def test_ablate_meta(self, workspace, tmp_path):
        proc = run_cli(
            "ablate", "--config", str(workspace["config"]), "--toggle", "meta_features",
            "--out-dir", str(tmp_path / "ab"),
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads((tmp_path / "ab" / "ablation.json").read_text())
        assert result["toggle"] == "meta_features"


class TestClassifyWithSavedInterpreters:
    def test_reads_no_support_corpus_and_predicts_the_same(self, workspace, tmp_path, monkeypatch):
        cfg = str(workspace["config"])
        run = tmp_path / "run"
        assert cli.main(["experiment", "--config", cfg, "--out-dir", str(run)]) == 0
        classify = [
            "classify", "--config", cfg,
            "--model", str(run / "model.json"),
            "--space", str(run / "feature_space.json"),
            "--dataset", str(workspace["corpus"].paths["datasets"]["l1"]["test"]),
        ]
        assert cli.main(classify + ["--out-dir", str(tmp_path / "rebuilt")]) == 0

        def no_support_corpus(path):
            raise AssertionError("the support corpus was read")

        monkeypatch.setattr(pipeline, "load_support_corpus", no_support_corpus)
        monkeypatch.setattr(corpus_module, "load_support_corpus", no_support_corpus)
        saved = classify + ["--interpreters", str(run), "--out-dir", str(tmp_path / "saved")]
        assert cli.main(saved) == 0
        predictions = (tmp_path / "saved" / "predictions.jsonl").read_bytes()
        assert predictions == (tmp_path / "rebuilt" / "predictions.jsonl").read_bytes()


class TestDeterminism:
    def _run_twice(self, args_fn, tmp_path, names):
        outs = []
        for tag in ("x", "y"):
            out = tmp_path / tag
            proc = run_cli(*args_fn(out))
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_synth_byte_identical(self, workspace, tmp_path):
        self._run_twice(
            lambda out: ("synth", "--config", str(workspace["synth"]), "--out-dir", str(out)),
            tmp_path,
            ["corpus.jsonl", "hierarchy.jsonl", "concepts.jsonl", "train_l0.jsonl", "test_l1.jsonl"],
        )

    def test_experiment_byte_identical(self, workspace, tmp_path):
        self._run_twice(
            lambda out: (
                "experiment", "--config", str(workspace["config"]), "--out-dir", str(out),
            ),
            tmp_path,
            ["report.json", "model.json", "feature_space.json", "train_vectors.jsonl"],
        )

    def test_experiment_workers_invariant(self, workspace, tmp_path):
        reports = []
        for tag, workers in (("w1", "1"), ("w4", "4")):
            out = tmp_path / tag
            proc = run_cli(
                "experiment", "--config", str(workspace["config"]),
                "--out-dir", str(out), "--workers", workers,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_seed_override_changes_sampling(self, workspace, tmp_path):
        reports = []
        for tag, seed in (("s1", "101"), ("s2", "202")):
            out = tmp_path / tag
            proc = run_cli(
                "experiment", "--config", str(workspace["config"]),
                "--out-dir", str(out), "--seed", seed,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(json.loads((out / "report.json").read_text()))
        assert reports[0]["data"]["train_doc_ids"] != reports[1]["data"]["train_doc_ids"]
