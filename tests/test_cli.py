import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlcat import _util, cli, features, pipeline
from xlcat import corpus as corpus_module
from xlcat.features import FeatureSpace
from xlcat.interpreter import SemanticInterpreter, build_interpreter, interpret
from xlcat.learner import LinearModel, predict
from xlcat.pipeline import ExperimentConfig
from xlcat.synth import SyntheticCorpusSpec

from conftest import assert_no_child_left, make_config, make_corpus


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

    @pytest.mark.parametrize("change", [{"target_languages": ["l0"]}, {"setup": "CLTC9"}],
                             ids=["CLTC2-l0-to-l0", "CLTC9"])
    @pytest.mark.parametrize("command", [
        ["experiment"], ["ablate", "--toggle", "meta_features"], ["build-interpreter"],
        ["make-virtual-docs"], ["gen-features", "--dataset", "{test}"],
        ["train", "--space", "{run}/feature_space.json", "--vectors", "{run}/train_vectors.jsonl"],
        ["classify", "--model", "{run}/model.json", "--space", "{run}/feature_space.json", "--dataset", "{test}"],
        ["classify", "--model", "{run}/model.json", "--space", "{run}/feature_space.json", "--dataset", "{test}",
         "--interpreters", "{run}"],
    ], ids=["experiment", "ablate", "build-interpreter", "make-virtual-docs", "gen-features", "train",
            "classify", "classify-interpreters"])
    def test_setup_violation_is_three(self, workspace, artifacts, tmp_path, command, change):
        # The CLI tests' config is CLTC2 from l0 to l1, with every dataset present.
        cfg = {**json.loads(workspace["config"].read_text()), **change}
        bad = tmp_path / "violation.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        test = workspace["corpus"].paths["datasets"]["l1"]["test"]
        argv = [arg.format(test=test, run=artifacts) for arg in command]
        proc = run_cli(*argv, "--config", str(bad), "--out-dir", str(tmp_path / "o"))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("setup violation: ") and "Traceback" not in proc.stderr

    def test_main_reuses_one_parser_without_carrying_state(self, workspace, tmp_path, monkeypatch):
        # A usage error, then a classify in the same process: the shared
        # parser is built once and the predictions equal a fresh process's.
        run_dir = tmp_path / "run"
        assert cli.main(["experiment", "--config", str(workspace["config"]), "--out-dir", str(run_dir)]) == 0
        argv = [
            "classify", "--config", str(workspace["config"]),
            "--model", str(run_dir / "model.json"), "--space", str(run_dir / "feature_space.json"),
            "--interpreters", str(run_dir),
            "--dataset", str(workspace["corpus"].paths["datasets"]["l1"]["test"]),
        ]
        fresh = run_cli(*argv, "--out-dir", str(tmp_path / "fresh"))
        assert fresh.returncode == 0, fresh.stderr

        built, build_parser = [], cli.build_parser

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._shared_parser.cache_clear()
        try:
            with pytest.raises(SystemExit) as exc:
                cli.main(["classify", "--config", str(workspace["config"])])
            assert exc.value.code == 1
            assert cli.main([*argv, "--out-dir", str(tmp_path / "reused")]) == 0
        finally:
            cli._shared_parser.cache_clear()
        assert built == [1]
        predictions = "predictions.jsonl"
        assert (tmp_path / "reused" / predictions).read_bytes() == (tmp_path / "fresh" / predictions).read_bytes()

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
    ("lambda_", 0.2),
    ("lambda", 1e-310),  # subnormal: 1/lambda is inf
    pytest.param("lambda", 10**400, id="lambda-10**400"),  # an integer too large for a float
]


# (dotted key, value, the field the error must name)
BAD_CONFIG_FIELDS = [
    ("samples_per_category_per_language", "5", "samples_per_category_per_language"),
    ("paths", [], "paths"),
    ("filter", {"min_chars": "5"}, "filter.min_chars"),
    ("filter", {"drop_flags": "redirect"}, "filter.drop_flags"),
    ("filter", {"min_links_in": -1}, "filter.min_links_in"),
    ("hyperparams", [1], "hyperparams"),
    ("seeds", 3, "seeds"),
    ("seeds", [1, 1], "seeds"),
    ("stopwords", [], "stopwords"),
    ("source_languages", "l0", "source_languages"),
    ("seed", 1.5, "seed"),
    ("virtual_docs", "false", "virtual_docs"),
    ("samples_per_category_per_language", 0, "samples_per_category_per_language"),
    ("hyperparms", {}, "hyperparms"),
    ("filter.min_char", 30, "filter.min_char"),
    ("paths.stopword", {}, "paths.stopword"),
    ("paths.datasets.l0.tran", "train_l0.jsonl", "paths.datasets.l0.tran"),
    ("virtual_doc", False, "virtual_doc"),
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
        assert_data_error_naming(tmp_path, cfg, "hyperparams." + field)


class TestEpochsBeyondMemory:
    """Shuffle orders for more epochs than numpy or memory can hold exit 2
    with a TrainingError naming the field; neither test allocates them."""

    def test_past_numpys_largest_dimension(self, workspace, tmp_path):
        cfg = json.loads(workspace["config"].read_text())
        cfg["hyperparams"]["epochs"] = 10**20
        assert_data_error_naming(tmp_path, cfg, "hyperparams.epochs")

    def test_past_memory(self, workspace, tmp_path, monkeypatch, capsys):
        import numpy as np

        shapes = []

        def out_of_memory(shape, dtype=float):
            shapes.append(shape)
            raise MemoryError(f"Unable to allocate an array with shape {shape}")

        monkeypatch.setattr(np, "empty", out_of_memory)
        cfg = json.loads(workspace["config"].read_text())
        cfg["hyperparams"]["epochs"] = 10**9
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg), encoding="utf-8")
        assert cli.main(["experiment", "--config", str(bad), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 'hyperparams.epochs' 1000000000 is too many: Unable to allocate")
        assert [shape[1] % 10**9 for shape in shapes] == [0]


class TestConfigValidation:
    @pytest.mark.parametrize("key,value,field", BAD_CONFIG_FIELDS)
    def test_bad_field_is_data_error(self, workspace, tmp_path, key, value, field):
        cfg = json.loads(workspace["config"].read_text())
        *parents, last = key.split(".")
        obj = cfg
        for parent in parents:
            obj = obj[parent]
        obj[last] = value
        assert_data_error_naming(tmp_path, cfg, field)


# (synth spec, what the error must name)
BAD_SYNTH_SPECS = [
    ({"n_concepts": "5"}, "'n_concepts'"),
    ({"n_concepts": 5, "noise_rate": "x"}, "'noise_rate'"),
    ({"n_concepts": 5.5}, "'n_concepts'"),
    ({"n_concepts": True, "n_categories": 1}, "'n_concepts'"),
    ({"n_concepts": 5, "noise_rate": True}, "'noise_rate'"),
    ({"n_concepts": 5, "category_layout": 1}, "'category_layout'"),
    ({"n_concepts": 5, "rotate_train_concepts": 1}, "'rotate_train_concepts'"),
    ({"n_meta_levels": 2}, "'n_concepts'"),
    ([5], "JSON object"),
    ({"n_concepts": 5, "doc_length": 0}, "'doc_length'"),
    ({"n_concepts": 6, "group_word_weight": float("nan")}, "'group_word_weight'"),
    ({"n_concepts": 6, "cross_group_word_weight": float("-inf")}, "'cross_group_word_weight'"),
    ({"n_concepts": 6, "words_per_group": -3}, "'words_per_group'"),
    ({"n_concepts": 6, "background_words": -2}, "'background_words'"),
    ({"n_concepts": 6, "group_word_weight": -0.5}, "'group_word_weight'"),
    ({"n_concepts": 6, "words_per_group": 0}, "synthetic spec field 'words_per_group' must be >= 1"),
    ({"n_concepts": 6, "category_layout": "x"},
     "synthetic spec field 'category_layout' must be 'blocked' or 'interleaved', got 'x'"),
    ({"n_concepts": 6, "train_concept_fraction": 0.0},
     "synthetic spec field 'train_concept_fraction' must lie in (0, 1], got 0.0"),
    ({"n_concepts": 6, "group_word_weight": 0.5, "cross_group_word_weight": 0.5},
     "synthetic spec fields 'group_word_weight' and 'cross_group_word_weight' must sum to less than 1, got 0.5 and 0.5"),
    ({"n_concepts": 2, "n_categories": 3}, "'n_categories' must be at most 'n_concepts'"),
    ({"n_concepts": 2, "n_categories": 3, "train_concept_fraction": 0.5,
      "rotate_train_concepts": True}, "'n_categories' must be at most 'n_concepts'"),
]


class TestSynthSpecValidation:
    @pytest.mark.parametrize("spec,name", BAD_SYNTH_SPECS)
    def test_bad_field_is_data_error(self, tmp_path, spec, name):
        path = tmp_path / "synth.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        proc = run_cli("synth", "--config", str(path), "--out-dir", str(tmp_path / "o"))
        assert_data_error(proc, name)
        assert not (tmp_path / "o").exists()


def run_experiment_with(workspace, tmp_path, edit):
    """`xlcat experiment` on the workspace config after edit(config dict)."""
    cfg = json.loads(workspace["config"].read_text())
    edit(cfg)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return run_cli("experiment", "--config", str(path), "--out-dir", str(tmp_path / "o"))


class TestSilentInputs:
    @pytest.mark.parametrize("kind", ["basic", "meta"])
    def test_concept_declared_twice(self, workspace, tmp_path, kind):
        lines = workspace["corpus"].paths["concepts"].read_text(encoding="utf-8").splitlines()
        cid = json.loads(lines[0])["concept_id"]
        lines.append(json.dumps({"concept_id": cid, "kind": kind}))
        concepts = tmp_path / "concepts.jsonl"
        concepts.write_text("\n".join(lines) + "\n", encoding="utf-8")
        proc = run_experiment_with(
            workspace, tmp_path, lambda cfg: cfg["paths"].update(concepts=str(concepts))
        )
        assert_data_error(proc, f"{concepts}:{len(lines)}", repr(cid))

    @pytest.mark.parametrize("lang,split,other", [("l0", "train", "l1"), ("l1", "test", "l0")])
    def test_dataset_document_in_another_language(self, workspace, tmp_path, lang, split, other):
        source = workspace["corpus"].paths["datasets"][lang][split]
        docs = [json.loads(line) for line in source.read_text(encoding="utf-8").splitlines()]
        docs[-1]["language"] = other
        dataset = tmp_path / source.name
        dataset.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
        proc = run_experiment_with(
            workspace, tmp_path, lambda cfg: cfg["paths"]["datasets"][lang].update({split: str(dataset)})
        )
        assert_data_error(proc, dataset, repr(docs[-1]["doc_id"]), repr(lang), repr(other))

    @pytest.mark.parametrize("flags", [[], ["redirect"]])
    def test_support_article_of_undeclared_concept(self, workspace, tmp_path, flags):
        # Rejected whether or not the filter would drop the article.
        source = workspace["corpus"].paths["corpus"]
        lines = source.read_text(encoding="utf-8").splitlines()
        article = dict(json.loads(lines[0]), concept_id="undeclared-concept", flags=flags)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("\n".join(lines + [json.dumps(article)]) + "\n", encoding="utf-8")
        proc = run_experiment_with(
            workspace, tmp_path, lambda cfg: cfg["paths"].update(corpus=str(corpus))
        )
        assert_data_error(proc, corpus, repr("undeclared-concept"))


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

    def test_workers_start_no_thread(self, workspace, artifacts, tmp_path, no_threads):
        for workers in ("4", "1"):
            assert cli.main([
                "classify", "--config", str(workspace["config"]),
                "--model", str(artifacts / "model.json"),
                "--space", str(artifacts / "feature_space.json"),
                "--interpreters", str(artifacts),
                "--dataset", str(workspace["corpus"].paths["datasets"]["l1"]["test"]),
                "--out-dir", str(tmp_path / workers), "--workers", workers,
            ]) == 0
        predictions = "predictions.jsonl"
        assert (tmp_path / "4" / predictions).read_bytes() == (tmp_path / "1" / predictions).read_bytes()


class TestMappingForksPerCpu:
    """classify and gen-features --space map the test set's documents in
    one contiguous block per usable CPU, each but the first in a forked
    child; no output byte depends on the split."""

    OUTPUTS = {"classify": "predictions.jsonl", "gen-features": "vectors.jsonl"}

    @staticmethod
    def _argv(command, workspace, artifacts, out):
        argv = [command, "--config", str(workspace["config"]),
                "--space", str(artifacts / "feature_space.json"), "--interpreters", str(artifacts),
                "--dataset", str(workspace["corpus"].paths["datasets"]["l1"]["test"]),
                "--out-dir", str(out)]
        return argv + (["--model", str(artifacts / "model.json")] if command == "classify" else [])

    @pytest.mark.parametrize("command", sorted(OUTPUTS))
    def test_same_bytes_at_one_two_and_three_cpus(self, workspace, artifacts, tmp_path, monkeypatch,
                                                  forks, command):
        outputs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
            forks.clear()
            assert cli.main(self._argv(command, workspace, artifacts, tmp_path / str(cpus))) == 0
            assert len(forks) == cpus - 1
            assert_no_child_left()
            outputs.append((tmp_path / str(cpus) / self.OUTPUTS[command]).read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("command", sorted(OUTPUTS))
    def test_forks_nothing_beside_another_thread(self, workspace, artifacts, tmp_path, monkeypatch,
                                                 forks, another_thread, command):
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 2)
        assert cli.main(self._argv(command, workspace, artifacts, tmp_path / "threaded")) == 0
        assert not forks
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 1)
        assert cli.main(self._argv(command, workspace, artifacts, tmp_path / "serial")) == 0
        name = self.OUTPUTS[command]
        assert (tmp_path / "threaded" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()

    def test_a_block_that_fails_in_its_child_is_mapped_here(self, workspace, artifacts, tmp_path,
                                                            monkeypatch, forks):
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 1)
        assert cli.main(self._argv("classify", workspace, artifacts, tmp_path / "serial")) == 0
        parent, document_features, mapped_here = os.getpid(), features.document_features, []

        def fails_in_a_child(doc, *args):
            if os.getpid() != parent:
                raise RuntimeError("child")
            mapped_here.append(doc.doc_id)
            return document_features(doc, *args)

        monkeypatch.setattr(features, "document_features", fails_in_a_child)
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 2)
        assert cli.main(self._argv("classify", workspace, artifacts, tmp_path / "rerun")) == 0
        assert len(forks) == 1
        assert_no_child_left()
        docs = corpus_module.load_labeled_dataset(workspace["corpus"].paths["datasets"]["l1"]["test"])
        assert mapped_here == [doc.doc_id for doc in docs]  # the first block, then the child's again
        name = "predictions.jsonl"
        assert (tmp_path / "rerun" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()


class TestStageCommandDataErrors:
    """The stage commands' own data checks exit 2 with their message."""

    @staticmethod
    def _fails(argv, capsys, message):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_gen_features_on_empty_datasets(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        self._fails(["gen-features", "--config", str(workspace["config"]), "--dataset", str(empty),
                     "--dataset", str(empty), "--out-dir", str(tmp_path / "o")],
                    capsys, "no documents in the given dataset(s)")

    def test_train_with_unlabeled_vectors(self, workspace, artifacts, tmp_path, capsys):
        lines = (artifacts / "train_vectors.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[-1])
        del record["label"]
        vectors = tmp_path / "vectors.jsonl"
        vectors.write_text("\n".join([*lines[:-1], json.dumps(record)]) + "\n", encoding="utf-8")
        self._fails(["train", "--config", str(workspace["config"]),
                     "--space", str(artifacts / "feature_space.json"), "--vectors", str(vectors),
                     "--out-dir", str(tmp_path / "o")],
                    capsys, "training vectors must all carry labels")

    @pytest.mark.parametrize("labeled,message", [
        ((False, True), "no prediction for document 'd1'"),  # d0 is skipped, unlabeled
        ((False, False), "no labeled documents to score"),
    ])
    def test_evaluate(self, tmp_path, capsys, labeled, message):
        dataset = tmp_path / "dataset.jsonl"
        docs = [{"doc_id": f"d{i}", "language": "l1", "text": "w", **({"label": "c"} if has else {})}
                for i, has in enumerate(labeled)]
        dataset.write_text("".join(json.dumps(d) + "\n" for d in docs), encoding="utf-8")
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text("", encoding="utf-8")
        self._fails(["evaluate", "--predictions", str(predictions), "--dataset", str(dataset),
                     "--out-dir", str(tmp_path / "o")], capsys, message)


def _rewrite_jsonl(source, dest, edit):
    """dest holds the records of the JSON-lines file source, each after
    edit(index, record), which changes it in place; returns dest."""
    records = [json.loads(line) for line in source.read_text(encoding="utf-8").splitlines()]
    for i, record in enumerate(records):
        edit(i, record)
    dest.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return dest


class TestRepeatedDocIds:
    """A doc_id seen twice is a data error, not a document trained twice."""

    def test_train_rejects_a_repeated_vector_naming_its_line(self, workspace, artifacts, tmp_path, capsys):
        lines = (artifacts / "train_vectors.jsonl").read_text(encoding="utf-8").splitlines()
        vectors = tmp_path / "vectors.jsonl"
        vectors.write_text("\n".join([*lines, lines[0]]) + "\n", encoding="utf-8")
        TestStageCommandDataErrors._fails(
            ["train", "--config", str(workspace["config"]), "--space", str(artifacts / "feature_space.json"),
             "--vectors", str(vectors), "--out-dir", str(tmp_path / "o")],
            capsys, f"{vectors}:{len(lines) + 1}: duplicate doc_id {json.loads(lines[0])['doc_id']!r}")
        assert not (tmp_path / "o" / "model.json").exists()

    @pytest.mark.parametrize("twice", [True, False])
    def test_gen_features_rejects_an_id_two_datasets_share(self, workspace, tmp_path, capsys, twice):
        train = workspace["corpus"].paths["datasets"]["l0"]["train"]
        first = json.loads(train.read_text(encoding="utf-8").splitlines()[0])
        other = train if twice else tmp_path / "other.jsonl"
        if not twice:
            other.write_text(json.dumps(dict(first, text="another text")) + "\n", encoding="utf-8")
        TestStageCommandDataErrors._fails(
            ["gen-features", "--config", str(workspace["config"]), "--dataset", str(train),
             "--dataset", str(other), "--out-dir", str(tmp_path / "o")],
            capsys, f"doc_id {first['doc_id']!r} is in both {train} and {other}")
        assert not (tmp_path / "o" / "vectors.jsonl").exists()


class TestReachableDataErrors:
    """Inputs that only a data error can answer, each exiting 2 with its
    message and no child left."""

    @staticmethod
    def _experiment(workspace, tmp_path, capsys, edit, message, *extra, command="experiment"):
        cfg = json.loads(workspace["config"].read_text())
        edit(cfg)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        TestStageCommandDataErrors._fails(
            [command, "--config", str(path), *extra, "--out-dir", str(tmp_path / "o")], capsys, message)
        assert_no_child_left()

    def test_training_set_without_a_labeled_document(self, workspace, tmp_path, capsys):
        train = _rewrite_jsonl(workspace["corpus"].paths["datasets"]["l0"]["train"], tmp_path / "train.jsonl",
                               lambda i, doc: doc.pop("label"))
        self._experiment(workspace, tmp_path, capsys,
                         lambda cfg: cfg["paths"]["datasets"]["l0"].update(train=str(train)),
                         "training dataset for 'l0' has no labeled documents")

    def test_unlabeled_test_document(self, workspace, tmp_path, capsys):
        source = workspace["corpus"].paths["datasets"]["l1"]["test"]
        doc_id = json.loads(source.read_text(encoding="utf-8").splitlines()[3])["doc_id"]
        test = _rewrite_jsonl(source, tmp_path / "test.jsonl", lambda i, doc: i == 3 and doc.pop("label"))
        self._experiment(workspace, tmp_path, capsys,
                         lambda cfg: cfg["paths"]["datasets"]["l1"].update(test=str(test)),
                         f"test documents lack labels, e.g. {doc_id!r}")

    def test_no_concept_supported_in_every_language(self, workspace, tmp_path, capsys):
        self._experiment(workspace, tmp_path, capsys, lambda cfg: cfg["filter"].update(min_chars=10**9),
                         "no concepts are supported in every required language")

    @pytest.mark.parametrize("extra,message", [
        (["--prefix-fraction", "1.5"], "prefix_fraction must lie in (0, 1)"),
        (["--blocks", "0"], "n_blocks must be an integer >= 1, got 0"),
        (["--prefix-fraction", "0.99"], "prefix covers every concept; nothing to ablate"),  # 12 of 12
    ])
    def test_virtual_docs_ablation_arguments(self, workspace, tmp_path, capsys, extra, message):
        self._experiment(workspace, tmp_path, capsys, lambda cfg: None, message,
                         "--toggle", "virtual_docs", *extra, command="ablate")

    @pytest.mark.parametrize("field", ["concept_id", "language"])
    def test_support_article_with_an_empty_field(self, workspace, tmp_path, capsys, field):
        corpus = _rewrite_jsonl(workspace["corpus"].paths["corpus"], tmp_path / "corpus.jsonl",
                                lambda i, article: i == 1 and article.update({field: ""}))
        self._experiment(workspace, tmp_path, capsys, lambda cfg: cfg["paths"].update(corpus=str(corpus)),
                         f"{corpus}:2: support article has empty {field}")

    def test_hierarchy_edge_to_an_undeclared_child(self, workspace, tmp_path, capsys):
        hierarchy = _rewrite_jsonl(workspace["corpus"].paths["hierarchy"], tmp_path / "hierarchy.jsonl",
                                   lambda i, edge: i == 0 and edge.update(child="undeclared"))
        self._experiment(workspace, tmp_path, capsys, lambda cfg: cfg["paths"].update(hierarchy=str(hierarchy)),
                         "edge child 'undeclared' is not a declared concept")

    def test_concept_of_an_unknown_kind(self, workspace, tmp_path, capsys):
        concepts = _rewrite_jsonl(workspace["corpus"].paths["concepts"], tmp_path / "concepts.jsonl",
                                  lambda i, concept: i == 2 and concept.update(kind="other"))
        self._experiment(workspace, tmp_path, capsys, lambda cfg: cfg["paths"].update(concepts=str(concepts)),
                         f"{concepts}:3: kind must be 'basic' or 'meta', got 'other'")


class TestStageCommands:
    """make-virtual-docs builds no interpreter, and build-interpreter only
    those of the --language flags given; each writes the bytes the
    experiment writes."""

    @pytest.mark.parametrize("command,languages", [
        ("make-virtual-docs", []), ("build-interpreter", ["l1"]),
        ("build-interpreter", ["l1", "l0"]), ("build-interpreter", ["l1", "l1"]),
    ])
    def test_compute_only_what_they_write(
        self, workspace, artifacts, tmp_path, monkeypatch, command, languages
    ):
        built = []

        def counting_build_interpreter(idx, language, *args):
            built.append(language)
            return build_interpreter(idx, language, *args)

        monkeypatch.setattr(pipeline, "build_interpreter", counting_build_interpreter)
        flags = [arg for lang in languages for arg in ("--language", lang)]
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(workspace["config"]), "--out-dir", str(out),
                         *flags]) == 0
        assert built == list(dict.fromkeys(languages))  # each named language once, in order
        expected = [f"interpreter_{lang}.json" for lang in built] or ["virtual_docs.jsonl"]
        assert sorted(path.name for path in out.iterdir()) == sorted(expected)
        for name in expected:
            assert (out / name).read_bytes() == (artifacts / name).read_bytes()

    @staticmethod
    def _l1_test_set(command, config, workspace, artifacts):
        """gen-features or classify of the l1 test set, without --interpreters."""
        argv = [command, "--config", str(config),
                "--dataset", str(workspace["corpus"].paths["datasets"]["l1"]["test"])]
        if command == "classify":
            argv += ["--model", str(artifacts / "model.json"),
                     "--space", str(artifacts / "feature_space.json")]
        return argv

    @pytest.mark.parametrize("command", ["gen-features", "classify"])
    def test_without_saved_interpreters_build_only_the_dataset_languages(
        self, workspace, artifacts, tmp_path, monkeypatch, command
    ):
        built = []

        def counting_build_interpreter(idx, language, *args):
            built.append(language)
            return build_interpreter(idx, language, *args)

        monkeypatch.setattr(pipeline, "build_interpreter", counting_build_interpreter)
        argv = self._l1_test_set(command, workspace["config"], workspace, artifacts)
        assert cli.main([*argv, "--out-dir", str(tmp_path / "built")]) == 0
        assert built == ["l1"]
        assert cli.main([*argv, "--interpreters", str(artifacts), "--out-dir", str(tmp_path / "saved")]) == 0
        assert built == ["l1"]
        for path in sorted((tmp_path / "saved").iterdir()):
            assert (tmp_path / "built" / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("saved", [False, True], ids=["built", "saved"])
    @pytest.mark.parametrize("command", ["gen-features", "classify"])
    def test_a_dataset_language_outside_the_experiment_is_a_data_error(
        self, workspace, artifacts, tmp_path, capsys, command, saved
    ):
        # The saved interpreters include interpreter_l1.json, which the rule
        # forbids reading under a config without l1.
        cfg = json.loads(workspace["config"].read_text())
        cfg.update(setup="CLTC1", target_languages=["l0"])
        config = tmp_path / "cltc1.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        argv = self._l1_test_set(command, config, workspace, artifacts)
        argv += ["--interpreters", str(artifacts)] if saved else []
        assert cli.main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "language 'l1' is not part of this experiment" in err and "Traceback" not in err

    @pytest.mark.parametrize("field", ["k_doc", "m"])
    @pytest.mark.parametrize("command", ["gen-features", "classify"])
    def test_a_space_built_with_another_k_doc_or_m_is_a_data_error(
        self, workspace, artifacts, tmp_path, capsys, command, field
    ):
        cfg = json.loads(workspace["config"].read_text())
        trained = cfg["hyperparams"][field]
        cfg["hyperparams"][field] = trained + 1
        config = tmp_path / "other.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        argv = self._l1_test_set(command, config, workspace, artifacts)
        argv += ["--interpreters", str(artifacts)]
        space = artifacts / "feature_space.json"
        if command == "gen-features":
            argv += ["--space", str(space)]
        assert cli.main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (f"{space}: feature space was built with {field}={trained}, "
                f"but the config has {field}={trained + 1}") in err
        # A space whose metadata does not record the field is not checked for it.
        unrecorded = FeatureSpace.load(space)
        del unrecorded.metadata[field]
        unrecorded.save(tmp_path / "feature_space.json")
        argv[argv.index(str(space))] = str(tmp_path / "feature_space.json")
        assert cli.main([*argv, "--out-dir", str(tmp_path / "unrecorded")]) == 0


@pytest.fixture(scope="module")
def artifacts(workspace, tmp_path_factory):
    """The interpreters, feature space, model and train vectors of one run."""
    run = tmp_path_factory.mktemp("artifacts")
    assert cli.main(["experiment", "--config", str(workspace["config"]), "--out-dir", str(run)]) == 0
    return run


def _edit(key, value):
    def edit(payload):
        payload[key] = value
        return payload
    return edit


def _drop(key):
    def edit(payload):
        del payload[key]
        return payload
    return edit


def _ragged(payload):
    payload["weights"][0] = payload["weights"][0][:-1]
    return payload


def _integer_concepts(payload):
    payload["concepts"] = list(range(len(payload["concepts"])))
    return payload


def _duplicate_concept(payload):
    payload["concepts"][-1] = payload["concepts"][0]
    return payload


def _first_pair(edit):
    """Replace the first (concept, weight) pair of the interpreter's
    alphabetically first term by edit(concept, weight)."""
    def edit_payload(payload):
        pairs = payload["term_index"][min(payload["term_index"])]
        pairs[0] = edit(*pairs[0])
        return payload
    return edit_payload


def _each_weight(edit):
    """Replace every model weight w by edit(w)."""
    def edit_payload(payload):
        payload["weights"] = [[edit(w) for w in row] for row in payload["weights"]]
        return payload
    return edit_payload


def _middle_term_five(payload):
    """Map the interpreter's middle term, in sorted order, to 5."""
    terms = sorted(payload["term_index"])
    payload["term_index"][terms[len(terms) // 2]] = 5
    return payload


def _middle_weight_string(payload):
    """Replace the middle weight of the model's middle row by a string."""
    row = payload["weights"][len(payload["weights"]) // 2]
    row[len(row) // 2] = "0.5"
    return payload


def _integer_categories(payload):
    payload["categories"] = list(range(len(payload["categories"])))
    return payload


def _duplicate_category(payload):
    payload["categories"][-1] = payload["categories"][0]
    return payload


# (artifact file, edit of its decoded JSON, *names the error must give
# besides the file; a callable name is computed from the edited JSON)
MALFORMED_ARTIFACTS = {
    "model-list": ("model.json", lambda payload: [1]),
    "model-format": ("model.json", _edit("format", "xlcat-feature-space")),
    "model-version": ("model.json", _edit("version", 2)),
    "model-no-categories": ("model.json", _drop("categories")),
    "model-weights-string": ("model.json", _edit("weights", "x")),
    "model-weights-ragged": ("model.json", _ragged),
    "model-weights-flat": ("model.json", _edit("weights", [0.5, 1.5])),
    "model-categories-string": ("model.json", _edit("categories", "abcdefgh"), "'categories'"),
    "model-categories-integers": ("model.json", _integer_categories, "'categories'"),
    "model-categories-duplicate": ("model.json", _duplicate_category, "'categories'"),
    "model-weights-strings": ("model.json", _each_weight(str), "'weights'"),
    "model-weights-booleans": ("model.json", _each_weight(lambda w: w > 0), "'weights'"),
    "model-weights-nan": ("model.json", _each_weight(lambda w: float("nan")), "'weights'"),
    "model-weights-overflowing": ("model.json", _each_weight(lambda w: 1e308), "finite sum"),
    "model-weights-huge-integer": ("model.json", _each_weight(lambda w: 10**400), "finite sum"),
    "model-weights-middle-string": (
        "model.json", _middle_weight_string, "'weights'",
        lambda payload: f"'0.5' at index {len(payload['weights'][0]) // 2}",
    ),
    "model-lambda-string": ("model.json", _edit("lambda", "x"), "'lambda'"),
    "model-epochs-float": ("model.json", _edit("epochs", 10.0), "'epochs'"),
    "model-seed-null": ("model.json", _edit("seed", None), "'seed'"),
    "space-list": ("feature_space.json", lambda payload: [1]),
    "space-format": ("feature_space.json", _edit("format", "xlcat-model")),
    "space-version": ("feature_space.json", _edit("version", "1")),
    "space-version-true": ("feature_space.json", _edit("version", True)),
    "space-no-concepts": ("feature_space.json", _drop("concepts")),
    "space-concepts-mixed": ("feature_space.json", _edit("concepts", [1, [2]])),
    "space-concepts-integers": ("feature_space.json", _integer_concepts),
    "space-concepts-duplicate": ("feature_space.json", _duplicate_concept),
    "space-metadata-list": ("feature_space.json", _edit("metadata", []), "'metadata'"),
    "interpreter-list": ("interpreter_l1.json", lambda payload: [1]),
    "interpreter-format": ("interpreter_l1.json", _edit("format", "xlcat-report")),
    "interpreter-version": ("interpreter_l1.json", _edit("version", None)),
    "interpreter-version-1": ("interpreter_l1.json", _edit("version", 1)),
    "interpreter-version-float": ("interpreter_l1.json", _edit("version", 2.0)),
    "interpreter-no-term-index": ("interpreter_l1.json", _drop("term_index")),
    "interpreter-term-index-number": ("interpreter_l1.json", _edit("term_index", {"w": 5})),
    "interpreter-middle-term-number": (
        "interpreter_l1.json", _middle_term_five, "'term_index'",
        lambda payload: f"5 at key {next(t for t, v in payload['term_index'].items() if v == 5)!r}",
    ),
    "interpreter-weight-string": ("interpreter_l1.json", _first_pair(lambda c, w: [c, str(w)])),
    "interpreter-pair-arity": ("interpreter_l1.json", _first_pair(lambda c, w: [c, w, w])),
    "interpreter-k-term-zero": ("interpreter_l1.json", _edit("k_term", 0), "'k_term'"),
    **{
        f"interpreter-weight-{name}": (
            "interpreter_l1.json", _first_pair(lambda c, w, x=x: [c, x]), "'term_index'",
            "finite weight",
        )
        for name, x in (("NaN", float("nan")), ("Infinity", float("inf")),
                        ("-Infinity", float("-inf")))
    },
}


def assert_data_error(proc, *names):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    for name in names:
        assert str(name) in proc.stderr


class TestMalformedArtifacts:
    """Every malformed saved artifact exits 2 naming the file, with no traceback."""

    def _classify(self, workspace, files, tmp_path):
        return run_cli(
            "classify", "--config", str(workspace["config"]),
            "--model", str(files / "model.json"),
            "--space", str(files / "feature_space.json"),
            "--interpreters", str(files),
            "--dataset", str(workspace["corpus"].paths["datasets"]["l1"]["test"]),
            "--out-dir", str(tmp_path / "pred"),
        )

    def _copy(self, artifacts, tmp_path):
        files = tmp_path / "files"
        files.mkdir()
        for path in artifacts.glob("*.json"):
            shutil.copy(path, files / path.name)
        return files

    @pytest.mark.parametrize("case", sorted(MALFORMED_ARTIFACTS))
    def test_classify_rejects(self, workspace, artifacts, tmp_path, case):
        name, edit, *names = MALFORMED_ARTIFACTS[case]
        files = self._copy(artifacts, tmp_path)
        payload = edit(json.loads((files / name).read_text(encoding="utf-8")))
        (files / name).write_text(json.dumps(payload), encoding="utf-8")
        names = [n(payload) if callable(n) else n for n in names]
        assert_data_error(self._classify(workspace, files, tmp_path), files / name, *names)

    def test_classify_reads_only_the_dataset_languages_interpreter(
        self, workspace, artifacts, tmp_path
    ):
        files = self._copy(artifacts, tmp_path)
        (files / "interpreter_l0.json").write_text("{not json", encoding="utf-8")
        proc = self._classify(workspace, files, tmp_path)
        assert proc.returncode == 0, proc.stderr
        expected = tmp_path / "intact"
        assert cli.main([
            "classify", "--config", str(workspace["config"]),
            "--model", str(artifacts / "model.json"),
            "--space", str(artifacts / "feature_space.json"),
            "--interpreters", str(artifacts),
            "--dataset", str(workspace["corpus"].paths["datasets"]["l1"]["test"]),
            "--out-dir", str(expected),
        ]) == 0
        assert (tmp_path / "pred" / "predictions.jsonl").read_bytes() == (
            expected / "predictions.jsonl"
        ).read_bytes()

    def test_classify_rejects_a_missing_interpreter(self, workspace, artifacts, tmp_path):
        files = self._copy(artifacts, tmp_path)
        (files / "interpreter_l1.json").unlink()
        proc = self._classify(workspace, files, tmp_path)
        assert_data_error(proc, "'l1'", files / "interpreter_l1.json")

    def test_classify_rejects_an_interpreter_of_another_language(
        self, workspace, artifacts, tmp_path
    ):
        files = self._copy(artifacts, tmp_path)
        shutil.copy(files / "interpreter_l0.json", files / "interpreter_l1.json")
        proc = self._classify(workspace, files, tmp_path)
        assert_data_error(proc, files / "interpreter_l1.json", "'l0'", "'l1'")

    @pytest.mark.parametrize("extra", [-5, 30])
    def test_classify_rejects_model_and_space_of_other_sizes(
        self, workspace, artifacts, tmp_path, extra
    ):
        files = self._copy(artifacts, tmp_path)
        space = FeatureSpace.load(files / "feature_space.json")
        n_model = len(space)
        if extra < 0:
            concepts = space.concepts[:extra]
        else:
            concepts = space.concepts + [f"x{i}" for i in range(extra)]
        FeatureSpace(concepts).save(files / "feature_space.json")
        proc = self._classify(workspace, files, tmp_path)
        assert_data_error(proc, f"has {n_model} features", f"has {n_model + extra}")

    def test_train_rejects_coordinates_outside_the_space(self, workspace, artifacts, tmp_path):
        space = tmp_path / "space.json"
        FeatureSpace(FeatureSpace.load(artifacts / "feature_space.json").concepts[:5]).save(space)
        proc = run_cli(
            "train", "--config", str(workspace["config"]), "--space", str(space),
            "--vectors", str(artifacts / "train_vectors.jsonl"), "--out-dir", str(tmp_path / "o"),
        )
        assert_data_error(proc, "out of range for dimension 5", artifacts / "train_vectors.jsonl")

    @pytest.mark.parametrize("field,value", [
        ("label", 5), ("active", "12"), ("active", [0.7, 1.7]), ("active", [True]), ("doc_id", 5),
    ])
    def test_train_rejects_a_vector_record_of_the_wrong_type(
        self, workspace, artifacts, tmp_path, field, value
    ):
        lines = (artifacts / "train_vectors.jsonl").read_text(encoding="utf-8").splitlines()
        lines[-1] = json.dumps(dict(json.loads(lines[-1]), **{field: value}))
        vectors = tmp_path / "vectors.jsonl"
        vectors.write_text("\n".join(lines) + "\n", encoding="utf-8")
        proc = run_cli(
            "train", "--config", str(workspace["config"]),
            "--space", str(artifacts / "feature_space.json"),
            "--vectors", str(vectors), "--out-dir", str(tmp_path / "o"),
        )
        assert_data_error(proc, f"{vectors}:{len(lines)}", repr(field))

    def test_evaluate_rejects_a_repeated_doc_id(self, workspace, tmp_path):
        dataset = workspace["corpus"].paths["datasets"]["l1"]["test"]
        docs = [json.loads(line) for line in dataset.read_text(encoding="utf-8").splitlines()]
        records = [{"doc_id": d["doc_id"], "predicted": d["label"]} for d in docs]
        records.append({"doc_id": docs[0]["doc_id"], "predicted": "another"})
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        proc = run_cli(
            "evaluate", "--predictions", str(predictions), "--dataset", str(dataset),
            "--out-dir", str(tmp_path / "o"),
        )
        assert_data_error(proc, f"{predictions}:{len(records)}", repr(docs[0]["doc_id"]))

    @pytest.mark.parametrize("predicted", [["cat0"], None])
    def test_evaluate_rejects_a_prediction_that_is_not_a_string(self, workspace, tmp_path, predicted):
        dataset = workspace["corpus"].paths["datasets"]["l1"]["test"]
        doc_id = json.loads(dataset.read_text(encoding="utf-8").splitlines()[0])["doc_id"]
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text(json.dumps({"doc_id": doc_id, "predicted": predicted}) + "\n")
        proc = run_cli(
            "evaluate", "--predictions", str(predictions), "--dataset", str(dataset),
            "--out-dir", str(tmp_path / "o"),
        )
        assert_data_error(proc, predictions, "'predicted'")


DEEP_JSON = "[" * 200_000 + "]" * 200_000  # far deeper than the parser's recursion allows


class TestDeeplyNestedJson:
    """JSON nested too deeply to parse exits 2 naming the file, and the line
    of a JSON-lines file, with no traceback."""

    @pytest.mark.parametrize("command", ["experiment", "synth"])
    def test_config(self, tmp_path, command):
        config = tmp_path / "deep.json"
        config.write_text(DEEP_JSON, encoding="utf-8")
        proc = run_cli(command, "--config", str(config), "--out-dir", str(tmp_path / "o"))
        assert_data_error(proc, config)

    def _classify(self, workspace, artifacts, tmp_path, model, dataset):
        return run_cli(
            "classify", "--config", str(workspace["config"]),
            "--model", str(model), "--space", str(artifacts / "feature_space.json"),
            "--interpreters", str(artifacts), "--dataset", str(dataset),
            "--out-dir", str(tmp_path / "pred"),
        )

    def test_classify_model(self, workspace, artifacts, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(DEEP_JSON, encoding="utf-8")
        dataset = workspace["corpus"].paths["datasets"]["l1"]["test"]
        assert_data_error(self._classify(workspace, artifacts, tmp_path, model, dataset), model)

    def test_classify_dataset_line(self, workspace, artifacts, tmp_path):
        lines = workspace["corpus"].paths["datasets"]["l1"]["test"].read_text(encoding="utf-8").splitlines()
        lines[2] = '{"doc_id": ' + DEEP_JSON + "}"
        dataset = tmp_path / "test.jsonl"
        dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
        proc = self._classify(workspace, artifacts, tmp_path, artifacts / "model.json", dataset)
        assert_data_error(proc, f"{dataset}:3")


# A file that is not UTF-8, and JSON with an integer of more digits than int() converts.
UNDECODABLE = {"not-utf8": b'{"doc_id": "d\xff"}', "huge-int": b'{"doc_id": ' + b"1" * 5000 + b"}"}


class TestUndecodableInput:
    """Input that cannot be decoded exits 2 naming the file, and the line of
    a JSON-lines file, with no traceback."""

    @pytest.mark.parametrize("case", sorted(UNDECODABLE))
    @pytest.mark.parametrize("command", ["experiment", "synth"])
    def test_config(self, tmp_path, command, case):
        config = tmp_path / "bad.json"
        config.write_bytes(UNDECODABLE[case])
        proc = run_cli(command, "--config", str(config), "--out-dir", str(tmp_path / "o"))
        assert_data_error(proc, config)

    # The decoder reads ahead of the lines: the last line fails after others were read.
    @pytest.mark.parametrize("index", [2, 44])
    @pytest.mark.parametrize("case", sorted(UNDECODABLE))
    def test_classify_dataset_line(self, workspace, artifacts, tmp_path, case, index):
        lines = workspace["corpus"].paths["datasets"]["l1"]["test"].read_bytes().splitlines()
        assert len(lines) == 45
        lines[index] = UNDECODABLE[case]
        dataset = tmp_path / "test.jsonl"
        dataset.write_bytes(b"\n".join(lines) + b"\n")
        proc = run_cli(
            "classify", "--config", str(workspace["config"]),
            "--model", str(artifacts / "model.json"),
            "--space", str(artifacts / "feature_space.json"),
            "--interpreters", str(artifacts), "--dataset", str(dataset),
            "--out-dir", str(tmp_path / "pred"),
        )
        assert_data_error(proc, f"{dataset}:{index + 1}:")

    def test_stopword_file(self, workspace, tmp_path):
        stopwords = tmp_path / "stopwords_l0.txt"
        stopwords.write_bytes(b"the\n\xff\n")
        proc = run_experiment_with(
            workspace, tmp_path, lambda cfg: cfg["stopwords"].update(l0=str(stopwords))
        )
        assert_data_error(proc, stopwords)


_names = st.text(min_size=1, max_size=6)
_numbers = st.floats(allow_nan=False, allow_infinity=False)
_weights = st.floats(-1e307, 1e307)  # a model row of up to 6 sums to a finite number


@st.composite
def saved_objects(draw):
    """A small random interpreter, feature space or model."""
    kind = draw(st.sampled_from([SemanticInterpreter, FeatureSpace, LinearModel]))
    if kind is SemanticInterpreter:
        pairs = st.lists(st.tuples(_names, _numbers), min_size=1, max_size=4)
        return kind(draw(_names), draw(st.integers(1, 4)),
                    draw(st.dictionaries(_names, pairs, max_size=6)))
    if kind is FeatureSpace:
        return kind(draw(st.lists(_names, max_size=6, unique=True)),
                    draw(st.dictionaries(_names, st.integers() | _numbers | _names, max_size=3)))
    categories = draw(st.lists(_names, min_size=1, max_size=4, unique=True))
    k, n_features = len(categories), draw(st.integers(1, 5))
    row = st.lists(_weights, min_size=n_features, max_size=n_features)
    return kind(categories, draw(st.lists(row, min_size=k, max_size=k)),
                draw(st.lists(_weights, min_size=k, max_size=k)),
                draw(_numbers), draw(st.integers()), draw(st.integers()))


class TestArtifactRoundTrip:
    @settings(max_examples=200)
    @given(saved_objects(), st.data())
    def test_drawn_objects_save_load_and_save_the_same_bytes(self, obj, data):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
            obj.save(first)
            loaded = type(obj).load(first)
            loaded.save(second)
            assert second.read_bytes() == first.read_bytes()
        if isinstance(obj, SemanticInterpreter):
            doc = data.draw(st.lists(st.sampled_from(sorted(obj.term_index) or ["x"])))
            assert repr(interpret(loaded, doc)) == repr(interpret(obj, doc))
        if isinstance(obj, LinearModel):
            coordinate = st.integers(0, obj.n_features - 1)
            for vector in data.draw(st.lists(st.frozensets(coordinate), max_size=5)):
                assert predict(loaded, vector) == predict(obj, vector)

    @pytest.mark.parametrize("cls,name", [
        (SemanticInterpreter, "interpreter_l1.json"),
        (FeatureSpace, "feature_space.json"),
        (LinearModel, "model.json"),
    ])
    def test_load_then_save_writes_the_same_bytes(self, artifacts, tmp_path, cls, name):
        cls.load(artifacts / name).save(tmp_path / name)
        assert (tmp_path / name).read_bytes() == (artifacts / name).read_bytes()


class TestNumpyOnlyInTheTrainer:
    """Only training imports numpy. Checked in a fresh interpreter, since
    this one has numpy loaded already."""

    def _imports_numpy(self, code):
        probe = f"import sys\n{code}\nprint('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1] == "True"

    def test_import_and_classify_do_not(self, workspace, artifacts, tmp_path):
        argv = [
            "classify", "--config", str(workspace["config"]),
            "--model", str(artifacts / "model.json"),
            "--space", str(artifacts / "feature_space.json"), "--interpreters", str(artifacts),
            "--dataset", str(workspace["corpus"].paths["datasets"]["l1"]["test"]),
            "--out-dir", str(tmp_path / "pred"),
        ]
        assert not self._imports_numpy("import xlcat")
        assert not self._imports_numpy(f"from xlcat import cli\nassert cli.main({argv!r}) == 0")
        assert (tmp_path / "pred" / "predictions.jsonl").is_file()

    def test_train_does(self):
        assert self._imports_numpy("from xlcat.learner import train\ntrain([frozenset()], ['A'], ['A'], 1)")


def test_report_config_reads_back_as_the_run_config(workspace, artifacts):
    report = json.loads((artifacts / "report.json").read_text(encoding="utf-8"))
    config = ExperimentConfig.from_file(workspace["config"])
    assert ExperimentConfig.from_dict(report["config"]) == config


# Every file an experiment writes through _util.dump_artifact or as its
# report: (format, version, top-level keys). A format change edits this table.
ARTIFACT_FORMATS = {
    "interpreter_l0.json": ("xlcat-interpreter", 2, {"language", "k_term", "term_index"}),
    "interpreter_l1.json": ("xlcat-interpreter", 2, {"language", "k_term", "term_index"}),
    "feature_space.json": ("xlcat-feature-space", 1, {"concepts", "metadata"}),
    "model.json": (
        "xlcat-model", 1, {"categories", "lambda", "epochs", "seed", "weights", "bias"},
    ),
    "report.json": ("xlcat-report", 1, {"config", "data", "results"}),
}


def test_experiment_artifact_formats(artifacts):
    assert {p.name for p in artifacts.glob("*.json")} == set(ARTIFACT_FORMATS)
    for name, (fmt, version, keys) in ARTIFACT_FORMATS.items():
        text = (artifacts / name).read_text(encoding="utf-8")
        payload = json.loads(text)
        assert (payload["format"], payload["version"]) == (fmt, version), name
        assert set(payload) == {"format", "version"} | keys, name
        if name != "report.json":
            assert text.count("\n") == 1 and text.endswith("}\n"), name


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

    def test_synth_seed_overrides_the_spec_seed(self, workspace, tmp_path):
        spec = json.loads(workspace["synth"].read_text())
        assert spec["seed"] != 5
        seeded = tmp_path / "seed5.json"
        seeded.write_text(json.dumps({**spec, "seed": 5}), encoding="utf-8")
        runs = {
            "flag": ["--config", str(workspace["synth"]), "--seed", "5"],
            "spec": ["--config", str(seeded)],
            "own": ["--config", str(workspace["synth"])],
        }
        files = {}
        for name, argv in runs.items():
            assert cli.main(["synth", *argv, "--out-dir", str(tmp_path / name)]) == 0
            files[name] = _files(tmp_path / name)
        assert_no_child_left()
        assert files["flag"] == files["spec"]
        assert files["flag"].keys() == files["own"].keys()
        assert all(files["flag"][name] != files["own"][name] for name in ("corpus.jsonl", "train_l0.jsonl"))


def _files(root):
    """Every file under root, by its path relative to root, as bytes."""
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


class TestSeedSweep:
    """`experiment` under a config with a `seeds` list."""

    @pytest.fixture
    def sweep_config(self, workspace, tmp_path):
        cfg = json.loads(workspace["config"].read_text())
        cfg["seeds"] = [1, 2]
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def test_same_bytes_across_runs_and_at_one_and_two_cpus(self, sweep_config, tmp_path, monkeypatch):
        runs = []
        for tag, cpus in (("a", 2), ("b", 2), ("c", 1)):
            monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
            out = tmp_path / tag
            assert cli.main(["experiment", "--config", str(sweep_config), "--out-dir", str(out)]) == 0
            assert_no_child_left()
            runs.append(_files(out))
        assert runs[0] == runs[1] == runs[2]
        assert {"report.json", "seed_1/report.json", "seed_2/report.json"} <= runs[0].keys()
        aggregate = json.loads(runs[0]["report.json"])
        assert sorted(aggregate["per_seed_results"]) == ["1", "2"]

    def test_seed_flag_is_a_data_error_naming_both(self, sweep_config, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["experiment", "--config", str(sweep_config), "--seed", "9", "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "'seeds'" in err
        assert not out.exists()


# Each language's stopword list in the stopword runs: the unique words of
# b0000-b0005, then eight more words of the language's vocabulary.
STOPWORD_INDICES = [*range(4, 52), *range(100, 108)]

# sha256 of the workspace outputs with those lists configured: the
# experiment report's data and results (canonical JSON), its interpreter
# files, the curves of a virtual-docs ablation (prefix 0.5, 2 blocks), and
# `classify --interpreters` predictions over the stopword run's artifacts
# and over a run's built without stopwords. Pinned before the lists moved
# into SupportIndex and SemanticInterpreter.
GOLDEN_STOPWORD_DIGESTS = {
    "data+results": "1e6567547ce0222865362298f6ac7121e1d2d072bb0d0ec4d6472cea6365056d",
    "interpreter_l0.json": "9933ef421369583c9f8a11970c7309eac3458002a511757154da4a460fd7c231",
    "interpreter_l1.json": "10db2663f7a54c4f259cf43b5d307a6feddbf96a57bfd775622b22c39c90287c",
    "curves": "9022b599d03224a554dfef5e5126c81fb5b27d3d9262cca5106b8984140bd5e5",
    "predictions": "84732d564f5910fc921f5500f488d7d2949332243c802ac62dd2ac03c1e9d297",
    "predictions over plain interpreters": "d5df1712c8ffd6cbc92728a35b0b942599f5c4dd9a2049983f56fe71371b5dce",
}


def _sha256(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def stopword_runs(workspace, tmp_path_factory):
    """Each output named in GOLDEN_STOPWORD_DIGESTS, as bytes or JSON, for
    the workspace config ("plain") and the same config with stopwords."""
    root = tmp_path_factory.mktemp("stopwords")
    cfg = json.loads(workspace["config"].read_text())
    cfg["stopwords"] = {}
    for lang in ("l0", "l1"):
        path = root / f"stopwords_{lang}.txt"
        path.write_text("".join(f"{lang}w{i:05d}\n" for i in STOPWORD_INDICES), encoding="utf-8")
        cfg["stopwords"][lang] = str(path)
    configs = {"plain": workspace["config"], "stopwords": root / "experiment.json"}
    configs["stopwords"].write_text(json.dumps(cfg), encoding="utf-8")

    def classify(config, run, out):
        assert cli.main([
            "classify", "--config", str(configs[config]),
            "--model", str(root / run / "model.json"),
            "--space", str(root / run / "feature_space.json"),
            "--interpreters", str(root / run),
            "--dataset", str(workspace["corpus"].paths["datasets"]["l1"]["test"]),
            "--out-dir", str(root / out),
        ]) == 0
        return (root / out / "predictions.jsonl").read_bytes()

    outputs = {}
    for name, config in configs.items():
        assert cli.main(["experiment", "--config", str(config), "--out-dir", str(root / name)]) == 0
        assert cli.main([
            "ablate", "--config", str(config), "--toggle", "virtual_docs",
            "--prefix-fraction", "0.5", "--blocks", "2", "--out-dir", str(root / f"{name}-ablate"),
        ]) == 0
        report = json.loads((root / name / "report.json").read_text(encoding="utf-8"))
        ablated = json.loads((root / f"{name}-ablate" / "ablation.json").read_text(encoding="utf-8"))
        outputs[name] = {
            "data+results": {k: report[k] for k in ("data", "results")},
            "interpreter_l0.json": (root / name / "interpreter_l0.json").read_bytes(),
            "interpreter_l1.json": (root / name / "interpreter_l1.json").read_bytes(),
            "curves": ablated["curves"],
            "predictions": classify(name, name, f"{name}-classify"),
        }
    plain = outputs["plain"]
    plain["predictions over plain interpreters"] = plain["predictions"]
    outputs["stopwords"]["predictions over plain interpreters"] = classify(
        "stopwords", "plain", "stopwords-over-plain-classify"
    )
    return outputs


class TestStopwords:
    def test_outputs_match_golden_digests(self, stopword_runs):
        digests = {name: _sha256(out) for name, out in stopword_runs["stopwords"].items()}
        assert digests == GOLDEN_STOPWORD_DIGESTS

    def test_every_output_differs_without_stopwords(self, stopword_runs):
        for name in GOLDEN_STOPWORD_DIGESTS:
            assert stopword_runs["stopwords"][name] != stopword_runs["plain"][name], name
        for arm, curve in stopword_runs["stopwords"]["curves"].items():
            assert curve != stopword_runs["plain"]["curves"][arm], arm

    @pytest.mark.parametrize("lang", ["l0", "l1"])
    def test_no_stopword_is_indexed(self, stopword_runs, lang):
        index = json.loads(stopword_runs["stopwords"][f"interpreter_{lang}.json"])["term_index"]
        plain = json.loads(stopword_runs["plain"][f"interpreter_{lang}.json"])["term_index"]
        stopwords = {f"{lang}w{i:05d}" for i in STOPWORD_INDICES}
        assert stopwords & set(plain)
        assert not stopwords & set(index)
