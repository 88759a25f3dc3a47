"""The cyclic garbage collector is paused for a whole xlcat call, in
cli.main and in the pipeline's entry points. That is sound only while
xlcat builds no reference cycle: a cycle made inside a pause is freed
only by some later collection. These tests hold the program to that, and
pin where the pause reaches and where it ends."""

import gc
import json
import os
from collections import Counter
from dataclasses import replace

import pytest

from conftest import assert_no_child_left, make_config, make_corpus
from xlcat import _util, cli, features, pipeline
from xlcat.errors import DataError
from xlcat.pipeline import ablation, run_experiment, run_seeds
from xlcat.synth import SyntheticCorpusSpec


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small corpus, an experiment config, a seeds config and a synth
    spec on disk, with one run's artifacts and classify's predictions."""
    root = tmp_path_factory.mktemp("gc")
    spec = SyntheticCorpusSpec(n_concepts=12, n_meta_levels=2, branching=3, vocab_size_per_language=300,
                               n_languages=2, n_categories=3, docs_per_category=15, seed=5)
    corpus = make_corpus(root, spec, "data")
    cfg = make_config(corpus, seed=5, samples=10, k_doc=4, m=2, p=3, t=12)
    paths = {"config": root / "experiment.json", "seeds": root / "seeds.json", "synth": root / "synth.json"}
    paths["config"].write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    paths["seeds"].write_text(json.dumps(replace(cfg, seeds=(1, 2)).to_dict()), encoding="utf-8")
    paths["synth"].write_text(json.dumps(replace(spec, n_concepts=6).to_dict()), encoding="utf-8")
    artifacts = root / "artifacts"
    assert cli.main(["experiment", "--config", str(paths["config"]), "--out-dir", str(artifacts)]) == 0
    test_set = corpus.paths["datasets"]["l1"]["test"]
    ws = {"root": root, "cfg": cfg, "artifacts": artifacts, "test": test_set, **paths}
    assert CALLS["classify"](ws) == 0  # the predictions `evaluate` reads
    return ws


def _argv(ws, command, *extra, config="config"):
    return [command, "--config", str(ws[config]), "--out-dir", str(ws["root"] / "out" / command), *extra]


def _classify_argv(ws):
    return _argv(ws, "classify", "--dataset", str(ws["test"]), "--model", str(ws["artifacts"] / "model.json"),
                 "--space", str(ws["artifacts"] / "feature_space.json"), "--interpreters", str(ws["artifacts"]))


# Each call, given the workspace: every CLI command, and the pipeline's entry points.
CALLS = {
    "synth": lambda ws: cli.main(_argv(ws, "synth", config="synth")),
    "make-virtual-docs": lambda ws: cli.main(_argv(ws, "make-virtual-docs")),
    "build-interpreter": lambda ws: cli.main(_argv(ws, "build-interpreter")),
    "gen-features": lambda ws: cli.main(_argv(ws, "gen-features", "--dataset", str(ws["test"]))),
    "gen-features --space": lambda ws: cli.main(_argv(
        ws, "gen-features", "--dataset", str(ws["test"]), "--space", str(ws["artifacts"] / "feature_space.json"),
        "--interpreters", str(ws["artifacts"]))),
    "train": lambda ws: cli.main(_argv(
        ws, "train", "--space", str(ws["artifacts"] / "feature_space.json"),
        "--vectors", str(ws["artifacts"] / "train_vectors.jsonl"))),
    "classify": lambda ws: cli.main(_classify_argv(ws)),
    "evaluate": lambda ws: cli.main([
        "evaluate", "--predictions", str(ws["root"] / "out" / "classify" / "predictions.jsonl"),
        "--dataset", str(ws["test"]), "--out-dir", str(ws["root"] / "out" / "evaluate")]),
    "experiment": lambda ws: cli.main(_argv(ws, "experiment")),
    "experiment seeds": lambda ws: cli.main(_argv(ws, "experiment", config="seeds")),
    "ablate meta_features": lambda ws: cli.main(_argv(ws, "ablate", "--toggle", "meta_features")),
    "ablate virtual_docs": lambda ws: cli.main(_argv(ws, "ablate", "--toggle", "virtual_docs")),
    "run_experiment": lambda ws: run_experiment(ws["cfg"], out_dir=ws["root"] / "lib" / "run"),
    "run_seeds": lambda ws: run_seeds(replace(ws["cfg"], seeds=(1, 2)), out_dir=ws["root"] / "lib" / "seeds"),
    "ablation meta_features": lambda ws: ablation(ws["cfg"], "meta_features", out_dir=ws["root"] / "lib" / "a"),
    "ablation virtual_docs": lambda ws: ablation(ws["cfg"], "virtual_docs", out_dir=ws["root"] / "lib" / "b"),
}


def cyclic_garbage(call) -> Counter:
    """The types of the unreachable objects call() leaves, which only the
    cyclic collector could free, by name."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)  # every collection keeps what it finds in gc.garbage
    try:
        call()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.parametrize("name", CALLS)
def test_a_warmed_up_call_leaves_no_cyclic_garbage(workspace, capsys, name):
    """The first call warms up: the first parse in a process leaves
    argparse's formatter cycles, once. Every command but synth and evaluate
    reads an experiment config, whose path resolution was a recursive
    closure: a cycle of six objects per read."""
    call = CALLS[name]
    result = call(workspace)
    assert result == 0 or isinstance(result, dict)
    assert cyclic_garbage(lambda: call(workspace)) == Counter()
    assert gc.isenabled()
    assert_no_child_left()


def _recording(monkeypatch, module, name):
    """Patch module.name to record gc.isenabled() at each call made here."""
    seen, fn, parent = [], getattr(module, name), os.getpid()

    def recorded(*args, **kwargs):
        if os.getpid() == parent:
            seen.append(gc.isenabled())
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return seen


@pytest.mark.parametrize("cpus", [1, 2])
def test_classify_maps_with_the_collector_paused_and_restores_it(workspace, capsys, monkeypatch, cpus):
    monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
    seen = _recording(monkeypatch, features, "document_features")
    assert cli.main(_classify_argv(workspace)) == 0
    assert seen and not any(seen)
    assert gc.isenabled()
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_run_fits_with_the_collector_paused_and_restores_it(workspace, monkeypatch, cpus):
    monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
    seen = _recording(monkeypatch, pipeline, "_fit")
    run_experiment(workspace["cfg"])
    assert seen == [False]
    assert gc.isenabled()


def test_an_exit_2_restores_the_collector(workspace, capsys):
    missing = str(workspace["root"] / "missing.json")
    assert cli.main(_argv(workspace, "classify", "--dataset", missing, "--model", missing, "--space", missing)) == 2
    assert gc.isenabled()
    with pytest.raises(DataError):
        run_experiment(replace(workspace["cfg"], corpus_path=missing))
    assert gc.isenabled()


def test_a_task_that_fails_in_its_child_reruns_paused_and_the_collector_is_restored(workspace, monkeypatch):
    monkeypatch.setattr(_util, "_usable_cpus", lambda: 2)
    parent, test_features, reran = os.getpid(), pipeline._test_features, []

    def fails_in_a_child(*args):
        if os.getpid() != parent:
            raise RuntimeError("child")
        reran.append(gc.isenabled())
        return test_features(*args)

    monkeypatch.setattr(pipeline, "_test_features", fails_in_a_child)
    expected = run_experiment(workspace["cfg"])
    assert reran == [False]
    assert gc.isenabled()
    monkeypatch.setattr(pipeline, "_test_features", test_features)
    assert run_experiment(workspace["cfg"]) == expected
    assert_no_child_left()
