import gc
import hashlib
import json
import random
import sys
import weakref
from collections import Counter
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xlcat import _util, cli, pipeline
from xlcat.corpus import ARTICLE_FLAGS, FilterConfig, load_support_corpus, tokenize
from xlcat.errors import DataError, SetupViolation
from xlcat.interpreter import build_interpreter
from xlcat.ontology import SupportIndex, merge_hierarchies, retained_concepts
from xlcat.pipeline import (
    SETUPS,
    ExperimentConfig,
    Hyperparams,
    ablation,
    run_experiment,
    run_seeds,
)
from xlcat.synth import SyntheticCorpusSpec
from xlcat.virtualdocs import InsufficientAncestryError

from conftest import assert_no_child_left, make_config, make_corpus


@pytest.fixture
def corpus(tmp_path, small_spec):
    return make_corpus(tmp_path, small_spec)


def default_hp():
    return dict(k_doc=4, m=2, p=3, t=12, samples=15)


def setup_allows(setup, sources, targets):
    """The set-level definitions of the four setups."""
    src, tgt = set(sources), set(targets)
    if setup == "CLTC1":
        return len(src) == 1 and len(tgt) == 1 and src == tgt
    if setup == "CLTC2":
        return len(src) == 1 and len(tgt) == 1 and src != tgt
    if setup == "CLTC3":
        return len(src) > 1 and len(tgt) == 1
    return len(src) >= 1 and len(tgt) >= 1


class TestSetupValidation:
    """A config is checked where it is built: every accepted one builds, and
    every rejected one raises SetupViolation at make_config or replace."""

    def test_cltc1_same_language_valid(self, corpus):
        cfg = make_config(corpus, setup="CLTC1", sources=("l0",), targets=("l0",), **default_hp())
        assert replace(cfg, seed=1).setup == "CLTC1"

    def test_cltc2_same_language_rejected(self, corpus):
        with pytest.raises(SetupViolation):
            make_config(corpus, setup="CLTC2", sources=("l0",), targets=("l0",), **default_hp())

    def test_unknown_setup_rejected(self, corpus):
        cfg = make_config(corpus, **default_hp())
        with pytest.raises(SetupViolation):
            replace(cfg, setup="CLTC9")

    def test_empty_targets_rejected(self, corpus):
        with pytest.raises(SetupViolation):
            make_config(corpus, setup="UCLTC", targets=(), **default_hp())

    def test_random_assignments_match_set_algebra(self, corpus):
        # A config must build exactly when the set-level definitions of the
        # four setups allow it.
        rng = random.Random(3)
        langs = ["l0", "l1"]
        for _ in range(200):
            sources = tuple(l for l in langs if rng.random() < 0.6)
            targets = tuple(l for l in langs if rng.random() < 0.6)
            setup = rng.choice(["CLTC1", "CLTC2", "CLTC3", "UCLTC"])
            build = partial(make_config, corpus, setup=setup, sources=sources, targets=targets, **default_hp())
            if setup_allows(setup, sources, targets):
                assert build().setup == setup
            else:
                with pytest.raises(SetupViolation):
                    build()


class TestRunExperiment:
    def test_end_to_end_determinism(self, corpus, tmp_path):
        cfg = make_config(corpus, seed=5, **default_hp())
        r1 = run_experiment(cfg, out_dir=tmp_path / "a")
        r2 = run_experiment(cfg, out_dir=tmp_path / "b")
        assert r1 == r2
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_leaves_no_cyclic_garbage(self, corpus, tmp_path):
        """A run with out_dir frees everything it allocates by reference
        counting, so the cyclic collector's timing cannot move peak memory."""
        cfg = make_config(corpus, seed=5, **default_hp())
        run_experiment(cfg, out_dir=tmp_path / "warm")  # first-use caches and imports
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run_experiment(cfg, out_dir=tmp_path / "run")
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert garbage == []
        assert (tmp_path / "run" / "report.json").read_bytes() == (
            tmp_path / "warm" / "report.json"
        ).read_bytes()

    def test_workers_do_not_change_report(self, corpus):
        cfg = make_config(corpus, seed=5, **default_hp())
        assert run_experiment(cfg, workers=1) == run_experiment(cfg, workers=4)

    def test_workers_start_no_thread(self, corpus, no_threads):
        cfg = make_config(corpus, seed=5, **default_hp())
        assert run_experiment(cfg, workers=4) == run_experiment(cfg, workers=1)

    def test_ucltc_path_subsumes_cltc2(self, corpus):
        hp = default_hp()
        cltc2 = make_config(corpus, setup="CLTC2", **hp)
        ucltc = make_config(corpus, setup="UCLTC", **hp)
        r2, ru = run_experiment(cltc2), run_experiment(ucltc)
        assert r2["results"] == ru["results"]
        assert r2["data"] == ru["data"]

    def test_insufficient_samples_error(self, corpus):
        cfg = make_config(corpus, samples=10 ** 6, k_doc=4, m=2, p=3, t=12)
        with pytest.raises(DataError):
            run_experiment(cfg)

    def test_artifacts_written(self, corpus, tmp_path):
        out = tmp_path / "run"
        cfg = make_config(corpus, **default_hp())
        run_experiment(cfg, out_dir=out)
        for name in (
            "report.json",
            "model.json",
            "feature_space.json",
            "train_vectors.jsonl",
            "virtual_docs.jsonl",
            "interpreter_l0.json",
            "interpreter_l1.json",
        ):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["accuracy"] <= 1.0
        assert report["data"]["n_train"] == 15 * 3

    def test_multi_seed_aggregate(self, corpus, tmp_path):
        cfg = make_config(corpus, **default_hp())
        agg = run_seeds(replace(cfg, seeds=(1, 2, 3)), out_dir=tmp_path / "sweep")
        assert len(agg["per_seed_results"]) == 3
        assert 0.0 <= agg["mean_accuracy"] <= 1.0
        assert (tmp_path / "sweep" / "seed_2" / "report.json").exists()

    def test_run_seeds_rejects_a_repeated_seed_as_the_config_reader_does(self, corpus):
        cfg = make_config(corpus, **default_hp())
        with pytest.raises(DataError) as read:
            ExperimentConfig.from_dict({**cfg.to_dict(), "seeds": [1, 1]})
        with pytest.raises(DataError) as built:
            replace(cfg, seeds=(1, 1))
        assert str(read.value) == str(built.value) == (
            "experiment config field 'seeds' repeats a seed: [1, 1]"
        )

    def test_run_seeds_runs_the_config_seeds_and_each_report_reads_back_as_its_run(self, corpus, tmp_path):
        cfg = replace(make_config(corpus, **default_hp()), seeds=(1, 2, 3))
        aggregate = run_seeds(cfg, out_dir=tmp_path / "sweep")
        assert aggregate["seeds"] == [1, 2, 3] and sorted(aggregate["per_seed_results"]) == ["1", "2", "3"]
        written = json.loads((tmp_path / "sweep" / "report.json").read_text(encoding="utf-8"))
        assert ExperimentConfig.from_dict(written["config"]) == cfg
        for s in cfg.seeds:
            report = json.loads((tmp_path / "sweep" / f"seed_{s}" / "report.json").read_text(encoding="utf-8"))
            assert ExperimentConfig.from_dict(report["config"]) == replace(cfg, seed=s)

    def test_run_seeds_on_a_config_without_seeds_is_a_data_error(self, corpus, tmp_path):
        with pytest.raises(DataError, match="'seeds' is empty"):
            run_seeds(make_config(corpus, **default_hp()), out_dir=tmp_path / "sweep")
        assert not (tmp_path / "sweep").exists()

    def test_ucltc_three_sources_450_examples(self, tmp_path, small_spec):
        # 3 source languages x 3 categories x 50 samples = 450 training docs.
        spec = replace(small_spec, n_languages=3, docs_per_category=50)
        corpus = make_corpus(tmp_path, spec, "tri")
        cfg = make_config(
            corpus, setup="UCLTC", sources=("l0", "l1", "l2"),
            targets=("l0", "l1", "l2"), samples=50, k_doc=4, m=2, p=3, t=12,
        )
        report = run_experiment(cfg)
        assert report["data"]["n_train"] == 450
        assert report["data"]["n_test"] == 450


def run_files(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


# (sources, targets) of each setup over a three-language corpus.
_SETUP_LANGUAGES = {
    "CLTC1": (("l0",), ("l0",)),
    "CLTC2": (("l0",), ("l1",)),
    "CLTC3": (("l0", "l1"), ("l2",)),
}
# A UCLTC run with a target that is also a source (l1) and one that is not (l2).
_FORK_SETUPS = {**_SETUP_LANGUAGES, "UCLTC": (("l0", "l1"), ("l1", "l2"))}


class TestForkedArtifactWriter:
    """A run forks its classification side, which builds the target-only
    interpreters, writes their files with out_dir and returns the test
    set's labels and concepts, while this process builds the rest and fits.
    With out_dir, one more child writes this process's interpreter and
    virtual-docs files while _fit runs. At 2 CPUs, training with two or more
    categories forks one more child for the second half of the categories.
    The files and errors do not depend on whether it forks."""

    def test_process_count_changes_no_byte(self, corpus, tmp_path, monkeypatch, forks):
        cfg = make_config(corpus, seed=5, **default_hp())
        reports, files = [], []
        for cpus in (1, 2):
            monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
            reports.append(run_experiment(cfg, out_dir=tmp_path / f"cpus{cpus}"))
            files.append(run_files(tmp_path / f"cpus{cpus}"))
            assert len(forks) == 3 * (cpus - 1)
            assert_no_child_left()
        assert reports[0] == reports[1]
        assert files[0] == files[1]
        assert {"interpreter_l0.json", "interpreter_l1.json", "virtual_docs.jsonl",
                "report.json"} <= set(files[1])

    def test_forks_a_child_per_run_and_a_writer_per_out_dir(
        self, corpus, tmp_path, monkeypatch, forks
    ):
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 2)
        cfg = make_config(corpus, seed=5, **default_hp())
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        run = tmp_path / "run"
        run_experiment(cfg, out_dir=run)
        assert len(forks) == 3
        run_experiment(cfg)
        ablation(cfg, "meta_features", out_dir=tmp_path / "meta")  # two runs, no run dir
        assert len(forks) == 9
        # the virtual-docs curve forks a classification child and a training
        # child per model it trains; classify forks a child per usable CPU
        # past the first to map its second block of documents
        trained, train = [], pipeline.train

        def counted_train(*args, **kwargs):
            trained.append(1)
            return train(*args, **kwargs)

        monkeypatch.setattr(pipeline, "train", counted_train)
        ablation(cfg, "virtual_docs", out_dir=tmp_path / "curve", prefix_fraction=0.7, n_blocks=2)
        assert trained and len(forks) == 9 + 2 * len(trained)
        assert cli.main([
            "classify", "--config", str(config), "--model", str(run / "model.json"),
            "--space", str(run / "feature_space.json"), "--interpreters", str(run),
            "--dataset", str(corpus.paths["datasets"]["l1"]["test"]),
            "--out-dir", str(tmp_path / "classify"),
        ]) == 0
        assert len(forks) == 10 + 2 * len(trained)
        assert_no_child_left()

    def test_forks_nothing_beside_another_thread(self, corpus, tmp_path, monkeypatch, forks,
                                                 another_thread):
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 1)
        cfg = make_config(corpus, seed=5, **default_hp())
        run_experiment(cfg, out_dir=tmp_path / "serial")
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 2)
        run_experiment(cfg, out_dir=tmp_path / "threaded")
        assert not forks
        assert run_files(tmp_path / "threaded") == run_files(tmp_path / "serial")

    def test_failing_write_raises_the_serial_error(self, corpus, tmp_path, monkeypatch, forks):
        """An interpreter file path taken by a directory fails the task of
        the child that writes it: the writer's for the source language l0,
        the classification side's for the target language l1. The run
        raises what it raises in one process, leaves no child and writes no
        report."""
        cfg = make_config(corpus, seed=5, **default_hp())
        for name in ("interpreter_l0.json", "interpreter_l1.json"):
            errors = []
            for cpus in (1, 2):
                monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
                forks.clear()
                out = tmp_path / name / f"cpus{cpus}"
                (out / name).mkdir(parents=True)
                with pytest.raises(IsADirectoryError) as exc:
                    run_experiment(cfg, out_dir=out)
                errors.append(str(exc.value).replace(str(out), "<out>"))
                assert len(forks) == 3 * (cpus - 1)
                assert_no_child_left()
                assert not (out / "report.json").exists()
            assert errors[0] == errors[1]
            assert name in errors[0]

    def test_failing_write_is_a_cli_data_error(self, corpus, tmp_path, monkeypatch, capsys,
                                               forks):
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 2)
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(make_config(corpus, **default_hp()).to_dict()),
                          encoding="utf-8")
        (tmp_path / "out" / "interpreter_l0.json").mkdir(parents=True)
        assert cli.main(["experiment", "--config", str(config), "--out-dir",
                         str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "interpreter_l0.json" in err and "Traceback" not in err
        assert len(forks) == 3
        assert_no_child_left()

    @pytest.mark.parametrize("call", ["run_experiment", "run_seeds", "meta_features", "virtual_docs"])
    @pytest.mark.parametrize("setup", sorted(_FORK_SETUPS))
    def test_every_setup_gives_the_same_bytes_at_one_and_two_cpus(
        self, ablation_corpora, tmp_path, monkeypatch, forks, setup, call
    ):
        sources, targets = _FORK_SETUPS[setup]
        cfg = make_config(ablation_corpora[0][0], setup=setup, sources=sources, targets=targets,
                          seed=5, **default_hp())
        run = {
            "run_experiment": lambda out: run_experiment(cfg, out_dir=out),
            "run_seeds": lambda out: run_seeds(replace(cfg, seeds=(1, 2)), out_dir=out),
            "meta_features": lambda out: ablation(cfg, "meta_features", out_dir=out),
            "virtual_docs": lambda out: ablation(
                cfg, "virtual_docs", out_dir=out, prefix_fraction=0.7, n_blocks=2
            ),
        }[call]
        trained, train = [], pipeline.train

        def counted_train(*args, **kwargs):
            trained.append(1)
            return train(*args, **kwargs)

        monkeypatch.setattr(pipeline, "train", counted_train)
        # forks at 2 CPUs without and with out_dir: a classification child
        # and a training child per run, and a writer per run that has a run
        # directory; the virtual-docs curve forks the first two per model
        # it trains
        n_forks = {"run_experiment": (2, 3), "run_seeds": (4, 6), "meta_features": (4, 4)}.get(call)
        for with_out in (False, True):
            outputs = []
            for cpus in (1, 2):
                monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
                forks.clear()
                trained.clear()
                out = tmp_path / f"out{cpus}" if with_out else None
                result = run(out)
                files = {} if out is None else {
                    path.relative_to(out): path.read_bytes()
                    for path in sorted(out.rglob("*")) if path.is_file()
                }
                outputs.append((result, files))
                expected = n_forks[with_out] if n_forks else 2 * len(trained)
                assert trained and len(forks) == expected * (cpus - 1)
                assert_no_child_left()
            assert outputs[0] == outputs[1]
            if with_out and call == "run_experiment":
                assert {f"interpreter_{lang}.json" for lang in cfg.needed_languages()} | {
                    "virtual_docs.jsonl", "report.json"} <= {str(p) for p in outputs[0][1]}

    @pytest.mark.parametrize("call", ["run_experiment", "run_seeds", "meta_features", "virtual_docs"])
    def test_no_support_index_is_alive_here_while_fitting(self, corpus, monkeypatch, call):
        """At 2 CPUs this process drops the SupportIndex once it has built
        its own interpreters; the classification child keeps its copy."""
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 2)
        indexes, fit = [], pipeline._fit

        class TrackedIndex(SupportIndex):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                indexes.append(weakref.ref(self))

        def checked_fit(*args):
            gc.collect()
            assert indexes and not any(ref() for ref in indexes)
            return fit(*args)

        monkeypatch.setattr(pipeline, "SupportIndex", TrackedIndex)
        monkeypatch.setattr(pipeline, "_fit", checked_fit)
        cfg = make_config(corpus, **default_hp())
        {"run_experiment": lambda: run_experiment(cfg),
         "run_seeds": lambda: run_seeds(replace(cfg, seeds=(1, 2))),
         "meta_features": lambda: ablation(cfg, "meta_features"),
         "virtual_docs": lambda: ablation(cfg, "virtual_docs", prefix_fraction=0.7, n_blocks=2)}[call]()
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_fit_error_propagates_and_leaves_no_child(self, corpus, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)

        def failing_fit(*args):
            raise RuntimeError("fit failed")

        monkeypatch.setattr(pipeline, "_fit", failing_fit)
        with pytest.raises(RuntimeError, match="fit failed"):
            run_experiment(make_config(corpus, **default_hp()), out_dir=tmp_path / "run")
        assert_no_child_left()
        assert not (tmp_path / "run" / "report.json").exists()


# sha256 of a tiny CLTC2 run that selects 12 of its 43 features: the
# report's data and results (as canonical JSON) and each artifact's bytes.
GOLDEN_RUN_DIGESTS = {
    "data+results": "354b4df8dac01db9496cd4a2e212a8610d188f3cab7afd40d95f8e87a228e5bb",
    "feature_space.json": "bec0ca402b0b5aa3fbec09b9970ff6c2774e15bdfbafacaed3a288f20dbb9f94",
    "interpreter_l0.json": "621937cbcb6349c3407ab5f85981d216c23318c63ec668977e9bd0f41fef794a",
    "interpreter_l1.json": "f65df2c2a8a2ab254341de765d50b0f907ef3660eb4c087accacf0f6ac3de467",
    "model.json": "f76f2545aecce97e5078592dfea8971ad7233792cdc7f0391882aaad0f1c4f74",
}


def test_selection_run_matches_golden_digests(tmp_path):
    """Bit-identity gate on the learning path: interpreter build, meta
    features, information-gain selection, training and artifact writing."""
    spec = SyntheticCorpusSpec(
        n_concepts=24, n_meta_levels=2, branching=3, vocab_size_per_language=400,
        n_languages=2, n_categories=3, docs_per_category=20, noise_rate=0.05, seed=7,
    )
    corpus = make_corpus(tmp_path, spec)
    cfg = make_config(corpus, seed=3, samples=15, k_term=6, k_doc=6, m=2, p=3, t=12, n_select=12)
    out = tmp_path / "run"
    report = run_experiment(cfg, out_dir=out)
    assert report["data"]["feature_space_size_initial"] == 43
    assert report["data"]["feature_space_size_selected"] == 12
    scored = json.dumps({k: report[k] for k in ("data", "results")}, sort_keys=True)
    digests = {"data+results": hashlib.sha256(scored.encode()).hexdigest()}
    for name in GOLDEN_RUN_DIGESTS:
        if name.endswith(".json"):
            digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert digests == GOLDEN_RUN_DIGESTS


# sha256 (canonical JSON, `config` removed since it holds temporary paths) of
# the three calls that run an experiment more than once over one Resources,
# on a tiny interleaved CLTC2 corpus whose selecting arm keeps 15 of 20
# features.
GOLDEN_MULTI_RUN_DIGESTS = {
    "virtual_docs": "0ab362ddcc51c30243ff8eb54bcbc4b0752388cb1342c5ab6247c8ce8d73e33d",
    "meta_features": "73c6cec2b7bb00be04faabd9a5b23d182520509e1abbb26e8550113eb87ebe3a",
    "run_seeds": "a533bbb4d26e300bcc08ba9e2f6f630922a33090de80f6c2d65f6ced6e6be3b7",
}


def _without_config(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "config"}


def _interleaved_corpus(tmp_path):
    spec = SyntheticCorpusSpec(
        n_concepts=12, n_meta_levels=1, branching=3, vocab_size_per_language=300,
        n_languages=2, n_categories=3, docs_per_category=15, noise_rate=0.05,
        seed=4, category_layout="interleaved",
    )
    return make_corpus(tmp_path, spec)


def test_multi_run_calls_match_golden_digests(tmp_path):
    """Bit-identity gate on the virtual-docs ablation curve, the
    meta-features ablation and a two-seed sweep."""
    cfg = make_config(_interleaved_corpus(tmp_path), samples=10, k_doc=4, m=1, p=2, t=12, n_select=15)
    curve = ablation(cfg, "virtual_docs", prefix_fraction=0.7, n_blocks=2)
    meta = ablation(cfg, "meta_features")
    seeds = run_seeds(replace(cfg, seeds=(1, 2)))
    reports = {
        "virtual_docs": _without_config(curve),
        "meta_features": {
            **meta,
            "with": _without_config(meta["with"]),
            "without": _without_config(meta["without"]),
        },
        "run_seeds": _without_config(seeds),
    }
    digests = {
        name: hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        for name, report in reports.items()
    }
    assert digests == GOLDEN_MULTI_RUN_DIGESTS


_names = st.text("abcxyz", min_size=1, max_size=4)
_paths = st.builds(lambda name, absolute: ("/data/" if absolute else "") + name + ".jsonl",
                   _names, st.booleans())
_counts = st.integers(1, 10**6)


@st.composite
def experiment_config_fields(draw):
    """The fields of an ExperimentConfig, each drawn from its valid values
    and with distinct seeds, so only the setup's rule can reject them;
    language tuples sorted, as to_dict writes them."""
    languages = sorted(draw(st.sets(_names, min_size=1, max_size=3)))
    splits = st.sets(st.sampled_from(["train", "test"]), min_size=1)
    return dict(
        setup=draw(st.sampled_from(SETUPS)),
        source_languages=tuple(sorted(draw(st.sets(st.sampled_from(languages), min_size=1)))),
        target_languages=tuple(sorted(draw(st.sets(st.sampled_from(languages), min_size=1)))),
        samples_per_category_per_language=draw(_counts),
        seed=draw(st.integers(-2**40, 2**40)),
        corpus_path=draw(_paths),
        concepts_path=draw(_paths),
        hierarchy_path=draw(_paths),
        datasets={lang: {s: draw(_paths) for s in draw(splits)} for lang in languages},
        hyperparams=Hyperparams(
            k_term=draw(_counts), k_doc=draw(_counts), m=draw(st.integers(0, 9)),
            p=draw(_counts), t=draw(_counts), n_select=draw(_counts), epochs=draw(_counts),
            lambda_=draw(st.floats(1e-12, 1e6) | st.integers(1, 9)),
        ),
        virtual_docs=draw(st.booleans()),
        filter=FilterConfig(
            min_chars=draw(st.integers(0, 10**4)), min_links_in=draw(st.integers(0, 99)),
            min_links_out=draw(st.integers(0, 99)),
            drop_flags=draw(st.frozensets(st.sampled_from(sorted(ARTICLE_FLAGS)))),
        ),
        stopword_paths=draw(st.dictionaries(st.sampled_from(languages), _paths)),
        seeds=tuple(draw(st.lists(st.integers(0, 99), unique=True, max_size=4))),
    )


class TestConfigIO:
    @settings(max_examples=300)  # about a fifth of the draws meet the setup's rule and round-trip
    @given(experiment_config_fields())
    def test_reads_back_what_to_dict_writes(self, fields):
        datasets = fields["datasets"]
        if not (setup_allows(fields["setup"], fields["source_languages"], fields["target_languages"])
                and all("train" in datasets[lang] for lang in fields["source_languages"])
                and all("test" in datasets[lang] for lang in fields["target_languages"])):
            with pytest.raises(SetupViolation):
                ExperimentConfig(**fields)
            return
        cfg = ExperimentConfig(**fields)
        # Unknown keys are rejected, so every key to_dict writes must be one the reader knows.
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_round_trip_via_file(self, corpus, tmp_path):
        cfg = make_config(corpus, **default_hp())
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        loaded = ExperimentConfig.from_file(path)
        assert loaded.to_dict() == cfg.to_dict()

    def test_relative_paths_resolved_against_config_dir(self, corpus, tmp_path):
        cfg = make_config(corpus, **default_hp())
        d = cfg.to_dict()
        base = corpus.out_dir
        d["paths"]["corpus"] = "corpus.jsonl"
        path = base / "config.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        loaded = ExperimentConfig.from_file(path)
        assert loaded.corpus_path == str(base / "corpus.jsonl")

    def test_missing_key_is_data_error(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"setup": "CLTC2"}), encoding="utf-8")
        with pytest.raises(DataError):
            ExperimentConfig.from_file(path)

    def test_unknown_hyperparameter_rejected(self):
        with pytest.raises(DataError):
            Hyperparams.from_dict({"bogus": 3})
        with pytest.raises(DataError):
            Hyperparams.from_dict({"lambda_": 0.5})

    def test_lambda_alias(self):
        hp = Hyperparams.from_dict({"lambda": 0.5})
        assert hp.lambda_ == 0.5
        assert hp.to_dict()["lambda"] == 0.5


class TestAblation:
    def test_meta_toggle_same_samples(self, corpus):
        cfg = make_config(corpus, **default_hp())
        result = ablation(cfg, "meta_features")
        assert result["with"]["data"]["train_doc_ids"] == result["without"]["data"]["train_doc_ids"]
        assert result["without"]["config"]["hyperparams"]["m"] == 0
        assert result["delta_accuracy"] == pytest.approx(
            result["with"]["results"]["accuracy"] - result["without"]["results"]["accuracy"]
        )

    def test_virtual_curve_shape(self, tmp_path):
        spec = SyntheticCorpusSpec(
            n_concepts=12, n_meta_levels=1, branching=3, vocab_size_per_language=300,
            n_languages=2, n_categories=3, docs_per_category=15, noise_rate=0.05,
            seed=4, category_layout="interleaved",
        )
        corpus = make_corpus(tmp_path, spec)
        cfg = make_config(corpus, samples=10, k_doc=4, m=1, p=2, t=12)
        result = ablation(cfg, "virtual_docs", prefix_fraction=0.7, n_blocks=2)
        assert result["block_counts"] == [0, 1, 2]
        for arm in ("original", "virtual", "deleted"):
            assert len(result["curves"][arm]) == 3
        first = {arm: result["curves"][arm][0] for arm in result["curves"]}
        assert len(set(first.values())) == 1  # identical runs at block 0

    def test_virtual_curve_caps_the_block_count_at_the_tail(self, corpus):
        cfg = make_config(corpus, **default_hp())
        capped = ablation(cfg, "virtual_docs", prefix_fraction=0.7, n_blocks=10**12)
        n_tail = capped["n_concepts"][-1] - capped["n_prefix"]
        assert capped["block_counts"] == list(range(n_tail + 1))
        assert capped == ablation(cfg, "virtual_docs", prefix_fraction=0.7, n_blocks=n_tail)

    def test_virtual_curve_merges_the_hierarchy_once(self, corpus, monkeypatch):
        calls = []

        def counting_merge(*args):
            calls.append(args)
            return merge_hierarchies(*args)

        monkeypatch.setattr(pipeline, "merge_hierarchies", counting_merge)
        cfg = make_config(corpus, **default_hp())
        result = ablation(cfg, "virtual_docs", prefix_fraction=0.7, n_blocks=2)
        assert len(result["curves"]["virtual"]) == 3
        assert len(calls) == 1

    def test_virtual_curve_trains_and_builds_each_distinct_arm_once(self, corpus, monkeypatch):
        # On a corpus where every virtual document builds, the virtual arm at
        # j > 0 has original arm j's source interpreter and so its model, the
        # virtual arm at 0 builds no table and is original arm 0, and every
        # deleted arm retains exactly the prefix, as original arm 0 does.
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def constructing(*args):
            try:
                return construct(*args)
            except InsufficientAncestryError:
                counts["insufficient"] += 1
                raise

        construct = pipeline.construct_virtual_document
        monkeypatch.setattr(pipeline, "construct_virtual_document", constructing)
        monkeypatch.setattr(pipeline, "train", counting("train", pipeline.train))
        monkeypatch.setattr(
            pipeline, "build_interpreter", counting("build", pipeline.build_interpreter)
        )
        cfg = make_config(corpus, **default_hp())
        n_blocks = 3
        # one CPU, so that no build runs in a forked child, out of these counts
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 1)
        result = ablation(cfg, "virtual_docs", prefix_fraction=0.5, n_blocks=n_blocks)
        assert result["block_counts"] == [0, 1, 2, 3]
        assert counts["insufficient"] == 0
        assert counts["train"] == n_blocks + 1 == 4
        assert counts["build"] == 3 * n_blocks + 2 == 11
        curves = result["curves"]
        assert curves["deleted"][0] == curves["original"][0]
        assert curves["deleted"] == [curves["original"][0]] * (n_blocks + 1)

    def test_virtual_curve_workers_start_no_thread(self, corpus, no_threads):
        cfg = make_config(corpus, **default_hp())
        curve = partial(ablation, cfg, "virtual_docs", prefix_fraction=0.7, n_blocks=2)
        assert curve(workers=4) == curve(workers=1)

    def test_unknown_toggle_rejected(self, corpus):
        cfg = make_config(corpus, **default_hp())
        with pytest.raises(DataError):
            ablation(cfg, "nonsense")


class TestSharedInputs:
    """What a call that runs several experiments over one Resources computes
    once, and what a single run keeps."""

    @pytest.fixture
    def memos(self, monkeypatch):
        """The term-count memo of every SupportIndex the pipeline builds."""
        seen = []

        class RecordingIndex(SupportIndex):
            def __init__(self, *args):
                super().__init__(*args)
                seen.append(self._term_counts)

        monkeypatch.setattr(pipeline, "SupportIndex", RecordingIndex)
        return seen

    @pytest.fixture
    def dataset_io(self, monkeypatch):
        """The (language, split) of every dataset load, and the arguments of
        every training sample drawn."""
        loads, samples = [], []
        load, sample = pipeline._load_dataset, pipeline._sample_training_docs

        def counting_load(cfg, lang, split):
            loads.append((lang, split))
            return load(cfg, lang, split)

        def counting_sample(*args):
            samples.append(args)
            return sample(*args)

        monkeypatch.setattr(pipeline, "_load_dataset", counting_load)
        monkeypatch.setattr(pipeline, "_sample_training_docs", counting_sample)
        return loads, samples

    def test_virtual_curve_loads_and_samples_once(self, corpus, dataset_io, memos):
        loads, samples = dataset_io
        cfg = make_config(corpus, **default_hp())
        ablation(cfg, "virtual_docs", prefix_fraction=0.7, n_blocks=2)
        assert sorted(loads) == [("l0", "train"), ("l1", "test")]
        assert len(samples) == 1
        # nine arms, each building its own index over the call's one memo
        assert len(memos) == 9 and memos[0] and all(m is memos[0] for m in memos)

    @pytest.mark.parametrize("call,n_samples", [
        (lambda cfg: ablation(cfg, "meta_features"), 1),
        (lambda cfg: run_seeds(replace(cfg, seeds=(1, 2, 3))), 3),
    ], ids=["meta_features", "run_seeds"])
    def test_runs_over_the_same_resources_prepare_and_load_once(
        self, corpus, dataset_io, memos, call, n_samples
    ):
        loads, samples = dataset_io
        call(make_config(corpus, **default_hp()))
        assert sorted(loads) == [("l0", "train"), ("l1", "test")]
        assert len(samples) == n_samples
        assert memos == [None]

    def test_virtual_curve_tokenizes_each_article_at_most_once(self, corpus, monkeypatch):
        calls = Counter()

        def counting_tokenize(text, *args):
            calls[text] += 1
            return tokenize(text, *args)

        for name, module in list(sys.modules.items()):
            if name.startswith("xlcat") and getattr(module, "tokenize", None) is tokenize:
                monkeypatch.setattr(module, "tokenize", counting_tokenize)
        cfg = make_config(corpus, **default_hp())
        ablation(cfg, "virtual_docs", prefix_fraction=0.7, n_blocks=2)
        articles = Counter(a.text for a in load_support_corpus(cfg.corpus_path))
        assert sum(calls[text] for text in articles) > 0
        assert all(calls[text] <= n for text, n in articles.items())

    def test_run_experiment_keeps_no_term_count_memo(self, corpus, memos):
        run_experiment(make_config(corpus, **default_hp()))
        assert memos == [None]


def reference_virtual_docs_curve(cfg, prefix_fraction, n_blocks):
    """The curves of a virtual-docs ablation computed with no reuse, in one
    process: every arm, the deleted ones included, builds its support index,
    tables and every needed interpreter, then fits, classifies and scores."""
    res = replace(pipeline.load_resources(cfg), term_counts={})
    reference_lang = sorted(cfg.source_languages)[0]
    lengths = {c: 0 for c in res.basic}
    for a in res.articles:
        if a.language == reference_lang and a.concept_id in lengths:
            lengths[a.concept_id] += len(a.text)
    ranked = sorted(res.basic, key=lambda c: (-lengths[c], c))
    n_prefix = max(1, round(prefix_fraction * len(ranked)))
    tail = ranked[n_prefix:]
    blocks, start = [], 0
    base, extra = divmod(len(tail), n_blocks)
    for b in range(n_blocks):
        size = base + (1 if b < extra else 0)
        blocks.append(tail[start : start + size])
        start += size
    blocks = [b for b in blocks if b]
    training, test_docs = pipeline._load_documents(cfg)
    needed, targets = cfg.needed_languages(), sorted(set(cfg.target_languages))
    curve = {"original": [], "virtual": [], "deleted": []}
    for j in range(len(blocks) + 1):
        added = [c for block in blocks[:j] for c in block]
        restricted = replace(res, basic=set(ranked[:n_prefix]) | set(added))
        dropped = {(c, lang) for c in added for lang in targets}
        stripped = replace(restricted, articles=[
            a for a in res.articles if (a.concept_id, a.language) not in dropped
        ])
        for arm, virtual_docs, arm_res in [
            ("original", False, restricted), ("deleted", False, stripped), ("virtual", True, stripped)
        ]:
            arm_cfg = replace(cfg, virtual_docs=virtual_docs)
            idx = SupportIndex(arm_res.basic, [
                a for a in arm_res.articles if a.concept_id in arm_res.basic and a.language in needed
            ], arm_res.stopwords, arm_res.term_counts)
            if virtual_docs:
                pipeline._construct_virtual_docs(arm_cfg, arm_res.hierarchy, idx)
            retained = retained_concepts(idx, needed)
            assert retained
            interpreters = {
                lang: build_interpreter(idx, lang, retained, cfg.hyperparams.k_term) for lang in needed
            }
            space, _, model = pipeline._fit(arm_cfg, res.hierarchy, interpreters, training, 1)
            features = pipeline._test_features(arm_cfg, res.hierarchy, interpreters, test_docs)
            curve[arm].append(pipeline._score(space, model, features).accuracy)
    return curve


# (concept, language) pairs whose support articles the "holey" corpus lacks,
# so that virtual arms also build tables in source languages.
_HOLES = {("b0002", "l0"), ("b0007", "l1"), ("b0010", "l0"), ("b0004", "l2")}


@pytest.fixture(scope="module")
def ablation_corpora(tmp_path_factory):
    """(corpus, support corpus path) of three three-language corpora:
    blocked categories, interleaved ones, and the blocked corpus without the
    support articles of _HOLES."""
    base = dict(
        n_concepts=12, n_meta_levels=2, branching=3, vocab_size_per_language=300,
        n_languages=3, n_categories=3, docs_per_category=20, noise_rate=0.05,
    )
    blocked = make_corpus(tmp_path_factory.mktemp("blocked"), SyntheticCorpusSpec(**base, seed=11))
    interleaved = make_corpus(tmp_path_factory.mktemp("interleaved"), SyntheticCorpusSpec(
        **base, seed=4, category_layout="interleaved"
    ))
    holey = tmp_path_factory.mktemp("holey") / "corpus.jsonl"
    lines = blocked.paths["corpus"].read_text(encoding="utf-8").splitlines(keepends=True)
    holey.write_text("".join(
        line for line in lines
        if (json.loads(line)["concept_id"], json.loads(line)["language"]) not in _HOLES
    ), encoding="utf-8")
    return [
        (blocked, blocked.paths["corpus"]),
        (interleaved, interleaved.paths["corpus"]),
        (blocked, holey),
    ]


class TestMemoizedVirtualCurve:
    # The larger p, and the smaller the prefix, the more virtual documents
    # raise InsufficientAncestryError. Where some build and some do not, the
    # virtual arm retains fewer concepts than the original arm and trains
    # its own model; the first two examples are such cases (8 built and 4
    # raised, 2 built and 10 raised). In the third, two virtual arms retain
    # the same concepts with the same articles but hold different tables, so
    # a key without the tables reuses the wrong accuracy.
    @settings(max_examples=30)
    @given(
        which=st.integers(0, 2),
        setup=st.sampled_from(sorted(_SETUP_LANGUAGES)),
        prefix_fraction=st.floats(0.05, 0.9),
        n_blocks=st.integers(1, 5),
        p=st.integers(2, 16),
    )
    @example(which=0, setup="CLTC2", prefix_fraction=0.5, n_blocks=3, p=13)
    @example(which=1, setup="CLTC3", prefix_fraction=0.3, n_blocks=2, p=11)
    @example(which=2, setup="CLTC3", prefix_fraction=0.45, n_blocks=4, p=10)
    @example(which=0, setup="CLTC1", prefix_fraction=0.5, n_blocks=3, p=3)
    def test_curves_equal_running_every_arm(
        self, ablation_corpora, which, setup, prefix_fraction, n_blocks, p
    ):
        sources, targets = _SETUP_LANGUAGES[setup]
        corpus, support = ablation_corpora[which]
        cfg = replace(make_config(
            corpus, setup=setup, sources=sources, targets=targets,
            samples=10, k_doc=4, m=2, p=p, t=12,
        ), corpus_path=str(support))
        result = ablation(cfg, "virtual_docs", prefix_fraction=prefix_fraction, n_blocks=n_blocks)
        assert result["curves"] == reference_virtual_docs_curve(cfg, prefix_fraction, n_blocks)
