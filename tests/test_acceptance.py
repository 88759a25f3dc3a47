"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Oracles here are independent of the implementation paths they check: dense
matrix interpretation, exhaustive path enumeration, contingency-table mutual
information, depth-scan minimality, and a generative Bayes classifier.
"""

import functools
import json
import math
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import replace

import pytest

from xlcat.corpus import SupportArticle
from xlcat.features import information_gain
from xlcat.interpreter import build_interpreter, interpret
from xlcat.ontology import Hierarchy, SupportIndex, ancestors, support_multiset
from xlcat.pipeline import ablation, run_experiment
from xlcat.synth import SyntheticCorpusSpec
from xlcat.virtualdocs import InsufficientAncestryError, find_ancestor_depth

from conftest import bayes_accuracy, make_config, make_corpus


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[ACCEPTANCE {number:02d}] {title}: FAIL")
                raise
            print(f"[ACCEPTANCE {number:02d}] {title}: PASS")
        return wrapper
    return decorate


# --- 1: ESA oracle equivalence ---------------------------------------------

def _dense_reference(texts, doc):
    concepts = sorted(texts)
    n = len(concepts)
    tf = {cid: Counter(texts[cid].split()) for cid in concepts}
    vocab = {w for cid in concepts for w in tf[cid]}
    df = {w: sum(1 for cid in concepts if w in tf[cid]) for w in vocab}
    if not doc:
        return {}
    sums = {}
    for token in doc:
        if token not in df:
            continue
        for cid in concepts:
            weight = tf[cid][token] * math.log(n / df[token])
            if weight:
                sums[cid] = sums.get(cid, 0.0) + weight
    return {cid: s / len(doc) for cid, s in sums.items() if s != 0.0}


@criterion(1, "ESA interpretation matches dense-matrix reference (<=1e-9)")
def test_esa_oracle_equivalence():
    started = time.time()
    rng = random.Random(101)
    for _ in range(50):
        n_concepts = rng.randrange(2, 21)
        vocab = [f"w{i}" for i in range(rng.randrange(10, 201))]
        texts = {
            f"c{c:03d}": " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 80)))
            for c in range(n_concepts)
        }
        articles = [
            SupportArticle(concept_id=cid, language="xx", title=cid, text=text)
            for cid, text in texts.items()
        ]
        idx = SupportIndex(set(texts), articles)
        si = build_interpreter(idx, "xx", set(texts), k_term=10 ** 9)
        for _ in range(4):
            doc = [rng.choice(vocab) for _ in range(rng.randrange(0, 30))]
            got = interpret(si, doc)
            want = _dense_reference(texts, doc)
            assert set(got) == set(want)
            for cid, value in want.items():
                assert abs(got[cid] - value) <= 1e-9
    elapsed = time.time() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


# --- 2: multiset path-count law ---------------------------------------------

def _random_dag(rng, max_nodes=50):
    n = rng.randrange(6, max_nodes + 1)
    n_layers = rng.randrange(3, 6)
    layers = [[] for _ in range(n_layers)]
    for i in range(n):
        layers[rng.randrange(n_layers)].append(f"n{i:04d}")
    basic = set(layers[0])
    meta = {node for layer in layers[1:] for node in layer}
    edges = set()
    for upper in range(1, n_layers):
        for node in layers[upper]:
            below = [x for layer in layers[:upper] for x in layer]
            for child in rng.sample(below, min(len(below), rng.randrange(1, 4))):
                edges.add((node, child))
    return Hierarchy(edges, basic=basic, meta=meta)


def _enumerate_paths(h, src, dst):
    if src == dst:
        return 1
    return sum(_enumerate_paths(h, child, dst) for child in h.children(src))


@criterion(2, "support multiset multiplicities equal exhaustive path counts")
def test_multiset_path_count_law():
    started = time.time()
    rng = random.Random(202)
    for _ in range(100):
        h = _random_dag(rng)
        articles = []
        for b in sorted(h.basic):
            for j in range(rng.randrange(0, 3)):
                articles.append(
                    SupportArticle(concept_id=b, language="xx", title=b, text=f"{b} {j}")
                )
        idx = SupportIndex(h.basic, articles)
        nodes = sorted(h.meta | h.basic)
        for node in rng.sample(nodes, min(len(nodes), 8)):
            multiset = support_multiset(h, idx, node, "xx")
            for b in sorted(h.basic):
                paths = _enumerate_paths(h, node, b)
                for article in idx.articles(b, "xx"):
                    assert multiset.get(article, 0) == paths
    elapsed = time.time() - started
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


# --- 3: information-gain oracle ---------------------------------------------

def _mutual_information(vectors, labels, coordinate):
    n = len(labels)
    joint = Counter((coordinate in vec, lab) for vec, lab in zip(vectors, labels))
    pf = Counter(coordinate in vec for vec in vectors)
    pk = Counter(labels)
    total = 0.0
    for (f, k), c in joint.items():
        total += (c / n) * math.log2((c / n) / ((pf[f] / n) * (pk[k] / n)))
    return total


@criterion(3, "information gain matches contingency oracle (<=1e-12)")
def test_information_gain_oracle():
    rng = random.Random(303)
    for _ in range(1000):
        n = rng.randrange(1, 120)
        n_labels = rng.randrange(1, 7)
        labels = [f"k{rng.randrange(n_labels)}" for _ in range(n)]
        rate = rng.random()
        vectors = [frozenset({7}) if rng.random() < rate else frozenset() for _ in range(n)]
        [got] = information_gain(vectors, labels, [7])
        want = _mutual_information(vectors, labels, 7)
        assert abs(got - want) <= 1e-12


# --- 4: virtual-document depth minimality ------------------------------------

@criterion(4, "ancestor depth is minimal against a brute-force depth scan")
def test_virtual_depth_minimality():
    rng = random.Random(404)
    checked = 0
    for _ in range(120):
        h = _random_dag(rng, max_nodes=25)
        articles = []
        for b in sorted(h.basic):
            if rng.random() < 0.55:
                for j in range(rng.randrange(1, 3)):
                    articles.append(
                        SupportArticle(concept_id=b, language="xx", title=b, text=f"{b} {j}")
                    )
        idx = SupportIndex(h.basic, articles)
        for cid in sorted(h.basic):
            if idx.has_real_support(cid, "xx"):
                continue
            p = rng.randrange(1, 7)
            try:
                depth = find_ancestor_depth(h, idx, cid, "xx", p)
            except InsufficientAncestryError:
                continue
            counts = [0]
            for i in range(1, depth + 1):
                anc = ancestors(h, cid, i)
                counts.append(
                    sum(
                        sum(support_multiset(h, idx, a, "xx").values())
                        for a in anc
                    )
                )
            assert counts[depth] >= p
            assert all(c < p for c in counts[:depth])
            checked += 1
    assert checked >= 100, f"only {checked} constructible cases exercised"


# --- 5: cross-lingual transfer at desk scale ---------------------------------

TRANSFER_SPEC = SyntheticCorpusSpec(
    n_concepts=18,  # 6 concepts per category
    n_meta_levels=2,
    branching=3,
    vocab_size_per_language=450,
    n_languages=2,
    n_categories=3,
    docs_per_category=200,  # 600 test documents in the target language
    noise_rate=0.05,
    seed=0,
    cross_group_word_weight=0.10,
)


@criterion(5, "CLTC2 transfer accuracy >= 0.90 over 10 seeds (Bayes headroom >= 0.97)")
def test_cross_lingual_transfer(tmp_path):
    started = time.time()
    accuracies = []
    for seed in range(10):
        corpus = make_corpus(tmp_path, replace(TRANSFER_SPEC, seed=seed), f"t{seed}")
        bayes = bayes_accuracy(corpus, "l1")
        assert bayes >= 0.97, f"Bayes classifier scored {bayes:.3f}; task not separable"
        cfg = make_config(
            corpus, seed=seed, setup="CLTC2", sources=("l0",), targets=("l1",),
            samples=50, k_doc=4, m=3, p=4, t=12,
        )
        report = run_experiment(cfg)
        assert report["data"]["n_train"] == 150
        assert report["data"]["n_test"] == 600
        accuracies.append(report["results"]["accuracy"])
    mean_acc = statistics.mean(accuracies)
    elapsed = time.time() - started
    print(f"  transfer accuracies: {[round(a, 3) for a in accuracies]} mean={mean_acc:.3f}")
    assert mean_acc >= 0.90, f"mean accuracy {mean_acc:.3f}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


# --- 6: multilingual-training monotonicity -----------------------------------

MONOTONE_SPEC = SyntheticCorpusSpec(
    n_concepts=18,
    n_meta_levels=1,
    branching=3,
    vocab_size_per_language=450,
    n_languages=3,
    n_categories=3,
    docs_per_category=50,
    noise_rate=0.10,
    seed=0,
    cross_group_word_weight=0.10,
    train_concept_fraction=0.34,
    rotate_train_concepts=True,
)


@criterion(6, "training on 3 languages beats 1 language by >= 2 points")
def test_multilingual_monotonicity(tmp_path):
    singles, multis = [], []
    for seed in range(10):
        corpus = make_corpus(tmp_path, replace(MONOTONE_SPEC, seed=seed), f"m{seed}")
        hp = dict(samples=15, k_doc=4, m=3, p=4, t=12)
        single = make_config(corpus, seed=seed, setup="CLTC1",
                             sources=("l1",), targets=("l1",), **hp)
        multi = make_config(corpus, seed=seed, setup="CLTC3",
                            sources=("l0", "l1", "l2"), targets=("l1",), **hp)
        singles.append(run_experiment(single)["results"]["accuracy"])
        multis.append(run_experiment(multi)["results"]["accuracy"])
    gain = statistics.mean(multis) - statistics.mean(singles)
    print(
        f"  single={statistics.mean(singles):.3f} multi={statistics.mean(multis):.3f} "
        f"gain={gain:+.3f}"
    )
    assert gain >= 0.02, f"gain {gain:+.3f}"


# --- 7: meta-feature ablation sign -------------------------------------------

META_SPEC = SyntheticCorpusSpec(
    n_concepts=27,
    n_meta_levels=2,
    branching=3,
    vocab_size_per_language=600,
    n_languages=2,
    n_categories=3,
    docs_per_category=50,
    noise_rate=0.05,
    seed=0,
    category_layout="blocked",
    train_concept_fraction=0.3,
    cross_group_word_weight=0.10,
)


@criterion(7, "meta features improve accuracy by >= 3 points")
def test_meta_feature_ablation(tmp_path):
    with_meta, without_meta = [], []
    for seed in range(10):
        corpus = make_corpus(tmp_path, replace(META_SPEC, seed=seed), f"a{seed}")
        cfg = make_config(corpus, seed=seed, samples=50, k_doc=4, m=3, p=4, t=12)
        result = ablation(cfg, "meta_features")
        with_meta.append(result["with"]["results"]["accuracy"])
        without_meta.append(result["without"]["results"]["accuracy"])
    delta = statistics.mean(with_meta) - statistics.mean(without_meta)
    print(
        f"  with={statistics.mean(with_meta):.3f} "
        f"without={statistics.mean(without_meta):.3f} delta={delta:+.3f}"
    )
    assert delta >= 0.03, f"delta {delta:+.3f}"


# --- 8: virtual-document utility curve ---------------------------------------

VIRTUAL_SPEC = SyntheticCorpusSpec(
    n_concepts=20,
    n_meta_levels=1,
    branching=4,
    vocab_size_per_language=500,
    n_languages=2,
    n_categories=3,
    docs_per_category=50,
    noise_rate=0.05,
    seed=0,
    category_layout="interleaved",
    group_word_weight=0.30,
    cross_group_word_weight=0.30,
)


@criterion(8, "virtual docs recover >= half the deletion gap, dominating deletion")
def test_virtual_document_utility(tmp_path):
    curves = {"original": [], "virtual": [], "deleted": []}
    for seed in range(10):
        corpus = make_corpus(tmp_path, replace(VIRTUAL_SPEC, seed=seed), f"v{seed}")
        cfg = make_config(corpus, seed=seed, samples=50, k_doc=4, m=1, p=4, t=12)
        result = ablation(cfg, "virtual_docs", prefix_fraction=0.7, n_blocks=3)
        for arm in curves:
            curves[arm].append(result["curves"][arm])
    n_points = len(curves["original"][0])
    mean_curve = {
        arm: [statistics.mean(rows[i] for rows in curves[arm]) for i in range(n_points)]
        for arm in curves
    }
    print(
        "  original={}  virtual={}  deleted={}".format(
            [round(x, 3) for x in mean_curve["original"]],
            [round(x, 3) for x in mean_curve["virtual"]],
            [round(x, 3) for x in mean_curve["deleted"]],
        )
    )
    for j in range(n_points):
        assert mean_curve["virtual"][j] >= mean_curve["deleted"][j], f"block {j}"
    gap = mean_curve["original"][-1] - mean_curve["deleted"][-1]
    loss = mean_curve["original"][-1] - mean_curve["virtual"][-1]
    assert gap > 0, "deletion did not hurt; protocol not informative"
    assert loss <= 0.5 * gap, f"virtual docs lose {loss:.3f} of a {gap:.3f} gap"


# --- 9: CLI determinism -------------------------------------------------------

def _cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "xlcat", *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, f"{args[0]} failed: {proc.stderr}"
    return proc


@criterion(9, "every CLI command is byte-deterministic and worker-invariant")
def test_cli_determinism(tmp_path):
    spec = SyntheticCorpusSpec(
        n_concepts=12, n_meta_levels=2, branching=3, vocab_size_per_language=300,
        n_languages=2, n_categories=3, docs_per_category=15, noise_rate=0.05, seed=33,
    )
    corpus = make_corpus(tmp_path, spec, "data")
    cfg = make_config(corpus, seed=33, samples=10, k_doc=4, m=2, p=3, t=12)
    cfg_path = tmp_path / "experiment.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    synth_path = tmp_path / "synth.json"
    synth_path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")

    def commands(out, workers):
        si = out / "si"
        feat = out / "feat"
        return [
            (["synth", "--config", str(synth_path), "--out-dir", str(out / "synth")],
             ["synth/corpus.jsonl", "synth/hierarchy.jsonl", "synth/train_l0.jsonl"]),
            (["build-interpreter", "--config", str(cfg_path), "--out-dir", str(si),
              "--workers", workers],
             ["si/interpreter_l0.json", "si/interpreter_l1.json"]),
            (["make-virtual-docs", "--config", str(cfg_path), "--out-dir", str(out / "virt")],
             ["virt/virtual_docs.jsonl"]),
            (["gen-features", "--config", str(cfg_path),
              "--dataset", str(corpus.paths["datasets"]["l0"]["train"]),
              "--interpreters", str(si), "--out-dir", str(feat), "--workers", workers],
             ["feat/feature_space.json", "feat/vectors.jsonl"]),
            (["train", "--config", str(cfg_path), "--space", str(feat / "feature_space.json"),
              "--vectors", str(feat / "vectors.jsonl"), "--out-dir", str(out / "model")],
             ["model/model.json"]),
            (["classify", "--config", str(cfg_path), "--model", str(out / "model" / "model.json"),
              "--space", str(feat / "feature_space.json"), "--interpreters", str(si),
              "--dataset", str(corpus.paths["datasets"]["l1"]["test"]),
              "--out-dir", str(out / "pred"), "--workers", workers],
             ["pred/predictions.jsonl"]),
            (["evaluate", "--predictions", str(out / "pred" / "predictions.jsonl"),
              "--dataset", str(corpus.paths["datasets"]["l1"]["test"]),
              "--out-dir", str(out / "eval")],
             ["eval/eval.json"]),
            (["experiment", "--config", str(cfg_path), "--out-dir", str(out / "exp"),
              "--workers", workers],
             ["exp/report.json", "exp/model.json", "exp/feature_space.json"]),
            (["ablate", "--config", str(cfg_path), "--toggle", "meta_features",
              "--out-dir", str(out / "ab"), "--workers", workers],
             ["ab/ablation.json"]),
        ]

    outputs = {}
    for run, workers in (("r1", "1"), ("r2", "1"), ("r3", "4")):
        out = tmp_path / run
        out.mkdir()
        collected = {}
        for argv, files in commands(out, workers):
            _cli(*argv)
            for rel in files:
                collected[rel] = (out / rel).read_bytes()
        outputs[run] = collected
    assert outputs["r1"] == outputs["r2"], "same config+seed must be byte-identical"
    assert outputs["r1"] == outputs["r3"], "--workers must not change any output"


# --- 10: real-data config path ------------------------------------------------

@criterion(10, "experiment accepts externally supplied (non-synthetic) data")
def test_real_data_config(tmp_path):
    # A miniature hand-written corpus in the documented file formats; full
    # production-scale datasets are out of scope, but their configs must run.
    langs = {"en": ["apple orchard fruit", "hammer nail tool"],
             "fr": ["pomme verger fruit", "marteau clou outil"]}
    corpus_path = tmp_path / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for lang, (fruit_text, tool_text) in langs.items():
            for cid, text in (("fruit", fruit_text), ("tool", tool_text)):
                fh.write(json.dumps({
                    "concept_id": cid, "language": lang, "title": cid,
                    "text": (text + " ") * 20, "links_in": 9, "links_out": 9, "flags": [],
                }) + "\n")
    concepts_path = tmp_path / "concepts.jsonl"
    with open(concepts_path, "w", encoding="utf-8") as fh:
        for cid in ("fruit", "tool"):
            fh.write(json.dumps({"concept_id": cid, "kind": "basic"}) + "\n")
        fh.write(json.dumps({"concept_id": "things", "kind": "meta"}) + "\n")
    hierarchy_path = tmp_path / "hierarchy.jsonl"
    with open(hierarchy_path, "w", encoding="utf-8") as fh:
        for cid in ("fruit", "tool"):
            fh.write(json.dumps({"parent": "things", "child": cid, "language": "en"}) + "\n")

    def dataset(lang, split, words_by_cat):
        path = tmp_path / f"{split}_{lang}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for cat, words in words_by_cat.items():
                for i in range(3):
                    fh.write(json.dumps({
                        "doc_id": f"{split}-{lang}-{cat}-{i}", "language": lang,
                        "text": words, "label": cat,
                    }) + "\n")
        return str(path)

    datasets = {
        "en": {"train": dataset("en", "train", {"food": "apple fruit orchard", "hardware": "hammer tool nail"}),
               "test": dataset("en", "test", {"food": "orchard apple", "hardware": "nail hammer"})},
        "fr": {"train": dataset("fr", "train", {"food": "pomme fruit verger", "hardware": "marteau outil clou"}),
               "test": dataset("fr", "test", {"food": "verger pomme", "hardware": "clou marteau"})},
    }
    config = {
        "setup": "CLTC2",
        "source_languages": ["en"],
        "target_languages": ["fr"],
        "samples_per_category_per_language": 2,
        "seed": 1,
        "paths": {
            "corpus": str(corpus_path),
            "concepts": str(concepts_path),
            "hierarchy": str(hierarchy_path),
            "datasets": datasets,
        },
        "hyperparams": {"k_term": 5000, "k_doc": 2, "m": 1, "p": 1, "t": 50,
                        "n_select": 1000, "lambda": 1e-4, "epochs": 20},
        "virtual_docs": True,
        "filter": {"min_chars": 10, "min_links_in": 0, "min_links_out": 0},
    }
    cfg_path = tmp_path / "real.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    _cli("experiment", "--config", str(cfg_path), "--out-dir", str(out))
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["n_test"] == 6
    assert 0.0 <= report["results"]["accuracy"] <= 1.0
