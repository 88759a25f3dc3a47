import math
import os
import threading
from typing import Dict

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from xlcat.corpus import FilterConfig, load_labeled_dataset
from xlcat.ontology import Hierarchy
from xlcat.pipeline import ExperimentConfig, Hyperparams
from xlcat.synth import SyntheticCorpusSpec, generate_synthetic_corpus

# Property tests draw the same examples on every run and machine, and a slow
# example is not a failure.
settings.register_profile("xlcat", derandomize=True, deadline=None)
settings.load_profile("xlcat")


def pytest_sessionfinish(session):
    """Fail the run if a test left a child process unreaped, running or not,
    or a thread other than the main thread alive."""
    problems = []
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        code = os.waitstatus_to_exitcode(status) if pid else None
        state = "running" if pid == 0 else f"pid {pid}, exit status {code}"
        problems.append(f"a test left a child process unreaped ({state})")
    threads = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    if threads:
        problems.append(f"a test left threads alive: {', '.join(threads)}")
    if problems:
        writer = session.config.get_terminal_writer()
        writer.line()
        for problem in problems:
            writer.line(problem, red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture
def no_threads(monkeypatch):
    """threading.Thread.start raises, so code that starts a thread fails."""

    def refuse(thread):
        raise AssertionError(f"thread {thread.name!r} was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)


@pytest.fixture
def forks(monkeypatch):
    """The calls of os.fork, counted in the caller."""
    calls, fork = [], os.fork

    def counted_fork():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    return calls


@pytest.fixture
def another_thread():
    """A second thread, alive for the whole test, then joined."""
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    yield thread
    done.set()
    thread.join(timeout=10)
    assert not thread.is_alive()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def make_corpus(tmp_path, spec: SyntheticCorpusSpec, name="corpus"):
    return generate_synthetic_corpus(spec, tmp_path / name)


def make_config(
    corpus,
    seed=0,
    setup="CLTC2",
    sources=("l0",),
    targets=("l1",),
    samples=50,
    virtual_docs=True,
    **hp,
):
    """Experiment config wired to a generated synthetic corpus."""
    return ExperimentConfig(
        setup=setup,
        source_languages=tuple(sources),
        target_languages=tuple(targets),
        samples_per_category_per_language=samples,
        seed=seed,
        corpus_path=str(corpus.paths["corpus"]),
        concepts_path=str(corpus.paths["concepts"]),
        hierarchy_path=str(corpus.paths["hierarchy"]),
        datasets={
            lang: {split: str(p) for split, p in per.items()}
            for lang, per in corpus.paths["datasets"].items()
        },
        hyperparams=Hyperparams(**hp),
        virtual_docs=virtual_docs,
        filter=FilterConfig(min_chars=30, min_links_in=1, min_links_out=1),
    )


def concept_distribution(corpus, concept: int, language: str) -> Dict[str, float]:
    """Exact token distribution a concept's documents are drawn from."""
    spec = corpus.spec
    w_unique, w_block, w_stride = corpus._weights()
    dist: Dict[str, float] = {}
    for off in range(spec.words_per_concept):
        idx = corpus.off_unique + concept * spec.words_per_concept + off
        dist[corpus.word(language, idx)] = w_unique / spec.words_per_concept
    for off in range(spec.words_per_group):
        idx = corpus.off_block + corpus.block_group(concept) * spec.words_per_group + off
        dist[corpus.word(language, idx)] = dist.get(corpus.word(language, idx), 0.0) + (
            w_block / spec.words_per_group
        )
    if corpus.stride_enabled:
        for off in range(spec.words_per_group):
            idx = corpus.off_stride + corpus.stride_group(concept) * spec.words_per_group + off
            dist[corpus.word(language, idx)] = dist.get(corpus.word(language, idx), 0.0) + (
                w_stride / spec.words_per_group
            )
    return dist


def category_distribution(corpus, category: int, language: str) -> Dict[str, float]:
    """Marginal token distribution of a test document of this category,
    noise included: uniform concept choice within the pool, then the
    concept's distribution."""
    spec = corpus.spec
    pool = corpus.category_pools()[category]
    dist: Dict[str, float] = {}
    for concept in pool:
        for word, prob in concept_distribution(corpus, concept, language).items():
            dist[word] = dist.get(word, 0.0) + prob / len(pool)
    if spec.noise_rate:
        uniform = spec.noise_rate / spec.vocab_size_per_language
        for idx in range(spec.vocab_size_per_language):
            word = corpus.word(language, idx)
            dist[word] = dist.get(word, 0.0) * (1.0 - spec.noise_rate) + uniform
    return dist


def bayes_accuracy(corpus, language, split="test"):
    """Generative-model classifier over the generator's true per-category
    marginal token distributions; independent of every pipeline component."""
    log_probs = []
    for k in range(corpus.spec.n_categories):
        dist = category_distribution(corpus, k, language)
        log_probs.append({w: math.log(p) for w, p in dist.items() if p > 0})
    docs = load_labeled_dataset(corpus.paths["datasets"][language][split])
    floor = math.log(1e-12)
    correct = 0
    for doc in docs:
        scores = [
            sum(table.get(w, floor) for w in doc.text.split()) for table in log_probs
        ]
        best = max(range(len(scores)), key=lambda k: (scores[k], -k))
        if corpus.categories[best] == doc.label:
            correct += 1
    return correct / len(docs)


@pytest.fixture
def small_spec():
    return SyntheticCorpusSpec(
        n_concepts=12,
        n_meta_levels=2,
        branching=3,
        vocab_size_per_language=300,
        n_languages=2,
        n_categories=3,
        docs_per_category=20,
        noise_rate=0.05,
        seed=11,
    )


@st.composite
def layered_dags(draw, max_layers=4):
    """Random layered Hierarchy: layer-0 nodes are basic, the rest meta, and
    every meta node has 1-4 children in lower layers, so the graph is
    acyclic by construction."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=2, max_size=max_layers))
    layers = [[f"n{layer}{i}" for i in range(size)] for layer, size in enumerate(sizes)]
    edges = set()
    for layer in range(1, len(layers)):
        below = [n for lower in layers[:layer] for n in lower]
        for node in layers[layer]:
            children = draw(st.sets(st.sampled_from(below), min_size=1, max_size=4))
            edges |= {(node, child) for child in children}
    meta = {n for upper in layers[1:] for n in upper}
    return Hierarchy(edges, basic=set(layers[0]), meta=meta)


@st.composite
def random_dags(draw, max_nodes=12):
    """Random Hierarchy over nodes d0..dk, each basic or meta, with edges
    from a meta node to any node of smaller index: acyclic by construction,
    with multi-parent diamonds, paths that skip levels and isolated nodes of
    either kind."""
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=max_nodes))  # True: meta
    nodes = [f"d{i:02d}" for i in range(len(kinds))]
    pairs = [(p, c) for i, p in enumerate(nodes) if kinds[i] for c in nodes[:i]]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=3 * len(nodes))) if pairs else set()
    return Hierarchy(edges, basic={n for n, meta in zip(nodes, kinds) if not meta},
                     meta={n for n, meta in zip(nodes, kinds) if meta})
