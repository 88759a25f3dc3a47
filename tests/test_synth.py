import hashlib
import json
import math
import os
import threading
import time
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xlcat import cli, synth
from xlcat._util import stable_rng
from xlcat.corpus import (
    FilterConfig, LabeledDocument, SupportArticle, filter_articles, load_labeled_dataset,
    load_support_corpus,
)
from xlcat.ontology import load_concepts, load_hierarchy_edges, merge_hierarchies, validate_dag
from xlcat.synth import SyntheticCorpus, SyntheticCorpusSpec, generate_synthetic_corpus, plan_shares

from conftest import make_corpus


class ReferenceCorpus(SyntheticCorpus):
    """The generator as it was before the per-stream sampler: one
    sample_token call per token, each drawing through rng.randrange, and
    every word formatted anew. Same files, same bytes."""

    def word(self, language, index):
        return f"{language}w{index:05d}"

    def sample_token(self, concept, language, rng):
        spec = self.spec
        w_unique, w_block, _ = self._weights()
        r = rng.random()
        if r < w_unique:
            idx = self.off_unique + concept * spec.words_per_concept + rng.randrange(
                spec.words_per_concept
            )
        elif r < w_unique + w_block:
            idx = self.off_block + self.block_group(concept) * spec.words_per_group + rng.randrange(
                spec.words_per_group
            )
        else:
            idx = self.off_stride + self.stride_group(concept) * spec.words_per_group + rng.randrange(
                spec.words_per_group
            )
        return self.word(language, idx)

    def _support_articles(self):
        spec = self.spec
        articles = []
        for i in range(spec.n_concepts):
            cid = self.concept_id(i)
            for lang in self.languages:
                for d in range(spec.support_docs_per_pair):
                    rng = stable_rng(spec.seed, "support", cid, lang, d)
                    length = spec.support_doc_length + rng.randrange(
                        0, max(1, spec.support_doc_length // 10)
                    )
                    tokens = [self.sample_token(i, lang, rng) for _ in range(length)]
                    tokens += [
                        self.word(lang, self.off_background + bg)
                        for bg in range(spec.background_words)
                    ]
                    articles.append(
                        SupportArticle(
                            concept_id=cid,
                            language=lang,
                            title=f"{cid} ({lang})",
                            text=" ".join(tokens),
                            links_in=5 + rng.randrange(40),
                            links_out=5 + rng.randrange(40),
                        )
                    )
        for lang in self.languages:
            articles.append(
                SupportArticle(
                    concept_id=self.concept_id(0),
                    language=lang,
                    title=f"decoy redirect ({lang})",
                    text=" ".join(self.word(lang, i) for i in range(30)),
                    links_in=20,
                    links_out=20,
                    flags=frozenset({"redirect"}),
                )
            )
            articles.append(
                SupportArticle(
                    concept_id=self.concept_id(0),
                    language=lang,
                    title=f"decoy catalog ({lang})",
                    text=self.word(lang, 0),
                    links_in=0,
                    links_out=0,
                    flags=frozenset({"catalog"}),
                )
            )
        return articles

    def _documents(self, language, split):
        spec = self.spec
        docs = []
        for k, pool in enumerate(self.category_pools()):
            if split == "train" and spec.train_concept_fraction < 1.0:
                candidates = self._train_candidates(pool, language)
            else:
                candidates = pool
            for i in range(spec.docs_per_category):
                rng = stable_rng(spec.seed, "doc", language, split, k, i)
                drawn = rng.sample(candidates, min(spec.concepts_per_doc, len(candidates)))
                tokens = []
                for _ in range(spec.doc_length):
                    if spec.noise_rate and rng.random() < spec.noise_rate:
                        tokens.append(
                            self.word(language, rng.randrange(spec.vocab_size_per_language))
                        )
                    else:
                        tokens.append(self.sample_token(drawn[rng.randrange(len(drawn))], language, rng))
                docs.append(
                    LabeledDocument(
                        doc_id=f"{split}-{language}-cat{k}-{i:04d}",
                        language=language,
                        text=" ".join(tokens),
                        label=self.categories[k],
                    )
                )
        return docs


def written_files(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@st.composite
def specs(draw):
    """Any valid SyntheticCorpusSpec."""
    sizes = st.integers(1, 10**5)
    weight = draw(st.floats(0.0, 0.99))
    cross_weight = draw(st.floats(0.0, 0.99 - weight))
    n_concepts = draw(sizes)
    return SyntheticCorpusSpec(
        n_concepts=n_concepts, n_meta_levels=draw(sizes), branching=draw(sizes),
        vocab_size_per_language=draw(sizes), n_languages=draw(sizes),
        n_categories=draw(st.integers(1, n_concepts)), docs_per_category=draw(sizes),
        noise_rate=draw(st.floats(0.0, 0.99) | st.just(0)), seed=draw(st.integers(0, 2**32)),
        words_per_concept=draw(sizes),
        words_per_group=draw(st.integers(1 if weight or cross_weight else 0, 99)),
        support_docs_per_pair=draw(sizes), support_doc_length=draw(sizes),
        doc_length=draw(sizes), concepts_per_doc=draw(sizes),
        group_word_weight=weight,
        cross_group_word_weight=cross_weight,
        background_words=draw(st.integers(0, 99)),
        category_layout=draw(st.sampled_from(["blocked", "interleaved"])),
        train_concept_fraction=draw(st.floats(0.01, 1.0)),
        rotate_train_concepts=draw(st.booleans()),
    )


# Word counts of 1 (one-bit draws, half rejected), powers of two (none rejected) and others.
WORD_COUNTS = st.sampled_from([1, 2, 3, 4, 5, 7, 8, 16])


@st.composite
def small_specs(draw):
    """Valid specs of tiny corpora, with every layout and weight case."""
    weight = draw(st.sampled_from([0.0, 0.25]) | st.floats(0.0, 0.6))
    cross_weight = draw(st.sampled_from([0.0, 0.3]) | st.floats(0.0, 0.99 - weight))
    grouped = weight > 0 or cross_weight > 0
    n_concepts, branching = draw(st.integers(1, 14)), draw(st.integers(1, 5))
    words_per_concept = draw(WORD_COUNTS)
    words_per_group = draw(WORD_COUNTS if grouped else st.sampled_from([0, 1, 4, 5]))
    background_words = draw(st.integers(0, 3))
    n_groups = math.ceil(n_concepts / branching)
    stride = cross_weight > 0 and branching <= n_groups
    needed = (background_words + n_concepts * words_per_concept
              + (1 + stride) * n_groups * words_per_group)
    return SyntheticCorpusSpec(
        n_concepts=n_concepts, n_meta_levels=draw(st.integers(1, 3)), branching=branching,
        vocab_size_per_language=needed + draw(st.integers(0, 40)),
        n_languages=draw(st.integers(1, 3)), n_categories=draw(st.integers(1, min(4, n_concepts))),
        docs_per_category=draw(st.integers(1, 4)),
        noise_rate=draw(st.just(0.0) | st.floats(0.01, 0.9)),
        seed=draw(st.integers(0, 2**32)),
        words_per_concept=words_per_concept, words_per_group=words_per_group,
        support_docs_per_pair=draw(st.integers(1, 2)), support_doc_length=draw(st.integers(1, 30)),
        doc_length=draw(st.integers(1, 20)), concepts_per_doc=draw(st.integers(1, 4)),
        group_word_weight=weight, cross_group_word_weight=cross_weight,
        background_words=background_words,
        category_layout=draw(st.sampled_from(["blocked", "interleaved"])),
        train_concept_fraction=draw(st.sampled_from([1.0, 0.5]) | st.floats(0.05, 1.0)),
        rotate_train_concepts=draw(st.booleans()),
    )


SMALL = dict(n_concepts=9, branching=3, vocab_size_per_language=200, docs_per_category=3,
             support_doc_length=20, doc_length=15)


class TestSamplerOracle:
    """The per-stream sampler draws every file byte for byte as the
    reference generator's sample_token path does."""

    @settings(max_examples=60)
    @given(small_specs())
    @example(SyntheticCorpusSpec(**SMALL, noise_rate=0.0))
    @example(SyntheticCorpusSpec(**SMALL, noise_rate=0.5, words_per_group=0, group_word_weight=0.0,
                                 cross_group_word_weight=0.0))
    @example(SyntheticCorpusSpec(**SMALL, words_per_concept=1, words_per_group=1))
    @example(SyntheticCorpusSpec(**SMALL, words_per_concept=4, words_per_group=8))
    @example(SyntheticCorpusSpec(**SMALL, words_per_concept=3, words_per_group=5))
    @example(SyntheticCorpusSpec(**SMALL, n_languages=3, category_layout="interleaved",
                                 train_concept_fraction=0.5, rotate_train_concepts=True))
    def test_writes_the_reference_bytes(self, tmp_path_factory, spec):
        tmp = tmp_path_factory.mktemp("oracle")
        generate_synthetic_corpus(spec, tmp / "sampler")
        ReferenceCorpus(spec, tmp / "reference").write()
        assert written_files(tmp / "sampler") == written_files(tmp / "reference")


# sha256 of every file generate_synthetic_corpus writes, pinned before the
# per-stream sampler replaced sample_token.
GOLDEN_DIGESTS = {
    "small": {
        "concepts.jsonl": "3efc690682da2f2b94441f2dd6644b2d7aa42e360b3cd64001cead497ddfd720",
        "corpus.jsonl": "070ac3f908b901b4cdfc0ab575f3f8344cfeabd90e6724dc88ad0d6b33663e32",
        "hierarchy.jsonl": "46f20476308aab6aa2b9f9e921c7894eb2b8446ce54fce9e6d0d24c528bbeac0",
        "synth_manifest.json": "ad001d564f09b58a8326581f568b80e01f223aa53cf674477c272498b05a309e",
        "test_l0.jsonl": "76fdfa0ddb436664cd493dce10cbadea2e076aa84e454613fd3e2e63c0233aea",
        "test_l1.jsonl": "a0174ec0a9f84392fdf55155b26cb54e814c37c6c3e490c53e7c3de6a21d4a6b",
        "train_l0.jsonl": "40370f7025485052040b002f931a76ac8160e645d8988f76f953246d990ece10",
        "train_l1.jsonl": "08855ae7aaf2c3316c2386fe83b8568cd4dbf5a8115e763512f4a87379e6510a",
    },
    "mixed": {
        "concepts.jsonl": "3efc690682da2f2b94441f2dd6644b2d7aa42e360b3cd64001cead497ddfd720",
        "corpus.jsonl": "1bac0da4229159fc78903aba92a8b631d7ca79b60bacb5bb11f8f19eb9fb0090",
        "hierarchy.jsonl": "26e38a9bb084a2dadd977ad98fc65b46defe720ef1f3c937c8115fc08ecdfee0",
        "synth_manifest.json": "6ae51048c49008693371c1d361a54212a3d718ef044643ce3575d20bc9dc7748",
        "test_l0.jsonl": "0ff3d24533248ac00f261734e1b7bb499fc35e66f6aea29c6b7dbb25c25b4643",
        "test_l1.jsonl": "9bedefee42771c3b44c4204db1acee6670eb74fd8f52e680b5e1aca31c5d76f3",
        "test_l2.jsonl": "5278742f6411773323be8658602fb5cf1b2b512671e582776363a8040e185990",
        "train_l0.jsonl": "3456d979071a1c29082cc989b1c1c584e4da885a6954446e10241624ba558869",
        "train_l1.jsonl": "f9d4a79487aac0c8fc8bf0a114bcab3817456a8db8bb25dfc8ffdf1cda1cf5f9",
        "train_l2.jsonl": "6295e35b88eca9bbc327293420c3a5473ab0ee3479976ce8edd406840140cf37",
    },
}


def golden_spec(small_spec, name):
    return small_spec if name == "small" else replace(
        small_spec, seed=7, n_languages=3, noise_rate=0.3, category_layout="interleaved",
        train_concept_fraction=0.5, rotate_train_concepts=True,
    )


def file_digests(out_dir):
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in written_files(out_dir).items()}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_written_files_keep_their_digests(tmp_path, small_spec, name):
    corpus = make_corpus(tmp_path, golden_spec(small_spec, name))
    assert file_digests(corpus.out_dir) == GOLDEN_DIGESTS[name]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParallelWriter:
    """SyntheticCorpus.write spreads its files over min(CPUs, files)
    processes, and the bytes do not depend on how many."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The number of processes write forks, counted in the caller."""
        calls, fork = [], os.fork

        def counted_fork():
            calls.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        return calls

    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    @pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
    def test_process_count_changes_no_byte(self, tmp_path, monkeypatch, forks, small_spec,
                                           name, cpus):
        monkeypatch.setattr(synth, "_usable_cpus", lambda: cpus)
        corpus = make_corpus(tmp_path, golden_spec(small_spec, name))
        assert file_digests(corpus.out_dir) == GOLDEN_DIGESTS[name]
        # One task per dataset file, plus the support corpus.
        assert len(forks) == min(cpus, 1 + 2 * len(corpus.languages)) - 1
        assert_no_child_left()

    def test_forks_nothing_beside_another_thread(self, tmp_path, monkeypatch, forks, small_spec):
        monkeypatch.setattr(synth, "_usable_cpus", lambda: 2)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            corpus = make_corpus(tmp_path, small_spec)
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert not forks
        assert file_digests(corpus.out_dir) == GOLDEN_DIGESTS["small"]

    @pytest.mark.parametrize(
        "blocked", ["corpus.jsonl", "train_l0.jsonl", "test_l0.jsonl", "train_l1.jsonl",
                    "test_l1.jsonl"],
    )
    def test_failing_task_raises_the_serial_error(self, tmp_path, monkeypatch, small_spec,
                                                  blocked):
        """A file path taken by a directory fails the task that writes it,
        in this process or in a child; either way write raises what it
        raises in one process, leaves no child and writes no manifest."""
        (tmp_path / blocked).mkdir(parents=True)
        errors = []
        for cpus in (1, 2):
            monkeypatch.setattr(synth, "_usable_cpus", lambda: cpus)
            with pytest.raises(IsADirectoryError) as exc:
                generate_synthetic_corpus(small_spec, tmp_path)
            errors.append(str(exc.value))
            assert_no_child_left()
        assert errors[0] == errors[1]
        assert not (tmp_path / "synth_manifest.json").exists()

    def test_failing_task_is_a_cli_data_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(synth, "_usable_cpus", lambda: 2)
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"n_concepts": 6}), encoding="utf-8")
        (tmp_path / "out" / "test_l1.jsonl").mkdir(parents=True)
        assert cli.main(["synth", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "test_l1.jsonl" in err and "Traceback" not in err
        assert_no_child_left()

    @given(st.lists(st.integers(0, 10**6), max_size=40), st.integers(1, 64))
    def test_plan_assigns_each_task_once(self, costs, cpus):
        """A pure function: it starts no process."""
        with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
            shares = plan_shares(costs, cpus)
        assert sorted(i for share in shares for i in share) == list(range(len(costs)))
        assert len(shares) <= min(cpus, len(costs))
        assert all(share == sorted(share) for share in shares)
        loads = [sum(costs[i] for i in share) for share in shares]
        assert loads == sorted(loads, reverse=True)


def test_huge_vocabulary_costs_nothing(tmp_path):
    """Only the words a corpus uses are ever formatted: noise draws from a
    vocabulary of 10**9 words without building it."""
    spec = SyntheticCorpusSpec(n_concepts=4, vocab_size_per_language=10**9, noise_rate=0.5,
                               n_categories=2, docs_per_category=5, support_doc_length=20,
                               doc_length=20)
    start = time.perf_counter()
    make_corpus(tmp_path, spec)
    assert time.perf_counter() - start < 1.0


class TestSpecValidation:
    @given(specs())
    def test_reads_back_what_to_dict_writes(self, spec):
        assert SyntheticCorpusSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SyntheticCorpusSpec(n_concepts=0)

    def test_no_group_words_only_without_group_weight(self):
        SyntheticCorpusSpec(n_concepts=6, words_per_group=0, group_word_weight=0.0,
                            cross_group_word_weight=0.0)
        for weights in ((0.1, 0.0), (0.0, 0.1)):
            with pytest.raises(ValueError, match="'words_per_group'"):
                SyntheticCorpusSpec(n_concepts=6, words_per_group=0, group_word_weight=weights[0],
                                    cross_group_word_weight=weights[1])

    def test_rejects_noise_out_of_range(self):
        with pytest.raises(ValueError):
            SyntheticCorpusSpec(n_concepts=6, noise_rate=1.0)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            SyntheticCorpusSpec.from_dict({"n_concepts": 6, "bogus": 1})

    def test_float_field_accepts_an_integer(self):
        spec = SyntheticCorpusSpec.from_dict({"n_concepts": 6, "noise_rate": 0})
        assert spec == SyntheticCorpusSpec(n_concepts=6, noise_rate=0.0)

    def test_rejects_undersized_vocab(self, tmp_path):
        spec = SyntheticCorpusSpec(n_concepts=50, vocab_size_per_language=10)
        with pytest.raises(ValueError):
            generate_synthetic_corpus(spec, tmp_path / "never")


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path, small_spec):
        c1 = make_corpus(tmp_path, small_spec, "one")
        c2 = make_corpus(tmp_path, small_spec, "two")
        for key in ("corpus", "concepts", "hierarchy"):
            assert c1.paths[key].read_bytes() == c2.paths[key].read_bytes()
        for lang in c1.languages:
            for split in ("train", "test"):
                assert (
                    c1.paths["datasets"][lang][split].read_bytes()
                    == c2.paths["datasets"][lang][split].read_bytes()
                )

    def test_different_seed_differs(self, tmp_path, small_spec):
        c1 = make_corpus(tmp_path, small_spec, "one")
        c2 = make_corpus(tmp_path, replace(small_spec, seed=99), "two")
        assert c1.paths["corpus"].read_bytes() != c2.paths["corpus"].read_bytes()


class TestGeneratedStructure:
    def test_languages_have_disjoint_vocabulary(self, tmp_path, small_spec):
        corpus = make_corpus(tmp_path, small_spec)
        tokens_by_lang = {}
        for art in load_support_corpus(corpus.paths["corpus"]):
            tokens_by_lang.setdefault(art.language, set()).update(art.text.split())
        langs = sorted(tokens_by_lang)
        assert len(langs) == small_spec.n_languages
        for i, a in enumerate(langs):
            for b in langs[i + 1:]:
                assert not (tokens_by_lang[a] & tokens_by_lang[b])

    def test_concept_distributions_aligned_across_languages(self, tmp_path, small_spec):
        corpus = make_corpus(tmp_path, small_spec)
        for concept in (0, small_spec.n_concepts - 1):
            dists = [corpus.concept_distribution(concept, lang) for lang in corpus.languages]
            # same index layout and probabilities, different word surface
            stripped = [
                sorted((w.split("w", 1)[1], p) for w, p in d.items()) for d in dists
            ]
            assert all(s == stripped[0] for s in stripped)
            assert sum(p for _, p in stripped[0]) == pytest.approx(1.0)

    def test_hierarchy_is_valid_dag_and_union_complete(self, tmp_path, small_spec):
        corpus = make_corpus(tmp_path, small_spec)
        basic, meta = load_concepts(corpus.paths["concepts"])
        per_lang = load_hierarchy_edges(corpus.paths["hierarchy"])
        h = merge_hierarchies(per_lang, basic, meta)
        assert validate_dag(h) is None
        assert h.edges == set(corpus.edges())

    def test_decoys_dropped_by_default_filter(self, tmp_path, small_spec):
        corpus = make_corpus(tmp_path, small_spec)
        articles = load_support_corpus(corpus.paths["corpus"])
        flagged = [a for a in articles if a.flags]
        assert flagged
        kept = filter_articles(articles, FilterConfig(min_chars=0, min_links_in=0, min_links_out=0))
        assert not [a for a in kept if a.flags]

    def test_dataset_sizes_and_labels(self, tmp_path, small_spec):
        corpus = make_corpus(tmp_path, small_spec)
        for lang in corpus.languages:
            for split in ("train", "test"):
                docs = load_labeled_dataset(corpus.paths["datasets"][lang][split])
                assert len(docs) == small_spec.docs_per_category * small_spec.n_categories
                assert {d.label for d in docs} == set(corpus.categories)
                assert all(d.language == lang for d in docs)

    def test_category_pools_partition_concepts(self, tmp_path, small_spec):
        corpus = make_corpus(tmp_path, small_spec)
        seen = [c for pool in corpus.category_pools() for c in pool]
        assert sorted(seen) == list(range(small_spec.n_concepts))

    def test_interleaved_layout(self, tmp_path, small_spec):
        spec = replace(small_spec, category_layout="interleaved")
        corpus = make_corpus(tmp_path, spec)
        pools = corpus.category_pools()
        for k, pool in enumerate(pools):
            assert all(i % spec.n_categories == k for i in pool)

    def test_rotated_train_windows_cover_pool(self, tmp_path, small_spec):
        spec = replace(
            small_spec,
            n_languages=2,
            train_concept_fraction=0.5,
            rotate_train_concepts=True,
        )
        corpus = make_corpus(tmp_path, spec)
        for pool in corpus.category_pools():
            windows = [set(corpus._train_candidates(pool, lang)) for lang in corpus.languages]
            assert set().union(*windows) == set(pool)
            assert all(len(w) == math.ceil(0.5 * len(pool)) for w in windows)

    def test_category_distribution_sums_to_one(self, tmp_path, small_spec):
        corpus = make_corpus(tmp_path, small_spec)
        for k in range(small_spec.n_categories):
            dist = corpus.category_distribution(k, corpus.languages[0])
            assert sum(dist.values()) == pytest.approx(1.0)

    def test_noise_free_disjoint_mixtures_are_bayes_separable(self, tmp_path, small_spec):
        # With zero noise and category-pure vocabulary the generative-model
        # classifier is perfect in every language.
        from conftest import bayes_accuracy

        # branching 4 aligns sibling groups with the category pools of 4
        spec = replace(
            small_spec, noise_rate=0.0, cross_group_word_weight=0.0, branching=4
        )
        corpus = make_corpus(tmp_path, spec)
        for lang in corpus.languages:
            assert bayes_accuracy(corpus, lang) == 1.0
