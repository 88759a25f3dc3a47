import json
import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlcat.corpus import FilterConfig, filter_articles, load_labeled_dataset, load_support_corpus
from xlcat.ontology import load_concepts, load_hierarchy_edges, merge_hierarchies, validate_dag
from xlcat.synth import SyntheticCorpusSpec, generate_synthetic_corpus

from conftest import make_corpus


@st.composite
def specs(draw):
    """Any valid SyntheticCorpusSpec."""
    sizes = st.integers(1, 10**5)
    weight = draw(st.floats(0.0, 0.99))
    cross_weight = draw(st.floats(0.0, 0.99 - weight))
    return SyntheticCorpusSpec(
        n_concepts=draw(sizes), n_meta_levels=draw(sizes), branching=draw(sizes),
        vocab_size_per_language=draw(sizes), n_languages=draw(sizes),
        n_categories=draw(sizes), docs_per_category=draw(sizes),
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
