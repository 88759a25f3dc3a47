import dataclasses
import math
import os
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import assert_no_child_left, layered_dags, random_dags
from xlcat import _util, corpus, features, interpreter
from xlcat.corpus import LabeledDocument, SupportArticle
from xlcat.errors import DataError
from xlcat.features import (
    FeatureSpace,
    build_feature_space,
    enrich_with_meta,
    filter_meta_features,
    information_gain,
    load_vectors,
    project_documents,
    save_vectors,
    select_features,
)
from xlcat.interpreter import SemanticInterpreter, build_interpreter
from xlcat.ontology import Hierarchy, SupportIndex, UnknownConceptError, ancestors


def diamond():
    return Hierarchy(
        {("T", "A"), ("T", "B"), ("A", "C"), ("B", "C"), ("A", "D")},
        basic={"C", "D"},
        meta={"T", "A", "B"},
    )


def feats(*concepts):
    return frozenset(concepts)


class TestEnrichWithMeta:
    def test_m_zero_identity(self):
        h = diamond()
        assert enrich_with_meta(h, feats("C"), 0) == {"C"}

    def test_diamond_m3(self):
        h = diamond()
        assert enrich_with_meta(h, feats("C"), 3) == {"C", "A", "B", "T"}

    def test_monotone_in_m(self):
        h = diamond()
        prev = set()
        for m in range(4):
            cur = enrich_with_meta(h, feats("C", "D"), m)
            assert prev <= cur
            prev = cur


class TestFilterMetaFeatures:
    def test_single_coverage_dropped(self):
        h = diamond()
        enriched = enrich_with_meta(h, feats("D"), 3)  # D's ancestors: A, T
        kept = filter_meta_features(h, enriched, feats("D"))
        assert kept == {"D"}

    def test_double_coverage_kept(self):
        h = diamond()
        enriched = enrich_with_meta(h, feats("C", "D"), 3)
        kept = filter_meta_features(h, enriched, feats("C", "D"))
        # A and T cover both C and D; B covers only C
        assert kept == {"C", "D", "A", "T"}

    def test_basic_features_always_survive(self):
        h = diamond()
        kept = filter_meta_features(h, {"C", "D", "B"}, feats("C", "D"))
        assert {"C", "D"} <= kept

    def test_idempotent(self):
        h = diamond()
        basic = feats("C", "D")
        enriched = enrich_with_meta(h, basic, 3)
        once = filter_meta_features(h, enriched, basic)
        assert filter_meta_features(h, once, basic) == once


def reference_filter_meta_features(h, enriched, basic):
    """The filter as a scan: for each enriched meta feature, count the basic
    features whose ancestor closure contains it."""
    kept = set()
    for cid in enriched:
        if cid in h.basic:
            kept.add(cid)
            continue
        covered = sum(1 for b in basic if cid in h.ancestors_all(b))
        if covered >= 2:
            kept.add(cid)
    return kept


class TestFilterMetaFeaturesOracle:
    @given(layered_dags(), st.data(), st.integers(0, 3))
    def test_matches_reference(self, h, data, m):
        basic = feats(*data.draw(st.sets(st.sampled_from(sorted(h.basic)))))
        enriched = enrich_with_meta(h, basic, m)
        expected = reference_filter_meta_features(h, enriched, basic)
        assert filter_meta_features(h, enriched, basic) == expected


def reference_enrich_with_meta(h, basic, m):
    """The union of fresh ancestor sets enrich_with_meta replaced."""
    result = set(basic)
    for cid in basic:
        result |= ancestors(h, cid, m)
    return result


class TestEnrichWithMetaOracle:
    @given(layered_dags(), st.data(), st.integers(0, 3))
    def test_matches_reference_and_ignores_mutated_ancestor_sets(self, h, data, m):
        basic = feats(*data.draw(st.sets(st.sampled_from(sorted(h.basic | h.meta)))))
        expected = reference_enrich_with_meta(h, basic, m)
        assert enrich_with_meta(h, basic, m) == expected
        # ancestors() hands out copies: mutating them, or a result, must not
        # reach the ancestor tables that later calls read.
        for cid in basic:
            ancestors(h, cid, m).clear()
            ancestors(h, cid, m).add("intruder")
        enrich_with_meta(h, basic, m).add("intruder")
        assert enrich_with_meta(h, basic, m) == expected
        assert reference_enrich_with_meta(h, basic, m) == expected


def generating(concepts):
    """A document, its tokens and interpreters under which the document
    generates exactly `concepts` at k_doc = len(concepts): each token names
    one concept, all at the same weight."""
    si = SemanticInterpreter("en", 1, {f"t{c}": [(c, 1.0)] for c in concepts})
    return LabeledDocument("d", "en", ""), [f"t{c}" for c in sorted(concepts)], {"en": si}


class TestDocumentFeaturesMetaStage:
    @given(random_dags(), st.data())
    def test_matches_reference_enrich_then_filter(self, h, data):
        concepts = data.draw(st.sets(st.sampled_from(sorted(h.basic | h.meta))))
        if data.draw(st.booleans()):
            concepts &= h.basic  # only basic concepts: the one-pass stage
        m = data.draw(st.sampled_from([*range(h.height + 3), 10**9]))
        doc, tokens, interpreters = generating(concepts)
        got = features.document_features(doc, interpreters, h, max(len(concepts), 1), m, tokens)
        basic = frozenset(concepts)
        assert got == reference_filter_meta_features(h, reference_enrich_with_meta(h, basic, m), basic)

    def test_unknown_concept_and_negative_m_raise(self):
        doc, tokens, interpreters = generating({"C", "not-a-concept"})
        with pytest.raises(UnknownConceptError):
            features.document_features(doc, interpreters, diamond(), 2, 1, tokens)
        doc, tokens, interpreters = generating({"C", "D"})
        with pytest.raises(ValueError):
            features.document_features(doc, interpreters, diamond(), 2, -1, tokens)


def two_language_setup():
    """Aligned two-concept corpus in two languages with disjoint vocabulary."""
    arts = [
        SupportArticle(concept_id="fruit", language="en", title="", text="apple banana pear"),
        SupportArticle(concept_id="tool", language="en", title="", text="hammer saw drill"),
        SupportArticle(concept_id="fruit", language="fr", title="", text="pomme banane poire"),
        SupportArticle(concept_id="tool", language="fr", title="", text="marteau scie perceuse"),
    ]
    idx = SupportIndex({"fruit", "tool"}, arts)
    h = Hierarchy({("things", "fruit"), ("things", "tool")}, basic={"fruit", "tool"}, meta={"things"})
    interpreters = {
        lang: build_interpreter(idx, lang, {"fruit", "tool"}, k_term=100)
        for lang in ("en", "fr")
    }
    return h, interpreters


class TestBuildFeatureSpace:
    def test_single_doc(self):
        h, si = two_language_setup()
        docs = [LabeledDocument("d1", "en", "apple hammer", "x")]
        space, vecs = build_feature_space(docs, si, h, k_doc=5, m=0)
        assert space.concepts == ("fruit", "tool")
        assert vecs == [frozenset({0, 1})]

    def test_disjoint_docs_sum_sizes(self):
        h, si = two_language_setup()
        docs = [
            LabeledDocument("d1", "en", "apple", "x"),
            LabeledDocument("d2", "en", "hammer", "y"),
        ]
        space, vecs = build_feature_space(docs, si, h, k_doc=5, m=0)
        assert len(space) == 2
        assert vecs == [frozenset({0}), frozenset({1})]

    def test_duplicate_doc_union_semantics(self):
        h, si = two_language_setup()
        doc = LabeledDocument("d1", "en", "apple hammer", "x")
        space1, _ = build_feature_space([doc], si, h, k_doc=5, m=0)
        space2, _ = build_feature_space([doc, doc], si, h, k_doc=5, m=0)
        assert space1.concepts == space2.concepts

    def test_cross_language_identity(self):
        # Documents in different languages with equal generated concept sets
        # binarize to identical vectors.
        h, si = two_language_setup()
        docs = [
            LabeledDocument("en1", "en", "apple banana hammer", "x"),
            LabeledDocument("fr1", "fr", "pomme banane marteau", "x"),
        ]
        space, vecs = build_feature_space(docs, si, h, k_doc=5, m=3)
        assert vecs[0] == vecs[1]

    def test_projection_drops_unknown(self):
        h, si = two_language_setup()
        train = [LabeledDocument("d1", "en", "apple", "x")]
        space, _ = build_feature_space(train, si, h, k_doc=5, m=0)
        test = [LabeledDocument("t1", "fr", "marteau pomme", "y")]
        vecs = project_documents(space, test, si, h, k_doc=5, m=0)
        assert vecs == [frozenset({space.index["fruit"]})]

    def test_workers_do_not_change_result(self):
        h, si = two_language_setup()
        docs = [
            LabeledDocument(f"d{i}", "en" if i % 2 else "fr",
                            "apple banana" if i % 3 else "hammer saw", "x")
            for i in range(20)
        ]
        s1, v1 = build_feature_space(docs, si, h, k_doc=5, m=2, workers=1)
        s4, v4 = build_feature_space(docs, si, h, k_doc=5, m=2, workers=4)
        assert s1.concepts == s4.concepts
        assert v1 == v4


# Words of two_language_setup's articles, plus one that no interpreter knows.
_WORDS = {"en": ["apple", "banana", "pear", "hammer", "saw", "drill", "zzz"],
          "fr": ["pomme", "banane", "poire", "marteau", "scie", "perceuse", "zzz"]}


@st.composite
def documents(draw):
    """0 to 12 documents of either language, each a few of its words."""
    docs = []
    for i in range(draw(st.integers(0, 12))):
        lang = draw(st.sampled_from(sorted(_WORDS)))
        words = draw(st.lists(st.sampled_from(_WORDS[lang]), max_size=4))
        docs.append(LabeledDocument(f"d{i}", lang, " ".join(words), None))
    return docs


class TestProjectDocumentsOracle:
    """project_documents maps min(CPUs, documents) contiguous blocks, each
    but the first in a forked child, and gives the vectors of mapping each
    document in turn here."""

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(documents(), st.sampled_from([1, 2, 3]), st.integers(0, 2))
    def test_same_vectors_as_one_document_at_a_time(self, monkeypatch, forks, docs, cpus, m):
        h, si = two_language_setup()
        space = FeatureSpace(["things", "fruit"])  # "tool" drops out
        expected = [space.vector_for(features.document_features(d, si, h, 5, m)) for d in docs]
        monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
        forks.clear()
        assert project_documents(space, docs, si, h, k_doc=5, m=m) == expected
        assert len(forks) == max(min(cpus, len(docs)) - 1, 0)
        assert_no_child_left()

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(documents(), st.sampled_from([1, 2, 3]))
    def test_every_document_is_tokenized_here_once(self, monkeypatch, docs, cpus):
        h, si = two_language_setup()
        tokenized = []

        def counted(text, stopwords=None):
            tokenized.append(text)
            return corpus.tokenize(text, stopwords)

        for module in (features, interpreter):
            monkeypatch.setattr(module, "tokenize", counted)
        monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
        project_documents(FeatureSpace(["things", "fruit"]), docs, si, h, k_doc=5, m=1)
        assert Counter(tokenized) == Counter(d.text for d in docs)  # a child's calls would not show here
        assert_no_child_left()

    def test_a_forked_task_maps_every_block_in_its_child_and_forks_nothing(self, monkeypatch, forks):
        """In a child of _util.forked, fork_workers() is 1, so the child maps
        its documents in one block however many CPUs it may use."""
        h, si = two_language_setup()
        space = FeatureSpace(["things", "fruit"])
        docs = [LabeledDocument(f"d{i}", lang, " ".join(_WORDS[lang][i:i + 3]), None)
                for i in range(4) for lang in sorted(_WORDS)]
        expected = [space.vector_for(features.document_features(d, si, h, 5, 1)) for d in docs]
        monkeypatch.setattr(_util, "_usable_cpus", lambda: 3)
        parent = os.getpid()

        def task():  # the forks the child counts include the one that made it
            vectors = project_documents(space, docs, si, h, 5, 1)
            return os.getpid() != parent, _util.fork_workers(), vectors, len(forks)

        with _util.forked([task]) as results:
            pass
        assert results == [(True, 1, expected, 1)]
        assert len(forks) == 1 and _util.fork_workers() == 3
        assert_no_child_left()


class TestInformationGain:
    def test_perfect_split(self):
        vectors = [frozenset({0}), frozenset({0}), frozenset(), frozenset()]
        labels = ["+", "+", "-", "-"]
        assert information_gain(vectors, labels, [0]) == [pytest.approx(1.0)]

    def test_always_active_zero(self):
        vectors = [frozenset({0})] * 4
        labels = ["+", "+", "-", "-"]
        assert information_gain(vectors, labels, [0]) == [pytest.approx(0.0)]

    def test_uninformative_split_zero(self):
        vectors = [frozenset({0}), frozenset(), frozenset({0}), frozenset()]
        labels = ["+", "+", "-", "-"]
        assert information_gain(vectors, labels, [0]) == [pytest.approx(0.0)]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            information_gain([frozenset()], ["a", "b"], [0])

    def test_matches_contingency_oracle(self):
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randrange(1, 60)
            n_labels = rng.randrange(1, 5)
            labels = [f"k{rng.randrange(n_labels)}" for _ in range(n)]
            vectors = [frozenset({0}) if rng.random() < 0.4 else frozenset() for _ in range(n)]
            [got] = information_gain(vectors, labels, [0])
            want = _mutual_information_oracle(vectors, labels, 0)
            assert got == pytest.approx(want, abs=1e-12)
            assert got >= 0.0
            assert got <= _entropy_of(labels) + 1e-12


def reference_information_gain(vectors, labels, coordinate):
    """The per-(coordinate, document) Counter increments information_gain
    replaced. Its Counters meet labels in the same order, so the entropy sums
    run in the same order and the gains must agree in every bit."""
    n = len(labels)
    on = Counter()
    off = Counter()
    n_on = 0
    for vec, label in zip(vectors, labels):
        if coordinate in vec:
            on[label] += 1
            n_on += 1
        else:
            off[label] += 1
    prior = Counter(labels)
    gain = (
        features._entropy(prior, n)
        - (n_on / n) * features._entropy(on, n_on)
        - ((n - n_on) / n) * features._entropy(off, n - n_on)
    )
    return max(gain, 0.0)


@st.composite
def labeled_binary_vectors(draw):
    """(vectors, labels, k): vectors over coordinates 0..k-1 plus coordinate
    k, which every vector has; coordinate k + 1 is in none. One to five
    labels, so a single label is common."""
    k = draw(st.integers(1, 5))
    alphabet = ["e", "b", "a", "d", "c"][: draw(st.integers(1, 5))]
    labels = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=40))
    vectors = [draw(st.frozensets(st.integers(0, k - 1))) | {k} for _ in labels]
    return vectors, labels, k


# labels first appear as b, c, a among the documents with coordinate 0,
# as a, c, b among those without it, and as a, b, c overall
OFF_ORDER_EXAMPLE = (
    [frozenset({1}), frozenset({0, 1}), frozenset({0, 1}), frozenset({1}),
     frozenset({1}), frozenset({0, 1}), frozenset({1})],
    ["a", "b", "c", "c", "b", "a", "a"],
    1,
)
# the counts differ, so each order gives other bits: labels first appear as
# d, b, e, a overall and among the documents with coordinate 1, and as
# d, e, a, b among those without coordinate 0
UNEQUAL_COUNTS_EXAMPLE = (
    [frozenset({1}), frozenset({0, 1}), frozenset({1}), frozenset({1}),
     frozenset({1}), frozenset({1}), frozenset({1})],
    ["d", "b", "e", "a", "b", "b", "d"],
    1,
)


def reference_select_features(space, vectors, labels, n):
    """Concepts and remapped vectors of the n coordinates ranked highest by
    reference_information_gain, ties toward the smaller concept id."""
    gains = [reference_information_gain(vectors, labels, i) for i in range(len(space))]
    ranked = sorted(range(len(space)), key=lambda i: (-gains[i], space.concepts[i]))
    kept = sorted(ranked[:n])
    new_index = {old: new for new, old in enumerate(kept)}
    remapped = [frozenset(new_index[i] for i in vec if i in new_index) for vec in vectors]
    return tuple(space.concepts[i] for i in kept), remapped


class TestInformationGainOracle:
    @given(labeled_binary_vectors())
    @example(OFF_ORDER_EXAMPLE)
    @example(UNEQUAL_COUNTS_EXAMPLE)
    def test_same_bits_as_reference(self, drawn):
        vectors, labels, k = drawn
        for coordinate in range(k + 2):
            [got] = information_gain(vectors, labels, [coordinate])
            assert got.hex() == reference_information_gain(vectors, labels, coordinate).hex()

    @given(labeled_binary_vectors())
    @example(OFF_ORDER_EXAMPLE)
    @example(UNEQUAL_COUNTS_EXAMPLE)
    def test_one_pass_same_bits_as_reference(self, drawn):
        """The sequence form, in the given order, including coordinate k
        (in every vector) and k + 1 (in none)."""
        vectors, labels, k = drawn
        for coordinates in (range(k + 2), list(reversed(range(k + 2)))):
            got = information_gain(vectors, labels, coordinates)
            want = [reference_information_gain(vectors, labels, c) for c in coordinates]
            assert [g.hex() for g in got] == [w.hex() for w in want]

    def test_one_pass_keeps_the_input_errors(self):
        with pytest.raises(ValueError, match="same length"):
            information_gain([frozenset()], ["a", "b"], range(1))
        with pytest.raises(ValueError, match="at least one"):
            information_gain([], [], range(1))

    @given(labeled_binary_vectors(), st.integers(1, 6))
    @example(OFF_ORDER_EXAMPLE, 1)
    @example(UNEQUAL_COUNTS_EXAMPLE, 1)
    def test_selection_matches_reference_ranking(self, drawn, n):
        vectors, labels, k = drawn
        n = min(n, k + 1)  # fewer than the k + 2 coordinates, so selection runs
        # concept ids sort against their coordinates, so ties exercise the id order
        space = FeatureSpace(concepts=["q", "c", "x", "a", "m", "b", "z"][: k + 2])
        reduced, new_vectors = select_features(space, vectors, labels, n)
        assert (reduced.concepts, new_vectors) == reference_select_features(space, vectors, labels, n)

    def test_selection_makes_one_call_and_none_within_budget(self, monkeypatch):
        calls = []

        def counting(vectors, labels, coordinate):
            calls.append(list(coordinate))
            return information_gain(vectors, labels, coordinate)

        monkeypatch.setattr(features, "information_gain", counting)
        space = FeatureSpace(concepts=["a", "b", "c", "d"])
        vectors = [frozenset({0, 1}), frozenset({1, 2}), frozenset({3}), frozenset()]
        select_features(space, vectors, ["+", "+", "-", "-"], 4)
        assert calls == []
        select_features(space, vectors, ["+", "+", "-", "-"], 2)
        assert calls == [[0, 1, 2, 3]]


class TestSelectFeatures:
    def _setup(self):
        space = FeatureSpace(concepts=["a", "b", "c"])
        vectors = [
            frozenset({0, 1}),
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({1}),
        ]
        labels = ["+", "+", "-", "-"]
        return space, vectors, labels

    def test_identity_when_within_budget(self):
        space, vectors, labels = self._setup()
        reduced, new_vecs = select_features(space, vectors, labels, 3)
        assert reduced.concepts == space.concepts
        assert new_vecs == vectors

    def test_keeps_highest_gain(self):
        space, vectors, labels = self._setup()
        reduced, new_vecs = select_features(space, vectors, labels, 1)
        assert reduced.concepts == ("a",)  # the perfect-split feature
        assert new_vecs == [frozenset({0}), frozenset({0}), frozenset(), frozenset()]

    def test_stable_across_runs(self):
        space, vectors, labels = self._setup()
        first = select_features(space, vectors, labels, 2)
        second = select_features(space, vectors, labels, 2)
        assert first[0].concepts == second[0].concepts
        assert first[1] == second[1]

    def test_preserves_original_order(self):
        space = FeatureSpace(concepts=["z", "y", "x"])
        vectors = [frozenset({0, 2}), frozenset({1})]
        labels = ["+", "-"]
        reduced, _ = select_features(space, vectors, labels, 2)
        assert reduced.concepts == tuple(c for c in space.concepts if c in set(reduced.concepts))


class TestPersistence:
    def test_space_round_trip(self, tmp_path):
        space = FeatureSpace(concepts=["b", "a", "m"], metadata={"m": 3, "k_doc": 5})
        path = tmp_path / "space.json"
        space.save(path)
        loaded = FeatureSpace.load(path)
        assert loaded.concepts == space.concepts
        assert loaded.metadata == space.metadata
        assert loaded.index == space.index

    @pytest.mark.parametrize("concepts", [["a", None], [1, 2]], ids=["None", "integers"])
    def test_a_concept_id_other_than_a_string_is_rejected_where_built(self, concepts):
        """Such a space used to construct and save, and then not load."""
        with pytest.raises(DataError, match=r"^'concepts' must hold only strings, got (None|1)$"):
            FeatureSpace(concepts)

    def test_concepts_cannot_change_after_the_checks(self, tmp_path):
        """A space's concept list used to be the caller's list: appending to
        it saved a file that load refused, and left the concept out of index."""
        given = ["a"]
        space = FeatureSpace(given)
        given.append("a")
        assert space.concepts == ("a",) and space.index == {"a": 0}
        with pytest.raises(AttributeError):
            space.concepts.append("b")
        with pytest.raises(dataclasses.FrozenInstanceError):
            space.concepts = ["a", "a"]
        space.save(tmp_path / "space.json")
        assert FeatureSpace.load(tmp_path / "space.json") == space

    def test_vectors_round_trip(self, tmp_path):
        docs = [
            LabeledDocument("d1", "en", "t", "x"),
            LabeledDocument("d2", "fr", "t", None),
        ]
        vectors = [frozenset({0, 3}), frozenset()]
        path = tmp_path / "vec.jsonl"
        save_vectors(vectors, docs, path)
        got_vecs, got_labels, got_ids = load_vectors(path)
        assert got_vecs == vectors
        assert got_labels == ["x", None]
        assert got_ids == ["d1", "d2"]


def _mutual_information_oracle(vectors, labels, coordinate):
    """I(F;K) from the joint contingency table, a different formula path than
    the conditional-entropy implementation."""
    n = len(labels)
    joint = Counter((coordinate in vec, lab) for vec, lab in zip(vectors, labels))
    pf = Counter(coordinate in vec for vec in vectors)
    pk = Counter(labels)
    total = 0.0
    for (f, k), c in joint.items():
        pjoint = c / n
        total += pjoint * math.log2(pjoint / ((pf[f] / n) * (pk[k] / n)))
    return total


def _entropy_of(labels):
    n = len(labels)
    return -sum((c / n) * math.log2(c / n) for c in Counter(labels).values())
