import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlcat.corpus import LabeledDocument, SupportArticle
from xlcat.interpreter import (
    InterpreterError,
    SemanticInterpreter,
    build_interpreter,
    generate_basic_features,
    interpret,
    pseudo_document_counts,
    top_k_features,
)
from xlcat.ontology import SupportIndex
from xlcat.virtualdocs import TermCountTable

LN2 = math.log(2.0)


def make_index(texts, lang="en"):
    """texts: {concept_id: support text}"""
    articles = [
        SupportArticle(concept_id=cid, language=lang, title=cid, text=text)
        for cid, text in texts.items()
    ]
    return SupportIndex(set(texts), articles)


@pytest.fixture
def fruit_si():
    idx = make_index({"c1": "apple apple banana", "c2": "banana cherry"})
    return build_interpreter(idx, "en", {"c1", "c2"}, k_term=10)


class TestBuildInterpreter:
    def test_hand_computed_tfidf(self, fruit_si):
        si = fruit_si
        # banana occurs in every pseudo-document: zero idf, no inverted list
        assert "banana" not in si.term_index
        assert set(si.term_index) == {"apple", "cherry"}
        # the weights pin idf = ln(2/1) for the terms of one of two concepts
        assert si.term_index["apple"] == [("c1", pytest.approx(2 * LN2))]
        assert si.term_index["cherry"] == [("c2", pytest.approx(LN2))]

    def test_single_concept_all_idf_zero(self):
        idx = make_index({"only": "a b c"})
        si = build_interpreter(idx, "en", {"only"}, k_term=5)
        assert si.term_index == {}

    def test_k_term_one_keeps_max_weight(self):
        idx = make_index({"c1": "w w w x1", "c2": "w w x2", "c3": "w x3"})
        si = build_interpreter(idx, "en", {"c1", "c2", "c3"}, k_term=1)
        # df(w)=3=N would zero it out; x-terms pin df(w) < N via other concepts
        assert len(si.term_index["x1"]) == 1
        idx2 = make_index({"c1": "w w w", "c2": "w w", "c3": "w", "c4": "y"})
        si2 = build_interpreter(idx2, "en", {"c1", "c2", "c3", "c4"}, k_term=1)
        assert [c for c, _ in si2.term_index["w"]] == ["c1"]

    def test_empty_support_rejected(self):
        idx = make_index({"c1": "a"})
        with pytest.raises(InterpreterError):
            build_interpreter(idx, "en", {"c1", "c_missing"}, k_term=5)

    def test_k_term_below_one_rejected(self):
        idx = make_index({"c1": "a"})
        with pytest.raises(ValueError):
            build_interpreter(idx, "en", {"c1"}, k_term=0)

    def test_inverted_lists_sorted_desc_ties_by_id(self):
        idx = make_index({"a": "w w z1", "b": "w w z2", "c": "z3"})
        si = build_interpreter(idx, "en", {"a", "b", "c"}, k_term=10)
        pairs = si.term_index["w"]
        assert pairs[0][1] == pairs[1][1]
        assert [c for c, _ in pairs] == ["a", "b"]


class TestInterpret:
    def test_single_word_doc(self, fruit_si):
        assert interpret(fruit_si, ["apple"]) == {"c1": pytest.approx(2 * LN2)}

    def test_unknown_term_empty(self, fruit_si):
        assert interpret(fruit_si, ["zzz"]) == {}

    def test_two_word_centroid(self, fruit_si):
        vec = interpret(fruit_si, ["apple", "cherry"])
        assert vec == {"c1": pytest.approx(LN2), "c2": pytest.approx(LN2 / 2)}

    def test_empty_stream(self, fruit_si):
        assert interpret(fruit_si, []) == {}

    def test_unknown_tokens_count_in_denominator(self, fruit_si):
        vec = interpret(fruit_si, ["apple", "zzz", "zzz", "zzz"])
        assert vec == {"c1": pytest.approx(2 * LN2 / 4)}

    def test_linear_in_term_counts(self, fruit_si):
        # Repeating the document leaves the centroid unchanged; doubling one
        # token's count scales its contribution accordingly.
        v1 = interpret(fruit_si, ["apple", "cherry"])
        v2 = interpret(fruit_si, ["apple", "cherry", "apple", "cherry"])
        for cid in v1:
            assert v2[cid] == pytest.approx(v1[cid])


class TestTopK:
    def test_selects_top_two(self):
        assert top_k_features({"c1": 0.9, "c2": 0.5, "c3": 0.1}, 2) == {"c1", "c2"}

    def test_tie_breaks_ascending_id(self):
        assert top_k_features({"c2": 0.5, "c1": 0.5}, 1) == {"c1"}

    def test_empty_vector(self):
        assert top_k_features({}, 5) == set()

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            top_k_features({"c1": 1.0}, 0)

    @given(st.dictionaries(st.sampled_from([f"c{i}" for i in range(8)]), st.sampled_from([0.25, 0.5, 1.0])),
           st.integers(1, 10))
    def test_matches_sorted_ranking(self, v, k_doc):
        ranked = sorted(v.items(), key=lambda cw: (-cw[1], cw[0]))
        assert top_k_features(v, k_doc) == frozenset(cid for cid, _ in ranked[:k_doc])


class TestGenerateBasicFeatures:
    def test_registered_language(self, fruit_si):
        doc = LabeledDocument("d1", "en", "Apple cherry!", "lab")
        assert generate_basic_features({"en": fruit_si}, doc, k_doc=2) == {"c1", "c2"}

    def test_unregistered_language_names_it(self, fruit_si):
        doc = LabeledDocument("d1", "xx", "apple", "lab")
        with pytest.raises(InterpreterError) as err:
            generate_basic_features({"en": fruit_si}, doc, k_doc=2)
        assert "xx" in str(err.value)

    def test_identical_token_multisets_identical_features(self, fruit_si):
        d1 = LabeledDocument("d1", "en", "apple cherry apple", "a")
        d2 = LabeledDocument("d2", "en", "cherry apple... APPLE", "b")
        f1 = generate_basic_features({"en": fruit_si}, d1, k_doc=3)
        f2 = generate_basic_features({"en": fruit_si}, d2, k_doc=3)
        assert f1 == f2


class TestStopwordOwners:
    """A language's stopword list lives in its SupportIndex and in the
    interpreter built from that index, and nowhere else."""

    @pytest.mark.parametrize("memo", [None, {}], ids=["no-memo", "memo"])
    def test_index_drops_each_articles_language_list(self, memo):
        en = SupportArticle("c1", "en", text="the apple the")
        fr = SupportArticle("c1", "fr", text="le pomme the")
        stopwords = {"en": frozenset({"the"}), "fr": frozenset({"le"})}
        idx = SupportIndex({"c1"}, [en, fr], stopwords, memo)
        for _ in range(2):
            assert idx.term_counts(en) == Counter({"apple": 1})
            assert idx.term_counts(fr) == Counter({"pomme": 1, "the": 1})

    def test_interpreter_carries_its_index_list(self):
        articles = [
            SupportArticle("c1", "en", text="apple apple banana"),
            SupportArticle("c2", "en", text="banana cherry"),
        ]
        idx = SupportIndex({"c1", "c2"}, articles, {"en": frozenset({"apple"})})
        si = build_interpreter(idx, "en", {"c1", "c2"}, k_term=10)
        assert si.stopwords == frozenset({"apple"})
        assert set(si.term_index) == {"cherry"}
        assert build_interpreter(make_index({"c": "x"}), "en", {"c"}, 1).stopwords == frozenset()

    def test_documents_drop_the_interpreter_list(self, fruit_si):
        doc = LabeledDocument("d1", "en", "apple cherry cherry cherry", "lab")
        assert generate_basic_features({"en": fruit_si}, doc, k_doc=1) == {"c2"}
        fruit_si.stopwords = frozenset({"cherry"})
        assert generate_basic_features({"en": fruit_si}, doc, k_doc=1) == {"c1"}

    def test_the_list_is_not_saved(self, fruit_si, tmp_path):
        fruit_si.save(tmp_path / "plain.json")
        fruit_si.stopwords = frozenset({"cherry"})
        fruit_si.save(tmp_path / "listed.json")
        assert (tmp_path / "listed.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        loaded = SemanticInterpreter.load(tmp_path / "listed.json")
        assert loaded.stopwords == frozenset()
        assert _as_tuples(loaded.term_index) == fruit_si.term_index


class TestOracleEquivalence:
    def test_matches_dense_reference(self):
        rng = random.Random(42)
        for _ in range(10):
            texts, vocab = _random_corpus(rng, max_concepts=12, max_terms=40)
            idx = make_index(texts)
            si = build_interpreter(idx, "en", set(texts), k_term=10 ** 6)
            for _ in range(5):
                doc = [rng.choice(vocab) for _ in range(rng.randrange(0, 15))]
                got = interpret(si, doc)
                want = _dense_reference(texts, doc)
                assert set(got) == set(want)
                for cid in want:
                    assert got[cid] == pytest.approx(want[cid], abs=1e-9)

    def test_scale_covariance(self):
        rng = random.Random(43)
        texts, vocab = _random_corpus(rng, max_concepts=8, max_terms=25)
        scaled = {cid: " ".join([text] * 3) for cid, text in texts.items()}
        si1 = build_interpreter(make_index(texts), "en", set(texts), k_term=10 ** 6)
        si3 = build_interpreter(make_index(scaled), "en", set(texts), k_term=10 ** 6)
        for _ in range(10):
            doc = [rng.choice(vocab) for _ in range(rng.randrange(1, 12))]
            v1, v3 = interpret(si1, doc), interpret(si3, doc)
            assert set(v1) == set(v3)
            for cid in v1:
                assert v3[cid] == pytest.approx(3 * v1[cid])
            k = rng.randrange(1, 6)
            assert top_k_features(v1, k) == top_k_features(v3, k)


def reference_build_interpreter(idx, language, concepts, k_term):
    """The term_index of the build_interpreter loop this code replaced: idf
    computed for each (concept, term) pair and a (-weight, id) sort."""
    universe = sorted(set(concepts))
    n = len(universe)
    per_concept = {cid: pseudo_document_counts(idx, cid, language) for cid in universe}
    df = Counter(term for counts in per_concept.values() for term in counts)
    index = {}
    for cid in universe:
        for term, tf in per_concept[cid].items():
            if df[term] < n:
                index.setdefault(term, []).append((cid, tf * math.log(n / df[term])))
    for term, pairs in index.items():
        pairs.sort(key=lambda cw: (-cw[1], cw[0]))
        del pairs[k_term:]
    return index


def reference_interpret(si, doc):
    """The interpret loop this code replaced, without bound-method locals."""
    if not doc:
        return {}
    sums = {}
    for token in doc:
        for cid, weight in si.term_index.get(token, ()):
            sums[cid] = sums.get(cid, 0.0) + weight
    inv = 1.0 / len(doc)
    return {cid: total * inv for cid, total in sums.items()}


def bits(pairs):
    return [(key, weight.hex()) for key, weight in pairs]


VOCAB = ["w0", "w1", "w2", "w3", "w4"]


@st.composite
def tied_corpora(draw):
    """{concept id: text} where several concepts share one of a few short
    texts over five words, so equal tf and df, and so equal weights, are
    common; the ids sort in another order than they are drawn."""
    shared = draw(st.lists(st.lists(st.sampled_from(VOCAB), min_size=1, max_size=6),
                           min_size=1, max_size=3))
    ids = draw(st.lists(st.sampled_from(["c10", "c2", "b", "a1", "z", "c1"]),
                        min_size=2, max_size=6, unique=True))
    return {cid: " ".join(draw(st.sampled_from(shared))) for cid in ids}


class TestFastPathOracles:
    @given(tied_corpora(), st.integers(1, 4))
    def test_build_interpreter_matches_reference(self, texts, k_term):
        idx = make_index(texts)
        si = build_interpreter(idx, "en", set(texts), k_term=k_term)
        want = reference_build_interpreter(idx, "en", set(texts), k_term)
        assert list(si.term_index) == list(want)
        for term, pairs in want.items():
            assert bits(si.term_index[term]) == bits(pairs), term

    @given(tied_corpora(), st.integers(1, 4),
           st.lists(st.sampled_from(VOCAB + ["unknown"]), max_size=12))
    def test_interpret_matches_reference(self, texts, k_term, doc):
        si = build_interpreter(make_index(texts), "en", set(texts), k_term=k_term)
        assert bits(interpret(si, doc).items()) == bits(reference_interpret(si, doc).items())


class TestPseudoDocumentCounts:
    @given(
        st.lists(st.tuples(st.sampled_from(["c1", "c2"]), st.sampled_from(["en", "fr"]),
                           st.lists(st.sampled_from(VOCAB + ["the", "le", "7"]), max_size=8)),
                 max_size=8),
        st.booleans(),
    )
    def test_counting_straight_in_matches_the_memo(self, drawn, virtual):
        # Without a memo each article's tokens are counted straight into the
        # pseudo-document; with one, the article's memoized Counter is added.
        articles = [SupportArticle(cid, lang, text=" ".join(words)) for cid, lang, words in drawn]
        stopwords = {"en": frozenset({"the"}), "fr": frozenset({"le"})}
        direct = SupportIndex({"c1", "c2"}, articles, stopwords)
        memoized = SupportIndex({"c1", "c2"}, articles, stopwords, {})
        if virtual:
            for idx in (direct, memoized):
                idx.add_virtual(TermCountTable("c1", "en", {VOCAB[0]: 2, "zz": 1}))
        for cid in ("c1", "c2"):
            for lang in ("en", "fr"):
                want = pseudo_document_counts(memoized, cid, lang)
                got = pseudo_document_counts(direct, cid, lang)
                assert list(got.items()) == list(want.items())


class TestPersistence:
    def test_round_trip_query_identical(self, tmp_path, fruit_si):
        path = tmp_path / "si.json"
        fruit_si.save(path)
        loaded = SemanticInterpreter.load(path)
        assert (loaded.language, loaded.k_term) == ("en", 10)
        assert _as_tuples(loaded.term_index) == fruit_si.term_index
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert set(payload) == {"format", "version", "language", "k_term", "term_index"}
        for doc in (["apple"], ["apple", "cherry"], ["banana"], []):
            assert interpret(loaded, doc) == interpret(fruit_si, doc)

    def test_magic_header_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(InterpreterError):
            SemanticInterpreter.load(path)


def _as_tuples(term_index):
    """A loaded term index, whose pairs are lists, with tuple pairs as built."""
    return {term: [tuple(pair) for pair in pairs] for term, pairs in term_index.items()}


def _random_corpus(rng, max_concepts, max_terms):
    n_concepts = rng.randrange(2, max_concepts + 1)
    vocab = [f"w{i}" for i in range(rng.randrange(5, max_terms + 1))]
    texts = {}
    for c in range(n_concepts):
        words = [rng.choice(vocab) for _ in range(rng.randrange(1, 60))]
        texts[f"c{c:03d}"] = " ".join(words)
    return texts, vocab


def _dense_reference(texts, doc):
    """Materialize the full concept-by-term TF-IDF matrix and average the
    token columns directly."""
    concepts = sorted(texts)
    n = len(concepts)
    tf = {cid: {} for cid in concepts}
    for cid in concepts:
        for w in texts[cid].split():
            tf[cid][w] = tf[cid].get(w, 0) + 1
    vocab = sorted({w for cid in concepts for w in tf[cid]})
    df = {w: sum(1 for cid in concepts if w in tf[cid]) for w in vocab}
    matrix = {
        cid: {w: tf[cid].get(w, 0) * math.log(n / df[w]) for w in vocab}
        for cid in concepts
    }
    if not doc:
        return {}
    sums = {}
    for token in doc:
        for cid in concepts:
            weight = matrix[cid].get(token, 0.0)
            if weight:
                sums[cid] = sums.get(cid, 0.0) + weight
    return {cid: total / len(doc) for cid, total in sums.items() if total != 0.0}
