import dataclasses
import json
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import layered_dags

from xlcat.corpus import SupportArticle
from xlcat.interpreter import build_interpreter, interpret, pseudo_document_counts
from xlcat.ontology import (
    Hierarchy,
    SupportIndex,
    ancestors,
    merge_hierarchies,
    retained_concepts,
    support_count,
    support_multiset,
)
from xlcat.virtualdocs import (
    InsufficientAncestryError,
    TermCountTable,
    VirtualDocError,
    construct_virtual_document,
    find_ancestor_depth,
    prominent_terms,
    save_virtual_docs,
)


def doc(cid, text, lang="en"):
    return SupportArticle(concept_id=cid, language=lang, title=cid, text=text)


def chain_hierarchy():
    """c has two parents P1, P2; grandparent G over both; sibling basics
    under each parent supply support."""
    edges = {
        ("P1", "c"), ("P2", "c"),
        ("P1", "s1"), ("P1", "s2"),
        ("P2", "s3"),
        ("G", "P1"), ("G", "P2"),
        ("G", "s4"),
    }
    h = Hierarchy(edges, basic={"c", "s1", "s2", "s3", "s4"}, meta={"P1", "P2", "G"})
    return h


class TestFindAncestorDepth:
    def test_parents_insufficient_grandparents_reach(self):
        h = chain_hierarchy()
        idx = SupportIndex(h.basic, [doc("s1", "a"), doc("s2", "b"), doc("s4", "c"), doc("s4", "d"), doc("s4", "e")])
        # depth 1: P1 holds {s1,s2}=2, P2 holds 0 -> total 2 < 3
        # depth 2 adds G: S(G) covers s1,s2,s3,s4 and doubles nothing -> total >= 3
        assert find_ancestor_depth(h, idx, "c", "en", p=3) == 2

    def test_parents_sufficient(self):
        h = chain_hierarchy()
        arts = [doc("s1", f"t{i}") for i in range(10)]
        idx = SupportIndex(h.basic, arts)
        assert find_ancestor_depth(h, idx, "c", "en", p=3) == 1

    def test_isolated_concept_errors_with_achievable(self):
        h = Hierarchy(set(), basic={"lonely"}, meta=set())
        idx = SupportIndex({"lonely"})
        with pytest.raises(InsufficientAncestryError) as err:
            find_ancestor_depth(h, idx, "lonely", "en", p=1)
        assert err.value.achievable == 0

    def test_exhausted_ancestry_reports_max(self):
        h = chain_hierarchy()
        idx = SupportIndex(h.basic, [doc("s1", "a")])
        with pytest.raises(InsufficientAncestryError) as err:
            find_ancestor_depth(h, idx, "c", "en", p=50)
        # G's multiset counts s1 once via P1; ancestors {P1,P2,G} total 2+0+...
        assert err.value.achievable == sum(
            support_count(h, idx, a, "en") for a in ancestors(h, "c", 3)
        )

    def test_existing_support_rejected(self):
        h = chain_hierarchy()
        idx = SupportIndex(h.basic, [doc("c", "text")])
        with pytest.raises(VirtualDocError):
            find_ancestor_depth(h, idx, "c", "en", p=1)

    def test_minimality_property_random(self):
        rng = random.Random(77)
        checked = 0
        for _ in range(60):
            h, idx = _random_case(rng)
            for cid in sorted(h.basic):
                if idx.has_real_support(cid, "en"):
                    continue
                p = rng.randrange(1, 6)
                try:
                    j = find_ancestor_depth(h, idx, cid, "en", p)
                except InsufficientAncestryError:
                    continue
                counts = _depth_scan(h, idx, cid)
                assert counts[j] >= p
                assert all(c < p for c in counts[:j])
                checked += 1
        assert checked > 50


class TestProminentTerms:
    def test_single_doc(self):
        got = prominent_terms(SupportIndex(()), Counter({doc("x", "a a b"): 1}), t=1)
        assert got == [("a", 2)]

    def test_multiplicity_weighting(self):
        got = prominent_terms(SupportIndex(()), Counter({doc("x", "x"): 2}), t=3)
        assert got == [("x", 2)]

    def test_two_docs_tie_by_term(self):
        docs = Counter({doc("x", "a b b"): 1, doc("y", "b c"): 1})
        assert prominent_terms(SupportIndex(()), docs, t=2) == [("b", 3), ("a", 1)]

    def test_empty_multiset_rejected(self):
        with pytest.raises(VirtualDocError):
            prominent_terms(SupportIndex(()), Counter(), t=1)

    def test_fewer_than_t_returns_all(self):
        got = prominent_terms(SupportIndex(()), Counter({doc("x", "a b"): 1}), t=10)
        assert got == [("a", 1), ("b", 1)]


class TestConstructVirtualDocument:
    def test_single_parent_copies_top_terms(self):
        h = Hierarchy({("P", "c"), ("P", "s")}, basic={"c", "s"}, meta={"P"})
        idx = SupportIndex({"c", "s"}, [doc("s", "a a b")])
        table = construct_virtual_document(h, idx, "c", "en", p=1, t=2)
        assert table.terms == {"a": 2, "b": 1}
        assert table.provenance == ("P",)
        assert table.to_dict()["virtual"] is True

    def test_two_parents_merge_top_one(self):
        h = Hierarchy(
            {("P1", "c"), ("P2", "c"), ("P1", "s1"), ("P2", "s2")},
            basic={"c", "s1", "s2"},
            meta={"P1", "P2"},
        )
        idx = SupportIndex(h.basic, [doc("s1", "a a"), doc("s2", "a b")])
        table = construct_virtual_document(h, idx, "c", "en", p=2, t=1)
        # per-parent top-1: (a,2) and (a,1) after the a/b term-order tie break
        assert table.terms == {"a": 3}
        assert set(table.provenance) == {"P1", "P2"}

    def test_supported_concept_rejected(self):
        h = Hierarchy({("P", "c")}, basic={"c"}, meta={"P"})
        idx = SupportIndex({"c"}, [doc("c", "t")])
        with pytest.raises(VirtualDocError):
            construct_virtual_document(h, idx, "c", "en", p=1, t=1)

    def test_terms_come_from_ancestor_support(self):
        rng = random.Random(5)
        for _ in range(25):
            h, idx = _random_case(rng)
            for cid in sorted(h.basic):
                if idx.has_real_support(cid, "en"):
                    continue
                try:
                    table = construct_virtual_document(h, idx, cid, "en", p=2, t=4)
                except InsufficientAncestryError:
                    continue
                ancestor_terms = set()
                for anc in ancestors(h, cid, 10):
                    for article in support_multiset(h, idx, anc, "en"):
                        ancestor_terms.update(article.text.split())
                assert set(table.terms) <= ancestor_terms
                assert all(c >= 1 for c in table.terms.values())

    def test_retention_and_interpreter_equivalence(self):
        # After injection the concept is retained, and an interpreter built
        # from a real document with identical token counts is query-identical.
        h = Hierarchy({("P", "c"), ("P", "s")}, basic={"c", "s"}, meta={"P"})
        arts = [doc("s", "alpha alpha beta gamma")]
        idx = SupportIndex({"c", "s"}, arts)
        assert retained_concepts(idx, {"en"}) == {"s"}
        table = construct_virtual_document(h, idx, "c", "en", p=1, t=3)
        idx.add_virtual(table)
        assert retained_concepts(idx, {"en"}) == {"c", "s"}

        si_virtual = build_interpreter(idx, "en", {"c", "s"}, k_term=100)
        real_text = " ".join(
            term for term, count in sorted(table.terms.items()) for _ in range(count)
        )
        idx_real = SupportIndex({"c", "s"}, arts + [doc("c", real_text)])
        si_real = build_interpreter(idx_real, "en", {"c", "s"}, k_term=100)
        assert si_virtual.term_index == si_real.term_index
        assert pseudo_document_counts(idx, "c", "en") == pseudo_document_counts(idx_real, "c", "en")
        probe = ["alpha", "beta", "gamma", "alpha"]
        assert interpret(si_virtual, probe) == interpret(si_real, probe)


class TestPersistence:
    def test_save_writes_one_record_per_table(self, tmp_path):
        tables = [
            TermCountTable("c1", "en", {"b": 1, "a": 2}, ("P1",)),
            TermCountTable("c2", "fr", {"x": 5}, ("P1", "P2")),
        ]
        path = tmp_path / "virtual.jsonl"
        save_virtual_docs(tables, path)
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert records == [
            {"concept_id": "c1", "language": "en", "terms": {"a": 2, "b": 1},
             "provenance": ["P1"], "virtual": True},
            {"concept_id": "c2", "language": "fr", "terms": {"x": 5},
             "provenance": ["P1", "P2"], "virtual": True},
        ]
        assert list(records[0]["terms"]) == ["a", "b"]

    def test_nonpositive_count_rejected(self):
        with pytest.raises(VirtualDocError):
            TermCountTable("c", "en", {"a": 0})

    def test_a_built_table_keeps_its_counts(self):
        """A later change to the caller's mapping used to reach the table's
        counts and its to_dict, unchecked."""
        terms = {"b": 1, "a": 2}
        table = TermCountTable("c", "en", terms)
        terms["a"] = -5
        with pytest.raises(TypeError):
            table.terms["a"] = -5
        assert table.to_dict()["terms"] == {"b": 1, "a": 2}
        assert dataclasses.replace(table) == table


def _random_case(rng):
    """Random layered hierarchy where some basics lack support."""
    n_meta = rng.randrange(2, 6)
    n_basic = rng.randrange(2, 8)
    metas = [f"M{i}" for i in range(n_meta)]
    basics = [f"b{i}" for i in range(n_basic)]
    edges = set()
    for i, m in enumerate(metas[1:], start=1):
        edges.add((metas[rng.randrange(i)], m))
    for b in basics:
        for m in rng.sample(metas, rng.randrange(1, min(3, n_meta) + 1)):
            edges.add((m, b))
    h = Hierarchy(edges, basic=set(basics), meta=set(metas))
    articles = []
    for b in basics:
        if rng.random() < 0.6:
            for j in range(rng.randrange(1, 3)):
                words = " ".join(rng.choice(["red", "green", "blue", b]) for _ in range(6))
                articles.append(doc(b, words))
    return h, SupportIndex(h.basic, articles)


def _depth_scan(h, idx, cid, max_depth=12):
    """Independent document-count-by-depth oracle: recompute ancestor sets
    and aggregate sizes from scratch at every depth."""
    counts = [0]
    for depth in range(1, max_depth + 1):
        anc = ancestors(h, cid, depth)
        counts.append(
            sum(len(list(support_multiset(h, idx, a, "en").elements())) for a in anc)
        )
    return counts


def reference_restricted_merge(edges_by_language, basic, meta, allowed):
    """The hierarchy each virtual-docs ablation arm used to merge for itself:
    only the allowed basic concepts, without the edges into the others."""
    basic = set(basic) & set(allowed)
    kept = basic | set(meta)
    edges_by_language = {
        lang: {(p, c) for (p, c) in edges if c in kept}
        for lang, edges in edges_by_language.items()
    }
    return merge_hierarchies(edges_by_language, basic, meta)


def _virtual_outcome(h, idx, cid, lang, p, t):
    try:
        return construct_virtual_document(h, idx, cid, lang, p, t)
    except InsufficientAncestryError as exc:
        return (exc.concept_id, exc.language, exc.needed, exc.achievable)


class TestRestrictedSupportOnTheFullHierarchy:
    """An ablation arm restricts only its SupportIndex; the full hierarchy
    must answer every query about the allowed concepts as the restricted
    merge did."""

    @given(layered_dags(), st.data())
    def test_matches_the_restricted_merge(self, h, data):
        langs = ["a", "b"]
        edges_by_language = {lang: set() for lang in langs}
        for edge in sorted(h.edges):
            for lang in data.draw(st.sets(st.sampled_from(langs), min_size=1)):
                edges_by_language[lang].add(edge)
        basic = sorted(h.basic)
        allowed = data.draw(st.sets(st.sampled_from(basic), min_size=1))
        articles = data.draw(st.lists(
            st.builds(
                lambda cid, lang, words: doc(cid, " ".join(words), lang),
                st.sampled_from(sorted(allowed)),
                st.sampled_from(langs),
                st.lists(st.sampled_from(["x", "y", "z", "w"]), min_size=1, max_size=5),
            ),
            max_size=12,
        ))
        p, t = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))

        full = merge_hierarchies(edges_by_language, h.basic, h.meta)
        restricted = reference_restricted_merge(edges_by_language, h.basic, h.meta, allowed)
        idx = SupportIndex(allowed, articles)
        for cid in sorted(allowed | h.meta):
            for depth in range(6):
                assert ancestors(full, cid, depth) == ancestors(restricted, cid, depth)
            for lang in langs:
                assert support_count(full, idx, cid, lang) == support_count(
                    restricted, idx, cid, lang
                )
                assert support_multiset(full, idx, cid, lang) == support_multiset(
                    restricted, idx, cid, lang
                )
        for cid in sorted(allowed):
            for lang in langs:
                if not idx.has_real_support(cid, lang):
                    assert _virtual_outcome(full, idx, cid, lang, p, t) == _virtual_outcome(
                        restricted, idx, cid, lang, p, t
                    )
