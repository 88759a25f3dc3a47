import random
import time
from collections import Counter, deque

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import layered_dags, random_dags

from xlcat.corpus import SupportArticle
from xlcat.virtualdocs import TermCountTable
from xlcat.ontology import (
    CycleError,
    Hierarchy,
    OntologyError,
    SupportIndex,
    UnknownConceptError,
    ancestors,
    load_concepts,
    load_hierarchy_edges,
    merge_hierarchies,
    retained_concepts,
    save_concepts,
    save_hierarchy_edges,
    support_count,
    support_multiset,
)


def mutate(value):
    """Each in-place change a list, set or dict allows, tried on value; a
    change its type refuses is skipped."""
    for change in (lambda v: v.append("Z"), lambda v: v.add("Z"), lambda v: v.update({"Z": 1}),
                   lambda v: v.__setitem__(0, "Z"), lambda v: v.__delitem__(0), lambda v: v.clear()):
        try:
            change(value)
        except (AttributeError, TypeError, IndexError, KeyError):
            pass


def doc(cid, lang="en", text="w"):
    return SupportArticle(concept_id=cid, language=lang, text=text, title=cid)


class TestMergeHierarchies:
    def test_union_of_two_languages(self):
        h = merge_hierarchies(
            {"l1": {("M", "A")}, "l2": {("M", "B")}},
            basic={"A", "B"},
            meta={"M"},
        )
        assert h.edges == {("M", "A"), ("M", "B")}

    def test_identical_edge_appears_once(self):
        h = merge_hierarchies(
            {"l1": {("M", "A")}, "l2": {("M", "A")}},
            basic={"A"},
            meta={"M"},
        )
        assert h.edges == {("M", "A")}

    def test_cycle_across_languages_reported(self):
        with pytest.raises(CycleError) as err:
            merge_hierarchies(
                {"l1": {("M1", "M2")}, "l2": {("M2", "M1")}},
                basic=set(),
                meta={"M1", "M2"},
            )
        assert set(err.value.cycle) == {"M1", "M2"}

    def test_basic_parent_rejected(self):
        with pytest.raises(OntologyError):
            merge_hierarchies({"l1": {("A", "B")}}, basic={"A", "B"}, meta=set())

    def test_single_language_identity(self):
        edges = {("M", "A"), ("M", "B"), ("T", "M")}
        h = merge_hierarchies({"l": edges}, basic={"A", "B"}, meta={"M", "T"})
        assert h.edges == edges


class TestAncestors:
    def test_direct_parents(self):
        h = Hierarchy({("A", "C"), ("B", "C")}, basic={"C"}, meta={"A", "B"})
        assert ancestors(h, "C", 1) == {"A", "B"}

    def test_zero_depth_empty(self):
        h = Hierarchy({("A", "C"), ("B", "C")}, basic={"C"}, meta={"A", "B"})
        assert ancestors(h, "C", 0) == set()

    def test_diamond_depth_two(self):
        h = Hierarchy(
            {("T", "A"), ("T", "B"), ("A", "C"), ("B", "C")},
            basic={"C"},
            meta={"T", "A", "B"},
        )
        assert ancestors(h, "C", 2) == {"A", "B", "T"}

    def test_unknown_concept(self):
        h = Hierarchy(set(), basic={"C"}, meta=set())
        with pytest.raises(UnknownConceptError):
            ancestors(h, "nope", 1)

    def test_monotone_in_depth(self):
        h = _random_layered_hierarchy(random.Random(3), n_nodes=40)
        for node in sorted(h.basic | h.meta):
            prev = set()
            for depth in range(6):
                cur = ancestors(h, node, depth)
                assert prev <= cur
                prev = cur


def reference_ancestors(h, concept_id, depth):
    """Uncached breadth-first search: every node whose shortest upward path
    from concept_id has 1..depth edges."""
    dist = {concept_id: 0}
    queue = deque([concept_id])
    while queue:
        node = queue.popleft()
        if dist[node] == depth:
            continue
        for parent in h.parents(node):
            if parent not in dist:
                dist[parent] = dist[node] + 1
                queue.append(parent)
    return {node for node, d in dist.items() if d > 0}


class TestAncestorsCache:
    @given(layered_dags(), st.data())
    def test_repeated_calls_match_uncached_reference(self, h, data):
        nodes = sorted(h.basic | h.meta)
        queries = data.draw(
            st.lists(st.tuples(st.sampled_from(nodes), st.integers(0, 4)), min_size=1, max_size=8)
        )
        for cid, depth in queries + queries:
            got = ancestors(h, cid, depth)
            assert got == reference_ancestors(h, cid, depth)
            got.add("not-a-concept")
        cid = queries[0][0]
        with pytest.raises(ValueError):
            ancestors(h, cid, -1)
        with pytest.raises(UnknownConceptError):
            ancestors(h, "not-a-concept", queries[0][1])


def longest_path(h):
    """Edge count of the hierarchy's longest directed path."""
    memo = {}

    def ending_at(node):
        if node not in memo:
            memo[node] = max((ending_at(p) + 1 for p in h.parents(node)), default=0)
        return memo[node]

    return max(map(ending_at, h.basic | h.meta), default=0)


class TestAncestorMasks:
    @given(random_dags())
    def test_every_depth_matches_breadth_first_reference(self, h):
        nodes = sorted(h.basic | h.meta)
        assert h.height == longest_path(h)
        for cid in nodes:
            assert h.ancestors_all(cid) == reference_ancestors(h, cid, len(nodes))
            for depth in [*range(h.height + 3), 10**9]:
                assert h.ancestors_within(cid, depth) == reference_ancestors(h, cid, depth)
        # Every depth past the height reads the one closure table.
        assert h.ancestor_masks(10**9) is h.ancestor_masks(h.height)
        with pytest.raises(ValueError):
            h.ancestors_within(nodes[0], -1)
        with pytest.raises(UnknownConceptError):
            h.ancestors_all("not-a-concept")

    @given(random_dags())
    def test_no_query_hands_out_what_changes_the_hierarchy(self, h):
        """h.parents(c).append("Z") used to go into h's own list, and a
        later ancestor_masks ended in KeyError: 'Z'."""
        fresh = Hierarchy(h.edges, h.basic, h.meta)
        nodes, depths = sorted(h.basic | h.meta), range(h.height + 2)
        for got in [*map(h.parents, nodes), *map(h.children, nodes),
                    *(h.ancestors_within(cid, depth) for cid in nodes for depth in depths),
                    *map(h.ancestor_masks, depths)]:
            mutate(got)
        assert [h.ancestor_masks(depth) for depth in depths] == [fresh.ancestor_masks(depth) for depth in depths]
        assert all(h.parents(cid) == fresh.parents(cid) and h.children(cid) == fresh.children(cid) for cid in nodes)

    def test_long_chain_without_recursion(self):
        chain = [f"m{i:04d}" for i in range(4999)] + ["b"]
        h = Hierarchy(set(zip(chain, chain[1:])), basic={"b"}, meta=set(chain[:-1]))
        start = time.perf_counter()
        assert h.ancestors_within("b", 10**9) == set(chain[:-1])
        assert h.ancestors_all("m2500") == set(chain[:2500])
        assert ancestors(h, "b", 3) == set(chain[-4:-1])
        assert time.perf_counter() - start < 1.0


class TestSupportMultiset:
    def test_disjoint_children(self):
        h = Hierarchy({("M", "c1"), ("M", "c2")}, basic={"c1", "c2"}, meta={"M"})
        d1, d2 = doc("c1"), doc("c2")
        idx = SupportIndex({"c1", "c2"}, [d1, d2])
        assert support_multiset(h, idx, "M", "en") == Counter({d1: 1, d2: 1})

    def test_diamond_doubles_multiplicity(self):
        h = Hierarchy(
            {("M", "A"), ("M", "B"), ("A", "c"), ("B", "c")},
            basic={"c"},
            meta={"M", "A", "B"},
        )
        d = doc("c")
        idx = SupportIndex({"c"}, [d])
        assert support_multiset(h, idx, "M", "en") == Counter({d: 2})

    def test_empty_support(self):
        h = Hierarchy(set(), basic={"c"}, meta=set())
        idx = SupportIndex({"c"})
        assert support_multiset(h, idx, "c", "en") == Counter()

    def test_basic_concept_multiplicity_one(self):
        h = Hierarchy(set(), basic={"c"}, meta=set())
        d1, d2 = doc("c", text="a"), doc("c", text="b")
        idx = SupportIndex({"c"}, [d1, d2])
        assert support_multiset(h, idx, "c", "en") == Counter({d1: 1, d2: 1})

    def test_size_equals_sum_over_children(self):
        rng = random.Random(17)
        for _ in range(20):
            h, idx = _random_supported_hierarchy(rng)
            for node in sorted(h.meta):
                total = support_count(h, idx, node, "en")
                by_children = sum(
                    support_count(h, idx, child, "en") for child in h.children(node)
                )
                assert total == by_children

    def test_multiplicity_equals_brute_force_path_count(self):
        rng = random.Random(23)
        for _ in range(15):
            h, idx = _random_supported_hierarchy(rng)
            for node in sorted(h.meta | h.basic):
                ms = support_multiset(h, idx, node, "en")
                for b in sorted(h.basic):
                    paths = _count_paths_brute(h, node, b)
                    for article in idx.articles(b, "en"):
                        assert ms.get(article, 0) == paths


class TestPathCounts:
    @given(layered_dags())
    def test_every_pair_matches_brute_force_enumeration(self, h):
        # Two isolated nodes, one of each kind, besides the drawn ones.
        h = Hierarchy(h.edges, h.basic | {"iso_b"}, h.meta | {"iso_m"})
        for x in sorted(h.basic | h.meta):
            reached = {x} | {y for y in h.basic | h.meta if x in h.ancestors_all(y)}
            assert h.path_counts_from(x) == {y: _count_paths_brute(h, x, y) for y in reached}

    def test_unknown_concept(self):
        with pytest.raises(UnknownConceptError):
            Hierarchy(set(), basic={"c"}, meta=set()).path_counts_from("absent")


class TestRetainedConcepts:
    def test_empty_language_set_returns_all(self):
        idx = SupportIndex({"c1", "c2"})
        assert retained_concepts(idx, set()) == {"c1", "c2"}

    def test_partial_coverage_excluded(self):
        idx = SupportIndex({"c"}, [doc("c", lang="en")])
        assert retained_concepts(idx, {"en", "fr"}) == set()

    def test_enumerated_coverage(self):
        idx = SupportIndex(
            {"c1", "c2", "c3"},
            [
                doc("c1", "en"), doc("c1", "fr"),
                doc("c2", "en"),
                doc("c3", "en"), doc("c3", "fr"),
            ],
        )
        assert retained_concepts(idx, {"en", "fr"}) == {"c1", "c3"}


class TestLanguagesWithSupport:
    @staticmethod
    def scan(idx, concept_id):
        # The former implementation: a scan over every (concept, language) key.
        langs = {l for (c, l) in idx._articles if c == concept_id and idx._articles[(c, l)]}
        return langs | {l for (c, l) in idx._virtual if c == concept_id}

    def test_matches_key_scan_on_random_sequences(self):
        rng = random.Random(17)
        concepts = [f"c{i}" for i in range(6)]
        for _ in range(50):
            idx = SupportIndex(concepts)
            for _ in range(rng.randrange(0, 25)):
                cid, lang = rng.choice(concepts), rng.choice(["en", "fr", "de", "ru"])
                if rng.random() < 0.6:
                    idx.add_article(doc(cid, lang))
                else:
                    idx.add_virtual(TermCountTable(cid, lang, {"w": 1}))
                for c in concepts + ["absent"]:
                    assert idx.languages_with_support(c) == self.scan(idx, c)

    def test_returns_a_copy(self):
        idx = SupportIndex({"c"}, [doc("c", "en")])
        idx.languages_with_support("c").add("fr")
        assert idx.languages_with_support("c") == {"en"}


def assert_real_cycle(cycle, edges):
    assert len(set(cycle)) == len(cycle) > 1
    for i, node in enumerate(cycle):
        assert (node, cycle[(i + 1) % len(cycle)]) in edges


class TestAcyclicity:
    def test_empty_ok(self):
        h = Hierarchy(set(), basic=set(), meta=set())
        assert h.edges == set() and not h.basic | h.meta

    def test_two_cycle(self):
        with pytest.raises(CycleError) as err:
            Hierarchy({("A", "B"), ("B", "A")}, basic=set(), meta={"A", "B"})
        assert set(err.value.cycle) == {"A", "B"}

    def test_of_two_cycles_one_is_named_deterministically(self):
        edges = {("A", "B"), ("B", "A"), ("C", "D"), ("D", "C"), ("R", "A")}
        with pytest.raises(CycleError) as err:
            Hierarchy(edges, basic=set(), meta={"A", "B", "C", "D", "R"})
        assert err.value.cycle == ["B", "A"]
        assert str(err.value) == "hierarchy contains a cycle: B -> A -> B"

    def test_self_loop(self):
        with pytest.raises(CycleError) as err:
            Hierarchy({("M", "A"), ("M", "M")}, basic={"A"}, meta={"M"})
        assert err.value.cycle == ["M"] and str(err.value) == "hierarchy contains a cycle: M -> M"

    def test_reported_cycle_is_a_real_cycle(self):
        edges = {("A", "B"), ("B", "C"), ("C", "A"), ("A", "D"), ("R", "A")}
        with pytest.raises(CycleError) as err:
            Hierarchy(edges, basic={"D"}, meta={"A", "B", "C", "R"})
        assert_real_cycle(err.value.cycle, edges)
        assert err.value.cycle == ["B", "C", "A"]
        assert str(err.value) == "hierarchy contains a cycle: B -> C -> A -> B"

    @given(layered_dags(), st.data())
    def test_an_edge_back_to_an_ancestor_makes_a_hierarchy_unbuildable(self, h, data):
        back = sorted((d, a) for d in h.meta for a in h.ancestors_all(d))
        assume(back)
        edges = h.edges | {data.draw(st.sampled_from(back))}
        with pytest.raises(CycleError) as err:
            Hierarchy(edges, h.basic, h.meta)
        assert_real_cycle(err.value.cycle, edges)

    def test_large_random_dag_ok(self):
        h = _random_layered_hierarchy(random.Random(7), n_nodes=1000)
        assert len(h.basic | h.meta) == 1000 and h.edges


class TestPersistence:
    def test_concepts_round_trip(self, tmp_path):
        path = tmp_path / "concepts.jsonl"
        save_concepts({"b1", "b2"}, {"m1"}, path)
        basic, meta = load_concepts(path)
        assert basic == {"b1", "b2"}
        assert meta == {"m1"}

    def test_edges_round_trip(self, tmp_path):
        path = tmp_path / "edges.jsonl"
        per_lang = {"en": {("M", "a"), ("M", "b")}, "fr": {("M", "a")}}
        save_hierarchy_edges(per_lang, path)
        assert load_hierarchy_edges(path) == per_lang


def _random_layered_hierarchy(rng, n_nodes=30, n_layers=4):
    """Layered DAG: edges always point from higher to lower layers, so it is
    acyclic by construction. Leaves (layer 0) are basic."""
    layers = [[] for _ in range(n_layers)]
    for i in range(n_nodes):
        layers[rng.randrange(n_layers)].append(f"n{i:04d}")
    basic = set(layers[0])
    meta = {n for layer in layers[1:] for n in layer}
    edges = set()
    for upper in range(1, n_layers):
        for node in layers[upper]:
            below = [n for layer in layers[:upper] for n in layer]
            for child in rng.sample(below, min(len(below), rng.randrange(1, 4))):
                edges.add((node, child))
    return Hierarchy(edges, basic=basic, meta=meta)


def _random_supported_hierarchy(rng):
    h = _random_layered_hierarchy(rng, n_nodes=rng.randrange(8, 30))
    articles = []
    for b in sorted(h.basic):
        for j in range(rng.randrange(0, 3)):
            articles.append(doc(b, text=f"{b} text {j}"))
    return h, SupportIndex(h.basic, articles)


def _count_paths_brute(h, src, dst):
    """Exhaustive DFS path enumeration (exponential; test sizes only)."""
    if src == dst:
        return 1
    return sum(_count_paths_brute(h, child, dst) for child in h.children(src))
