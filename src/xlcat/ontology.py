"""Concept set, meta-concept hierarchy DAG and per-language support-document
assignment; ancestor queries and multiset support aggregation.

Edges always point parent -> child; parents are meta-concepts, children may
be meta or basic. Basic concepts carry support articles, meta-concepts only
aggregate their descendants'.
"""

from __future__ import annotations

from collections import Counter, deque
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple

from ._util import dump_jsonl
from .corpus import SupportArticle, _read_jsonl, _require_str, tokenize
from .errors import DataError

Edge = Tuple[str, str]


class OntologyError(DataError):
    pass


class CycleError(OntologyError):
    def __init__(self, cycle: Sequence[str]):
        self.cycle = list(cycle)
        super().__init__("hierarchy contains a cycle: " + " -> ".join(self.cycle + self.cycle[:1]))


class UnknownConceptError(OntologyError):
    def __init__(self, concept_id: str):
        self.concept_id = concept_id
        super().__init__(f"unknown concept {concept_id!r}")


class Hierarchy:
    """Immutable DAG container over declared basic and meta concepts.

    Construction checks edge typing (meta parents, no self-loops, declared
    endpoints) but not acyclicity; use validate_dag / merge_hierarchies for
    that, so that cycle reports can be produced from an instance.
    """

    def __init__(self, edges: Iterable[Edge], basic: Iterable[str], meta: Iterable[str]):
        self.basic = frozenset(basic)
        self.meta = frozenset(meta)
        overlap = self.basic & self.meta
        if overlap:
            raise OntologyError(f"concepts declared both basic and meta: {sorted(overlap)[:5]}")
        self._parents: Dict[str, list] = {}
        self._children: Dict[str, list] = {}
        seen = set()
        for parent, child in edges:
            if (parent, child) in seen:
                continue
            if parent == child:
                raise OntologyError(f"self-loop on {parent!r}")
            if parent not in self.meta:
                kind = "basic-kind" if parent in self.basic else "undeclared"
                raise OntologyError(f"edge parent {parent!r} is {kind}; parents must be meta")
            if child not in self.basic and child not in self.meta:
                raise OntologyError(f"edge child {child!r} is not a declared concept")
            seen.add((parent, child))
        for parent, child in sorted(seen):
            self._parents.setdefault(child, []).append(parent)
            self._children.setdefault(parent, []).append(child)
        self.edges = frozenset(seen)
        self._ancestors_all_cache: Dict[str, frozenset] = {}
        self._ancestors_cache: Dict[Tuple[str, int], frozenset] = {}

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self.basic or concept_id in self.meta

    def parents(self, concept_id: str) -> list:
        if concept_id not in self:
            raise UnknownConceptError(concept_id)
        return self._parents.get(concept_id, [])

    def children(self, concept_id: str) -> list:
        if concept_id not in self:
            raise UnknownConceptError(concept_id)
        return self._children.get(concept_id, [])

    def ancestors_all(self, concept_id: str) -> frozenset:
        """Transitive closure of parents, cached per node."""
        cached = self._ancestors_all_cache.get(concept_id)
        if cached is not None:
            return cached
        result = set()
        queue = deque(self.parents(concept_id))
        while queue:
            node = queue.popleft()
            if node not in result:
                result.add(node)
                queue.extend(self._parents.get(node, []))
        frozen = frozenset(result)
        self._ancestors_all_cache[concept_id] = frozen
        return frozen

    def ancestors_within(self, concept_id: str, depth: int) -> frozenset:
        """Nodes reachable by following 1..depth reversed edges, as a shared
        frozenset: a breadth-first search, O(edges within depth), on the
        first call for each (concept_id, depth) and a cache lookup after."""
        cached = self._ancestors_cache.get((concept_id, depth))
        if cached is not None:
            return cached
        if concept_id not in self:
            raise UnknownConceptError(concept_id)
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        result: Set[str] = set()
        frontier = {concept_id}
        for _ in range(depth):
            frontier = {p for node in frontier for p in self.parents(node)} - result
            if not frontier:
                break
            result |= frontier
        frozen = self._ancestors_cache[(concept_id, depth)] = frozenset(result)
        return frozen

    def path_counts_from(self, concept_id: str) -> Dict[str, int]:
        """Number of distinct directed paths from concept_id to each
        descendant (and 1 for itself). Multiplicities can grow combinatorially
        but are held as exact ints."""
        if concept_id not in self:
            raise UnknownConceptError(concept_id)
        order = self._topo_descendants(concept_id)
        counts: Dict[str, int] = {concept_id: 1}
        for node in order:
            c = counts.get(node, 0)
            if c:
                for child in self._children.get(node, []):
                    counts[child] = counts.get(child, 0) + c
        return counts

    def _topo_descendants(self, root: str) -> list:
        # Reachable subgraph in topological order (DFS postorder, reversed).
        order = []
        state: Dict[str, int] = {}
        stack = [(root, iter(self._children.get(root, [])))]
        state[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for child in it:
                if state.get(child, 0) == 0:
                    state[child] = 1
                    stack.append((child, iter(self._children.get(child, []))))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                order.append(node)
                stack.pop()
        order.reverse()
        return order


def validate_dag(h: Hierarchy) -> Optional[list]:
    """Return None when the hierarchy is acyclic, else one cycle's node
    sequence (each node once, in traversal order)."""
    indegree = Counter()
    for parent, child in h.edges:
        indegree[child] += 1
        indegree.setdefault(parent, 0)
    queue = deque(sorted(n for n, d in indegree.items() if d == 0))
    remaining = dict(indegree)
    while queue:
        node = queue.popleft()
        del remaining[node]
        for child in h._children.get(node, []):
            remaining[child] -= 1
            if remaining[child] == 0:
                queue.append(child)
    if not remaining:
        return None
    # Every remaining node has a parent in the remaining set; walking up
    # parents must eventually repeat, exposing one cycle.
    seen_at = {}
    path = []
    node = sorted(remaining)[0]
    while node not in seen_at:
        seen_at[node] = len(path)
        path.append(node)
        node = sorted(p for p in h._parents.get(node, []) if p in remaining)[0]
    cycle = path[seen_at[node]:]
    cycle.reverse()
    return cycle


def merge_hierarchies(
    per_language_edges: Mapping[str, Iterable[Edge]],
    basic: Iterable[str],
    meta: Iterable[str],
) -> Hierarchy:
    """Union of per-language edge sets: an edge exists if it exists in at
    least one language. The union must be a DAG."""
    union: Set[Edge] = set()
    for lang in sorted(per_language_edges):
        union.update(per_language_edges[lang])
    h = Hierarchy(union, basic, meta)
    cycle = validate_dag(h)
    if cycle is not None:
        raise CycleError(cycle)
    return h


def ancestors(h: Hierarchy, concept_id: str, depth: int) -> Set[str]:
    """Nodes reachable by following 1..depth reversed edges; depth 0 is empty.
    Monotone in depth. A fresh copy of the frozenset that
    Hierarchy.ancestors_within caches, so a caller may mutate it."""
    return set(h.ancestors_within(concept_id, depth))


class SupportIndex:
    """Per-(basic concept, language) article sets, plus injected virtual
    term tables. Virtual tables count as support for concept retention and
    interpreter construction; multiset aggregation uses real articles only.

    `stopwords` maps a language to its stopword list, which term_counts
    drops from each article of that language and build_interpreter hands
    to the language's interpreter. `term_counts` is an optional memo of
    each article's term Counter, keyed by the article itself, that an index
    may share with other indexes over the same stopword lists (see
    pipeline.Resources).
    """

    def __init__(
        self,
        basic_concepts: Iterable[str],
        articles: Iterable[SupportArticle] = (),
        stopwords: Optional[Mapping[str, frozenset]] = None,
        term_counts: Optional[Dict[SupportArticle, Counter]] = None,
    ):
        self.basic_concepts = frozenset(basic_concepts)
        self.stopwords: Mapping[str, frozenset] = stopwords or {}
        self._term_counts = term_counts
        self._articles: Dict[Tuple[str, str], list] = {}
        self._virtual: Dict[Tuple[str, str], "object"] = {}
        self._languages: Dict[str, Set[str]] = {}
        for article in articles:
            self.add_article(article)

    def add_article(self, article: SupportArticle) -> None:
        if article.concept_id not in self.basic_concepts:
            raise UnknownConceptError(article.concept_id)
        self._articles.setdefault((article.concept_id, article.language), []).append(article)
        self._languages.setdefault(article.concept_id, set()).add(article.language)

    def add_virtual(self, table) -> None:
        """Attach a virtual document table (see virtualdocs.TermCountTable)."""
        if table.concept_id not in self.basic_concepts:
            raise UnknownConceptError(table.concept_id)
        self._virtual[(table.concept_id, table.language)] = table
        self._languages.setdefault(table.concept_id, set()).add(table.language)

    def term_counts(self, article: SupportArticle) -> Counter:
        """The article's token counts without its language's stopwords, in
        order of first occurrence: the one place an article is tokenized.
        With a memo, each article is tokenized once and every caller gets
        the same Counter, which it must not mutate."""
        memo = self._term_counts
        if memo is None:
            return Counter(tokenize(article.text, self.stopwords.get(article.language)))
        counts = memo.get(article)
        if counts is None:
            words = self.stopwords.get(article.language)
            counts = memo[article] = Counter(tokenize(article.text, words))
        return counts

    def articles(self, concept_id: str, language: str) -> list:
        return self._articles.get((concept_id, language), [])

    def virtual(self, concept_id: str, language: str):
        return self._virtual.get((concept_id, language))

    def has_real_support(self, concept_id: str, language: str) -> bool:
        return bool(self._articles.get((concept_id, language)))

    def has_support(self, concept_id: str, language: str) -> bool:
        return self.has_real_support(concept_id, language) or (concept_id, language) in self._virtual

    def languages_with_support(self, concept_id: str) -> Set[str]:
        return set(self._languages.get(concept_id, ()))


def support_multiset(
    h: Hierarchy, idx: SupportIndex, concept_id: str, language: str
) -> Counter:
    """Multiset of real support articles of concept_id and its descendants in
    the given language; an article's multiplicity is the number of distinct
    directed paths from concept_id to the basic concept holding it."""
    counts = h.path_counts_from(concept_id)
    result: Counter = Counter()
    for node, n_paths in counts.items():
        if node in h.basic:
            for article in idx.articles(node, language):
                result[article] += n_paths
    return result


def support_count(h: Hierarchy, idx: SupportIndex, concept_id: str, language: str) -> int:
    """Total multiplicity of support_multiset without materializing it."""
    counts = h.path_counts_from(concept_id)
    return sum(
        n_paths * len(idx.articles(node, language))
        for node, n_paths in counts.items()
        if node in h.basic
    )


def retained_concepts(idx: SupportIndex, langs: Iterable[str]) -> Set[str]:
    """Basic concepts with (real or virtual) support in every given language.
    An empty language set retains every basic concept."""
    langs = set(langs)
    return {
        c for c in idx.basic_concepts if all(idx.has_support(c, l) for l in langs)
    }


def load_concepts(path: str | Path) -> Tuple[Set[str], Set[str]]:
    """Concept declarations: JSON lines of {"concept_id", "kind"}; returns
    (basic, meta) id sets. A concept declared twice, of either kind, is an
    OntologyError naming the line."""
    basic, meta = set(), set()
    for lineno, obj in _read_jsonl(path):
        cid = _require_str(obj, "concept_id", path, lineno)
        kind = _require_str(obj, "kind", path, lineno)
        if kind not in ("basic", "meta"):
            raise OntologyError(f"{path}:{lineno}: kind must be 'basic' or 'meta', got {kind!r}")
        if cid in basic or cid in meta:
            raise OntologyError(f"{path}:{lineno}: concept {cid!r} declared twice")
        (basic if kind == "basic" else meta).add(cid)
    return basic, meta


def save_concepts(basic: Iterable[str], meta: Iterable[str], path: str | Path) -> None:
    records = [{"concept_id": c, "kind": "basic"} for c in sorted(basic)]
    records += [{"concept_id": c, "kind": "meta"} for c in sorted(meta)]
    dump_jsonl(records, path)


def load_hierarchy_edges(path: str | Path) -> Dict[str, Set[Edge]]:
    """Edge declarations: JSON lines of {"parent", "child", "language"}."""
    per_lang: Dict[str, Set[Edge]] = {}
    for lineno, obj in _read_jsonl(path):
        parent = _require_str(obj, "parent", path, lineno)
        child = _require_str(obj, "child", path, lineno)
        lang = _require_str(obj, "language", path, lineno)
        per_lang.setdefault(lang, set()).add((parent, child))
    return per_lang


def save_hierarchy_edges(per_lang: Mapping[str, Iterable[Edge]], path: str | Path) -> None:
    records = [
        {"parent": p, "child": c, "language": lang}
        for lang in sorted(per_lang)
        for (p, c) in sorted(per_lang[lang])
    ]
    dump_jsonl(records, path)
