"""Concept set, meta-concept hierarchy DAG and per-language support-document
assignment; ancestor queries and multiset support aggregation.

Edges always point parent -> child; parents are meta-concepts, children may
be meta or basic. Basic concepts carry support articles, meta-concepts only
aggregate their descendants'. A hierarchy is ordered once, when it is built:
one topological pass both rejects a cycle and ranks the nodes that path
counts are swept in.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from types import MappingProxyType
from typing import Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple

from ._util import dump_jsonl, int_at_least, json_field
from .corpus import SupportArticle, TokenStream, _read_jsonl, tokenize
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
    """Immutable DAG container over declared basic and meta concepts; no query
    hands out a list or dict of its own (it keeps tuples and read-only tables).

    Construction checks edge typing (meta parents, declared endpoints), then
    runs Kahn's algorithm once over every declared node, isolated ones
    included, seeded in sorted order, and keeps its order as each node's
    rank (parents first) for path_counts_from; it appends nodes by longest
    path from a root, so the last one's is the height. Edges with a cycle, a
    self-loop included, raise CycleError naming one cycle, the same for the
    same edges. Ancestor sets are int masks, bit i for the i-th meta concept
    in rank order, one table per depth: up to |meta| bits per node a table.
    """

    def __init__(self, edges: Iterable[Edge], basic: Iterable[str], meta: Iterable[str]):
        self.basic = frozenset(basic)
        self.meta = frozenset(meta)
        overlap = self.basic & self.meta
        if overlap:
            raise OntologyError(f"concepts declared both basic and meta: {sorted(overlap)[:5]}")
        parents, children, seen = {}, {}, set()
        for parent, child in edges:
            if (parent, child) in seen:
                continue
            if parent not in self.meta:
                kind = "basic-kind" if parent in self.basic else "undeclared"
                raise OntologyError(f"edge parent {parent!r} is {kind}; parents must be meta")
            if child not in self.basic and child not in self.meta:
                raise OntologyError(f"edge child {child!r} is not a declared concept")
            seen.add((parent, child))
        for parent, child in sorted(seen):
            parents.setdefault(child, []).append(parent)
            children.setdefault(parent, []).append(child)
        self._parents, self._children = ({n: tuple(v) for n, v in d.items()} for d in (parents, children))
        self.edges = frozenset(seen)
        # Kahn's pass; the loop also visits the children it appends.
        nodes = sorted(self.basic | self.meta)
        indegree = {n: len(self._parents.get(n, ())) for n in nodes}
        order = [n for n in nodes if not indegree[n]]
        level = dict.fromkeys(order, 0)
        for node in order:
            for child in self._children.get(node, ()):
                indegree[child] -= 1
                if not indegree[child]:
                    order.append(child)
                    level[child] = level[node] + 1
        if len(order) < len(nodes):
            raise CycleError(self._cycle({n for n, d in indegree.items() if d}))
        self._rank = {n: i for i, n in enumerate(order)}
        self.height = level[order[-1]] if order else 0
        self._meta_order = [n for n in order if n in self.meta]
        self._masks: Dict[int, Mapping[str, int]] = {}

    def __contains__(self, concept_id: str) -> bool:
        return concept_id in self.basic or concept_id in self.meta

    def parents(self, concept_id: str) -> tuple:
        """The concept's parents, sorted: the tuple the hierarchy keeps."""
        if concept_id not in self:
            raise UnknownConceptError(concept_id)
        return self._parents.get(concept_id, ())

    def children(self, concept_id: str) -> tuple:
        """The concept's children, sorted: the tuple the hierarchy keeps."""
        if concept_id not in self:
            raise UnknownConceptError(concept_id)
        return self._children.get(concept_id, ())

    def ancestor_masks(self, depth: int) -> Mapping[str, int]:
        """Each node's mask of its ancestors within 1..depth reversed edges,
        kept per depth: mask[n] ORs each parent's bit and mask one level up,
        in a pass per level, O(edges). A depth at or past the height takes
        the closure: one pass in rank order, reading parents' final masks."""
        depth = min(int_at_least(depth, 0, "depth"), self.height)
        if depth not in self._masks:
            bit = {n: 1 << i for i, n in enumerate(self._meta_order)}
            table = dict.fromkeys(self._rank, 0)
            for _ in range(1 if depth == self.height else depth):
                below = table if depth == self.height else dict(table)
                for node in self._rank:
                    mask = 0
                    for parent in self._parents.get(node, ()):
                        mask |= bit[parent] | below[parent]
                    table[node] = mask
            self._masks[depth] = MappingProxyType(table)
        return self._masks[depth]

    def meta_ids(self, mask: int) -> list:
        """The meta concepts whose bits are set in mask, lowest bit first."""
        ids = []
        while mask:
            ids.append(self._meta_order[(mask & -mask).bit_length() - 1])
            mask &= mask - 1
        return ids

    def ancestors_within(self, concept_id: str, depth: int) -> frozenset:
        """Nodes reachable by following 1..depth reversed edges."""
        if concept_id not in self:
            raise UnknownConceptError(concept_id)
        return frozenset(self.meta_ids(self.ancestor_masks(depth)[concept_id]))

    def ancestors_all(self, concept_id: str) -> frozenset:
        """Transitive closure of parents."""
        return self.ancestors_within(concept_id, self.height)

    def _cycle(self, remaining: Set[str]) -> list:
        """One cycle among the nodes Kahn's pass left: each has a parent
        among them, so walking up the smallest such parent from the
        smallest node must repeat. The cycle's nodes, each once, parent
        first."""
        seen_at: Dict[str, int] = {}
        path = []
        node = min(remaining)
        while node not in seen_at:
            seen_at[node] = len(path)
            path.append(node)
            node = min(p for p in self._parents[node] if p in remaining)
        cycle = path[seen_at[node]:]
        cycle.reverse()
        return cycle

    def path_counts_from(self, concept_id: str) -> Dict[str, int]:
        """Number of distinct directed paths from concept_id to each
        descendant (and 1 for itself): the reachable nodes, swept in rank
        order so that every parent's count is final before it is added to
        its children's. Multiplicities can grow combinatorially but are
        held as exact ints."""
        if concept_id not in self:
            raise UnknownConceptError(concept_id)
        reached = {concept_id}
        stack = [concept_id]
        while stack:
            for child in self._children.get(stack.pop(), ()):
                if child not in reached:
                    reached.add(child)
                    stack.append(child)
        counts = dict.fromkeys(sorted(reached, key=self._rank.__getitem__), 0)
        counts[concept_id] = 1
        for node, c in counts.items():
            for child in self._children.get(node, ()):
                counts[child] += c
        return counts


def merge_hierarchies(
    per_language_edges: Mapping[str, Iterable[Edge]],
    basic: Iterable[str],
    meta: Iterable[str],
) -> Hierarchy:
    """Union of per-language edge sets: an edge exists if it exists in at
    least one language. A union with a cycle raises CycleError (see
    Hierarchy)."""
    return Hierarchy(set().union(*per_language_edges.values()), basic, meta)


def ancestors(h: Hierarchy, concept_id: str, depth: int) -> Set[str]:
    """Nodes reachable by following 1..depth reversed edges; depth 0 is empty.
    Monotone in depth. Hierarchy.ancestors_within's set, read off its
    ancestor masks, as a set the caller may mutate."""
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
        order of first occurrence. With a memo, each article is tokenized
        once and every caller gets the same Counter, which it must not
        mutate."""
        memo = self._term_counts
        if memo is None:
            return Counter(self._tokens(article))
        counts = memo.get(article)
        if counts is None:
            counts = memo[article] = Counter(self._tokens(article))
        return counts

    def count_terms(self, article: SupportArticle, counts: Counter) -> None:
        """Add the article's term counts to `counts`. Without a memo the
        tokens are counted straight in, with no Counter of the article's."""
        if self._term_counts is None:
            counts.update(self._tokens(article))
        else:
            counts.update(self.term_counts(article))

    def _tokens(self, article: SupportArticle) -> TokenStream:
        """The one place a support article is tokenized."""
        return tokenize(article.text, self.stopwords.get(article.language))

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
        cid = json_field(obj, "concept_id", str, path, lineno)
        kind = json_field(obj, "kind", str, path, lineno)
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
        parent = json_field(obj, "parent", str, path, lineno)
        child = json_field(obj, "child", str, path, lineno)
        lang = json_field(obj, "language", str, path, lineno)
        per_lang.setdefault(lang, set()).add((parent, child))
    return per_lang


def save_hierarchy_edges(per_lang: Mapping[str, Iterable[Edge]], path: str | Path) -> None:
    records = [
        {"parent": p, "child": c, "language": lang}
        for lang in sorted(per_lang)
        for (p, c) in sorted(per_lang[lang])
    ]
    dump_jsonl(records, path)
