"""Construction of virtual support documents for (concept, language) pairs
with no support: climb the hierarchy until the ancestors hold enough
documents, then merge each ancestor's most prominent terms into a count
table that stands in for the missing document.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import List, Mapping, Tuple

from ._util import dump_jsonl, int_at_least
from .corpus import SupportArticle
from .errors import DataError
from .ontology import Hierarchy, SupportIndex, ancestors, support_count, support_multiset


class VirtualDocError(DataError):
    pass


class InsufficientAncestryError(VirtualDocError):
    """The whole ancestry cannot supply the requested document count."""

    def __init__(self, concept_id: str, language: str, needed: int, achievable: int):
        self.concept_id = concept_id
        self.language = language
        self.needed = needed
        self.achievable = achievable
        super().__init__(
            f"ancestors of {concept_id!r} hold {achievable} document(s) in "
            f"{language!r}; {needed} required"
        )


@dataclass(frozen=True)
class TermCountTable:
    """A synthesized term-count document for a (concept, language) pair. It
    keeps a read-only copy of `terms`, each count an integer >= 1: a built
    table never changes, whatever a caller does to the mapping it passed."""

    concept_id: str
    language: str
    terms: Mapping[str, int]
    provenance: Tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", MappingProxyType(dict(self.terms)))
        for count in self.terms.values():
            int_at_least(count, 1, "a term count", VirtualDocError)

    def to_dict(self) -> dict:
        return {**vars(self), "terms": dict(self.terms), "provenance": list(self.provenance), "virtual": True}


def find_ancestor_depth(
    h: Hierarchy, idx: SupportIndex, concept_id: str, language: str, p: int
) -> int:
    """Minimal depth j whose ancestor set (distance <= j) holds at least p
    support documents in the language, counted with multiset multiplicity."""
    int_at_least(p, 1, "p")
    if idx.has_real_support(concept_id, language):
        raise VirtualDocError(f"{concept_id!r} already has support in {language!r}")
    depth = 0
    prev: set = set()
    total = 0
    while True:
        depth += 1
        anc = ancestors(h, concept_id, depth)
        if anc == prev:
            raise InsufficientAncestryError(concept_id, language, p, total)
        total = sum(support_count(h, idx, a, language) for a in anc)
        if total >= p:
            return depth
        prev = anc


def prominent_terms(
    idx: SupportIndex, docs: Mapping[SupportArticle, int], t: int
) -> List[Tuple[str, int]]:
    """The t highest-count terms in the concatenation of a document multiset;
    each document's term counts (from idx.term_counts) are scaled by its
    multiplicity. Ties break toward the smaller term; fewer than t distinct
    terms yields them all."""
    int_at_least(t, 1, "t")
    if not docs:
        raise VirtualDocError("empty document multiset")
    counts: Counter = Counter()
    for article, multiplicity in docs.items():
        for term, n in idx.term_counts(article).items():
            counts[term] += n * multiplicity
    ranked = sorted(counts.items(), key=lambda tc: (-tc[1], tc[0]))
    return ranked[:t]


def construct_virtual_document(
    h: Hierarchy,
    idx: SupportIndex,
    concept_id: str,
    language: str,
    p: int,
    t: int,
) -> TermCountTable:
    """Build the virtual document for a concept with no support in the given
    language: per contributing ancestor, take the t most prominent terms of
    its aggregated support, then sum those per-ancestor count lists."""
    depth = find_ancestor_depth(h, idx, concept_id, language, p)
    table: Counter = Counter()
    contributors: List[str] = []
    for ancestor in sorted(ancestors(h, concept_id, depth)):
        docs = support_multiset(h, idx, ancestor, language)
        if not docs:
            continue
        contributors.append(ancestor)
        for term, count in prominent_terms(idx, docs, t):
            table[term] += count
    return TermCountTable(
        concept_id=concept_id,
        language=language,
        terms=dict(table),
        provenance=tuple(contributors),
    )


def save_virtual_docs(tables, path: str | Path) -> None:
    dump_jsonl((t.to_dict() for t in tables), path)
