"""Per-language semantic interpreters: an inverted TF-IDF index from terms to
weighted basic concepts, built from each concept's support documents. A
document maps to the centroid of its tokens' concept vectors, and its
feature set is the top-k concepts of that centroid.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import log
from operator import itemgetter
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Tuple

from ._util import dump_artifact, json_field, load_artifact
from .corpus import LabeledDocument, TokenStream, tokenize
from .errors import DataError
from .ontology import SupportIndex

# Sparse concept-weight map; zero entries are never stored.
SemanticVector = Dict[str, float]


class InterpreterError(DataError):
    pass


@dataclass
class SemanticInterpreter:
    """One language's inverted index: each term's top k_term (concept, weight)
    pairs (tuples when built, lists when loaded), with the stopword list its
    SupportIndex dropped from the support articles, which
    generate_basic_features drops from documents too. The list is not saved:
    a loaded interpreter has none until one is attached."""

    language: str
    k_term: int
    term_index: Dict[str, List[Tuple[str, float]]]
    stopwords: frozenset = frozenset()

    def save(self, path: str | Path) -> None:
        dump_artifact(path, "interpreter", {
            "language": self.language,
            "k_term": self.k_term,
            "term_index": self.term_index,
        })

    @classmethod
    def load(cls, path: str | Path) -> "SemanticInterpreter":
        def convert(payload):
            index = json_field(payload, "term_index", dict, path, 1, of=list)
            for pair in chain.from_iterable(index.values()):
                if type(pair) is list and len(pair) == 2:
                    cid, weight = pair
                    # json reads NaN and Infinity; weight * 0.0 is 0.0 only
                    # for a finite weight.
                    if type(cid) is str and type(weight) is float and weight * 0.0 == 0.0:
                        continue
                raise DataError(f"'term_index' holds {pair!r}, not a [concept id, finite weight]")
            return cls(json_field(payload, "language", str, path, 1),
                       json_field(payload, "k_term", int, path, 1), index)

        return load_artifact(path, "interpreter", convert, InterpreterError)


def pseudo_document_counts(idx: SupportIndex, concept_id: str, language: str) -> Counter:
    """Term counts of a concept's pseudo-document: its support articles'
    term counts summed in article order (see SupportIndex.count_terms),
    plus any injected virtual table, in a fresh Counter."""
    counts: Counter = Counter()
    for article in idx.articles(concept_id, language):
        idx.count_terms(article, counts)
    table = idx.virtual(concept_id, language)
    if table is not None:
        counts.update(table.terms)
    return counts


def build_interpreter(
    idx: SupportIndex, language: str, concepts: Iterable[str], k_term: int
) -> SemanticInterpreter:
    """Build the inverted term -> concept index for one language, carrying
    the language's stopword list from idx.

    tf is the raw count of a term in a concept's pseudo-document, idf is
    ln(N/df) over the N given concepts (once per term), and each term's
    inverted list keeps only the k_term highest-weighted concepts, ties to
    the smaller id by a stable sort of pairs appended in id order. Terms
    occurring in every pseudo-document have zero idf and are omitted.
    """
    if k_term < 1:
        raise ValueError("k_term must be >= 1")
    universe = sorted(set(concepts))
    n = len(universe)
    if n == 0:
        raise InterpreterError("interpreter needs at least one concept")
    per_concept: Dict[str, Counter] = {}
    for cid in universe:
        if not idx.has_support(cid, language):
            raise InterpreterError(f"concept {cid!r} has no support in language {language!r}")
        per_concept[cid] = pseudo_document_counts(idx, cid, language)

    df = Counter(term for counts in per_concept.values() for term in counts)
    idf = {term: log(n / d) for term, d in df.items() if d < n}

    index: Dict[str, List[Tuple[str, float]]] = {}
    for cid in universe:
        for term, tf in per_concept[cid].items():
            if term in idf:
                index.setdefault(term, []).append((cid, tf * idf[term]))
    for pairs in index.values():
        pairs.sort(key=itemgetter(1), reverse=True)
        del pairs[k_term:]
    return SemanticInterpreter(language, k_term, index, idx.stopwords.get(language, frozenset()))


def interpret(si: SemanticInterpreter, doc: TokenStream) -> SemanticVector:
    """Centroid over token occurrences of the tokens' concept vectors.
    Repeated tokens contribute once per occurrence; tokens unknown to the
    index contribute nothing but still count toward the denominator."""
    if not doc:
        return {}
    sums: SemanticVector = {}
    lookup, get = si.term_index.get, sums.get
    for token in doc:
        for cid, weight in lookup(token, ()):
            sums[cid] = get(cid, 0.0) + weight
    inv = 1.0 / len(doc)
    return {cid: total * inv for cid, total in sums.items()}


def top_k_features(v: SemanticVector, k_doc: int) -> frozenset:
    """The k_doc concepts of maximal weight; ties break toward the smaller
    concept id. Fewer than k_doc nonzero entries yields them all."""
    if k_doc < 1:
        raise ValueError("k_doc must be >= 1")
    ranked = sorted(v.items(), key=lambda cw: (-cw[1], cw[0]))
    return frozenset(cid for cid, _ in ranked[:k_doc])


def generate_basic_features(
    interpreters: Mapping[str, SemanticInterpreter], doc: LabeledDocument, k_doc: int
) -> frozenset:
    """Dispatch the document to its language's interpreter and return its
    top-k basic concepts, tokenized without the interpreter's stopwords."""
    si = interpreters.get(doc.language)
    if si is None:
        raise InterpreterError(f"no interpreter for {doc.language!r}")
    return top_k_features(interpret(si, tokenize(doc.text, si.stopwords)), k_doc)
