"""Assembly of the global concept feature space: per-document generation,
hierarchical meta-feature enrichment and filtering, binarization, and
information-gain feature selection.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from math import log2
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ._util import dump_artifact, dump_jsonl, load_artifact, ordered_map
from .corpus import LabeledDocument, _read_jsonl
from .errors import DataError
from .interpreter import SemanticInterpreter, generate_basic_features
from .ontology import Hierarchy

# Active coordinate indices of a binarized document vector.
BinaryFeatureVector = FrozenSet[int]


@dataclass
class FeatureSpace:
    """Ordered concept list defining the classifier's vector coordinates."""

    concepts: List[str]
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.concepts)) != len(self.concepts):
            raise DataError("feature space has duplicate concepts")
        self.index = {cid: i for i, cid in enumerate(self.concepts)}

    def __len__(self) -> int:
        return len(self.concepts)

    def vector_for(self, concepts: Iterable[str]) -> BinaryFeatureVector:
        """Project a concept set onto this space; unknown concepts drop out."""
        return frozenset(self.index[c] for c in concepts if c in self.index)

    def save(self, path: str | Path) -> None:
        dump_artifact(path, "feature-space", {"concepts": self.concepts, "metadata": self.metadata})

    @classmethod
    def load(cls, path: str | Path) -> "FeatureSpace":
        def convert(payload):
            concepts = payload["concepts"]
            if not isinstance(concepts, list) or not all(isinstance(c, str) for c in concepts):
                raise TypeError("'concepts' must be a list of strings")
            return cls(concepts=concepts, metadata=payload.get("metadata", {}))

        return load_artifact(path, "feature-space", convert)


def enrich_with_meta(h: Hierarchy, basic: FrozenSet[str], m: int) -> Set[str]:
    """Add every ancestor within m edges of each generated basic concept;
    m=0 returns the basic set unchanged. It unions the frozensets that
    Hierarchy.ancestors_within caches, so no ancestor set is copied."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    result = set(basic)
    for cid in basic:
        result |= h.ancestors_within(cid, m)
    return result


def filter_meta_features(h: Hierarchy, enriched: Set[str], basic: FrozenSet[str]) -> Set[str]:
    """Drop meta features that are not ancestors of at least two distinct
    basic features of the document. Basic features always survive.

    One C-level Counter over the chained ancestor closures, which each
    Hierarchy caches: O(sum of the closure sizes + |enriched|)."""
    covered = Counter(chain.from_iterable(map(h.ancestors_all, basic)))
    return {cid for cid in enriched if cid in h.basic or covered[cid] >= 2}


def document_features(
    doc: LabeledDocument,
    interpreters: Mapping[str, SemanticInterpreter],
    h: Hierarchy,
    k_doc: int,
    m: int,
) -> Set[str]:
    """Full per-document generation: basic top-k concepts, meta enrichment,
    meta filter."""
    basic = generate_basic_features(interpreters, doc, k_doc)
    enriched = enrich_with_meta(h, basic, m)
    return filter_meta_features(h, enriched, basic)


def build_feature_space(
    training_docs: Sequence[LabeledDocument],
    interpreters: Mapping[str, SemanticInterpreter],
    h: Hierarchy,
    k_doc: int,
    m: int,
    workers: int = 1,
) -> Tuple[FeatureSpace, List[BinaryFeatureVector]]:
    """Union of the training documents' generated features, ordered by first
    appearance (ties within a document by concept id), plus the documents
    binarized against that space."""
    per_doc = ordered_map(
        lambda d: document_features(d, interpreters, h, k_doc, m),
        training_docs,
        workers,
    )
    concepts: List[str] = []
    seen: Set[str] = set()
    for feats in per_doc:
        for cid in sorted(feats - seen):
            concepts.append(cid)
            seen.add(cid)
    space = FeatureSpace(
        concepts=concepts,
        metadata={"k_doc": k_doc, "m": m, "n_documents": len(training_docs)},
    )
    vectors = [space.vector_for(feats) for feats in per_doc]
    return space, vectors


def project_documents(
    space: FeatureSpace,
    docs: Sequence[LabeledDocument],
    interpreters: Mapping[str, SemanticInterpreter],
    h: Hierarchy,
    k_doc: int,
    m: int,
    workers: int = 1,
) -> List[BinaryFeatureVector]:
    """Map documents onto an existing space; concepts outside it are dropped."""
    per_doc = ordered_map(
        lambda d: document_features(d, interpreters, h, k_doc, m),
        docs,
        workers,
    )
    return [space.vector_for(feats) for feats in per_doc]


def _entropy(counts: Counter, total: int) -> float:
    if total == 0:
        return 0.0
    ent = 0.0
    for n in counts.values():
        if n:
            p = n / total
            ent -= p * log2(p)
    return ent


def information_gain(
    vectors: Sequence[BinaryFeatureVector], labels: Sequence[str], coordinate: int
) -> float:
    """Mutual information (bits) between one binary coordinate and the label:
    H(K) - P(f=1) H(K|f=1) - P(f=0) H(K|f=0), with empirical probabilities.
    The labels are split by the coordinate and each part counted by a C-level
    Counter in order of first appearance, which fixes every bit of the sums."""
    if len(vectors) != len(labels):
        raise ValueError("vectors and labels must have the same length")
    if not vectors:
        raise ValueError("need at least one example")
    n = len(labels)
    on, off = [], []
    for vec, label in zip(vectors, labels):
        (on if coordinate in vec else off).append(label)
    n_on = len(on)
    gain = (
        _entropy(Counter(labels), n)
        - (n_on / n) * _entropy(Counter(on), n_on)
        - ((n - n_on) / n) * _entropy(Counter(off), n - n_on)
    )
    return max(gain, 0.0)


def select_features(
    space: FeatureSpace,
    vectors: Sequence[BinaryFeatureVector],
    labels: Sequence[str],
    n: int,
) -> Tuple[FeatureSpace, List[BinaryFeatureVector]]:
    """Keep the n highest-information-gain coordinates (ties toward the
    smaller concept id), preserving the space's original ordering, and remap
    the vectors. A space already within budget passes through unchanged."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(space) <= n:
        return space, list(vectors)
    gains = [information_gain(vectors, labels, i) for i in range(len(space))]
    ranked = sorted(range(len(space)), key=lambda i: (-gains[i], space.concepts[i]))
    kept = set(ranked[:n])
    reduced = FeatureSpace(
        concepts=[c for i, c in enumerate(space.concepts) if i in kept],
        metadata={**space.metadata, "selected_from": len(space), "n_select": n},
    )
    remap = {old: reduced.index[space.concepts[old]] for old in kept}
    new_vectors = [
        frozenset(remap[i] for i in vec if i in kept) for vec in vectors
    ]
    return reduced, new_vectors


def save_vectors(
    vectors: Sequence[BinaryFeatureVector],
    docs: Sequence[LabeledDocument],
    path: str | Path,
) -> None:
    """Vectors as JSON lines of {"doc_id", "active", "label"?}."""
    records = []
    for doc, vec in zip(docs, vectors):
        rec = {"doc_id": doc.doc_id, "active": sorted(vec)}
        if doc.label is not None:
            rec["label"] = doc.label
        records.append(rec)
    dump_jsonl(records, path)


def load_vectors(path: str | Path) -> Tuple[List[BinaryFeatureVector], List[Optional[str]], List[str]]:
    """Returns (vectors, labels, doc_ids); labels hold None where absent."""
    vectors, labels, ids = [], [], []
    for lineno, obj in _read_jsonl(path):
        try:
            vectors.append(frozenset(int(i) for i in obj["active"]))
            ids.append(obj["doc_id"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: bad vector record: {exc}") from exc
        labels.append(obj.get("label"))
    return vectors, labels, ids
