"""Assembly of the global concept feature space: per-document generation,
hierarchical meta-feature enrichment and filtering, binarization, and
information-gain feature selection.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from math import log2
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ._util import abridged, cpu_blocks, dump_artifact, dump_jsonl, forked, json_field, load_artifact, ordered_map
from .corpus import LabeledDocument, TokenStream, read_records, tokenize
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
        if bad := [cid for cid in self.concepts if type(cid) is not str]:
            raise DataError(f"'concepts' must hold only strings, got {abridged(bad[0])}")
        if len(set(self.concepts)) != len(self.concepts):
            raise DataError("'concepts' holds a concept twice")
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
        return load_artifact(path, "feature-space", lambda payload: cls(
            json_field(payload, "concepts", list, path, 1, of=str),
            json_field(payload, "metadata", dict, path, 1, {}),
        ))


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
    tokens: Optional[TokenStream] = None,
) -> Set[str]:
    """Full per-document generation: basic top-k concepts, meta enrichment,
    meta filter. `tokens` as for generate_basic_features."""
    basic = generate_basic_features(interpreters, doc, k_doc, tokens)
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
) -> List[BinaryFeatureVector]:
    """Map documents onto an existing space; concepts outside it are dropped.
    Mapped in the blocks of _util.cpu_blocks, the first here and each other
    in a forked child, joined in order. The children's documents are
    tokenized here first, so this process makes every tokenizer call, and
    each reaches its child as one space-joined string (no token holds
    whitespace), cheaper than a list of tokens."""
    bounds = cpu_blocks(len(docs))
    joined = {i: " ".join(tokenize(docs[i].text, si.stopwords))
              for i in range(bounds[1], len(docs)) if (si := interpreters.get(docs[i].language)) is not None}

    def project(lo: int, hi: int) -> List[BinaryFeatureVector]:
        per_doc = ordered_map(
            lambda i: document_features(docs[i], interpreters, h, k_doc, m, joined[i].split() if i in joined else None),
            range(lo, hi),
        )
        return [space.vector_for(feats) for feats in per_doc]

    with forked([partial(project, lo, hi) for lo, hi in zip(bounds[1:], bounds[2:])]) as projected:
        vectors = project(0, bounds[1])
    return vectors + list(chain.from_iterable(projected))


def _entropy(counts: Mapping[str, int], total: int) -> float:
    if total == 0:
        return 0.0
    ent = 0.0
    for n in counts.values():
        if n:
            p = n / total
            ent -= p * log2(p)
    return ent


def information_gain(vectors: Sequence[BinaryFeatureVector], labels: Sequence[str],
                     coordinates: Sequence[int]) -> List[float]:
    """Mutual information (bits) between each binary coordinate and the
    label, H(K) - P(f=1) H(K|f=1) - P(f=0) H(K|f=0) with empirical
    probabilities, in order, from one pass over the documents: O(nnz +
    coordinates * labels). Each entropy adds its labels in the order that
    fixes every bit: H(K|f=1) by first appearance among the documents with
    f, H(K|f=0) by each label's first document without f."""
    if len(vectors) != len(labels):
        raise ValueError("vectors and labels must have the same length")
    if not vectors:
        raise ValueError("need at least one example")
    n, total = len(labels), Counter(labels)
    prior = _entropy(total, n)
    docs_of, postings = {}, defaultdict(list)  # label -> documents, coordinate -> labels
    for d, (vec, label) in enumerate(zip(vectors, labels)):
        docs_of.setdefault(label, []).append(d)
        for c in vec:
            postings[c].append(label)
    gains = []
    for c in coordinates:
        n_on, on = len(postings[c]), Counter(postings[c])
        first_off = {}  # label -> its first document without c, if it has one
        for label, docs in docs_of.items():
            if c not in vectors[docs[0]]:
                first_off[label] = docs[0]
            elif on[label] < total[label]:
                first_off[label] = next(d for d in docs if c not in vectors[d])
        off = {k: total[k] - on.get(k, 0) for k in sorted(first_off, key=first_off.get)}
        gain = prior - n_on / n * _entropy(on, n_on) - (n - n_on) / n * _entropy(off, n - n_on)
        gains.append(max(gain, 0.0))
    return gains


def select_features(
    space: FeatureSpace,
    vectors: Sequence[BinaryFeatureVector],
    labels: Sequence[str],
    n: int,
) -> Tuple[FeatureSpace, List[BinaryFeatureVector]]:
    """Keep the n highest-information-gain coordinates (ties toward the
    smaller concept id), preserving the space's original ordering, and remap
    the vectors. One information_gain call scores every coordinate in one
    pass, O(nnz + coordinates * labels). A space already within budget
    passes through unchanged and computes no gain."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(space) <= n:
        return space, list(vectors)
    gains = information_gain(vectors, labels, range(len(space)))
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
    dump_jsonl([doc.record(active=sorted(vec)) for doc, vec in zip(docs, vectors)], path)


def load_vectors(path: str | Path) -> Tuple[List[BinaryFeatureVector], List[Optional[str]], List[str]]:
    """Returns (vectors, labels, doc_ids); labels hold None where absent, and
    a doc_id repeated is a CorpusFormatError naming path:line."""
    vectors, labels, ids = [], [], []
    for lineno, doc_id, obj in read_records(path):
        ids.append(doc_id)
        vectors.append(frozenset(json_field(obj, "active", list, path, lineno, of=int)))
        labels.append(json_field(obj, "label", str, path, lineno, None))
    return vectors, labels, ids
