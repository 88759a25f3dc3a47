"""Synthetic multilingual corpus generator for desk-scale validation.

Each "language" gets a disjoint vocabulary; a concept draws its tokens from
the same index distribution in every language, so concept distributions are
aligned across languages while sharing no words. Basic concepts are grouped
two ways: consecutive blocks under one chain of meta levels, and strided
blocks under a second set of parents, so most concepts have multiple parents
and the pair of groups pins a concept down. Labeled documents mix a few
concepts from their category's pool and are corrupted by uniform token noise.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass
from math import ceil
from pathlib import Path
from typing import Dict, List, Tuple

from ._util import dump_json, stable_rng
from .corpus import SupportArticle, LabeledDocument, save_support_corpus, save_labeled_dataset
from .errors import DataError
from .ontology import save_concepts, save_hierarchy_edges


# The JSON types a spec field of each annotated type accepts, and their name.
_SPEC_TYPES = {"int": ((int,), "integer"), "float": ((int, float), "number"),
               "str": ((str,), "string"), "bool": ((bool,), "boolean")}


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    n_concepts: int
    n_meta_levels: int = 2
    branching: int = 3
    vocab_size_per_language: int = 800
    n_languages: int = 2
    n_categories: int = 3
    docs_per_category: int = 50  # per language, per split
    noise_rate: float = 0.05
    seed: int = 0
    # Texture knobs beyond the core shape; defaults give a moderate task.
    words_per_concept: int = 8
    words_per_group: int = 8
    support_docs_per_pair: int = 2
    support_doc_length: int = 120
    doc_length: int = 40
    concepts_per_doc: int = 2
    group_word_weight: float = 0.25  # block-group shared words
    cross_group_word_weight: float = 0.25  # stride-group shared words
    background_words: int = 4  # words present in every support document
    category_layout: str = "blocked"  # or "interleaved"
    train_concept_fraction: float = 1.0
    # When set, each language's training window starts at a different offset
    # of the category pool, so training languages carry complementary
    # concept coverage while test documents draw from the full pool.
    rotate_train_concepts: bool = False

    def __post_init__(self):
        positive = (
            self.n_concepts,
            self.n_meta_levels,
            self.branching,
            self.vocab_size_per_language,
            self.n_languages,
            self.n_categories,
            self.docs_per_category,
            self.words_per_concept,
            self.support_docs_per_pair,
            self.support_doc_length,
            self.doc_length,
            self.concepts_per_doc,
        )
        if min(positive) < 1:
            raise ValueError("all size parameters must be positive")
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError("noise_rate must lie in [0, 1)")
        if self.category_layout not in ("blocked", "interleaved"):
            raise ValueError("category_layout must be 'blocked' or 'interleaved'")
        if not 0.0 < self.train_concept_fraction <= 1.0:
            raise ValueError("train_concept_fraction must lie in (0, 1]")
        if self.group_word_weight + self.cross_group_word_weight >= 1.0:
            raise ValueError("group word weights must sum to less than 1")

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticCorpusSpec":
        """The spec of a JSON object. A value of the wrong JSON type is a
        DataError naming the field: an integer field rejects booleans and
        floats, a float field accepts integers."""
        if not isinstance(d, dict):
            raise DataError("synthetic spec must be a JSON object")
        fields = cls.__dataclass_fields__
        unknown = set(d) - set(fields)
        if unknown:
            raise ValueError(f"unknown synthetic spec keys: {sorted(unknown)}")
        for name in fields:
            if name not in d and fields[name].default is MISSING:
                raise DataError(f"synthetic spec is missing key {name!r}")
        for name, value in d.items():
            types, what = _SPEC_TYPES[fields[name].type]
            if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
                raise DataError(f"synthetic spec field {name!r} must be a JSON {what}, got {value!r}")
        return cls(**d)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


class SyntheticCorpus:
    """Generated files plus the exact generative model behind them, so tests
    can compute distribution-level oracles on the same draw."""

    def __init__(self, spec: SyntheticCorpusSpec, out_dir: Path):
        self.spec = spec
        self.out_dir = Path(out_dir)
        self.languages = [f"l{i}" for i in range(spec.n_languages)]
        self.categories = [f"cat{k}" for k in range(spec.n_categories)]
        self.n_block_groups = ceil(spec.n_concepts / spec.branching)
        self.n_stride_groups = self.n_block_groups
        self.stride_enabled = (
            spec.cross_group_word_weight > 0.0 and spec.branching <= self.n_stride_groups
        )
        self._vocab_layout()
        self.paths = {
            "corpus": self.out_dir / "corpus.jsonl",
            "concepts": self.out_dir / "concepts.jsonl",
            "hierarchy": self.out_dir / "hierarchy.jsonl",
            "manifest": self.out_dir / "synth_manifest.json",
            "datasets": {
                lang: {
                    "train": self.out_dir / f"train_{lang}.jsonl",
                    "test": self.out_dir / f"test_{lang}.jsonl",
                }
                for lang in self.languages
            },
        }

    # -- structure ---------------------------------------------------------

    def concept_id(self, i: int) -> str:
        return f"b{i:04d}"

    def block_group(self, i: int) -> int:
        return i // self.spec.branching

    def stride_group(self, i: int) -> int:
        return i % self.n_stride_groups

    def meta_levels(self) -> List[List[str]]:
        """Block-aspect meta ids per level; level 0 groups basic concepts."""
        levels = []
        width = self.n_block_groups
        for level in range(1, self.spec.n_meta_levels + 1):
            levels.append([f"ma{level}_{j:03d}" for j in range(width)])
            if width == 1:
                break
            width = ceil(width / self.spec.branching)
        return levels

    def edges(self) -> List[Tuple[str, str]]:
        spec = self.spec
        result: List[Tuple[str, str]] = []
        levels = self.meta_levels()
        for i in range(spec.n_concepts):
            result.append((levels[0][self.block_group(i)], self.concept_id(i)))
        for upper in range(1, len(levels)):
            for j, node in enumerate(levels[upper - 1]):
                result.append((levels[upper][j // spec.branching], node))
        if self.stride_enabled:
            for i in range(spec.n_concepts):
                result.append((f"mb1_{self.stride_group(i):03d}", self.concept_id(i)))
        return result

    def meta_ids(self) -> List[str]:
        ids = [node for level in self.meta_levels() for node in level]
        if self.stride_enabled:
            ids += [f"mb1_{r:03d}" for r in range(self.n_stride_groups)]
        return ids

    def category_pools(self) -> List[List[int]]:
        spec = self.spec
        if spec.category_layout == "interleaved":
            return [
                [i for i in range(spec.n_concepts) if i % spec.n_categories == k]
                for k in range(spec.n_categories)
            ]
        pools = []
        base, extra = divmod(spec.n_concepts, spec.n_categories)
        start = 0
        for k in range(spec.n_categories):
            size = base + (1 if k < extra else 0)
            pools.append(list(range(start, start + size)))
            start += size
        return pools

    # -- vocabulary --------------------------------------------------------

    def _vocab_layout(self) -> None:
        spec = self.spec
        self.off_background = 0
        self.off_unique = spec.background_words
        self.off_block = self.off_unique + spec.n_concepts * spec.words_per_concept
        self.off_stride = self.off_block + self.n_block_groups * spec.words_per_group
        needed = self.off_stride + (
            self.n_stride_groups * spec.words_per_group if self.stride_enabled else 0
        )
        if spec.vocab_size_per_language < needed:
            raise ValueError(
                f"vocab_size_per_language must be at least {needed} for this shape"
            )

    def word(self, language: str, index: int) -> str:
        return f"{language}w{index:05d}"

    def _weights(self) -> Tuple[float, float, float]:
        spec = self.spec
        g_block = spec.group_word_weight
        g_stride = spec.cross_group_word_weight if self.stride_enabled else 0.0
        return 1.0 - g_block - g_stride, g_block, g_stride

    def sample_token(self, concept: int, language: str, rng) -> str:
        spec = self.spec
        w_unique, w_block, _ = self._weights()
        r = rng.random()
        if r < w_unique:
            idx = self.off_unique + concept * spec.words_per_concept + rng.randrange(
                spec.words_per_concept
            )
        elif r < w_unique + w_block:
            idx = self.off_block + self.block_group(concept) * spec.words_per_group + rng.randrange(
                spec.words_per_group
            )
        else:
            idx = self.off_stride + self.stride_group(concept) * spec.words_per_group + rng.randrange(
                spec.words_per_group
            )
        return self.word(language, idx)

    def concept_distribution(self, concept: int, language: str) -> Dict[str, float]:
        """Exact token distribution a concept's documents are drawn from."""
        spec = self.spec
        w_unique, w_block, w_stride = self._weights()
        dist: Dict[str, float] = {}
        for off in range(spec.words_per_concept):
            idx = self.off_unique + concept * spec.words_per_concept + off
            dist[self.word(language, idx)] = w_unique / spec.words_per_concept
        for off in range(spec.words_per_group):
            idx = self.off_block + self.block_group(concept) * spec.words_per_group + off
            dist[self.word(language, idx)] = dist.get(self.word(language, idx), 0.0) + (
                w_block / spec.words_per_group
            )
        if self.stride_enabled:
            for off in range(spec.words_per_group):
                idx = self.off_stride + self.stride_group(concept) * spec.words_per_group + off
                dist[self.word(language, idx)] = dist.get(self.word(language, idx), 0.0) + (
                    w_stride / spec.words_per_group
                )
        return dist

    def category_distribution(self, category: int, language: str) -> Dict[str, float]:
        """Marginal token distribution of a test document of this category,
        noise included: uniform concept choice within the pool, then the
        concept's distribution."""
        spec = self.spec
        pool = self.category_pools()[category]
        dist: Dict[str, float] = {}
        for concept in pool:
            for word, prob in self.concept_distribution(concept, language).items():
                dist[word] = dist.get(word, 0.0) + prob / len(pool)
        if spec.noise_rate:
            uniform = spec.noise_rate / spec.vocab_size_per_language
            for idx in range(spec.vocab_size_per_language):
                word = self.word(language, idx)
                dist[word] = dist.get(word, 0.0) * (1.0 - spec.noise_rate) + uniform
        return dist

    # -- generation --------------------------------------------------------

    def _support_articles(self) -> List[SupportArticle]:
        spec = self.spec
        articles = []
        for i in range(spec.n_concepts):
            cid = self.concept_id(i)
            for lang in self.languages:
                for d in range(spec.support_docs_per_pair):
                    rng = stable_rng(spec.seed, "support", cid, lang, d)
                    length = spec.support_doc_length + rng.randrange(
                        0, max(1, spec.support_doc_length // 10)
                    )
                    tokens = [self.sample_token(i, lang, rng) for _ in range(length)]
                    tokens += [
                        self.word(lang, self.off_background + bg)
                        for bg in range(spec.background_words)
                    ]
                    articles.append(
                        SupportArticle(
                            concept_id=cid,
                            language=lang,
                            title=f"{cid} ({lang})",
                            text=" ".join(tokens),
                            links_in=5 + rng.randrange(40),
                            links_out=5 + rng.randrange(40),
                        )
                    )
        # Decoy articles that standard filters should drop.
        for lang in self.languages:
            articles.append(
                SupportArticle(
                    concept_id=self.concept_id(0),
                    language=lang,
                    title=f"decoy redirect ({lang})",
                    text=" ".join(self.word(lang, i) for i in range(30)),
                    links_in=20,
                    links_out=20,
                    flags=frozenset({"redirect"}),
                )
            )
            articles.append(
                SupportArticle(
                    concept_id=self.concept_id(0),
                    language=lang,
                    title=f"decoy catalog ({lang})",
                    text=self.word(lang, 0),
                    links_in=0,
                    links_out=0,
                    flags=frozenset({"catalog"}),
                )
            )
        return articles

    def _edge_languages(self) -> Dict[str, set]:
        """Assign every canonical edge to a nonempty subset of languages, so
        merging across languages reconstructs the full hierarchy."""
        per_lang: Dict[str, set] = {lang: set() for lang in self.languages}
        for parent, child in self.edges():
            rng = stable_rng(self.spec.seed, "edge", parent, child)
            chosen = [lang for lang in self.languages if rng.random() < 0.7]
            if not chosen:
                chosen = [self.languages[rng.randrange(len(self.languages))]]
            for lang in chosen:
                per_lang[lang].add((parent, child))
        return per_lang

    def _train_candidates(self, pool: List[int], language: str) -> List[int]:
        spec = self.spec
        size = max(1, ceil(spec.train_concept_fraction * len(pool)))
        if not spec.rotate_train_concepts:
            return pool[:size]
        start = (self.languages.index(language) * size) % len(pool)
        return [pool[(start + j) % len(pool)] for j in range(size)]

    def _documents(self, language: str, split: str) -> List[LabeledDocument]:
        spec = self.spec
        pools = self.category_pools()
        docs = []
        for k, pool in enumerate(pools):
            if split == "train" and spec.train_concept_fraction < 1.0:
                candidates = self._train_candidates(pool, language)
            else:
                candidates = pool
            for i in range(spec.docs_per_category):
                rng = stable_rng(spec.seed, "doc", language, split, k, i)
                drawn = rng.sample(candidates, min(spec.concepts_per_doc, len(candidates)))
                tokens = []
                for _ in range(spec.doc_length):
                    if spec.noise_rate and rng.random() < spec.noise_rate:
                        tokens.append(
                            self.word(language, rng.randrange(spec.vocab_size_per_language))
                        )
                    else:
                        tokens.append(self.sample_token(drawn[rng.randrange(len(drawn))], language, rng))
                docs.append(
                    LabeledDocument(
                        doc_id=f"{split}-{language}-cat{k}-{i:04d}",
                        language=language,
                        text=" ".join(tokens),
                        label=self.categories[k],
                    )
                )
        return docs

    def write(self) -> None:
        spec = self.spec
        self.out_dir.mkdir(parents=True, exist_ok=True)
        save_support_corpus(self._support_articles(), self.paths["corpus"])
        save_concepts(
            [self.concept_id(i) for i in range(spec.n_concepts)],
            self.meta_ids(),
            self.paths["concepts"],
        )
        save_hierarchy_edges(self._edge_languages(), self.paths["hierarchy"])
        for lang in self.languages:
            save_labeled_dataset(self._documents(lang, "train"), self.paths["datasets"][lang]["train"])
            save_labeled_dataset(self._documents(lang, "test"), self.paths["datasets"][lang]["test"])
        dump_json(
            {
                "spec": spec.to_dict(),
                "languages": self.languages,
                "categories": self.categories,
                "category_pools": self.category_pools(),
                "files": {
                    "corpus": self.paths["corpus"].name,
                    "concepts": self.paths["concepts"].name,
                    "hierarchy": self.paths["hierarchy"].name,
                    "datasets": {
                        lang: {split: p.name for split, p in per.items()}
                        for lang, per in self.paths["datasets"].items()
                    },
                },
            },
            self.paths["manifest"],
        )


def generate_synthetic_corpus(spec: SyntheticCorpusSpec, out_dir: str | Path) -> SyntheticCorpus:
    """Generate and write the corpus, hierarchy, concept declarations and
    per-language train/test datasets; byte-identical for equal (spec, seed)."""
    corpus = SyntheticCorpus(spec, Path(out_dir))
    corpus.write()
    return corpus
