"""Synthetic multilingual corpus generator for desk-scale validation.

Each "language" gets a disjoint vocabulary; a concept draws its tokens from
the same index distribution in every language, so concept distributions are
aligned across languages while sharing no words. Basic concepts are grouped
two ways: consecutive blocks under one chain of meta levels, and strided
blocks under a second set of parents, so most concepts have multiple parents
and the pair of groups pins a concept down. Labeled documents mix a few
concepts from their category's pool and are corrupted by uniform token noise.

Every support article and dataset document draws from its own random stream,
so the corpus files are independent of each other given (spec, seed), and
SyntheticCorpus.write generates them in up to min(CPUs, files) processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import ceil
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from ._util import JsonConfig, abridged, block_bounds, dump_json, fork_workers, forked, stable_rng
from .corpus import SupportArticle, LabeledDocument, save_support_corpus, save_labeled_dataset
from .errors import DataError
from .ontology import save_concepts, save_hierarchy_edges


@dataclass(frozen=True)
class SyntheticCorpusSpec(JsonConfig):
    _least = {**dict.fromkeys(("n_concepts", "n_meta_levels", "branching", "vocab_size_per_language", "n_languages",
                               "n_categories", "docs_per_category", "words_per_concept", "support_docs_per_pair",
                               "support_doc_length", "doc_length", "concepts_per_doc"), 1),
              "words_per_group": 0, "background_words": 0}  # words_per_group >= 1 while a group weight is > 0

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
        super().__post_init__()
        if not 0.0 <= self.noise_rate < 1.0:
            raise DataError(f"synthetic spec field 'noise_rate' must lie in [0, 1), got {self.noise_rate!r}")
        if self.category_layout not in ("blocked", "interleaved"):
            raise DataError(f"synthetic spec field 'category_layout' must be 'blocked' or 'interleaved', "
                            f"got {abridged(self.category_layout)}")
        if self.n_categories > self.n_concepts:
            raise DataError(
                f"synthetic spec field 'n_categories' must be at most 'n_concepts' "
                f"({self.n_concepts}), got {self.n_categories}: a category would have no concepts"
            )
        if not 0.0 < self.train_concept_fraction <= 1.0:
            raise DataError(f"synthetic spec field 'train_concept_fraction' must lie in (0, 1], "
                            f"got {self.train_concept_fraction!r}")
        for name in ("group_word_weight", "cross_group_word_weight"):
            if not 0.0 <= (value := getattr(self, name)) < float("inf"):
                raise DataError(f"synthetic spec field {name!r} must be a finite number >= 0, got {value!r}")
        if (self.group_word_weight > 0 or self.cross_group_word_weight > 0) and not self.words_per_group:
            raise DataError("synthetic spec field 'words_per_group' must be >= 1 while a group weight is > 0, got 0")
        if self.group_word_weight + self.cross_group_word_weight >= 1.0:
            raise DataError(f"synthetic spec fields 'group_word_weight' and 'cross_group_word_weight' must sum to "
                            f"less than 1, got {self.group_word_weight!r} and {self.cross_group_word_weight!r}")


class _Words(dict):
    """One language's words by vocabulary index, "<language>w<index:05d>".
    Filled lazily, one entry per index ever asked for, so a vocabulary far
    larger than the corpus costs nothing."""

    def __init__(self, language: str):
        super().__init__()
        self.language = language

    def __missing__(self, index: int) -> str:
        word = self[index] = f"{self.language}w{index:05d}"
        return word


class SyntheticCorpus:
    """Generated files plus the exact generative model behind them, so tests
    can compute distribution-level oracles on the same draw. Words are drawn
    by one sampler per random stream (see _sampler); ReferenceCorpus in
    tests/test_synth.py is the per-word randrange generator it replaced and
    must match byte for byte."""

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
        self._words = {lang: _Words(lang) for lang in self.languages}
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
        bounds = block_bounds(spec.n_concepts, spec.n_categories)
        return [list(range(i, j)) for i, j in zip(bounds, bounds[1:])]

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
        return self._words[language][index]

    def _weights(self) -> Tuple[float, float, float]:
        spec = self.spec
        g_block = spec.group_word_weight
        g_stride = spec.cross_group_word_weight if self.stride_enabled else 0.0
        return 1.0 - g_block - g_stride, g_block, g_stride

    def _sampler(self, language: str, rng) -> Callable[[int], str]:
        """draw(concept): one word of the concept's distribution, drawn from
        rng. rng.random() picks the unique, block-group or stride-group words
        by the cumulative weights, and an index below n among them comes from
        the getrandbits(n.bit_length()) rejection loop that CPython's
        random.Random.randrange(n) runs, so rng advances exactly as under
        randrange."""
        spec = self.spec
        words, random, getrandbits = self._words[language], rng.random, rng.getrandbits
        w_unique, w_block, _ = self._weights()
        w_grouped = w_unique + w_block
        n_unique, n_group = spec.words_per_concept, spec.words_per_group
        k_unique, k_group = n_unique.bit_length(), n_group.bit_length()
        off_unique, off_block, off_stride = self.off_unique, self.off_block, self.off_stride
        branching, n_stride = spec.branching, self.n_stride_groups

        def draw(concept: int) -> str:
            r = random()
            if r < w_unique:
                j = getrandbits(k_unique)
                while j >= n_unique:
                    j = getrandbits(k_unique)
                return words[off_unique + concept * n_unique + j]
            j = getrandbits(k_group)
            while j >= n_group:
                j = getrandbits(k_group)
            if r < w_grouped:
                return words[off_block + concept // branching * n_group + j]
            return words[off_stride + concept % n_stride * n_group + j]

        return draw

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
                    draw = self._sampler(lang, rng)
                    tokens = [draw(i) for _ in range(length)]
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
        words, noise, n_vocab = self._words[language], spec.noise_rate, spec.vocab_size_per_language
        k_vocab = n_vocab.bit_length()
        docs = []
        for k, pool in enumerate(pools):
            if split == "train" and spec.train_concept_fraction < 1.0:
                candidates = self._train_candidates(pool, language)
            else:
                candidates = pool
            for i in range(spec.docs_per_category):
                rng = stable_rng(spec.seed, "doc", language, split, k, i)
                drawn = rng.sample(candidates, min(spec.concepts_per_doc, len(candidates)))
                draw = self._sampler(language, rng)
                random, getrandbits = rng.random, rng.getrandbits
                n_drawn = len(drawn)
                # An empty pool has no concept word: getrandbits(-1) raises ValueError,
                # as randrange(0) does.
                k_drawn = n_drawn.bit_length() if drawn else -1
                tokens = []
                for _ in range(spec.doc_length):
                    if noise and random() < noise:  # a uniform word: randrange(n_vocab)
                        j = getrandbits(k_vocab)
                        while j >= n_vocab:
                            j = getrandbits(k_vocab)
                        tokens.append(words[j])
                    else:  # a drawn concept's word: drawn[randrange(n_drawn)]
                        j = getrandbits(k_drawn)
                        while j >= n_drawn:
                            j = getrandbits(k_drawn)
                        tokens.append(draw(drawn[j]))
                docs.append(
                    LabeledDocument(
                        doc_id=f"{split}-{language}-cat{k}-{i:04d}",
                        language=language,
                        text=" ".join(tokens),
                        label=self.categories[k],
                    )
                )
        return docs

    def _write_dataset(self, language: str, split: str) -> None:
        save_labeled_dataset(self._documents(language, split), self.paths["datasets"][language][split])

    def write(self) -> None:
        """Write every file of the corpus. The support corpus and each
        (language, split) dataset are independent tasks, which plan_shares
        spreads over fork_workers() processes at most: this one takes the
        lightest share and each other share runs in a child (see
        _util.forked). Each process generates and writes whole files, so the
        bytes do not depend on the number of processes. This one also writes
        the concept and hierarchy files while the children run, and the
        manifest last, once every child has exited 0; the share of a child
        that failed is run again here, raising what serial generation
        raises."""
        spec = self.spec
        self.out_dir.mkdir(parents=True, exist_ok=True)
        tasks: List[Callable[[], None]] = [
            lambda: save_support_corpus(self._support_articles(), self.paths["corpus"])
        ]
        tasks += [partial(self._write_dataset, lang, split)
                  for lang in self.languages for split in ("train", "test")]
        articles = spec.n_concepts * spec.n_languages * spec.support_docs_per_pair
        docs = spec.n_categories * spec.docs_per_category
        costs = [articles * (spec.support_doc_length + STREAM_COST)]
        costs += [docs * (DATASET_WORD_COST * spec.doc_length + STREAM_COST)] * (len(tasks) - 1)
        *others, own = plan_shares(costs, fork_workers())
        with forked([partial(_run_share, tasks, share) for share in others]):
            _run_share(tasks, own)
            save_concepts([self.concept_id(i) for i in range(spec.n_concepts)], self.meta_ids(),
                          self.paths["concepts"])
            save_hierarchy_edges(self._edge_languages(), self.paths["hierarchy"])
        files = {key: self.paths[key].name for key in ("corpus", "concepts", "hierarchy")}
        files["datasets"] = {lang: {split: p.name for split, p in per.items()}
                             for lang, per in self.paths["datasets"].items()}
        dump_json({"spec": spec.to_dict(), "languages": self.languages, "files": files,
                   "categories": self.categories, "category_pools": self.category_pools()},
                  self.paths["manifest"])


# Task costs in units of one support word's draw. A dataset word costs more,
# since it also draws the noise test and the document concept it comes from,
# and each article or document first seeds its own stream.
DATASET_WORD_COST = 1.3
STREAM_COST = 40


def plan_shares(costs: Sequence[float], workers: int) -> List[List[int]]:
    """Task indices per worker, for min(workers, tasks) workers: each task in
    order of decreasing cost (ties to the lower index) goes to the worker
    with the least load so far (ties to the one with fewer tasks, then the
    lower index), so every planned worker gets a task. Each list ascends,
    and the lists come in order of decreasing load, the lightest last."""
    n = min(workers, len(costs))
    loads, shares = [0.0] * n, [[] for _ in range(n)]
    for i in sorted(range(len(costs)), key=lambda i: (-costs[i], i)):
        w = min(range(n), key=lambda w: (loads[w], len(shares[w]), w))
        loads[w] += costs[i]
        shares[w].append(i)
    return [sorted(shares[w]) for w in sorted(range(n), key=lambda w: -loads[w])]


def _run_share(tasks: Sequence[Callable[[], None]], share: Sequence[int]) -> None:
    for i in share:
        tasks[i]()


def generate_synthetic_corpus(spec: SyntheticCorpusSpec, out_dir: str | Path) -> SyntheticCorpus:
    """Generate and write the corpus, hierarchy, concept declarations and
    per-language train/test datasets; byte-identical for equal (spec, seed),
    whatever the number of processes SyntheticCorpus.write generates them in.
    Every process it starts has exited when it returns or raises."""
    corpus = SyntheticCorpus(spec, Path(out_dir))
    corpus.write()
    return corpus
