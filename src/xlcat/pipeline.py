"""End-to-end experiment orchestration for the four cross-lingual setups:
resource loading, virtual-document construction, interpreter building,
stratified sampling, feature-space assembly, training and evaluation.
All randomness flows from the config seed through named RNG streams.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import mean, stdev
from typing import AbstractSet, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ._util import config_field, dump_json, envelope, load_json, stable_rng
from .corpus import (
    FilterConfig,
    LabeledDocument,
    SupportArticle,
    filter_articles,
    load_labeled_dataset,
    load_stopwords,
    load_support_corpus,
)
from .errors import DataError, SetupViolation
from .features import build_feature_space, project_documents, save_vectors, select_features
from .interpreter import SemanticInterpreter, build_interpreter
from .learner import evaluate, train
from .ontology import (
    Hierarchy,
    SupportIndex,
    load_concepts,
    load_hierarchy_edges,
    merge_hierarchies,
    retained_concepts,
)
from .virtualdocs import InsufficientAncestryError, construct_virtual_document, save_virtual_docs

SETUPS = ("CLTC1", "CLTC2", "CLTC3", "UCLTC")


@dataclass(frozen=True)
class Hyperparams:
    k_term: int = 5000
    k_doc: int = 100
    m: int = 3
    p: int = 10
    t: int = 200
    n_select: int = 20000
    lambda_: float = 1e-4
    epochs: int = 20

    def __post_init__(self):
        for name in ("k_term", "k_doc", "m", "p", "t", "n_select", "epochs"):
            val, low = getattr(self, name), 0 if name == "m" else 1
            if isinstance(val, bool) or not isinstance(val, int) or val < low:
                raise DataError(f"hyperparameter {name!r} must be an integer >= {low}, got {val!r}")
        lam = self.lambda_
        if isinstance(lam, bool) or not isinstance(lam, (int, float)) or not 0 < lam < float("inf"):
            raise DataError(f"hyperparameter 'lambda' must be a finite number > 0, got {lam!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "Hyperparams":
        d = dict(d)
        if "lambda" in d:
            d["lambda_"] = d.pop("lambda")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise DataError(f"unknown hyperparameters: {sorted(unknown)}")
        return cls(**d)

    def to_dict(self) -> dict:
        d = {name: getattr(self, name) for name in self.__dataclass_fields__}
        d["lambda"] = d.pop("lambda_")
        return d


@dataclass(frozen=True)
class ExperimentConfig:
    setup: str
    source_languages: Tuple[str, ...]
    target_languages: Tuple[str, ...]
    samples_per_category_per_language: int
    seed: int
    corpus_path: str
    concepts_path: str
    hierarchy_path: str
    datasets: Mapping[str, Mapping[str, str]]  # lang -> {"train": path, "test": path}
    hyperparams: Hyperparams = Hyperparams()
    virtual_docs: bool = True
    filter: FilterConfig = FilterConfig()
    stopword_paths: Mapping[str, str] = field(default_factory=dict)
    seeds: Tuple[int, ...] = ()  # optional multi-seed sweep

    def __post_init__(self):
        n = self.samples_per_category_per_language
        if n < 1:
            raise DataError(
                f"experiment config field 'samples_per_category_per_language' must be >= 1, got {n}"
            )

    def needed_languages(self) -> List[str]:
        return sorted(set(self.source_languages) | set(self.target_languages))

    def validate(self) -> None:
        if self.setup not in SETUPS:
            raise SetupViolation(f"unknown setup {self.setup!r}; expected one of {SETUPS}")
        src = set(self.source_languages)
        tgt = set(self.target_languages)
        if not src or not tgt:
            raise SetupViolation("source and target language sets must be nonempty")
        if self.setup == "CLTC1" and not (len(src) == 1 and len(tgt) == 1 and src == tgt):
            raise SetupViolation("CLTC1 requires a single shared training/testing language")
        if self.setup == "CLTC2" and not (len(src) == 1 and len(tgt) == 1 and src != tgt):
            raise SetupViolation("CLTC2 requires single, distinct training and testing languages")
        if self.setup == "CLTC3" and not (len(src) > 1 and len(tgt) == 1):
            raise SetupViolation("CLTC3 requires multiple training languages and one testing language")
        for lang in self.source_languages:
            if lang not in self.datasets or "train" not in self.datasets[lang]:
                raise SetupViolation(f"no training dataset configured for language {lang!r}")
        for lang in self.target_languages:
            if lang not in self.datasets or "test" not in self.datasets[lang]:
                raise SetupViolation(f"no test dataset configured for language {lang!r}")

    @classmethod
    def from_dict(cls, d: dict, base_dir: str | Path = ".") -> "ExperimentConfig":
        base = Path(base_dir)

        def resolve(p: str) -> str:
            return str(p) if Path(p).is_absolute() else str(base / p)

        if not isinstance(d, dict):
            raise DataError("experiment config must be a JSON object")
        paths = config_field(d, "paths", dict)
        datasets = config_field(paths, "datasets", dict, where="paths.")
        seeds = config_field(d, "seeds", list, [], of=int)
        if len(set(seeds)) != len(seeds):
            raise DataError(f"experiment config field 'seeds' repeats a seed: {seeds}")
        return cls(
            setup=config_field(d, "setup", str),
            source_languages=tuple(config_field(d, "source_languages", list, of=str)),
            target_languages=tuple(config_field(d, "target_languages", list, of=str)),
            samples_per_category_per_language=config_field(
                d, "samples_per_category_per_language", int
            ),
            seed=config_field(d, "seed", int, 0),
            corpus_path=resolve(config_field(paths, "corpus", str, where="paths.")),
            concepts_path=resolve(config_field(paths, "concepts", str, where="paths.")),
            hierarchy_path=resolve(config_field(paths, "hierarchy", str, where="paths.")),
            datasets={
                lang: {
                    split: resolve(p)
                    for split, p in config_field(
                        datasets, lang, dict, where="paths.datasets.", of=str
                    ).items()
                }
                for lang in datasets
            },
            hyperparams=Hyperparams.from_dict(config_field(d, "hyperparams", dict, {})),
            virtual_docs=config_field(d, "virtual_docs", bool, True),
            filter=FilterConfig.from_dict(config_field(d, "filter", dict, {})),
            stopword_paths={
                lang: resolve(p)
                for lang, p in config_field(d, "stopwords", dict, {}, of=str).items()
            },
            seeds=tuple(seeds),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        return cls.from_dict(load_json(path), base_dir=path.parent)

    def to_dict(self) -> dict:
        return {
            "setup": self.setup,
            "source_languages": sorted(self.source_languages),
            "target_languages": sorted(self.target_languages),
            "samples_per_category_per_language": self.samples_per_category_per_language,
            "seed": self.seed,
            "paths": {
                "corpus": self.corpus_path,
                "concepts": self.concepts_path,
                "hierarchy": self.hierarchy_path,
                "datasets": {
                    lang: dict(per) for lang, per in sorted(self.datasets.items())
                },
            },
            "hyperparams": self.hyperparams.to_dict(),
            "virtual_docs": self.virtual_docs,
            "filter": self.filter.to_dict(),
            "stopwords": dict(sorted(self.stopword_paths.items())),
            "seeds": list(self.seeds),
        }


@dataclass
class Resources:
    """Loaded-and-filtered inputs, reusable across arms of an ablation.

    An arm may narrow `basic` and `articles` (see _virtual_docs_curve) but
    keeps the full hierarchy: basic concepts are leaves, so the edges into
    concepts outside `basic` change no ancestor set and no path count to a
    concept inside it, and such concepts hold no support in the arm.

    `stopwords` holds the per-language lists that every SupportIndex built
    from it drops. `term_counts` memoizes each support article's term
    Counter (see SupportIndex.term_counts), so it is shared only among
    indexes built from one Resources, and so from one set of stopword
    lists. The virtual-docs ablation prepares semantic resources once per
    arm over one Resources, so it sets a fresh dict that replace() shares
    across the arms and that is dropped when the ablation returns; keyed by
    the article, it cannot serve an arm the counts of an article the arm
    dropped. Every other call prepares once and leaves it None: there a
    memo would only save re-counting within one preparation, and memoizing
    every article of a single run raised `learn_l` peak_rss_mb by 4.8 MiB
    (68.3 to 73.1 MiB)."""

    articles: List[SupportArticle]
    basic: AbstractSet[str]
    hierarchy: Hierarchy
    stopwords: Dict[str, frozenset]
    term_counts: Optional[Dict[SupportArticle, Counter]] = None


def load_ontology(cfg: ExperimentConfig) -> Tuple[Hierarchy, Dict[str, frozenset]]:
    """The hierarchy merged over every language's edges, with the stopword
    lists: every shared input but the support corpus."""
    basic, meta = load_concepts(cfg.concepts_path)
    h = merge_hierarchies(load_hierarchy_edges(cfg.hierarchy_path), basic, meta)
    stopwords = {lang: load_stopwords(p) for lang, p in sorted(cfg.stopword_paths.items())}
    return h, stopwords


def load_resources(cfg: ExperimentConfig) -> Resources:
    """The filtered support corpus with the ontology. A support article of a
    concept that concepts.jsonl does not declare is a DataError naming the
    corpus file and the concept, whether or not the filter would drop it."""
    articles = load_support_corpus(cfg.corpus_path)
    h, stopwords = load_ontology(cfg)
    for a in articles:
        if a.concept_id not in h:
            raise DataError(
                f"{cfg.corpus_path}: support article {a.title!r} belongs to "
                f"undeclared concept {a.concept_id!r}"
            )
    return Resources(filter_articles(articles, cfg.filter), h.basic, h, stopwords)


def _load_dataset(cfg: ExperimentConfig, lang: str, split: str) -> List[LabeledDocument]:
    """The `split` dataset configured for `lang`; a document of any other
    language is a DataError naming the file, the document and both languages."""
    path = cfg.datasets[lang][split]
    docs = load_labeled_dataset(path)
    for d in docs:
        if d.language != lang:
            raise DataError(
                f"{path}: document {d.doc_id!r} has language {d.language!r}, "
                f"but paths.datasets.{lang} holds {lang!r} documents"
            )
    return docs


def _load_training_docs(cfg: ExperimentConfig) -> Dict[str, List[LabeledDocument]]:
    """The labeled training documents of each source language."""
    per_lang_docs: Dict[str, List[LabeledDocument]] = {}
    for lang in sorted(set(cfg.source_languages)):
        docs = [d for d in _load_dataset(cfg, lang, "train") if d.label]
        if not docs:
            raise DataError(f"training dataset for {lang!r} has no labeled documents")
        per_lang_docs[lang] = docs
    return per_lang_docs


def _sample_training_docs(
    cfg: ExperimentConfig, per_lang_docs: Mapping[str, List[LabeledDocument]]
) -> Tuple[List[LabeledDocument], List[str]]:
    """Stratified sampling without replacement: per source language, per
    category, cfg.samples_per_category_per_language documents."""
    categories = {d.label for docs in per_lang_docs.values() for d in docs}
    wanted = cfg.samples_per_category_per_language
    sampled: List[LabeledDocument] = []
    for lang in sorted(per_lang_docs):
        by_cat: Dict[str, List[LabeledDocument]] = {}
        for doc in per_lang_docs[lang]:
            by_cat.setdefault(doc.label, []).append(doc)
        for cat in sorted(categories):
            candidates = by_cat.get(cat, [])
            if len(candidates) < wanted:
                raise DataError(
                    f"language {lang!r} has {len(candidates)} training document(s) "
                    f"for category {cat!r}; {wanted} required"
                )
            rng = stable_rng(cfg.seed, "sample", lang, cat)
            sampled.extend(rng.sample(candidates, wanted))
    return sampled, sorted(categories)


def _load_test_docs(cfg: ExperimentConfig) -> List[LabeledDocument]:
    """The test documents of every target language; each must be labeled."""
    test_docs: List[LabeledDocument] = []
    for lang in sorted(set(cfg.target_languages)):
        test_docs.extend(_load_dataset(cfg, lang, "test"))
    unlabeled = [d.doc_id for d in test_docs if d.label is None]
    if unlabeled:
        raise DataError(f"test documents lack labels, e.g. {unlabeled[0]!r}")
    return test_docs


def _load_documents(
    cfg: ExperimentConfig,
) -> Tuple[List[LabeledDocument], List[str], List[LabeledDocument]]:
    """The training sample, its categories and the test documents: `_run`'s
    document inputs for cfg's seed."""
    training, categories = _sample_training_docs(cfg, _load_training_docs(cfg))
    return training, categories, _load_test_docs(cfg)


def _construct_virtual_docs(cfg, h, idx) -> list:
    """Give every basic concept that has support somewhere a virtual document
    in each needed language it lacks; concepts whose ancestry cannot supply
    enough documents are skipped and simply stay unretained."""
    needed = cfg.needed_languages()
    tables = []
    for cid in sorted(idx.basic_concepts):
        covered = idx.languages_with_support(cid)
        if not covered & set(needed):
            continue
        for lang in needed:
            if idx.has_support(cid, lang):
                continue
            try:
                table = construct_virtual_document(
                    h, idx, cid, lang, cfg.hyperparams.p, cfg.hyperparams.t
                )
            except InsufficientAncestryError:
                continue
            idx.add_virtual(table)
            tables.append(table)
    return tables


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: Optional[str | Path] = None,
    workers: int = 1,
) -> dict:
    """Execute one experiment end to end and return its report dict; when
    out_dir is given, intermediate artifacts and the report are written there.
    """
    cfg.validate()
    res = load_resources(cfg)
    prep = prepare_semantic_resources(cfg, res)
    training, categories = _sample_training_docs(cfg, _load_training_docs(cfg))
    return _run(cfg, res, prep, training, categories, out_dir=out_dir, workers=workers)


@dataclass
class Prepared:
    """Semantic resources shared by the preprocessing-stage CLI commands and
    the experiment runner."""

    virtual_tables: List
    retained: Set[str]
    interpreters: Dict[str, SemanticInterpreter]


def prepare_semantic_resources(cfg: ExperimentConfig, res: Resources) -> Prepared:
    """Virtual-document construction, concept retention and per-language
    interpreter building over the articles of res.basic in the needed
    languages."""
    needed = cfg.needed_languages()
    articles = [a for a in res.articles if a.concept_id in res.basic and a.language in needed]
    idx = SupportIndex(res.basic, articles, res.stopwords, res.term_counts)

    tables = []
    if cfg.virtual_docs:
        tables = _construct_virtual_docs(cfg, res.hierarchy, idx)

    retained = retained_concepts(idx, needed)
    if not retained:
        raise DataError("no concepts are supported in every required language")
    hp = cfg.hyperparams
    interpreters = {lang: build_interpreter(idx, lang, retained, hp.k_term) for lang in needed}
    return Prepared(tables, retained, interpreters)


def _run(
    cfg: ExperimentConfig,
    res: Resources,
    prep: Prepared,
    training: List[LabeledDocument],
    categories: List[str],
    test_docs: Optional[List[LabeledDocument]] = None,
    out_dir: Optional[str | Path] = None,
    workers: int = 1,
) -> dict:
    """Feature generation, training and evaluation over prepared inputs:
    `prep` is prepare_semantic_resources(cfg, res), `training` cfg's sample
    with its `categories`, and `test_docs` the labeled target-language
    documents (see _load_documents), or None to load them after training.

    A call that runs several experiments computes each input once for all
    its runs that share it. It loads the documents once, and samples the
    training set once per seed. It prepares once unless its runs differ in
    what `prep` is prepared from; the virtual-docs ablation's arms do, and
    share one term-count memo instead (see Resources). A single run loads
    the training set after preparing and the test set after training,
    which keeps each out of the earlier stages' peak memory: loading both
    before preparing raised `learn_l` peak_rss_mb by 1.7 MiB, and the test
    set before training by 0.5 MiB."""
    h, interpreters, tables = res.hierarchy, prep.interpreters, prep.virtual_tables
    retained = prep.retained
    hp = cfg.hyperparams

    train_labels = [d.label for d in training]
    space, train_vecs = build_feature_space(training, interpreters, h, hp.k_doc, hp.m, workers)
    space, train_vecs = select_features(space, train_vecs, train_labels, hp.n_select)
    initial_size = space.metadata.get("selected_from", len(space))

    model = train(
        train_vecs,
        train_labels,
        categories,
        len(space),
        lambda_=hp.lambda_,
        epochs=hp.epochs,
        seed=cfg.seed,
    )

    if test_docs is None:
        test_docs = _load_test_docs(cfg)
    test_vecs = project_documents(space, test_docs, interpreters, h, hp.k_doc, hp.m, workers)
    report = evaluate(model, test_vecs, [d.label for d in test_docs])

    result = envelope("report", {
        "config": cfg.to_dict(),
        "data": {
            "n_train": len(training),
            "n_test": len(test_docs),
            "categories": categories,
            "n_retained_concepts": len(retained),
            "n_virtual_docs": len(tables),
            "feature_space_size_initial": initial_size,
            "feature_space_size_selected": len(space),
            "train_doc_ids": [d.doc_id for d in training],
        },
        "results": report.to_dict(),
    })

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for lang, si in sorted(interpreters.items()):
            si.save(out / f"interpreter_{lang}.json")
        save_virtual_docs(tables, out / "virtual_docs.jsonl")
        space.save(out / "feature_space.json")
        save_vectors(train_vecs, training, out / "train_vectors.jsonl")
        model.save(out / "model.json")
        dump_json(result, out / "report.json")
    return result


def run_seeds(
    cfg: ExperimentConfig,
    seeds: Sequence[int],
    out_dir: Optional[str | Path] = None,
    workers: int = 1,
) -> dict:
    """Run the experiment once per seed and aggregate mean/stdev metrics."""
    if not seeds:
        raise DataError("seed list must be nonempty")
    cfg.validate()
    res = load_resources(cfg)
    prep = prepare_semantic_resources(cfg, res)
    per_lang_docs, test_docs = _load_training_docs(cfg), _load_test_docs(cfg)
    per_seed = {}
    for s in seeds:
        run_dir = Path(out_dir) / f"seed_{s}" if out_dir is not None else None
        seed_cfg = replace(cfg, seed=s)
        training, categories = _sample_training_docs(seed_cfg, per_lang_docs)
        per_seed[s] = _run(
            seed_cfg, res, prep, training, categories, test_docs, out_dir=run_dir, workers=workers
        )
    accuracies = [per_seed[s]["results"]["accuracy"] for s in seeds]
    macro_f1s = [per_seed[s]["results"]["macro_f1"] for s in seeds]
    aggregate = envelope("report-aggregate", {
        "config": cfg.to_dict(),
        "seeds": list(seeds),
        "per_seed_results": {str(s): per_seed[s]["results"] for s in seeds},
        "mean_accuracy": mean(accuracies),
        "std_accuracy": stdev(accuracies) if len(accuracies) > 1 else 0.0,
        "mean_macro_f1": mean(macro_f1s),
        "std_macro_f1": stdev(macro_f1s) if len(macro_f1s) > 1 else 0.0,
    })
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        dump_json(aggregate, out / "report.json")
    return aggregate


def ablation(
    cfg: ExperimentConfig,
    toggle: str,
    out_dir: Optional[str | Path] = None,
    workers: int = 1,
    prefix_fraction: float = 0.7,
    n_blocks: int = 3,
) -> dict:
    """Paired runs differing only in one component.

    meta_features: identical experiment with and without hierarchical
    enrichment (m forced to 0 in the off arm).

    virtual_docs: concepts are ranked by source-language support length; the
    top prefix keeps real support everywhere, and successive blocks of the
    remainder are added with their target-language support either kept
    (original arm), replaced by constructed virtual documents (virtual arm),
    or removed with construction disabled (deleted arm).
    """
    cfg.validate()
    if toggle == "meta_features":
        res = load_resources(cfg)
        inputs = (res, prepare_semantic_resources(cfg, res), *_load_documents(cfg))
        with_meta = _run(cfg, *inputs, workers=workers)
        without_meta = _run(
            replace(cfg, hyperparams=replace(cfg.hyperparams, m=0)), *inputs, workers=workers
        )
        result = envelope("ablation", {
            "toggle": toggle,
            "with": with_meta,
            "without": without_meta,
            "delta_accuracy": with_meta["results"]["accuracy"]
            - without_meta["results"]["accuracy"],
        })
    elif toggle == "virtual_docs":
        result = _virtual_docs_curve(cfg, workers, prefix_fraction, n_blocks)
    else:
        raise DataError(f"unknown ablation toggle {toggle!r}")
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        dump_json(result, out / "ablation.json")
    return result


def _virtual_docs_curve(
    cfg: ExperimentConfig, workers: int, prefix_fraction: float, n_blocks: int
) -> dict:
    if not 0.0 < prefix_fraction < 1.0:
        raise DataError("prefix_fraction must lie in (0, 1)")
    if n_blocks < 1:
        raise DataError("n_blocks must be positive")
    res = replace(load_resources(cfg), term_counts={})
    reference_lang = sorted(cfg.source_languages)[0]
    lengths: Dict[str, int] = {c: 0 for c in res.basic}
    for a in res.articles:
        if a.language == reference_lang and a.concept_id in lengths:
            lengths[a.concept_id] += len(a.text)
    ranked = sorted(res.basic, key=lambda c: (-lengths[c], c))
    n_prefix = max(1, round(prefix_fraction * len(ranked)))
    tail = ranked[n_prefix:]
    if not tail:
        raise DataError("prefix covers every concept; nothing to ablate")
    blocks: List[List[str]] = []
    base, extra = divmod(len(tail), n_blocks)
    start = 0
    for b in range(n_blocks):
        size = base + (1 if b < extra else 0)
        blocks.append(tail[start : start + size])
        start += size
    blocks = [b for b in blocks if b]
    docs = _load_documents(cfg)

    targets = sorted(set(cfg.target_languages))
    curve = {"original": [], "virtual": [], "deleted": []}
    block_counts = list(range(len(blocks) + 1))
    sizes = []
    for j in block_counts:
        added = [c for block in blocks[:j] for c in block]
        allowed = set(ranked[:n_prefix]) | set(added)
        sizes.append(len(allowed))
        dropped = {(c, lang) for c in added for lang in targets}
        # Every arm sees only the allowed concepts; the virtual and deleted
        # arms also lose the added concepts' target-language articles.
        restricted = replace(res, basic=allowed)
        stripped = replace(restricted, articles=[
            a for a in res.articles if (a.concept_id, a.language) not in dropped
        ])
        arms = {
            "original": (False, restricted),
            "deleted": (False, stripped),
            "virtual": (True, stripped),
        }
        for arm, (virtual_docs, arm_res) in arms.items():
            if arm != "deleted" or dropped:  # else it repeats the original arm's run
                arm_cfg = replace(cfg, virtual_docs=virtual_docs)
                prep = prepare_semantic_resources(arm_cfg, arm_res)
                report = _run(arm_cfg, arm_res, prep, *docs, workers=workers)
            curve[arm].append(report["results"]["accuracy"])
    return envelope("ablation", {
        "toggle": "virtual_docs",
        "config": cfg.to_dict(),
        "reference_language": reference_lang,
        "prefix_fraction": prefix_fraction,
        "n_prefix": n_prefix,
        "block_counts": block_counts,
        "n_concepts": sizes,
        "curves": curve,
    })
