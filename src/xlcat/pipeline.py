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
from typing import AbstractSet, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ._util import (JsonConfig, abridged, block_bounds, dump_json, envelope, fork_workers, forked, int_at_least,
                    json_field, paused_gc, stable_rng)
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
from .features import (
    BinaryFeatureVector,
    FeatureSpace,
    build_feature_space,
    document_features,
    save_vectors,
    select_features,
)
from .interpreter import SemanticInterpreter, build_interpreter, interpreter_file
from .learner import DEFAULT_EPOCHS, DEFAULT_LAMBDA, EvalReport, LinearModel, evaluate, lambda_ok, train
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
class Hyperparams(JsonConfig):
    _where = "hyperparams."
    _least = {"k_term": 1, "k_doc": 1, "m": 0, "p": 1, "t": 1, "n_select": 1, "epochs": 1}

    k_term: int = 5000
    k_doc: int = 100
    m: int = 3
    p: int = 10
    t: int = 200
    n_select: int = 20000
    lambda_: float = DEFAULT_LAMBDA
    epochs: int = DEFAULT_EPOCHS

    def __post_init__(self):
        super().__post_init__()
        if not lambda_ok(self.lambda_):
            raise DataError(f"config field 'hyperparams.lambda' must be a finite number > 0 with "
                            f"a finite inverse, got {abridged(self.lambda_)}")


def _resolve(p, base_dir: str | Path):
    """p, or each path in object p, against base_dir where relative; a path of another JSON type
    is left for the field check to name. Not a closure: a recursive one is a cycle per call."""
    if type(p) is dict:
        return {k: _resolve(v, base_dir) for k, v in p.items()}
    return str(Path(base_dir) / p) if type(p) is str and not Path(p).is_absolute() else p


@dataclass(frozen=True)
class ExperimentConfig(JsonConfig):
    """One experiment's setup, inputs and hyperparameters: a JsonConfig with
    the paths under "paths" and the stopword lists under "stopwords". Where
    it is built, a dataset other than {"train"?: path, "test"?: path} or a
    repeated seed is also a DataError, and languages or datasets that break
    the setup (CLTC1-3, UCLTC) a SetupViolation. from_dict resolves each
    relative path against base_dir; to_dict writes the languages sorted."""

    _json_keys = {"corpus_path": "paths.corpus", "concepts_path": "paths.concepts",
                  "hierarchy_path": "paths.hierarchy", "datasets": "paths.datasets", "stopword_paths": "stopwords"}
    _least = {"samples_per_category_per_language": 1}

    setup: str
    source_languages: Tuple[str, ...]
    target_languages: Tuple[str, ...]
    samples_per_category_per_language: int
    seed: int = field(default=0, kw_only=True)
    corpus_path: str
    concepts_path: str
    hierarchy_path: str
    datasets: Dict[str, dict]  # lang -> {"train": path, "test": path}
    hyperparams: Hyperparams = Hyperparams()
    virtual_docs: bool = True
    filter: FilterConfig = FilterConfig()
    stopword_paths: Dict[str, str] = field(default_factory=dict)
    seeds: Tuple[int, ...] = ()  # optional multi-seed sweep

    def __post_init__(self):
        super().__post_init__()
        if len(set(self.seeds)) != len(self.seeds):
            raise DataError(f"experiment config field 'seeds' repeats a seed: {list(self.seeds)}")
        for lang, per in self.datasets.items():
            json_field(per, None, dict, f"paths.datasets.{lang}.", of=str, keys={"train", "test"})
        if self.setup not in SETUPS:
            raise SetupViolation(f"unknown setup {self.setup!r}; expected one of {SETUPS}")
        src, tgt = set(self.source_languages), set(self.target_languages)
        if not src or not tgt:
            raise SetupViolation("source and target language sets must be nonempty")
        if self.setup == "CLTC1" and not (len(src) == 1 and len(tgt) == 1 and src == tgt):
            raise SetupViolation("CLTC1 requires a single shared training/testing language")
        if self.setup == "CLTC2" and not (len(src) == 1 and len(tgt) == 1 and src != tgt):
            raise SetupViolation("CLTC2 requires single, distinct training and testing languages")
        if self.setup == "CLTC3" and not (len(src) > 1 and len(tgt) == 1):
            raise SetupViolation("CLTC3 requires multiple training languages and one testing language")
        needs = ((self.source_languages, "train", "training"), (self.target_languages, "test", "test"))
        for langs, split, name in needs:
            for lang in langs:
                if split not in self.datasets.get(lang, {}):
                    raise SetupViolation(f"no {name} dataset configured for language {lang!r}")

    def needed_languages(self) -> List[str]:
        return sorted(set(self.source_languages) | set(self.target_languages))

    def check_languages(self, languages: Iterable[str]) -> None:
        """The language rule of preparation and the stage commands: a
        DataError names the first of `languages` the experiment does not need."""
        for lang in languages:
            if lang not in self.needed_languages():
                raise DataError(f"language {lang!r} is not part of this experiment")

    @classmethod
    def from_dict(cls, d: Mapping, base_dir: str | Path = ".") -> "ExperimentConfig":
        d = json_field(d, None, dict)
        json_field(d, None, dict, keys={key for key in d if "." not in key})  # "paths.corpus" only under "paths"
        flat = {key: _resolve(v, base_dir) if key == "stopwords" else v for key, v in d.items() if key != "paths"}
        flat.update(("paths." + key, _resolve(v, base_dir)) for key, v in json_field(d, "paths", dict).items())
        return super().from_dict(flat)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "source_languages": sorted(self.source_languages),
                "target_languages": sorted(self.target_languages)}


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
    lists. The virtual-docs ablation builds a support index for each arm
    over one Resources, so it sets a fresh dict that replace() shares
    across the arms and that is dropped when the ablation returns; keyed by
    the article, it cannot serve an arm the counts of an article the arm
    dropped. Every other call prepares once and leaves it None: there a
    memo would only save re-counting within one preparation, and memoizing
    every article of a single run raised `learn_l` peak_rss_mb by 4.8 MiB
    (68.3 to 73.1 MiB); without one, each article's tokens are counted
    straight into its concept's pseudo-document."""

    articles: List[SupportArticle]
    basic: AbstractSet[str]
    hierarchy: Hierarchy
    stopwords: Dict[str, frozenset]
    term_counts: Optional[Dict[SupportArticle, Counter]] = None


@paused_gc()
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
) -> List[LabeledDocument]:
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
    return sampled


def _load_test_docs(cfg: ExperimentConfig) -> List[LabeledDocument]:
    """The test documents of every target language; each must be labeled."""
    test_docs: List[LabeledDocument] = []
    for lang in sorted(set(cfg.target_languages)):
        test_docs.extend(_load_dataset(cfg, lang, "test"))
    unlabeled = [d.doc_id for d in test_docs if d.label is None]
    if unlabeled:
        raise DataError(f"test documents lack labels, e.g. {unlabeled[0]!r}")
    return test_docs


def _load_documents(cfg: ExperimentConfig) -> Tuple[List[LabeledDocument], List[LabeledDocument]]:
    """The training sample and the test documents: `_run`'s document inputs
    for cfg's seed."""
    return _sample_training_docs(cfg, _load_training_docs(cfg)), _load_test_docs(cfg)


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


@paused_gc()
def run_experiment(
    cfg: ExperimentConfig,
    out_dir: Optional[str | Path] = None,
    workers: int = 1,
) -> dict:
    """Execute one experiment end to end and return its report dict; when
    out_dir is given, intermediate artifacts and the report are written there.
    It prepares no interpreter: _run builds each where it is read."""
    res = load_resources(cfg)
    prep = prepare_semantic_resources(cfg, res, ())
    training = _sample_training_docs(cfg, _load_training_docs(cfg))
    return _run(cfg, res, prep, training, out_dir=out_dir, workers=workers)


@dataclass
class Prepared:
    """What prepare_semantic_resources returns: the virtual tables, the
    retained concepts, the interpreters built so far and, while a needed
    language has none, the SupportIndex to build it from (else None)."""

    virtual_tables: List
    retained: Set[str]
    interpreters: Dict[str, SemanticInterpreter]
    index: Optional[SupportIndex] = None


def prepare_semantic_resources(cfg: ExperimentConfig, res: Resources, languages: Sequence[str]) -> Prepared:
    """The one preparation: the SupportIndex over the articles of res.basic
    in the needed languages, the virtual tables it gains when cfg enables
    them, the concepts it retains and the interpreter of each of
    `languages`, each built once. A language outside the experiment is a
    DataError naming it."""
    cfg.check_languages(languages)
    needed = cfg.needed_languages()
    articles = [a for a in res.articles if a.concept_id in res.basic and a.language in needed]
    idx = SupportIndex(res.basic, articles, res.stopwords, res.term_counts)
    tables = _construct_virtual_docs(cfg, res.hierarchy, idx) if cfg.virtual_docs else []
    retained = retained_concepts(idx, needed)
    if not retained:
        raise DataError("no concepts are supported in every required language")
    interpreters = _build_interpreters(cfg, idx, retained, languages)
    return Prepared(tables, retained, interpreters, None if interpreters.keys() >= set(needed) else idx)


def _build_interpreters(
    cfg: ExperimentConfig, idx: SupportIndex, retained: Set[str], languages: Sequence[str]
) -> Dict[str, SemanticInterpreter]:
    """The interpreter of each of `languages`, each built once, in order."""
    k_term = cfg.hyperparams.k_term
    return {lang: build_interpreter(idx, lang, retained, k_term) for lang in dict.fromkeys(languages)}


def _run(
    cfg: ExperimentConfig,
    res: Resources,
    prep: Prepared,
    training: List[LabeledDocument],
    test_docs: Optional[List[LabeledDocument]] = None,
    out_dir: Optional[str | Path] = None,
    workers: int = 1,
) -> dict:
    """One run over prepared inputs: `prep` is prepare_semantic_resources(cfg,
    res, languages) for any needed `languages`, `training` cfg's sample and
    `test_docs` the labeled target-language documents (see _load_documents),
    or None to load them on the classification side. It scores what
    _fit_and_classify returns; the report's categories are the model's,
    which fit_model takes from the training labels. With out_dir, the other
    files follow the interpreter files, the report last.

    A call that runs several experiments computes each shared input once:
    it loads the documents once, samples the training set once per seed and
    prepares once, unless its runs differ in what `prep` is prepared from,
    as the virtual-docs ablation's arms do (see _virtual_docs_curve). A
    single run loads the training set after preparing, out of preparation's
    peak memory, and only its child loads the test set."""
    (space, train_vecs, model), test_features = _fit_and_classify(
        cfg, res, prep, training, test_docs, out_dir, workers
    )
    report = _score(space, model, test_features)
    result = envelope("report", {
        "config": cfg.to_dict(),
        "data": {
            "n_train": len(training),
            "n_test": len(test_features),
            "categories": model.categories,
            "n_retained_concepts": len(prep.retained),
            "n_virtual_docs": len(prep.virtual_tables),
            "feature_space_size_initial": space.metadata.get("selected_from", len(space)),
            "feature_space_size_selected": len(space),
            "train_doc_ids": [d.doc_id for d in training],
        },
        "results": report.to_dict(),
    })

    if out_dir is not None:
        out = Path(out_dir)
        space.save(out / "feature_space.json")
        save_vectors(train_vecs, training, out / "train_vectors.jsonl")
        model.save(out / "model.json")
        dump_json(result, out / "report.json")
    return result


def _fit_and_classify(
    cfg: ExperimentConfig, res: Resources, prep: Prepared, training: List[LabeledDocument],
    test_docs: Optional[List[LabeledDocument]], out_dir: Optional[str | Path], workers: int,
) -> Tuple[Tuple[FeatureSpace, List[BinaryFeatureVector], LinearModel], List[Tuple[str, Set[str]]]]:
    """The core of every computed run: _fit's result and _test_features'.

    It builds from prep.index each interpreter that `prep` lacks. Those of
    the languages both source and target come first, here. Then a forked
    child (see _util.forked) runs the classification side: it builds the
    target-only interpreters, loads the test set if `test_docs` is None and
    returns the test features, while this process builds the source-only
    interpreters and runs _fit, with prep.index set to None first when it
    forks. A failed child's rerun here prepares the index again.

    With out_dir, each interpreter file is written by the side that built
    it: the child's by the child, and this process's, with the virtual-docs
    file, by a second child while _fit runs."""
    h, retained = res.hierarchy, prep.retained
    interpreters = dict(prep.interpreters)
    shared = set(cfg.source_languages) & set(cfg.target_languages)
    interpreters.update(_build_interpreters(cfg, prep.index, retained, sorted(shared - interpreters.keys())))
    sources, targets = (sorted(set(languages) - interpreters.keys())
                        for languages in (cfg.source_languages, cfg.target_languages))

    def classify() -> List[Tuple[str, Set[str]]]:
        index = (prep.index or prepare_semantic_resources(cfg, res, ()).index) if targets else None
        built = _build_interpreters(cfg, index, retained, targets)
        for lang, si in built.items() if out_dir is not None else ():
            si.save(interpreter_file(out, lang))
        docs = _load_test_docs(cfg) if test_docs is None else test_docs
        return _test_features(cfg, h, {**interpreters, **built}, docs)

    def save_interpreters() -> None:
        for lang, si in sorted(interpreters.items()):
            si.save(interpreter_file(out, lang))
        save_virtual_docs(prep.virtual_tables, out / "virtual_docs.jsonl")

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
    with forked([classify]) as classified:
        interpreters.update(_build_interpreters(cfg, prep.index, retained, sources))
        if fork_workers() > 1:  # the child has its own copy
            prep.index = None
        with forked([] if out_dir is None else [save_interpreters]):
            fit = _fit(cfg, h, interpreters, training, workers)
    return fit, classified[0]


def _fit(
    cfg: ExperimentConfig, h: Hierarchy, interpreters: Mapping[str, SemanticInterpreter],
    training: List[LabeledDocument], workers: int,
) -> Tuple[FeatureSpace, List[BinaryFeatureVector], LinearModel]:
    """The fit half of a run: the training set's feature space, selected,
    with its vectors and fit_model's model on them, whose categories are
    the training labels. It reads only the source languages' interpreters."""
    hp = cfg.hyperparams
    train_labels = [d.label for d in training]
    space, train_vecs = build_feature_space(training, interpreters, h, hp.k_doc, hp.m, workers)
    space, train_vecs = select_features(space, train_vecs, train_labels, hp.n_select)
    return space, train_vecs, fit_model(cfg, train_vecs, train_labels, len(space))


def fit_model(cfg: ExperimentConfig, vectors: Sequence[BinaryFeatureVector], labels: Sequence[str],
              n_features: int) -> LinearModel:
    """train under cfg's lambda, epochs and seed, with one category per
    distinct label, in sorted order: a run's and `xlcat train`'s model."""
    hp = cfg.hyperparams
    return train(vectors, labels, sorted(set(labels)), n_features,
                 lambda_=hp.lambda_, epochs=hp.epochs, seed=cfg.seed)


def _test_features(cfg: ExperimentConfig, h: Hierarchy, interpreters: Mapping[str, SemanticInterpreter],
                   test_docs: List[LabeledDocument]) -> List[Tuple[str, Set[str]]]:
    """What the classification side of a run returns: each test document's
    label with its generated concepts. It reads only the target languages'
    interpreters and nothing of the fit."""
    hp = cfg.hyperparams
    return [(d.label, document_features(d, interpreters, h, hp.k_doc, hp.m)) for d in test_docs]


def _score(space: FeatureSpace, model: LinearModel, test_features: List[Tuple[str, Set[str]]]) -> EvalReport:
    """The score half of a run: each test document's concepts projected
    onto `space` and evaluated under `model`."""
    return evaluate(model, [space.vector_for(concepts) for _, concepts in test_features],
                    [label for label, _ in test_features])


@paused_gc()
def run_seeds(cfg: ExperimentConfig, out_dir: Optional[str | Path] = None) -> dict:
    """Run the experiment once per seed s of cfg.seeds, a nonempty list, and
    aggregate mean/stdev metrics. Seed s's report holds cfg with seed s and
    the aggregate cfg, so each reads back as the sweep that made it. With
    out_dir, seed s's run is written to out_dir/seed_<s>, then the aggregate."""
    seeds = cfg.seeds
    if not seeds:
        raise DataError("experiment config field 'seeds' is empty: there is no seed to run")
    res = load_resources(cfg)
    prep = prepare_semantic_resources(cfg, res, cfg.needed_languages())
    per_lang_docs, test_docs = _load_training_docs(cfg), _load_test_docs(cfg)
    per_seed = {}
    for s in seeds:
        run_dir = Path(out_dir) / f"seed_{s}" if out_dir is not None else None
        seed_cfg = replace(cfg, seed=s)
        training = _sample_training_docs(seed_cfg, per_lang_docs)
        per_seed[s] = _run(seed_cfg, res, prep, training, test_docs, out_dir=run_dir)
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
    if out_dir is not None:  # every seed's run has made it
        dump_json(aggregate, Path(out_dir) / "report.json")
    return aggregate


@paused_gc()
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
    top prefix keeps real support everywhere, and n_blocks successive
    blocks of the remainder (at most one per concept) are added with their
    target-language support either kept (original arm), replaced by
    constructed virtual documents (virtual arm), or removed with
    construction disabled (deleted arm). Each distinct interpreter, model
    and accuracy is computed once, keyed by articles and never by virtual
    tables (see _virtual_docs_curve): a deleted arm retains only the prefix,
    so the deleted curve equals the original arm's at block count 0.
    """
    if toggle == "meta_features":
        res = load_resources(cfg)
        inputs = (res, prepare_semantic_resources(cfg, res, cfg.needed_languages()), *_load_documents(cfg))
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
    """The virtual-docs ablation. Each arm prepares its support index. Its
    key over some languages is the retained concepts in sorted order with
    their articles in each; it has none if a retained concept has a virtual
    table in one, since every arm builds fresh tables. An interpreter
    depends only on its language's key (stopwords and k_term are fixed per
    call), the fit only on the source interpreters, the score only on the
    fit and the target interpreters. So an arm whose key over all needed
    languages matches an earlier arm's takes its accuracy; one whose
    source-language key matches takes its (space, model) and scores here,
    building only the target interpreters; any other runs _fit_and_classify.
    Both memos live for the call. No interpreter outlives its arm: keeping
    them would hold every arm's at once. n_blocks is capped at the tail's length."""
    if not 0.0 < prefix_fraction < 1.0:
        raise DataError("prefix_fraction must lie in (0, 1)")
    int_at_least(n_blocks, 1, "n_blocks", DataError)
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
    n_blocks = min(n_blocks, len(tail))
    bounds = block_bounds(len(tail), n_blocks)
    blocks = [tail[i:j] for i, j in zip(bounds, bounds[1:])]
    training, test_docs = _load_documents(cfg)
    h, needed, sources = res.hierarchy, cfg.needed_languages(), sorted(set(cfg.source_languages))
    targets = sorted(set(cfg.target_languages))
    accuracies: Dict[tuple, float] = {}  # all needed languages' keys -> accuracy
    fits: Dict[tuple, tuple] = {}  # source languages' keys -> (space, model)

    def memo_key(idx: SupportIndex, concepts: List[str], languages: List[str]):
        if any(idx.virtual(c, lang) is not None for lang in languages for c in concepts):
            return None
        return tuple((c, tuple(idx.articles(c, lang))) for lang in languages for c in concepts)

    def accuracy(arm_cfg: ExperimentConfig, arm_res: Resources) -> float:
        prep = prepare_semantic_resources(arm_cfg, arm_res, ())
        score_key, fit_key = (memo_key(prep.index, sorted(prep.retained), langs) for langs in (needed, sources))
        if score_key is not None and score_key in accuracies:
            return accuracies[score_key]
        fit = fits.get(fit_key)
        if fit is None:
            (space, _, model), test_features = _fit_and_classify(
                arm_cfg, arm_res, prep, training, test_docs, None, workers
            )
            fit = (space, model)
            if fit_key is not None:
                fits[fit_key] = fit
        else:
            interpreters = _build_interpreters(cfg, prep.index, prep.retained, targets)
            test_features = _test_features(cfg, h, interpreters, test_docs)
        result = _score(*fit, test_features).accuracy
        if score_key is not None:
            accuracies[score_key] = result
        return result

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
        curve["original"].append(accuracy(replace(cfg, virtual_docs=False), restricted))
        curve["virtual"].append(accuracy(replace(cfg, virtual_docs=True), stripped))
        curve["deleted"].append(accuracy(replace(cfg, virtual_docs=False), stripped))
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
