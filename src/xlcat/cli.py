"""Command-line interface.

Subcommands cover the pipeline stages individually (build-interpreter,
make-virtual-docs, gen-features, train, classify, evaluate) and end to end
(experiment, ablate), plus the synthetic corpus generator (synth).

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 setup violation.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace
from pathlib import Path

from ._util import dump_json, dump_jsonl, json_field, load_json
from .corpus import _read_jsonl, load_labeled_dataset
from .errors import CorpusFormatError, DataError, SetupViolation
from .features import FeatureSpace, build_feature_space, load_vectors, project_documents, save_vectors, select_features
from .interpreter import SemanticInterpreter, interpreter_file
from .learner import LinearModel, TrainingError, predict, report_from_pairs, train
from .pipeline import (
    ExperimentConfig,
    ablation,
    load_ontology,
    load_resources,
    prepare_semantic_resources,
    run_experiment,
    run_seeds,
)
from .synth import SyntheticCorpusSpec, generate_synthetic_corpus
from .virtualdocs import save_virtual_docs

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SETUP = 3
_INTERPRETERS_HELP = "directory of saved interpreters; only interpreter_<lang>.json of the dataset's languages is read"


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on usage errors; the contract is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_interpreters(args, cfg, docs):
    """Interpreters for the languages of `docs`, which cfg must need, with
    the hierarchy they are applied with: from --interpreters only their
    interpreter_<lang>.json and no support corpus, each given cfg's stopword
    list for its language, else built from cfg."""
    languages = sorted({d.language for d in docs})
    cfg.check_languages(languages)
    if not args.interpreters:
        res = load_resources(cfg)
        return prepare_semantic_resources(cfg, res, languages).interpreters, res.hierarchy
    h, stopwords = load_ontology(cfg)
    interpreters = {}
    for lang in languages:
        path = interpreter_file(args.interpreters, lang)
        if not path.is_file():
            raise DataError(f"no interpreter for language {lang!r}: {path} does not exist")
        interpreters[lang] = si = SemanticInterpreter.load(path)
        if si.language != lang:
            raise DataError(f"{path}: holds the interpreter of {si.language!r}, not {lang!r}")
        si.stopwords = stopwords.get(lang, frozenset())
    return interpreters, h


def _load_space(args, cfg) -> FeatureSpace:
    """The feature space at --space, whose recorded k_doc and m must be
    cfg's, so that documents are mapped onto it as its own were; a field
    its metadata lacks is not checked."""
    space = FeatureSpace.load(args.space)
    for name in ("k_doc", "m"):
        ours = getattr(cfg.hyperparams, name)
        built = space.metadata.get(name, ours)
        if built != ours:
            raise DataError(
                f"{args.space}: feature space was built with {name}={built!r}, "
                f"but the config has {name}={ours!r}"
            )
    return space


def _cmd_synth(args, spec, out) -> None:
    corpus = generate_synthetic_corpus(spec, out)
    print(
        f"synthetic corpus: {spec.n_concepts} concepts, "
        f"{spec.n_languages} languages -> {corpus.out_dir}"
    )


def _cmd_build_interpreter(args, cfg, out) -> None:
    prep = prepare_semantic_resources(cfg, load_resources(cfg), args.language or cfg.needed_languages())
    for lang, si in prep.interpreters.items():
        path = interpreter_file(out, lang)
        si.save(path)
        print(f"wrote {path} ({len(prep.retained)} concepts)")


def _cmd_make_virtual_docs(args, cfg, out) -> None:
    cfg = replace(cfg, virtual_docs=True)
    tables = prepare_semantic_resources(cfg, load_resources(cfg), ()).virtual_tables
    path = out / "virtual_docs.jsonl"
    save_virtual_docs(tables, path)
    print(f"wrote {path} ({len(tables)} virtual documents)")


def _cmd_gen_features(args, cfg, out) -> None:
    docs, first = [], {}  # doc_id -> the index of the --dataset that holds it
    for i, path in enumerate(args.dataset):
        for doc in load_labeled_dataset(path):
            if first.setdefault(doc.doc_id, i) != i:
                raise DataError(f"doc_id {doc.doc_id!r} is in both {args.dataset[first[doc.doc_id]]} and {path}")
            docs.append(doc)
    if not docs:
        raise DataError("no documents in the given dataset(s)")
    space = _load_space(args, cfg) if args.space else None
    interpreters, h = _load_interpreters(args, cfg, docs)
    hp = cfg.hyperparams
    if args.space:
        vectors = project_documents(space, docs, interpreters, h, hp.k_doc, hp.m)
    else:
        space, vectors = build_feature_space(docs, interpreters, h, hp.k_doc, hp.m)
        labels = [d.label for d in docs]
        if all(labels):
            space, vectors = select_features(space, vectors, labels, hp.n_select)
        space.save(out / "feature_space.json")
    save_vectors(vectors, docs, out / "vectors.jsonl")
    print(f"wrote {out / 'vectors.jsonl'} ({len(docs)} documents, {len(space)} features)")


def _cmd_train(args, cfg, out) -> None:
    space = FeatureSpace.load(args.space)
    vectors, labels, _ = load_vectors(args.vectors)
    if any(lab is None for lab in labels):
        raise DataError("training vectors must all carry labels")
    hp = cfg.hyperparams
    try:
        model = train(
            vectors,
            labels,
            sorted(set(labels)),
            len(space),
            lambda_=hp.lambda_,
            epochs=hp.epochs,
            seed=cfg.seed,
        )
    except TrainingError as exc:
        raise TrainingError(f"{args.vectors}: {exc}") from exc
    model.save(out / "model.json")
    print(f"wrote {out / 'model.json'} ({len(model.categories)} categories)")


def _cmd_classify(args, cfg, out) -> None:
    model = LinearModel.load(args.model)
    space = _load_space(args, cfg)
    if model.n_features != len(space):
        raise DataError(
            f"model {args.model} has {model.n_features} features but feature space "
            f"{args.space} has {len(space)}"
        )
    docs = load_labeled_dataset(args.dataset)
    interpreters, h = _load_interpreters(args, cfg, docs)
    hp = cfg.hyperparams
    vectors = project_documents(space, docs, interpreters, h, hp.k_doc, hp.m)
    records = []
    for doc, vec in zip(docs, vectors):
        rec = {"doc_id": doc.doc_id, "predicted": predict(model, vec)}
        if doc.label is not None:
            rec["label"] = doc.label
        records.append(rec)
    path = out / "predictions.jsonl"
    dump_jsonl(records, path)
    print(f"wrote {path} ({len(records)} predictions)")


def _cmd_evaluate(args, cfg, out) -> None:
    predictions, path = {}, args.predictions
    for lineno, obj in _read_jsonl(path):
        doc_id = json_field(obj, "doc_id", str, path, lineno)
        if doc_id in predictions:
            raise CorpusFormatError(f"duplicate doc_id {doc_id!r}", path, lineno)
        predictions[doc_id] = json_field(obj, "predicted", str, path, lineno)
    docs = load_labeled_dataset(args.dataset)
    y_true, y_pred = [], []
    for doc in docs:
        if doc.label is None:
            continue
        if doc.doc_id not in predictions:
            raise DataError(f"no prediction for document {doc.doc_id!r}")
        y_true.append(doc.label)
        y_pred.append(predictions[doc.doc_id])
    if not y_true:
        raise DataError("no labeled documents to score")
    report = report_from_pairs(y_true, y_pred, sorted(set(y_true) | set(y_pred)))
    dump_json(report.to_dict(), out / "eval.json")
    print(f"accuracy {report.accuracy:.4f}  macro-F1 {report.macro_f1:.4f}")


def _cmd_experiment(args, cfg, out) -> None:
    if cfg.seeds:
        report = run_seeds(cfg, list(cfg.seeds), out_dir=out)
        print(
            f"mean accuracy {report['mean_accuracy']:.4f} "
            f"(std {report['std_accuracy']:.4f}) over {len(cfg.seeds)} seeds"
        )
    else:
        report = run_experiment(cfg, out_dir=out)
        print(
            f"accuracy {report['results']['accuracy']:.4f}  "
            f"macro-F1 {report['results']['macro_f1']:.4f}"
        )
    print(f"report written to {out / 'report.json'}")


def _cmd_ablate(args, cfg, out) -> None:
    result = ablation(
        cfg,
        args.toggle,
        out_dir=out,
        prefix_fraction=args.prefix_fraction,
        n_blocks=args.blocks,
    )
    if args.toggle == "meta_features":
        print(f"delta accuracy (with - without): {result['delta_accuracy']:+.4f}")
    else:
        final = {arm: curve[-1] for arm, curve in result["curves"].items()}
        print(
            "final accuracies: "
            + "  ".join(f"{arm}={acc:.4f}" for arm, acc in sorted(final.items()))
        )
    print(f"ablation written to {out / 'ablation.json'}")


def _add_common(sub):
    sub.set_defaults(read=ExperimentConfig.from_file)
    sub.add_argument("--config", required=True, help="experiment config JSON")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--workers", type=int, default=1, help="accepted for compatibility; has no effect")
    sub.add_argument("--out-dir", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xlcat", description=__doc__.strip().splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("synth", help="generate a synthetic multilingual corpus")
    sub.add_argument("--config", required=True, help="synthetic corpus spec JSON")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out-dir", required=True)
    sub.set_defaults(func=_cmd_synth, read=lambda path: SyntheticCorpusSpec.from_dict(load_json(path)))

    sub = commands.add_parser("build-interpreter", help="build and save per-language interpreters")
    _add_common(sub)
    sub.add_argument("--language", action="append", help="restrict to a language (repeatable)")
    sub.set_defaults(func=_cmd_build_interpreter)

    sub = commands.add_parser("make-virtual-docs", help="construct virtual support documents")
    _add_common(sub)
    sub.set_defaults(func=_cmd_make_virtual_docs)

    sub = commands.add_parser("gen-features", help="generate concept feature vectors for datasets")
    _add_common(sub)
    sub.add_argument("--dataset", action="append", required=True, help="labeled dataset JSONL (repeatable)")
    sub.add_argument("--interpreters", help=_INTERPRETERS_HELP)
    sub.add_argument("--space", help="existing feature-space file; project instead of build")
    sub.set_defaults(func=_cmd_gen_features)

    sub = commands.add_parser("train", help="train a classifier from saved vectors")
    _add_common(sub)
    sub.add_argument("--space", required=True, help="feature-space file")
    sub.add_argument("--vectors", required=True, help="labeled vectors JSONL")
    sub.set_defaults(func=_cmd_train)

    sub = commands.add_parser("classify", help="classify a dataset with a saved model")
    _add_common(sub)
    sub.add_argument("--model", required=True)
    sub.add_argument("--space", required=True)
    sub.add_argument("--dataset", required=True)
    sub.add_argument("--interpreters", help=_INTERPRETERS_HELP)
    sub.set_defaults(func=_cmd_classify)

    sub = commands.add_parser("evaluate", help="score predictions against labels")
    sub.add_argument("--predictions", required=True, help="predictions JSONL from classify")
    sub.add_argument("--dataset", required=True, help="labeled dataset JSONL")
    sub.add_argument("--out-dir", required=True)
    sub.set_defaults(func=_cmd_evaluate, read=None)

    sub = commands.add_parser("experiment", help="run a configured experiment end to end")
    _add_common(sub)
    sub.set_defaults(func=_cmd_experiment)

    sub = commands.add_parser("ablate", help="paired runs toggling one component")
    _add_common(sub)
    sub.add_argument("--toggle", required=True, choices=["meta_features", "virtual_docs"])
    sub.add_argument("--prefix-fraction", type=float, default=0.7)
    sub.add_argument("--blocks", type=int, default=3)
    sub.set_defaults(func=_cmd_ablate)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """build_parser() once per process: parsing leaves a parser as it was,
    and main() may be called many times in one process."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        cfg = args.read(args.config) if args.read else None
        if cfg is not None and args.seed is not None:
            if args.command == "experiment" and cfg.seeds:
                raise DataError(f"--seed {args.seed} would be ignored: the config field 'seeds' "
                                f"sets the experiment's seeds to {list(cfg.seeds)}")
            cfg = replace(cfg, seed=args.seed)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        args.func(args, cfg, out)
        return EXIT_OK
    except SetupViolation as exc:
        print(f"setup violation: {exc}", file=sys.stderr)
        return EXIT_SETUP
    except (DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
