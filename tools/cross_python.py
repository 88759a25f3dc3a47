"""Check that xlcat's numpy-free commands write the same bytes under other
Python interpreters, and that this checkout writes the same bytes as another.

    python tools/cross_python.py [--work DIR] [--base DIR] [PYTHON ...]

The running interpreter (which needs numpy) generates a small synthetic
corpus and runs one `experiment` on it, which gives the model and the
feature space; the config has every nested and renamed key of the format
(`paths`, `hyperparams`, `filter`, and `stopwords` with a relative path).
Then it and each PYTHON run, each in its own directory, the numpy-free
commands over those same inputs: `synth`, `build-interpreter`,
`make-virtual-docs`, `gen-features` (building a space from the training
set, and projecting the test set onto the experiment's space), `classify`
(with the saved interpreters and with them rebuilt) and `evaluate`. Every
file a PYTHON wrote is compared by sha256 with the running interpreter's.

With --base DIR, the running interpreter first runs that whole list, the
corpus and the experiment included, with DIR/src (another checkout of
xlcat) in place of this checkout's src, at the same paths. Each file of
the two runs is then printed as `same` or `DIFFERENT`.

A PYTHON that cannot be started, or a command that exits non-zero, is an
error. The exit status is 0 only when every run ran every command and
wrote the same files, byte for byte; otherwise 1. Without --work the files
go to a new temporary directory, which is deleted after a run that exits 0
and otherwise kept, with its path printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SPEC = {
    "n_concepts": 60, "n_meta_levels": 2, "branching": 3, "vocab_size_per_language": 900,
    "n_languages": 2, "n_categories": 3, "docs_per_category": 20, "seed": 7,
}
CONFIG = {
    "setup": "CLTC2", "source_languages": ["l0"], "target_languages": ["l1"],
    "samples_per_category_per_language": 10, "seed": 0,
    "paths": {
        "corpus": "corpus.jsonl", "concepts": "concepts.jsonl", "hierarchy": "hierarchy.jsonl",
        "datasets": {lang: {split: f"{split}_{lang}.jsonl" for split in ("train", "test")}
                     for lang in ("l0", "l1")},
    },
    "hyperparams": {"k_term": 500, "k_doc": 8, "m": 2, "p": 3, "t": 40, "n_select": 300, "epochs": 3},
    "filter": {"min_chars": 300, "min_links_in": 6, "min_links_out": 5, "drop_flags": ["catalog", "redirect"]},
    "stopwords": {"l0": "stopwords_l0.txt"},  # relative to the config's directory
}
STOPWORDS = "l0w00000\n"  # a word of the corpus's l0 vocabulary
RUN = ("inputs", "reference")  # the directories of the running interpreter's run


class CommandFailed(Exception):
    pass


def run(python: str, *args: str, src: Path = SRC) -> str:
    """The stdout of `python args`, with the sources in `src` first on the path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run([python, *args], capture_output=True, text=True, env=env)
    except OSError as exc:
        raise CommandFailed(f"cannot start {python}: {exc}") from exc
    if proc.returncode != 0:
        raise CommandFailed(f"{python} {' '.join(args[:3])} from {src} exited {proc.returncode}: "
                            f"{proc.stderr.strip()}")
    return proc.stdout


def xlcat(python: str, *args: str, src: Path = SRC) -> None:
    run(python, "-m", "xlcat", *args, src=src)


def numpy_free_commands(python: str, inputs: Path, out: Path, src: Path = SRC) -> None:
    """Each numpy-free command under `python` from `src`, reading `inputs`
    (the corpus, the config and the experiment's files) and writing under `out`."""
    config, experiment = str(inputs / "corpus" / "config.json"), inputs / "experiment"
    train, test = (str(inputs / "corpus" / name) for name in ("train_l0.jsonl", "test_l1.jsonl"))
    common = ["--config", config, "--out-dir"]
    saved = ["--interpreters", str(out / "interpreters")]
    model = ["--model", str(experiment / "model.json"), "--space", str(experiment / "feature_space.json")]
    command = partial(xlcat, python, src=src)
    command("synth", "--config", str(inputs / "spec.json"), "--out-dir", str(out / "synth"))
    command("build-interpreter", *common, str(out / "interpreters"))
    command("make-virtual-docs", *common, str(out / "virtual_docs"))
    command("gen-features", *common, str(out / "train_features"), "--dataset", train, *saved)
    command("gen-features", *common, str(out / "test_features"), "--dataset", test, *saved,
            "--space", str(experiment / "feature_space.json"))
    command("classify", *common, str(out / "classify_saved"), *model, "--dataset", test, *saved)
    command("classify", *common, str(out / "classify_built"), *model, "--dataset", test)
    command("evaluate", "--predictions", str(out / "classify_saved" / "predictions.jsonl"),
            "--dataset", test, "--out-dir", str(out / "evaluate"))


def digests(root: Path) -> dict[str, str]:
    return {str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


def reference_run(work: Path, src: Path) -> dict[str, str]:
    """The running interpreter's run from `src`, into the RUN directories of
    `work`: the corpus, the config, the experiment and the numpy-free
    commands. The digest of each file it wrote, by its path under `work`."""
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    (inputs / "spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
    xlcat(sys.executable, "synth", "--config", str(inputs / "spec.json"), "--out-dir", str(inputs / "corpus"),
          src=src)
    (inputs / "corpus" / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    (inputs / "corpus" / "stopwords_l0.txt").write_text(STOPWORDS, encoding="utf-8")
    xlcat(sys.executable, "experiment", "--config", str(inputs / "corpus" / "config.json"),
          "--out-dir", str(inputs / "experiment"), src=src)
    numpy_free_commands(sys.executable, inputs, work / "reference", src)
    return {f"{name}/{path}": digest for name in RUN for path, digest in digests(work / name).items()}


def compare(pythons: list[str], work: Path, base: Path | None = None) -> int:
    """The reference run and each PYTHON's under `work`, reported line by
    line, after the base run if `base` is given; the number of runs that
    failed or differed (1 if a run of the running interpreter failed)."""
    failed = 0
    try:
        if base is not None:
            before = reference_run(work, base / "src")
            shutil.rmtree(work / "base", ignore_errors=True)  # a --work directory's earlier base run
            (work / "base").mkdir()
            for name in RUN:  # so that this checkout's run writes at the same paths
                (work / name).rename(work / "base" / name)
        after = reference_run(work, SRC)
    except CommandFailed as exc:
        print(f"ERROR reference {sys.executable}: {exc}")
        return 1
    if base is not None:
        for name in sorted(before.keys() | after.keys()):
            print(f"{'same' if before.get(name) == after.get(name) else 'DIFFERENT'} {name}")
        print(f"base {base}: {len(before)} files, this checkout: {len(after)} files")
        failed += before != after
    expected = digests(work / "reference")
    print(f"reference: {sys.executable} ({sys.version.split()[0]}), {len(expected)} files in {work}")
    for i, python in enumerate(pythons):
        out = work / f"python_{i}"
        try:
            version = run(python, "-c", "import platform; print(platform.python_version())").strip()
            numpy_free_commands(python, work / "inputs", out)
        except CommandFailed as exc:
            print(f"ERROR {python}: {exc}")
            failed += 1
            continue
        got = digests(out)
        differ = sorted(name for name in expected.keys() | got.keys() if expected.get(name) != got.get(name))
        print(f"{'same' if not differ else 'DIFFERENT'} {python} ({version}): {len(got)} files"
              + "".join(f"\n  differs: {name}" for name in differ))
        failed += bool(differ)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("pythons", nargs="*", metavar="PYTHON", help="interpreter to compare")
    parser.add_argument("--work", help="directory for the files (default: a new temporary one, "
                                       "deleted unless a run failed or differed)")
    parser.add_argument("--base", type=Path, help="another checkout of xlcat, whose src to compare with this one's")
    args = parser.parse_args(argv)
    work = Path(args.work or tempfile.mkdtemp(prefix="xlcat-cross-python-"))
    failed = compare(args.pythons, work, args.base)
    if args.work is None:
        if failed:
            print(f"kept {work}")
        else:
            shutil.rmtree(work)
    return 1 if failed else 0

if __name__ == "__main__":
    sys.exit(main())
