"""README.md's "Library example" runs as written, on a synthetic corpus,
and its "Experiment config" example is what the codec reads and writes."""

import json
import re
from pathlib import Path

from xlcat.corpus import FilterConfig
from xlcat.pipeline import ExperimentConfig, Hyperparams
from xlcat.synth import SyntheticCorpusSpec

from conftest import make_corpus

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The fenced Python block under the README's "## Library example"."""
    text = README.read_text(encoding="utf-8")
    return re.search(r"^## Library example\n\n```python\n(.*?)^```", text, re.M | re.S).group(1)


def test_library_example_runs_on_a_synthetic_corpus(tmp_path, capsys):
    corpus = make_corpus(tmp_path, SyntheticCorpusSpec(n_concepts=24, seed=1))
    paths, datasets = corpus.paths, corpus.paths["datasets"]
    code = library_example()
    # The example's files become the corpus's, and its languages en and fr l0 and l1.
    for old, new in [
        ('"corpus.jsonl"', paths["corpus"]), ('"concepts.jsonl"', paths["concepts"]),
        ('"hierarchy.jsonl"', paths["hierarchy"]), ('"train_en.jsonl"', datasets["l0"]["train"]),
        ('"test_fr.jsonl"', datasets["l1"]["test"]), ('"en"', "l0"), ('"fr"', "l1"),
    ]:
        assert old in code
        code = code.replace(old, repr(str(new)))
    exec(compile(code, f"{README}:library example", "exec"), {})
    accuracy = float(capsys.readouterr().out)
    assert 1 / len(corpus.categories) < accuracy <= 1.0


def config_example() -> dict:
    """The JSON block under the README's "## Experiment config"."""
    text = README.read_text(encoding="utf-8")
    return json.loads(re.search(r"^## Experiment config\n\n```json\n(.*?)^```", text, re.M | re.S).group(1))


def test_config_example_reads_with_the_defaults_it_shows_and_is_what_to_dict_writes():
    shown = config_example()
    cfg = ExperimentConfig.from_dict(shown)
    assert (cfg.hyperparams, cfg.filter) == (Hyperparams(), FilterConfig())
    assert cfg.to_dict() == shown
