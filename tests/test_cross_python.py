"""tools/cross_python.py with its commands stubbed in this process, so that
no interpreter is started: where its files go, and when they are kept."""

import importlib.util
import tempfile
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cross_python.py"


@pytest.fixture
def tool(monkeypatch, tmp_path):
    """The tool, whose temporary directories go under tmp_path / "tmp", and
    whose xlcat(python, ..., src=...) writes one file naming the command
    into the --out-dir it is given. A python, or a checkout holding src,
    named "differs" writes other bytes; one named "broken" fails."""
    spec = importlib.util.spec_from_file_location("cross_python", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))

    def run(python, *args, src=module.SRC):
        if "broken" in (python, src.parent.name):
            raise module.CommandFailed(f"cannot start {python} from {src}")
        return "3.99.0\n"

    def xlcat(python, command, *args, src=module.SRC):
        run(python, src=src)
        out = Path(args[args.index("--out-dir") + 1])
        out.mkdir(parents=True, exist_ok=True)
        differs = "differs" in (python, src.parent.name)
        (out / f"{command}.txt").write_text("other" if differs else "same", encoding="utf-8")

    monkeypatch.setattr(module, "run", run)
    monkeypatch.setattr(module, "xlcat", xlcat)
    return module


def test_a_run_in_which_every_python_is_the_same_deletes_its_temporary_directory(tool, tmp_path, capsys):
    assert tool.main(["python-a", "python-b"]) == 0
    out = capsys.readouterr().out
    assert out.count("same ") == 2 and "kept" not in out
    assert not list((tmp_path / "tmp").iterdir())


@pytest.mark.parametrize("pythons", [["python-a", "differs"], ["broken"]])
def test_a_run_that_fails_or_differs_keeps_its_temporary_directory(tool, tmp_path, capsys, pythons):
    assert tool.main(pythons) == 1
    (work,) = (tmp_path / "tmp").iterdir()
    assert capsys.readouterr().out.splitlines()[-1] == f"kept {work}"
    assert (work / "reference" / "evaluate" / "evaluate.txt").read_text(encoding="utf-8") == "same"


def test_a_given_work_directory_is_kept(tool, tmp_path, capsys):
    assert tool.main(["--work", str(tmp_path / "work"), "python-a"]) == 0
    assert "kept" not in capsys.readouterr().out
    assert (tmp_path / "work" / "python_0" / "evaluate" / "evaluate.txt").is_file()
    assert not list((tmp_path / "tmp").iterdir())


@pytest.mark.parametrize("base,status", [("checkout", 0), ("differs", 1)])
def test_a_base_checkout_runs_the_whole_list_at_the_same_paths(tool, tmp_path, capsys, base, status):
    work = tmp_path / "work"
    assert tool.main(["--work", str(work), "--base", str(tmp_path / base)]) == status
    lines = capsys.readouterr().out.splitlines()
    word = "same" if status == 0 else "DIFFERENT"
    for name in ("inputs/corpus/synth.txt", "inputs/experiment/experiment.txt", "reference/evaluate/evaluate.txt"):
        assert f"{word} {name}" in lines
        assert (work / "base" / name).read_text(encoding="utf-8") == ("same" if status == 0 else "other")
        assert (work / name).read_text(encoding="utf-8") == "same"
    assert "same inputs/corpus/config.json" in lines  # written by the tool itself


def test_a_base_checkout_that_fails_is_an_error(tool, tmp_path, capsys):
    assert tool.main(["--base", str(tmp_path / "broken")]) == 1
    assert capsys.readouterr().out.startswith("ERROR reference")
