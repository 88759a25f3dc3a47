"""Exception hierarchy shared across the package.

CLI exit codes map onto these: usage errors exit 1, DataError and its
subclasses exit 2, SetupViolation exits 3.
"""

from pathlib import Path


class XlcatError(Exception):
    pass


class DataError(XlcatError, ValueError):
    """Malformed or inconsistent input data (corpus, hierarchy, datasets,
    configs). A ValueError too: the input value is wrong, not the program."""


class CorpusFormatError(DataError):
    """A corpus or dataset file violates its schema. Carries the line number."""

    def __init__(self, message: str, path: str | Path = "", line: int = 0):
        self.path = str(path)
        self.line = line
        where = f"{self.path}:{line}: " if line else ""
        super().__init__(f"{where}{message}")


class SetupViolation(XlcatError):
    """Experiment configuration breaks the constraints of its declared setup."""
