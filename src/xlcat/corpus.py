"""Loading, validation, filtering and tokenization of the multilingual
support corpus and the labeled train/test document sets.

File formats are UTF-8 JSON lines; see the README for the exact schemas.
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, Iterable, Optional, Sequence

from ._util import JsonConfig, dump_jsonl, int_at_least, json_field
from .errors import CorpusFormatError, DataError

# Ordered list of normalized tokens.
TokenStream = list[str]

ARTICLE_FLAGS = frozenset({"disambiguation", "redirect", "catalog"})


@dataclass(frozen=True)
class SupportArticle:
    """One support document for a (concept, language) pair.

    The same (concept_id, language) pair may carry several articles.
    """

    concept_id: str
    language: str
    title: str = ""
    text: str = ""
    links_in: int = 0
    links_out: int = 0
    flags: frozenset = frozenset()

    def __post_init__(self):
        if not self.concept_id:
            raise DataError("support article has empty concept_id")
        if not self.language:
            raise DataError("support article has empty language")
        int_at_least(self.links_in, 0, "links_in", DataError)
        int_at_least(self.links_out, 0, "links_out", DataError)
        bad = set(self.flags) - ARTICLE_FLAGS
        if bad:
            raise DataError(f"unknown article flags: {sorted(bad)}")

    def to_dict(self) -> dict:
        return {**vars(self), "flags": sorted(self.flags)}


@dataclass(frozen=True)
class LabeledDocument:
    """A document to classify; label is None for unlabeled inputs."""

    doc_id: str
    language: str
    text: str
    label: Optional[str] = None

    def record(self, **fields) -> dict:
        """This document's JSON-lines record {"doc_id", **fields, "label"?},
        with no label key when the label is None."""
        label = {} if self.label is None else {"label": self.label}
        return {"doc_id": self.doc_id, **fields, **label}

    def to_dict(self) -> dict:
        return self.record(language=self.language, text=self.text)


@dataclass(frozen=True)
class FilterConfig(JsonConfig):
    """Thresholds for pruning extraneous support articles."""

    _where = "filter."
    _least = {"min_chars": 0, "min_links_in": 0, "min_links_out": 0}

    min_chars: int = 500
    min_links_in: int = 5
    min_links_out: int = 5
    drop_flags: FrozenSet[str] = ARTICLE_FLAGS

    def __post_init__(self):
        super().__post_init__()
        if unknown := self.drop_flags - ARTICLE_FLAGS:
            raise DataError(f"config field 'filter.drop_flags' has unknown flags: {sorted(unknown)}")


def _read_jsonl(path: str | Path):
    """(line number, object) of each nonblank line; a line that is not UTF-8
    or not a JSON object is a CorpusFormatError naming path:line."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise CorpusFormatError(f"cannot open file: {exc}", path) from exc
    with fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusFormatError(f"malformed JSON: {exc.msg}", path, lineno) from exc
                except (ValueError, RecursionError) as exc:  # too deep, or too many digits
                    raise CorpusFormatError(f"malformed JSON: {exc}", path, lineno) from exc
                yield lineno, json_field(obj, None, dict, path, lineno)
        except UnicodeDecodeError:  # decoded ahead of the lines read: find the byte's line
            with open(path, "rb") as raw:
                for lineno, line in enumerate(raw, start=1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise CorpusFormatError(f"not UTF-8: {exc}", path, lineno) from exc
            raise


def load_support_corpus(path: str | Path) -> list[SupportArticle]:
    """Read support articles from a JSON-lines file, in file order.

    Required keys per line: concept_id, language, text. Optional: title,
    links_in, links_out, flags. Unknown keys are ignored.
    """
    articles = []
    for lineno, obj in _read_jsonl(path):
        try:
            articles.append(
                SupportArticle(
                    concept_id=json_field(obj, "concept_id", str, path, lineno),
                    language=json_field(obj, "language", str, path, lineno),
                    title=json_field(obj, "title", str, path, lineno, ""),
                    text=json_field(obj, "text", str, path, lineno),
                    links_in=json_field(obj, "links_in", int, path, lineno, 0),
                    links_out=json_field(obj, "links_out", int, path, lineno, 0),
                    flags=frozenset(
                        json_field(obj, "flags", list, path, lineno, (), of=str)
                    ),
                )
            )
        except DataError as exc:
            if isinstance(exc, CorpusFormatError):
                raise
            raise CorpusFormatError(str(exc), path, lineno) from exc
    return articles


def save_support_corpus(articles: Iterable[SupportArticle], path: str | Path) -> None:
    dump_jsonl((a.to_dict() for a in articles), path)


def read_records(path: str | Path):
    """(line number, doc_id, object) of each record of a JSON-lines file of
    documents, as _read_jsonl reads them; a doc_id repeated is a
    CorpusFormatError naming path:line."""
    seen = set()
    for lineno, obj in _read_jsonl(path):
        doc_id = json_field(obj, "doc_id", str, path, lineno)
        if doc_id in seen:
            raise CorpusFormatError(f"duplicate doc_id {doc_id!r}", path, lineno)
        seen.add(doc_id)
        yield lineno, doc_id, obj


def load_labeled_dataset(path: str | Path) -> list[LabeledDocument]:
    """Read labeled (or unlabeled) documents; doc_ids must be unique."""
    docs = []
    for lineno, doc_id, obj in read_records(path):
        docs.append(
            LabeledDocument(
                doc_id=doc_id,
                language=json_field(obj, "language", str, path, lineno),
                text=json_field(obj, "text", str, path, lineno),
                label=json_field(obj, "label", str, path, lineno, None),
            )
        )
    return docs


def save_labeled_dataset(docs: Iterable[LabeledDocument], path: str | Path) -> None:
    dump_jsonl((d.to_dict() for d in docs), path)


def filter_articles(
    articles: Sequence[SupportArticle], cfg: FilterConfig = FilterConfig()
) -> list[SupportArticle]:
    """Keep articles meeting the length/link thresholds and carrying none of
    the dropped flags. Order is preserved; filtering is idempotent."""
    return [
        a
        for a in articles
        if len(a.text) >= cfg.min_chars
        and a.links_in >= cfg.min_links_in
        and a.links_out >= cfg.min_links_out
        and not (a.flags & cfg.drop_flags)
    ]


class _SeparatorTable(dict):
    """`str.translate` table: letters, marks and numbers map to themselves and
    every other code point to a space. Filled lazily, one entry per distinct
    code point ever seen, so importing the module scans nothing."""

    def __missing__(self, cp: int) -> int:
        out = cp if unicodedata.category(chr(cp))[0] in "LMN" else 0x20
        self[cp] = out
        return out


_SEPARATORS = _SeparatorTable()


def tokenize(text: str, stopwords: Optional[frozenset] = None) -> TokenStream:
    """Language-neutral tokenization: NFC normalization, Unicode case folding,
    tokens are maximal runs of letter/mark/number characters. Pure-number
    tokens are dropped, and so are the given stopwords (one language's list,
    which its SupportIndex and SemanticInterpreter own); no stemming or
    diacritic folding.

    Separators are replaced by spaces through the lazily grown `_SEPARATORS`
    table and the result is split on whitespace. That equals the run rule
    because no L/M/N character is `isspace()`. `isnumeric()` screens the
    pure-number test cheaply because every category-N character is
    `isnumeric()`; the category check then rejects numeric letters such as
    CJK ideographs. Both facts hold for the whole Unicode database and the
    tests check them code point by code point.
    """
    norm = unicodedata.normalize("NFC", unicodedata.normalize("NFC", text).casefold())
    category = unicodedata.category
    tokens = [
        t
        for t in norm.translate(_SEPARATORS).split()
        if not (t.isnumeric() and all(category(c)[0] == "N" for c in t))
    ]
    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    return tokens


def load_stopwords(path: str | Path) -> frozenset:
    """One token per line; normalized the same way tokenize() normalizes. A
    file that is not UTF-8 is a DataError naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = list(fh)
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8: {exc}") from exc
    words = set()
    for line in lines:
        word = line.strip()
        if word:
            words.add(unicodedata.normalize("NFC", unicodedata.normalize("NFC", word).casefold()))
    return frozenset(words)
