import gc
import json
import random
import sys
import unicodedata
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xlcat.corpus import (
    CorpusFormatError,
    FilterConfig,
    LabeledDocument,
    SupportArticle,
    _read_jsonl,
    filter_articles,
    load_labeled_dataset,
    load_stopwords,
    load_support_corpus,
    save_labeled_dataset,
    save_support_corpus,
    tokenize,
)
from xlcat._util import json_field, load_json
from xlcat.errors import DataError
from xlcat.interpreter import build_interpreter
from xlcat.ontology import SupportIndex
from xlcat.pipeline import load_ontology


def reference_tokenize(text, stopwords=None):
    """The original per-character tokenizer, kept as the oracle for the
    table-driven one in xlcat.corpus."""
    norm = unicodedata.normalize("NFC", unicodedata.normalize("NFC", text).casefold())
    tokens = []
    start = None
    for i, ch in enumerate(norm):
        if unicodedata.category(ch)[0] in "LMN":
            if start is None:
                start = i
        elif start is not None:
            tokens.append(norm[start:i])
            start = None
    if start is not None:
        tokens.append(norm[start:])
    tokens = [t for t in tokens if not all(unicodedata.category(c)[0] == "N" for c in t)]
    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    return tokens


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def article_line(**kw):
    rec = {
        "concept_id": "c1",
        "language": "en",
        "title": "T",
        "text": "some text",
        "links_in": 3,
        "links_out": 4,
        "flags": [],
    }
    rec.update(kw)
    return json.dumps(rec)


class TestLoadSupportCorpus:
    def test_single_valid_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [article_line()])
        arts = load_support_corpus(path)
        assert len(arts) == 1
        assert arts[0].concept_id == "c1"
        assert arts[0].links_out == 4

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_support_corpus(path) == []

    def test_missing_language_names_field_and_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = json.loads(article_line())
        del rec["language"]
        write_lines(path, [json.dumps(rec)])
        with pytest.raises(CorpusFormatError) as err:
            load_support_corpus(path)
        assert "language" in str(err.value)
        assert err.value.line == 1

    def test_malformed_json_carries_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [article_line(), "{not json"])
        with pytest.raises(CorpusFormatError) as err:
            load_support_corpus(path)
        assert err.value.line == 2

    def test_unknown_keys_ignored(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [article_line(extra="ignored")])
        assert len(load_support_corpus(path)) == 1

    def test_unknown_flag_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [article_line(flags=["banana"])])
        with pytest.raises(CorpusFormatError):
            load_support_corpus(path)

    def test_negative_links_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [article_line(links_in=-1)])
        with pytest.raises(CorpusFormatError):
            load_support_corpus(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusFormatError):
            load_support_corpus(tmp_path / "nope.jsonl")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(
            path,
            [
                article_line(),
                article_line(concept_id="c2", flags=["redirect"], text="naïve text"),
            ],
        )
        arts = load_support_corpus(path)
        out = tmp_path / "out.jsonl"
        save_support_corpus(arts, out)
        assert load_support_corpus(out) == arts


class TestLoadLabeledDataset:
    def test_three_docs_two_labels(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(
            path,
            [
                json.dumps({"doc_id": "d1", "language": "en", "text": "a", "label": "x"}),
                json.dumps({"doc_id": "d2", "language": "en", "text": "b", "label": "y"}),
                json.dumps({"doc_id": "d3", "language": "en", "text": "c", "label": "x"}),
            ],
        )
        docs = load_labeled_dataset(path)
        assert len(docs) == 3
        assert {d.label for d in docs} == {"x", "y"}

    def test_duplicate_doc_id_names_id(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(
            path,
            [
                json.dumps({"doc_id": "dup", "language": "en", "text": "a"}),
                json.dumps({"doc_id": "dup", "language": "en", "text": "b"}),
            ],
        )
        with pytest.raises(CorpusFormatError) as err:
            load_labeled_dataset(path)
        assert "dup" in str(err.value)

    def test_absent_label_is_none(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_lines(path, [json.dumps({"doc_id": "d1", "language": "en", "text": "a"})])
        assert load_labeled_dataset(path)[0].label is None

    def test_round_trip(self, tmp_path):
        docs = [
            LabeledDocument("d1", "en", "hello", "x"),
            LabeledDocument("d2", "fr", "bonjour", None),
        ]
        path = tmp_path / "d.jsonl"
        save_labeled_dataset(docs, path)
        assert load_labeled_dataset(path) == docs

    def test_blank_lines_are_skipped_and_still_counted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        d1, d2 = (json.dumps({"doc_id": i, "language": "en", "text": "a"}) for i in ("d1", "d2"))
        write_lines(path, [d1, "", " \t", d2])
        assert [d.doc_id for d in load_labeled_dataset(path)] == ["d1", "d2"]
        write_lines(path, [d1, "", " \t", d1])
        with pytest.raises(CorpusFormatError, match=f"^{path}:4: duplicate doc_id 'd1'$"):
            load_labeled_dataset(path)


class TestRecordDicts:
    """to_dict is a record's fields with its one exception, in a new dict."""

    def test_support_article_sorts_its_flags(self):
        article = SupportArticle("c", "en", "T", "x", 3, 4, frozenset({"redirect", "catalog"}))
        record = article.to_dict()
        assert record == {"concept_id": "c", "language": "en", "title": "T", "text": "x",
                          "links_in": 3, "links_out": 4, "flags": ["catalog", "redirect"]}
        record["text"] = "changed"
        assert article.text == "x"

    def test_labeled_document_leaves_out_a_missing_label(self):
        assert LabeledDocument("d", "en", "t", "x").to_dict() == {
            "doc_id": "d", "language": "en", "text": "t", "label": "x"}
        doc = LabeledDocument("d", "en", "t")
        record = doc.to_dict()
        assert record == {"doc_id": "d", "language": "en", "text": "t"}
        record["text"] = "changed"
        assert doc.text == "t"


def art(text="x" * 600, links_in=9, links_out=9, flags=(), cid="c"):
    return SupportArticle(
        concept_id=cid,
        language="en",
        title="",
        text=text,
        links_in=links_in,
        links_out=links_out,
        flags=frozenset(flags),
    )


class TestFilterArticles:
    def test_flagged_disambiguation_removed(self):
        cfg = FilterConfig(min_chars=0, min_links_in=0, min_links_out=0,
                           drop_flags=frozenset({"disambiguation"}))
        kept = filter_articles([art(flags={"disambiguation"}), art()], cfg)
        assert len(kept) == 1
        assert not kept[0].flags

    def test_all_zero_thresholds_identity(self):
        cfg = FilterConfig(min_chars=0, min_links_in=0, min_links_out=0, drop_flags=frozenset())
        arts = [art(text="a", links_in=0, links_out=0, flags={"redirect"}), art()]
        assert filter_articles(arts, cfg) == arts

    def test_min_chars_six_keeps_five_of_ten(self):
        # Lengths 1..10 with min_chars=6: exactly lengths 6..10 survive.
        cfg = FilterConfig(min_chars=6, min_links_in=0, min_links_out=0, drop_flags=frozenset())
        arts = [art(text="x" * n, cid=f"c{n}") for n in range(1, 11)]
        kept = filter_articles(arts, cfg)
        assert [len(a.text) for a in kept] == [6, 7, 8, 9, 10]

    def test_idempotent_and_subsequence(self):
        rng = random.Random(5)
        arts = [
            art(
                text="x" * rng.randrange(0, 1200),
                links_in=rng.randrange(0, 12),
                links_out=rng.randrange(0, 12),
                flags=rng.sample(["disambiguation", "redirect", "catalog"], rng.randrange(0, 3)),
                cid=f"c{i}",
            )
            for i in range(100)
        ]
        cfg = FilterConfig()
        once = filter_articles(arts, cfg)
        assert filter_articles(once, cfg) == once
        it = iter(arts)
        assert all(a in it for a in once)  # subsequence, order preserved

    @pytest.mark.parametrize("field,value", [
        ("drop_flags", {"bogus", "redirect"}), ("min_chars", -1), ("min_links_out", -5),
    ])
    def test_built_config_rejects_a_bad_field_naming_its_dotted_key(self, field, value):
        with pytest.raises(DataError, match=f"'filter.{field}'"):
            FilterConfig(**{field: value})


class TestTokenize:
    def test_case_fold_and_punctuation(self):
        assert tokenize("Apple, apple!") == ["apple", "apple"]

    def test_empty(self):
        assert tokenize("") == []

    def test_no_diacritic_folding(self):
        assert tokenize("naïve naive") == ["naïve", "naive"]

    def test_nfc_normalization_composes(self):
        # Decomposed "naïve" (combining diaeresis) equals the precomposed form.
        assert tokenize("naïve") == tokenize("naïve")

    def test_pure_digits_dropped_mixed_kept(self):
        assert tokenize("2024 was a 3rd year, ½ done") == ["was", "a", "3rd", "year", "done"]

    def test_casefold_eszett(self):
        # Full case folding maps ß to ss, so both spellings meet.
        assert tokenize("STRASSE Straße") == ["strasse", "strasse"]

    def test_stopwords_applied(self, tmp_path):
        sw = tmp_path / "stop.txt"
        sw.write_text("The\nand\n\n", encoding="utf-8")
        stop = load_stopwords(sw)
        assert tokenize("The cat AND dog", stopwords=stop) == ["cat", "dog"]

    def test_join_stability(self):
        rng = random.Random(9)
        pool = "Hello WORLD naïve Äpfel 東京 zażółć x2 3rd ... !!! 42 মাআ"
        for _ in range(200):
            words = [rng.choice(pool.split()) for _ in range(rng.randrange(0, 12))]
            toks = tokenize(" ".join(words))
            assert tokenize(" ".join(toks)) == toks

    def test_deterministic(self):
        text = "Žluťoučký kůň úpěl ďábelské ódy 123 ,,,"
        assert tokenize(text) == tokenize(text)


# Characters where the fast path could plausibly differ from the oracle:
# numeric letters (CJK, Roman numerals), non-decimal numbers, combining
# marks, case-folding expansions, exotic whitespace and separators.
TRICKY = "½²一十万Ⅻⅻ٣३〇𝟘\u0301\u0308ßİﬁΣς \u00a0\u2028\u3000\u200b\t-_.'x3"
unicode_text = st.text(
    alphabet=st.one_of(st.characters(exclude_categories=()), st.sampled_from(TRICKY)),
    max_size=60,
)


class TestTokenizeOracle:
    @settings(max_examples=500)
    @given(unicode_text)
    def test_matches_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)

    @settings(max_examples=300)
    @given(unicode_text, st.data())
    def test_matches_reference_with_stopwords(self, text, data):
        words = sorted(set(reference_tokenize(text)))
        drawn = data.draw(st.sets(st.sampled_from(words))) if words else set()
        stop = frozenset(drawn) | data.draw(st.frozensets(st.text(max_size=3), max_size=3))
        assert tokenize(text, stopwords=stop) == reference_tokenize(text, stopwords=stop)

    def test_unicode_facts_behind_the_fast_path(self):
        # tokenize() relies on these for every code point; a Unicode database
        # that broke one would make it disagree with the reference.
        not_numeric, spaces = [], []
        for cp in range(sys.maxunicode + 1):
            ch = chr(cp)
            major = unicodedata.category(ch)[0]
            if major == "N" and not ch.isnumeric():
                not_numeric.append(hex(cp))
            if major in "LMN" and ch.isspace():
                spaces.append(hex(cp))
        assert not_numeric == [], f"category N but not isnumeric(): {not_numeric[:10]}"
        assert spaces == [], f"letter/mark/number but isspace(): {spaces[:10]}"

    def test_numeric_letters_are_kept(self):
        # 一 is isnumeric() but a letter (Lo), so its token stays; Ⅻ and ½
        # are numbers (Nl, No), so theirs go.
        assert tokenize("一 Ⅻ 二三 ½") == reference_tokenize("一 Ⅻ 二三 ½") == ["一", "二三"]


def reference_read_jsonl(path):
    """_read_jsonl before its scanner fast path: json.loads of each nonblank
    line. The oracle for the fast path's values and errors."""
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
                except (ValueError, RecursionError) as exc:
                    raise CorpusFormatError(f"malformed JSON: {exc}", path, lineno) from exc
                yield lineno, json_field(obj, None, dict, path, lineno)
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                for lineno, line in enumerate(raw, start=1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise CorpusFormatError(f"not UTF-8: {exc}", path, lineno) from exc
            raise


def read_all(reader, path):
    """Every (line number, object) the reader yields, then its error as
    (type, message), if it raises one."""
    out = []
    try:
        for item in reader(path):
            out.append(item)
    except Exception as exc:
        out.append((type(exc), str(exc)))
    return out


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# Lines the scanner alone would read otherwise than json.loads, or not at all.
ODD_LINES = [
    "", " ", "\x0c", "\t", " {}", "{} ", "{}\x0c", "{}\t", "\ufeff{}", "{}{}", '{"a": 1} {"b": 2}',
    '{"a":', '1}', "[" * 40 + "]" * 40, '{"deep": ' + "[" * 5000 + "]" * 5000 + "}",
    '{"big": ' + "7" * 5000 + "}", "NaN", '"text"', "nul", '{"s": "\u2028\x85"}',
]
line_contents = st.one_of(
    st.builds(json.dumps, st.dictionaries(st.text(max_size=4), json_values, max_size=4)),
    st.builds(json.dumps, json_values),
    st.builds(json.dumps, json_values, ensure_ascii=st.booleans(), indent=st.sampled_from([None, 1])),
    st.sampled_from(ODD_LINES),
)
jsonl_files = st.builds(
    lambda bom, lines, last_end, bad: (
        (b"\xef\xbb\xbf" if bom else b"")
        + b"".join(text.encode() + end for text, end in lines)
        + last_end
        + (b"{\"x\": \"\xff\"}\n" if bad else b"")
    ),
    st.booleans(),
    st.lists(st.tuples(line_contents, st.sampled_from([b"\n", b"\r\n", b"\r", b"  \n"])), max_size=8),
    st.sampled_from([b"", b"{}", b"{} ", b"\n"]),
    st.booleans(),
)


class TestReadJsonlOracle:
    """_read_jsonl takes the C scanner's value only where json.loads would
    give the same; everywhere else it reads as the reference, error for error."""

    @settings(max_examples=400)
    @given(jsonl_files)
    @example(b'{"a": 1}\n\n \n\x0c\n{"b": [1, 2]}\r\n{"c": 3}\r{"d": 4}  \n')
    @example(b'\xef\xbb\xbf{"a": 1}\n')
    @example(b'{"a": 1}{"b": 2}\n')
    @example(b'{"a":\n 1}\n')
    @example(b'{"deep": ' + b"[" * 5000 + b"]" * 5000 + b'}\n')
    @example(b'{"big": ' + b"7" * 5000 + b'}\n')
    @example(b'{"a": 1}\n{"b": "\xff"}\n')
    def test_matches_reference(self, tmp_path_factory, content):
        path = tmp_path_factory.getbasetemp() / "oracle.jsonl"
        path.write_bytes(content)
        assert read_all(_read_jsonl, path) == read_all(reference_read_jsonl, path)


def _malformed(tmp_path, text="{\"a\": 1}\n{oops\n"):
    path = tmp_path / "bad.jsonl"
    path.write_text(text, encoding="utf-8")
    return path


# Each loader that pauses the collector, with a call that fails on a malformed input.
PAUSED_LOADERS = {
    "load_json": lambda p: load_json(p),
    "load_support_corpus": load_support_corpus,
    "load_labeled_dataset": load_labeled_dataset,
    "load_ontology": lambda p: load_ontology(SimpleNamespace(
        concepts_path=p, hierarchy_path=p, stopword_paths={})),
    "build_interpreter": lambda p: build_interpreter(
        SupportIndex({"c1", "c2"}, [SupportArticle("c1", "en", text="apple")]), "en", {"c1", "c2"}, 5),
}


class TestPausedCollector:
    @pytest.mark.parametrize("name", PAUSED_LOADERS)
    def test_a_failing_loader_leaves_the_collector_on(self, tmp_path, name):
        assert gc.isenabled()
        with pytest.raises(DataError):
            PAUSED_LOADERS[name](_malformed(tmp_path))
        assert gc.isenabled()

    @pytest.mark.parametrize("name", PAUSED_LOADERS)
    def test_a_disabled_collector_stays_disabled(self, tmp_path, name):
        gc.disable()
        try:
            with pytest.raises(DataError):
                PAUSED_LOADERS[name](_malformed(tmp_path))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_a_loader_pauses_the_collector_while_it_reads(self, tmp_path, monkeypatch):
        seen = []

        def spy(obj, *args):
            seen.append(gc.isenabled())
            return json_field(obj, *args)

        monkeypatch.setattr("xlcat.corpus.json_field", spy)
        path = tmp_path / "d.jsonl"
        save_labeled_dataset([LabeledDocument("d1", "en", "a")], path)
        load_labeled_dataset(path)
        assert seen and not any(seen)
        assert gc.isenabled()
