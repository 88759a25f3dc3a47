import json
import os
import re
import signal
import threading
import dataclasses
from contextlib import contextmanager
from pathlib import Path
from types import MappingProxyType
from typing import Dict, FrozenSet, Tuple, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlcat import _util
from xlcat._util import (
    _CHUNK, ARTIFACT_VERSIONS, JsonConfig, block_bounds, cpu_blocks, dump_artifact, dump_json, envelope, forked,
    json_field, ordered_map,
)
from xlcat.corpus import ARTICLE_FLAGS, FilterConfig, LabeledDocument, SupportArticle
from xlcat.errors import CorpusFormatError, DataError, SetupViolation
from xlcat.features import FeatureSpace, document_features, enrich_with_meta, select_features
from xlcat.interpreter import build_interpreter, top_k_features
from xlcat.learner import TrainingError, train
from xlcat.ontology import Hierarchy, SupportIndex
from xlcat.pipeline import ExperimentConfig, Hyperparams, ablation
from xlcat.synth import SyntheticCorpusSpec
from xlcat.virtualdocs import TermCountTable, VirtualDocError, find_ancestor_depth, prominent_terms

from conftest import assert_no_child_left


def reference_dump_artifact(path, kind, fields):
    """The one-call writer dump_artifact replaced; json.dump always takes
    the pure-Python encoder."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(envelope(kind, fields), fh, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


# Non-ASCII, quotes, backslashes and control characters all need care.
strings = st.text(alphabet=st.sampled_from('aé"\\\n\t\x00\x1f ß中🙂 '), max_size=6) | st.text(max_size=4)
scalars = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([-0.0, 0.0, 1e-300, 1e300, 0.1, float("inf")]) | strings
)
values = st.recursive(
    scalars,
    lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(strings, inner, max_size=4)
    ),
    max_leaves=24,
)


class TestDumpArtifact:
    @given(
        st.sampled_from(sorted(ARTIFACT_VERSIONS)),
        st.dictionaries(strings, values | st.dictionaries(strings, values, max_size=5), max_size=5),
    )
    def test_same_bytes_as_json_dump(self, tmp_path_factory, kind, fields):
        tmp = tmp_path_factory.mktemp("dump")
        dump_artifact(tmp / "streamed.json", kind, fields)
        reference_dump_artifact(tmp / "reference.json", kind, fields)
        assert (tmp / "streamed.json").read_bytes() == (tmp / "reference.json").read_bytes()


class TestDumpJson:
    @given(values | st.dictionaries(strings, values | st.dictionaries(strings, values)))
    def test_same_bytes_as_indented_json_dump(self, tmp_path_factory, obj):
        path = tmp_path_factory.mktemp("dump") / "out.json"
        dump_json(obj, path)
        expected = json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("size", [0, 1, 1023, 1024, 1025, 2049])
def test_dict_field_chunk_boundaries(tmp_path, size):
    """dump_artifact encodes a dict-valued field _CHUNK sorted keys at a
    time; at and around chunk boundaries the bytes still equal json.dump's.
    Keys are inserted out of order and some need escaping."""
    assert 1024 % _CHUNK == 0  # so 1024 and 2048 end a chunk
    keys = [f"{'é' if i % 3 else 'a'}\"{(i * 7919) % 10007:05d}" for i in range(size)]
    term_index = {k: [[f"c{i % 5}", i / 7]] for i, k in enumerate(keys)}
    fields = {"language": "l0", "k_term": 3, "term_index": term_index, "z": {"b": 1, "a": 2}}
    dump_artifact(tmp_path / "streamed.json", "interpreter", fields)
    reference_dump_artifact(tmp_path / "reference.json", "interpreter", fields)
    assert (tmp_path / "streamed.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
    assert len(json.loads((tmp_path / "streamed.json").read_text("utf-8"))["term_index"]) == size


@pytest.mark.parametrize("value,of,got", [
    ({"a": [1], "l1w12279": 5, "z": 6, "zz": ["x" * 99]}, list, "got 5 at key 'l1w12279'"),
    ([0.5, 1, "x", None, "y" * 99], float, "got 'x' at index 2"),
])
def test_json_field_quotes_only_the_first_wrong_item(value, of, got):
    with pytest.raises(CorpusFormatError) as info:
        json_field({"f": value}, "f", type(value), "file.json", 1, of=of)
    assert str(info.value).endswith(got)


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_ordered_map_calls_fn_once_per_item_in_order_in_this_thread(workers):
    calls = []

    def fn(x):
        calls.append((x, threading.get_ident()))
        return -x

    items = list(range(40))
    assert ordered_map(fn, items, workers) == [-x for x in items]
    assert calls == [(x, threading.get_ident()) for x in items]


@pytest.mark.parametrize("config", [
    Hyperparams(k_doc=7, m=0, lambda_=0.5),
    FilterConfig(min_chars=0, drop_flags=frozenset({"redirect", "catalog"})),
    SyntheticCorpusSpec(n_concepts=9, noise_rate=0.0, category_layout="interleaved"),
], ids=lambda config: type(config).__name__)
def test_json_config_reads_back_what_it_writes_and_names_an_unknown_key(config):
    cls, written = type(config), config.to_dict()
    assert cls.from_dict(json.loads(json.dumps(written))) == config
    assert list(written) == [f.rstrip("_") for f in cls.__dataclass_fields__]
    with pytest.raises(DataError, match=re.escape(repr(cls._where + "bogus"))):
        cls.from_dict({**written, "bogus": 1})


def _experiment_config(samples):
    return ExperimentConfig(
        setup="CLTC1", source_languages=("en",), target_languages=("en",), samples_per_category_per_language=samples,
        seed=0, corpus_path="c", concepts_path="k", hierarchy_path="h", datasets={"en": {"train": "a", "test": "b"}},
    )


# (build the config with the field set to a value, the name its error quotes)
INTEGER_FIELDS = [
    *[(lambda v, name=name: Hyperparams(**{name: v}), "hyperparams." + name)
      for name in ("k_term", "k_doc", "m", "p", "t", "n_select", "epochs")],
    *[(lambda v, name=name: FilterConfig(**{name: v}), "filter." + name)
      for name in ("min_chars", "min_links_in", "min_links_out")],
    *[(lambda v, name=name: SyntheticCorpusSpec(**{"n_concepts": 12, name: v}), name)
      for name in ("n_concepts", "n_meta_levels", "branching", "vocab_size_per_language", "n_languages",
                   "n_categories", "docs_per_category", "words_per_concept", "support_docs_per_pair",
                   "support_doc_length", "doc_length", "concepts_per_doc", "words_per_group", "background_words")],
    (_experiment_config, "samples_per_category_per_language"),
]


@pytest.mark.parametrize("value", [True, 2.5])
@pytest.mark.parametrize("build,name", INTEGER_FIELDS, ids=[name for _, name in INTEGER_FIELDS])
def test_an_integer_field_built_directly_rejects_a_bool_and_a_float_naming_it(build, name, value):
    build(3)
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        build(value)


# A valid config of each JsonConfig class; the JSON types a field of each
# annotation takes, and a value of another: a bool where a number goes, a
# number where a bool, a string or an array goes, an item of another type
# in an array or object, and no object where a nested config goes. A
# config keeps each object, and each object within one, read-only.
JSON_CONFIGS = [Hyperparams(), FilterConfig(), SyntheticCorpusSpec(n_concepts=12), _experiment_config(1)]
JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,), dict: (MappingProxyType,)}
WRONG_VALUE = {int: True, float: True, bool: 1, str: 1, FrozenSet[str]: [1], Tuple[str, ...]: (1,),
               Tuple[int, ...]: (True,), Dict[str, str]: {"en": 2}, Dict[str, dict]: {"en": 2},
               Hyperparams: None, FilterConfig: None}
JSON_CONFIG_FIELDS = [(config, f.name) for config in JSON_CONFIGS for f in dataclasses.fields(config)]


def json_key(cls, name):
    """The JSON key of field `name` of config class cls, "a.b" being key b of the object a."""
    return cls._json_keys.get(name, name.rstrip("_"))


def json_with(config, name, value):
    """The JSON of config's to_dict with field `name` set to value."""
    written = config.to_dict()
    parent, _, last = json_key(type(config), name).rpartition(".")
    (written[parent] if parent else written)[last] = value
    return json.loads(json.dumps(written))


def holds_its_json_type(value, kind):
    args = get_args(kind)
    if get_origin(kind) in (tuple, frozenset):
        return type(value) is get_origin(kind) and all(type(v) in JSON_TYPES[args[0]] for v in value)
    if get_origin(kind) is dict:
        return type(value) is MappingProxyType and all(type(v) in JSON_TYPES[args[1]] for v in value.values())
    return isinstance(value, kind) if issubclass(kind, JsonConfig) else type(value) in JSON_TYPES[kind]


@pytest.mark.parametrize("config,name", JSON_CONFIG_FIELDS,
                         ids=[f"{type(config).__name__}.{name}" for config, name in JSON_CONFIG_FIELDS])
def test_a_value_of_another_json_type_is_refused_alike_built_and_read(config, name):
    cls = type(config)
    value = WRONG_VALUE[get_type_hints(cls)[name]]
    with pytest.raises(DataError, match=re.escape(repr(cls._where + json_key(cls, name)))) as built:
        dataclasses.replace(config, **{name: value})
    with pytest.raises(DataError) as read:
        cls.from_dict(json_with(config, name, value))
    assert str(built.value) == str(read.value)


@pytest.mark.parametrize("name,value,message", [
    ("corpus_path", 1, "config field 'paths.corpus' must be a JSON string, got 1"),
    ("stopword_paths", {"en": 2}, "config field 'stopwords' must be a JSON object of strings, got 2 at key 'en'"),
    ("setup", 1, "config field 'setup' must be a JSON string, got 1"),
    ("samples_per_category_per_language", True,
     "config field 'samples_per_category_per_language' must be an integer >= 1, got True"),
    ("datasets", {"en": {"train": "a", "tset": "b"}}, "unknown config field 'paths.datasets.en.tset'"),
    ("source_languages", ["en", None], "config field 'source_languages' must be a JSON array of strings, "
                                       "got None at index 1"),
])
def test_an_experiment_config_field_built_directly_fails_as_its_json_does(name, value, message):
    """Each of these used to construct, or to raise a SetupViolation, where
    the JSON is a DataError."""
    cfg = _experiment_config(1)
    with pytest.raises(DataError) as built:
        dataclasses.replace(cfg, **{name: value})
    with pytest.raises(DataError) as read:
        ExperimentConfig.from_dict(json_with(cfg, name, value))
    assert str(built.value) == str(read.value) == message


@pytest.mark.parametrize("name,value,message", [
    ("hyperparams", {"k_doc": 3}, "config field 'hyperparams' must be a Hyperparams object, got {'k_doc': 3}"),
    ("filter", None, "config field 'filter' must be a FilterConfig object, got None"),
])
def test_a_nested_config_built_directly_must_be_its_class(name, value, message):
    """A dict where a Hyperparams goes used to construct, and to_dict then
    raised an AttributeError."""
    with pytest.raises(DataError) as built:
        dataclasses.replace(_experiment_config(1), **{name: value})
    assert str(built.value) == message


def test_an_experiment_config_writes_its_language_lists_sorted():
    cfg = dataclasses.replace(_experiment_config(1), setup="UCLTC", source_languages=["l1", "l0"],
                              target_languages=("l2", "l0"), datasets={lang: {"train": "a", "test": "b"}
                                                                       for lang in ("l0", "l1", "l2")})
    assert cfg.source_languages == ("l1", "l0")
    written = cfg.to_dict()
    assert (written["source_languages"], written["target_languages"]) == (["l0", "l1"], ["l0", "l2"])
    assert ExperimentConfig.from_dict(written) == dataclasses.replace(cfg, source_languages=("l0", "l1"),
                                                                      target_languages=("l0", "l2"))


def test_type_hints_are_read_once_per_config_class(monkeypatch):
    read = []
    monkeypatch.setattr(_util, "get_type_hints", lambda cls, real=get_type_hints: read.append(cls) or real(cls))
    _util._config_fields.cache_clear()
    try:
        for _ in range(3):
            cfg = ExperimentConfig.from_dict(_experiment_config(1).to_dict())
            dataclasses.replace(cfg, virtual_docs=False, hyperparams=dataclasses.replace(cfg.hyperparams, m=0))
            SyntheticCorpusSpec.from_dict({"n_concepts": 3})
    finally:
        _util._config_fields.cache_clear()
    assert sorted(cls.__name__ for cls in read) == ["ExperimentConfig", "FilterConfig", "Hyperparams",
                                                    "SyntheticCorpusSpec"]


@pytest.mark.parametrize("name,built,read,message", [
    ("seed", True, True, "config field 'seed' must be a JSON integer, got True"),
    ("virtual_docs", "no", "no", "config field 'virtual_docs' must be a JSON boolean, got 'no'"),
    ("seeds", (True, 2), [True, 2], "config field 'seeds' must be a JSON array of integers, got True at index 0"),
])
def test_an_experiment_config_refuses_a_seed_or_toggle_of_another_json_type_alike_built_and_read(
    name, built, read, message
):
    cfg = _experiment_config(1)
    with pytest.raises(DataError) as by_constructor:
        dataclasses.replace(cfg, **{name: built})
    with pytest.raises(DataError) as by_reader:
        ExperimentConfig.from_dict({**cfg.to_dict(), name: read})
    assert str(by_constructor.value) == str(by_reader.value) == message


json_values = (st.none() | st.booleans() | st.integers(-2, 60) | st.floats(-1.0, 2.0) | st.text("ab", max_size=2)
               | st.lists(st.sampled_from(sorted(ARTICLE_FLAGS)) | st.integers(0, 1), max_size=2))


@given(st.data())
@pytest.mark.parametrize("config", JSON_CONFIGS, ids=lambda config: type(config).__name__)
def test_a_config_that_constructs_holds_its_json_types_and_reads_back(config, data):
    """Any JSON values for any fields: what constructs is of its JSON types
    and is what from_dict reads from the JSON of its to_dict."""
    hints = get_type_hints(type(config))
    names = [f.name for f in dataclasses.fields(config) if data.draw(st.booleans())]
    changes = {name: data.draw(json_values, name) for name in names}
    try:
        built = dataclasses.replace(config, **changes)
    except (DataError, SetupViolation):
        return
    for f in dataclasses.fields(built):
        assert holds_its_json_type(getattr(built, f.name), hints[f.name]), f.name
    if isinstance(built, ExperimentConfig):  # from_dict resolves each path against ".": "" reads as "."
        built = dataclasses.replace(built, **{name: str(Path(getattr(built, name)))
                                              for name in ("corpus_path", "concepts_path", "hierarchy_path")})
    assert type(config).from_dict(json.loads(json.dumps(built.to_dict()))) == built


@given(json_values, json_values, st.lists(json_values, max_size=3) | json_values)
def test_an_experiment_config_that_constructs_holds_a_json_seed_toggle_and_seeds_and_reads_back(
    seed, virtual_docs, seeds
):
    try:
        cfg = dataclasses.replace(_experiment_config(1), seed=seed, virtual_docs=virtual_docs, seeds=seeds)
    except DataError:
        return
    assert type(cfg.seed) is int and type(cfg.virtual_docs) is bool
    assert type(cfg.seeds) is tuple and all(type(s) is int for s in cfg.seeds)
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@pytest.mark.parametrize("cpus,n,bounds", [
    (1, 7, [0, 7]), (3, 7, [0, 3, 5, 7]), (3, 2, [0, 1, 2]), (3, 0, [0, 0]), (2, 1, [0, 1]),
])
def test_cpu_blocks_are_one_per_usable_cpu_and_no_more_than_the_items(monkeypatch, cpus, n, bounds):
    monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
    assert cpu_blocks(n) == bounds


def test_cpu_blocks_are_one_beside_another_thread(monkeypatch, another_thread):
    monkeypatch.setattr(_util, "_usable_cpus", lambda: 4)
    assert cpu_blocks(8) == [0, 8]


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in this process once `seconds` pass, also within a
    blocking wait, so that a hang fails the test."""

    def expire(signum, frame):
        raise TimeoutError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def open_fds():
    """The descriptors this process holds open, where /proc shows them."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count descriptors in")
    return sorted(os.listdir("/proc/self/fd"))


BIG = 2**20 + 1  # larger than a pipe buffer


@given(st.integers(0, 300), st.integers(1, 40))
def test_block_bounds_cover_the_range_in_blocks_within_one_larger_first(n, blocks):
    bounds = block_bounds(n, blocks)
    sizes = [j - i for i, j in zip(bounds, bounds[1:])]
    assert bounds[0] == 0 and bounds[-1] == n and len(sizes) == blocks
    assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1 and sizes[-1] >= 0


@pytest.mark.parametrize("cpus", [1, 2])
def test_forked_gives_each_value_in_task_order(monkeypatch, forks, cpus):
    monkeypatch.setattr(_util, "_usable_cpus", lambda: cpus)
    events = []

    def pid():
        events.append("task")
        return os.getpid()

    with time_limit(30), forked([pid, lambda: "x" * BIG, lambda: None]) as results:
        events.append("body")
        assert results == []
    first, *rest = results
    assert rest == ["x" * BIG, None]
    assert (first == os.getpid()) == (cpus == 1)
    assert events == (["body", "task"] if cpus == 1 else ["body"])  # one worker: after the body
    assert len(forks) == 3 * (cpus - 1)
    assert_no_child_left()


def test_a_task_that_fails_in_its_child_runs_again_here(monkeypatch, forks):
    monkeypatch.setattr(_util, "_usable_cpus", lambda: 2)
    parent, ran_here = os.getpid(), []

    def fails_in_a_child():
        if os.getpid() != parent:
            raise OSError("child")
        ran_here.append("fails_in_a_child")
        return "value"

    def fails_everywhere():
        ran_here.append("fails_everywhere")
        raise ValueError(f"failed in {os.getpid()}")

    with forked([fails_in_a_child, lambda: "y" * BIG]) as results:
        pass
    assert results == ["value", "y" * BIG]
    with pytest.raises(ValueError, match=f"failed in {parent}$"):
        with forked([fails_everywhere]):
            pass
    assert ran_here == ["fails_in_a_child", "fails_everywhere"]
    assert len(forks) == 3
    assert_no_child_left()


def test_a_body_error_leaves_no_child_and_no_descriptor(monkeypatch, forks):
    """The child blocks writing a value larger than its pipe until the
    parent closes the read end unread."""
    monkeypatch.setattr(_util, "_usable_cpus", lambda: 2)
    before = open_fds()
    with pytest.raises(RuntimeError, match="body failed"), time_limit(30):
        with forked([lambda: "z" * BIG]):
            raise RuntimeError("body failed")
    assert len(forks) == 1
    assert_no_child_left()
    assert open_fds() == before


_H = Hierarchy([("M", "C")], basic={"C", "D"}, meta={"M"})
_ARTICLE = SupportArticle("C", "en", text="apple pear")
_IDX = SupportIndex({"C", "D"}, [_ARTICLE, SupportArticle("D", "en", text="plum")])
_SI = build_interpreter(_IDX, "en", {"C", "D"}, k_term=5)
_DOC = LabeledDocument("d", "en", "apple")

# (the name its error quotes, the least value, the error, a call with the value)
INTEGER_ARGUMENTS = [
    ("n", 1, ValueError, lambda n: select_features(FeatureSpace(["C"]), [frozenset({0})], ["x"], n)),
    ("k_term", 1, ValueError, lambda k: build_interpreter(_IDX, "en", {"C"}, k)),
    ("k_doc", 1, ValueError, lambda k: top_k_features({"C": 1.0}, k)),
    ("k_doc", 1, ValueError, lambda k: document_features(_DOC, {"en": _SI}, _H, k, 1)),
    ("m", 0, ValueError, lambda m: document_features(_DOC, {"en": _SI}, _H, 1, m)),
    ("m", 0, ValueError, lambda m: enrich_with_meta(_H, frozenset({"C"}), m)),
    ("depth", 0, ValueError, lambda depth: _H.ancestors_within("C", depth)),
    ("p", 1, ValueError, lambda p: find_ancestor_depth(_H, _IDX, "C", "fr", p)),
    ("t", 1, ValueError, lambda t: prominent_terms(_IDX, {_ARTICLE: 1}, t)),
    ("a term count", 1, VirtualDocError, lambda n: TermCountTable("C", "fr", {"apple": n})),
    ("links_in", 0, DataError, lambda n: SupportArticle("C", "en", links_in=n)),
    ("links_out", 0, DataError, lambda n: SupportArticle("C", "en", links_out=n)),
    ("n_blocks", 1, DataError, lambda n: ablation(_experiment_config(1), "virtual_docs", n_blocks=n)),
    ("epochs", 1, TrainingError, lambda n: train([frozenset()], ["x"], ["x"], 1, epochs=n)),
    ("n_features", 0, TrainingError, lambda n: train([frozenset()], ["x"], ["x"], n)),
]


@pytest.mark.parametrize("name,low,error,call", INTEGER_ARGUMENTS,
                         ids=[f"{i}-{name}" for i, (name, *_) in enumerate(INTEGER_ARGUMENTS)])
@pytest.mark.parametrize("value", ["below", 2.0, True, "2"])
def test_every_integer_argument_takes_the_one_rule(name, low, error, call, value):
    """A float or a bool used to run as an integer, or to end in a traceback
    such as "slice indices must be integers"."""
    value = low - 1 if value == "below" else value
    with pytest.raises(error) as raised:
        call(value)
    assert str(raised.value) == f"{name} must be an integer >= {low}, got {value!r}"
