import json
import os
import re
import signal
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlcat import _util
from xlcat._util import (
    _CHUNK, ARTIFACT_VERSIONS, block_bounds, cpu_blocks, dump_artifact, dump_json, envelope, forked, json_field,
    ordered_map,
)
from xlcat.corpus import FilterConfig
from xlcat.errors import CorpusFormatError, DataError
from xlcat.pipeline import ExperimentConfig, Hyperparams
from xlcat.synth import SyntheticCorpusSpec

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
