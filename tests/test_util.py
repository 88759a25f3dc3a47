import json
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xlcat._util import (
    _CHUNK, ARTIFACT_VERSIONS, dump_artifact, dump_json, envelope, json_field, ordered_map,
)
from xlcat.errors import CorpusFormatError


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
