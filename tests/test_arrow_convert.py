"""`functions.arrow.pylist` equals `to_pylist()` on every column shape the
extraction path converts, and the hot path never calls `to_pylist()`."""

import inspect

import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dygiepp_ray.functions.arrow import pylist
from dygiepp_ray.pipelines import kg
from dygiepp_ray.schema import PREDICTED_COLUMNS
from dygiepp_ray.stages.kernel import ExtractionKernel
from dygiepp_ray.stages.triples import FlattenTriples, flatten_ner_mentions

_TYPES = [
    pa.string(),
    pa.large_string(),
    pa.int32(),
    pa.float32(),
    pa.bool_(),
    pa.list_(pa.string()),
    pa.large_list(pa.large_string()),
    pa.list_(pa.list_(pa.string())),
    pa.list_(pa.list_(pa.large_string())),
    PREDICTED_COLUMNS.field("predicted_relations").type,
    pa.list_(pa.list_(pa.struct([("start", pa.int32()), ("end", pa.int32())]))),
]


def _values(typ: pa.DataType):
    """Python values of `typ`, nulls included at every level."""
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        leaf = st.text(max_size=5)  # any Unicode, not only ASCII
    elif pa.types.is_integer(typ):
        leaf = st.integers(-2**31, 2**31 - 1)
    elif pa.types.is_floating(typ):
        leaf = st.floats(width=32, allow_nan=False)
    elif pa.types.is_boolean(typ):
        leaf = st.booleans()
    elif pa.types.is_struct(typ):
        leaf = st.fixed_dictionaries({f.name: _values(f.type) for f in typ})
    else:
        leaf = st.lists(_values(typ.value_type), max_size=4)
    return st.none() | leaf


@st.composite
def _columns(draw):
    """An Array or ChunkedArray of one of `_TYPES`: sliced at a non-zero
    offset, split into chunks at drawn points with empty chunks between."""
    typ = draw(st.sampled_from(_TYPES))
    arr = pa.array(draw(st.lists(_values(typ), max_size=12)), typ)
    start = draw(st.integers(0, len(arr)))
    arr = arr.slice(start, draw(st.integers(0, len(arr) - start)))
    if draw(st.booleans()):
        return arr
    cuts = sorted(draw(st.lists(st.integers(0, len(arr)), max_size=3)))
    bounds = [0, *cuts, len(arr)]
    chunks = []
    for a, b in zip(bounds, bounds[1:]):
        chunks.append(arr.slice(a, b - a))
        if draw(st.booleans()):
            chunks.append(arr.slice(0, 0))
    return pa.chunked_array(chunks, typ)


@settings(max_examples=300, deadline=None)
@given(_columns())
def test_pylist_equals_to_pylist(col):
    assert pylist(col) == col.to_pylist()


def _nested_with_sliced_children():
    """list<list<string>> whose inner list array and string leaves are
    themselves slices, with null list slots that still span values."""
    leaves = pa.array(["x", "ä", "b", "ç", None, "", "d", "e", "f", "g"],
                      pa.large_string()).slice(1)  # offset at the leaves
    inner = pa.ListArray.from_arrays(
        pa.array([0, 2, 2, 5, 6, 9], pa.int32()), leaves,
        mask=pa.array([False, False, True, False, False]))
    inner = inner.slice(1)  # offset at the inner list level
    outer = pa.ListArray.from_arrays(
        pa.array([0, 1, 3, 4], pa.int32()), inner,
        mask=pa.array([False, True, False]))
    return outer.slice(1)  # offset at the outer list level


@pytest.mark.parametrize("col", [
    pa.array(["Grüße", "日本語", None, ""]).slice(1),
    pa.array(["a", None, "ü"], pa.large_string()),
    pa.array([[["a", "b"], None, []], None, [], [[None, "ß"]]]).slice(1, 3),
    pa.chunked_array([pa.array([["a"], None]), pa.array([], pa.list_(pa.string())),
                      pa.array([[], ["b", None]]).slice(1)]),
    pa.chunked_array([], pa.list_(pa.list_(pa.string()))),
    pa.array([{"start": 1, "end": None}, None, {"start": 3, "end": 4}],
             pa.struct([("start", pa.int32()), ("end", pa.int32())])).slice(1),
    _nested_with_sliced_children(),
    pa.chunked_array([_nested_with_sliced_children(),
                      _nested_with_sliced_children().slice(1)]),
], ids=["non_ascii_sliced", "large_string", "nested_sliced",
        "chunks_with_empty", "no_chunks", "struct_sliced",
        "sliced_children", "sliced_children_chunks"])
def test_pylist_edge_cases(col):
    assert pylist(col) == col.to_pylist()


_HOT_PATH = [kg._arrow_fast_sentences, kg._prep_docs,
             kg.ExtractToTriples.__call__, ExtractionKernel.__call__,
             FlattenTriples.__call__, flatten_ner_mentions]


@pytest.mark.parametrize("fn", _HOT_PATH, ids=lambda f: f.__qualname__)
def test_hot_path_does_not_call_to_pylist(fn):
    """The extraction hot path converts Arrow columns with `pylist`; a
    per-element `.to_pylist()` here costs ~10x on token columns."""
    assert ".to_pylist(" not in inspect.getsource(fn)
