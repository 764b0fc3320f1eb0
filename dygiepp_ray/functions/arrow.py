"""Bulk Arrow → Python conversion for the extraction hot path.

`Array.to_pylist()` boxes every element through an Arrow scalar, about
1.2 µs per token; NumPy's `to_numpy(zero_copy_only=False).tolist()` over
the same leaf values costs about a tenth of that. `pylist` converts each
leaf buffer once that way and rebuilds the nesting by slicing Python lists
at offsets held as Python ints. Its output equals `to_pylist()` exactly,
including slice offsets, chunk boundaries and nulls at every level
(pinned by tests/test_arrow_convert.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def pylist(col: pa.Array | pa.ChunkedArray) -> list:
    """`col.to_pylist()` for a column of strings, numbers or bools, and of
    lists and structs of those, built from bulk leaf conversions."""
    if isinstance(col, pa.ChunkedArray):
        out: list = []
        for chunk in col.chunks:
            out += _array(chunk)
        return out
    return _array(col)


def _array(arr: pa.Array) -> list:
    typ = arr.type
    if pa.types.is_list(typ) or pa.types.is_large_list(typ):
        offsets = arr.offsets.to_numpy()  # this slice's len + 1 offsets
        base = int(offsets[0])
        values = _array(arr.values.slice(base, int(offsets[-1]) - base))
        bounds = (offsets - base).tolist()
        out = [values[a:b] for a, b in zip(bounds, bounds[1:])]
    elif pa.types.is_struct(typ):
        names = [typ.field(i).name for i in range(typ.num_fields)]
        fields = [_array(arr.field(i)) for i in range(typ.num_fields)]
        out = [dict(zip(names, row)) for row in zip(*fields)]
    elif pa.types.is_string(typ) or pa.types.is_large_string(typ):
        out = arr.to_numpy(zero_copy_only=False).tolist()  # nulls → None
    elif (pa.types.is_integer(typ) or pa.types.is_floating(typ)
          or pa.types.is_boolean(typ)):
        # NumPy has no null int: fill so ints stay ints, re-null below
        fill = False if pa.types.is_boolean(typ) else 0
        leaf = arr.fill_null(fill) if arr.null_count else arr
        out = leaf.to_numpy(zero_copy_only=False).tolist()
    else:
        raise TypeError(f"pylist: unsupported Arrow type {typ}")
    if arr.null_count:
        for i in np.flatnonzero(arr.is_null().to_numpy(zero_copy_only=False)).tolist():
            out[i] = None
    return out
