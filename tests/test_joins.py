"""Join operators and the keyed-bucket group-apply vs pandas oracles."""

import numpy as np
import pandas as pd
import pytest

import ray.data

from dygiepp_ray import joins
from dygiepp_ray.joins import (asof_join, broadcast_lookup, bucket_groups,
                               chunk_pairs, hash_join, interval_join,
                               skew_join, zip_join_assert)


@pytest.fixture(scope="module")
def tables():
    rng = np.random.RandomState(5)
    left = pd.DataFrame({
        "k": rng.randint(0, 50, size=400),
        "lv": rng.randint(0, 1000, size=400),
    })
    right = pd.DataFrame({
        "k": np.arange(60),
        "rv": [f"v{i}" for i in range(60)],
    })
    return left, right


def test_hash_join_inner(tables):
    left, right = tables
    got = hash_join(ray.data.from_pandas(left), ray.data.from_pandas(right),
                    on="k", n_buckets=8).to_pandas()
    want = left.merge(right, on="k", how="inner")
    got_s = got.sort_values(["k", "lv"]).reset_index(drop=True)[["k", "lv", "rv"]]
    want_s = want.sort_values(["k", "lv"]).reset_index(drop=True)[["k", "lv", "rv"]]
    pd.testing.assert_frame_equal(got_s, want_s)


def test_hash_join_left(tables):
    left, right = tables
    right_small = right[right["k"] < 10]
    got = hash_join(ray.data.from_pandas(left), ray.data.from_pandas(right_small),
                    on="k", n_buckets=4, how="left").to_pandas()
    want = left.merge(right_small, on="k", how="left")
    assert len(got) == len(want)
    assert got["rv"].notna().sum() == want["rv"].notna().sum()


def test_hash_join_full_outer(tables):
    left, right = tables
    # left keys 0..49 (some), right keys 0..59 — right-only keys exercise
    # the unmatched-right path; drop left keys < 5 for unmatched-left too
    left2 = left[left["k"] >= 5]
    got = hash_join(ray.data.from_pandas(left2), ray.data.from_pandas(right),
                    on="k", n_buckets=8, how="outer").to_pandas()
    want = left2.merge(right, on="k", how="outer")
    assert len(got) == len(want)
    assert int(got["lv"].isna().sum()) == int(want["lv"].isna().sum())
    assert int(got["rv"].isna().sum()) == int(want["rv"].isna().sum())
    got_s = got.sort_values(["k", "lv"], na_position="last").reset_index(drop=True)
    want_s = want.sort_values(["k", "lv"], na_position="last").reset_index(drop=True)
    pd.testing.assert_frame_equal(got_s[["k", "lv", "rv"]],
                                  want_s[["k", "lv", "rv"]],
                                  check_dtype=False)


def test_hash_join_string_key():
    l = pd.DataFrame({"k": ["a", "b", "c", "a"], "x": [1, 2, 3, 4]})
    r = pd.DataFrame({"k": ["a", "c"], "y": [10, 30]})
    got = hash_join(ray.data.from_pandas(l), ray.data.from_pandas(r),
                    on="k", n_buckets=3).to_pandas()
    want = l.merge(r, on="k")
    assert sorted(zip(got["k"], got["x"], got["y"])) == sorted(zip(want["k"], want["x"], want["y"]))


@pytest.mark.parametrize("how", ["inner", "left", "outer"])
def test_hash_join_column_list_keys(how):
    """`on` as a list [int col, str col] joins like `pandas.merge` on the
    same list, although an upstream pandas filter leaves 9 of the 10 input
    blocks of each side empty; the int key column stays int64. The string
    column holds separator-like values ("a|b"), which a concatenated key
    column would merge with other keys."""
    rng = np.random.RandomState(11)
    strs = np.array(["a", "b", "a|b", "b|", "|b", ""], dtype=object)

    def frame(n, val):
        return pd.DataFrame({"n": rng.randint(0, 4, n).astype(np.int64),
                             "s": strs[rng.randint(0, len(strs), n)],
                             val: [f"{val}{i}" for i in range(n)],
                             "blk": np.arange(n) % 10})

    left, right = frame(1000, "lv"), frame(300, "rv")

    def one_block(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["blk"] == 3].drop(columns=["blk"])

    def ds_of(df: pd.DataFrame) -> "ray.data.Dataset":
        parts = [df[df["blk"] == b] for b in range(10)]
        return ray.data.from_pandas(parts).map_batches(
            one_block, batch_format="pandas")

    got = hash_join(ds_of(left), ds_of(right), on=["n", "s"], n_buckets=4,
                    how=how).to_pandas()
    want = one_block(left).merge(one_block(right), on=["n", "s"], how=how)
    assert len(want) > 20
    if how != "inner":
        assert want["rv" if how == "left" else "lv"].isna().any()
    assert str(got["n"].dtype) == "int64"
    cols = ["n", "s", "lv", "rv"]
    order = ["n", "s", "lv", "rv"]
    got_s = got[cols].sort_values(order, na_position="last").reset_index(drop=True)
    want_s = want[cols].sort_values(order, na_position="last").reset_index(drop=True)
    pd.testing.assert_frame_equal(got_s.fillna("·"), want_s.fillna("·"),
                                  check_dtype=False)


def test_shuffle_primitives_own_schema_metadata_hygiene(caplog):
    """Blocks carrying pandas' b'pandas' schema metadata go through
    `hash_join`, `bucket_groups`, `grouped_count` and `partial_final_agg`
    without Ray's "Failed to hash the schemas" warning: the primitives drop
    the metadata before their shuffle, so callers need not strip it. A
    native groupby on the same input shows the warning does fire."""
    import logging

    import pyarrow as pa

    from dygiepp_ray.aggregates import grouped_count, partial_final_agg

    tabs = [pa.Table.from_pandas(pd.DataFrame({
        "k": np.arange(i * 5, i * 5 + 5) % 7,
        "s": [f"s{j % 3}" for j in range(5)],
        "v": np.arange(5) + i})) for i in range(4)]
    assert all(b"pandas" in t.schema.metadata for t in tabs)
    ds = ray.data.from_arrow(tabs)
    right = ray.data.from_arrow([pa.Table.from_pandas(
        pd.DataFrame({"k": np.arange(7), "w": np.arange(7) * 2}))])

    # Ray's data loggers do not propagate to the root logger caplog watches
    logger = logging.getLogger("ray.data._internal.arrow_ops.transform_pyarrow")
    logger.addHandler(caplog.handler)
    try:
        def warned(run) -> bool:
            caplog.clear()
            run()
            return any("Failed to hash the schemas" in r.getMessage()
                       for r in caplog.records)

        assert warned(lambda: ds.groupby("k").count().take_all())
        assert not warned(lambda: hash_join(ds, right, on="k",
                                            n_buckets=4).take_all())
        assert not warned(lambda: bucket_groups(
            ds, ["k", "s"], 4, lambda df: df).take_all())
        assert not warned(lambda: grouped_count(ds, ["k"]).take_all())
        assert not warned(lambda: partial_final_agg(
            ds, ["k"], [("n", None, "count")]).take_all())
    finally:
        logger.removeHandler(caplog.handler)


def test_hash_join_bucket_post_aggregate(tables):
    # aggregate-pushdown: per-bucket reduction inside the join task sums to
    # the same totals as aggregating the full joined rows
    left, right = tables
    got = hash_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right),
        on="k", n_buckets=8,
        bucket_post=lambda df: df.groupby("rv", as_index=False).agg(
            n=("lv", "size"), s=("lv", "sum")),
    ).to_pandas().groupby("rv", as_index=False)[["n", "s"]].sum()
    want = (left.merge(right, on="k", how="inner")
            .groupby("rv", as_index=False).agg(n=("lv", "size"), s=("lv", "sum")))
    pd.testing.assert_frame_equal(
        got.sort_values("rv").reset_index(drop=True),
        want.sort_values("rv").reset_index(drop=True), check_dtype=False)


def test_broadcast_lookup(tables):
    left, right = tables
    got = broadcast_lookup(ray.data.from_pandas(left), right, "k", ["rv"]).to_pandas()
    want = left.merge(right, on="k", how="left")
    assert got["rv"].fillna("·").tolist() == want["rv"].fillna("·").tolist()


def test_zip_join_assert_raises_on_dup():
    a = ray.data.from_items([{"doc_key": "d1", "x": 1}])
    b = ray.data.from_items([{"doc_key": "d1", "y": 1}, {"doc_key": "d1", "y": 2}])
    with pytest.raises(Exception):
        zip_join_assert(a, b, "doc_key", ["y"]).to_pandas()


def test_zip_join_assert_keeps_int_dtypes():
    a = pd.DataFrame({"k": np.arange(20), "x": np.arange(20) * 3})
    b = pd.DataFrame({"k": np.arange(20)[::-1].copy(), "y": np.arange(20)})
    got = zip_join_assert(ray.data.from_pandas(a), ray.data.from_pandas(b),
                          "k", ["y"]).to_pandas()
    assert {c: str(got[c].dtype) for c in ("x", "y")} == {"x": "int64", "y": "int64"}
    pd.testing.assert_frame_equal(
        got.sort_values("k").reset_index(drop=True)[["k", "x", "y"]],
        a.merge(b, on="k").sort_values("k").reset_index(drop=True))


@pytest.mark.parametrize("join", ["hash", "asof", "interval", "skew"])
def test_per_bucket_frame_keeps_int_and_bool_dtypes(join):
    """Each side's int64/bool columns reach the per-bucket frame with their
    own dtypes, although the other side is padded with nulls for them."""

    def _dtype_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"col": list(df.columns),
                             "dtype": [str(t) for t in df.dtypes]})

    n = 200
    left = pd.DataFrame({"k": np.arange(n) % 10, "lts": np.arange(n) * 10 + 5,
                         "li": np.arange(n), "lb": np.arange(n) % 3 == 0})
    right = pd.DataFrame({"k": np.arange(10), "rts": np.zeros(10, np.int64),
                          "rend": np.full(10, 2000), "ri": np.arange(10) * 7,
                          "rb": np.arange(10) % 2 == 0})
    # nine of the ten right blocks come out of the pandas filter EMPTY: empty
    # blocks skip every UDF and reach the shuffle as pandas blocks, which
    # makes its merge run in pandas
    filler = pd.concat([right.assign(k=right["k"] + 1000)] * 9, ignore_index=True)
    lds = ray.data.from_pandas(left)
    rds = ray.data.from_pandas(pd.concat([right, filler], ignore_index=True)) \
        .repartition(10).map_batches(lambda df: df[df["k"] < 1000],
                                     batch_format="pandas")
    if join == "hash":
        seen = hash_join(lds, rds, "k", n_buckets=4, left_cols=["li", "lb"],
                         right_cols=["ri", "rb"], bucket_post=_dtype_rows)
    elif join == "interval":
        seen = interval_join(lds, rds, "k", "lts", "rts", "rend", ["li", "lb"],
                             ["ri", "rb"], bucket_width=500, n_buckets=4,
                             post_filter=_dtype_rows)
    elif join == "asof":
        seen = asof_join(lds, rds, "k", "lts", "rts", ["li", "lb"],
                         ["ri", "rb"], n_buckets=4).map_batches(
            _dtype_rows, batch_format="pandas")
    else:
        seen = skew_join(lds.select_columns(["k", "li", "lb"]),
                         rds.select_columns(["k", "ri", "rb"]), "k",
                         n_buckets=4, hot_keys=[0]).map_batches(
            _dtype_rows, batch_format="pandas")
    got = seen.to_pandas().drop_duplicates()
    got = got[got["col"].isin(["li", "lb", "ri", "rb"])]
    assert dict(zip(got["col"], got["dtype"])) == {
        "li": "int64", "lb": "bool", "ri": "int64", "rb": "bool"}
    assert len(got) == 4  # one dtype per column in every bucket


def test_skew_join_matches_hash_join():
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data
    from dygiepp_ray.joins import hash_join, skew_join

    rng = np.random.default_rng(11)
    # key 0 holds ~40% of left rows (hot); others uniform over 1..49
    keys = np.where(rng.random(3000) < 0.4, 0,
                    rng.integers(1, 50, 3000)).astype("int64")
    left = pd.DataFrame({"k": keys, "lv": np.arange(3000, dtype="int64")})
    right = pd.DataFrame({"k": np.arange(0, 50, dtype="int64"),
                          "rv": np.arange(100, 150, dtype="int64")})
    lds = ray.data.from_pandas(left).repartition(6)
    rds = ray.data.from_pandas(right).repartition(2)
    t = {"k": pa.int64(), "lv": pa.int64()}
    rt = {"k": pa.int64(), "rv": pa.int64()}

    got = (
        skew_join(lds, rds, "k", hot_threshold=500, left_types=t,
                  right_types=rt)
        .to_pandas()
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    exp = (
        hash_join(lds, rds, "k", left_types=t, right_types=rt)
        .to_pandas()[got.columns]
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert (got["k"] == 0).sum() > 1000  # the hot key really is hot


def test_skew_join_no_hot_keys_falls_back():
    import pandas as pd
    import pyarrow as pa

    import ray.data
    from dygiepp_ray.joins import skew_join

    left = pd.DataFrame({"k": [1, 2, 3], "lv": [10, 20, 30]})
    right = pd.DataFrame({"k": [2, 3, 4], "rv": [7, 8, 9]})
    got = skew_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right), "k",
        hot_threshold=100,
        left_types={"k": pa.int64(), "lv": pa.int64()},
        right_types={"k": pa.int64(), "rv": pa.int64()},
    ).to_pandas().sort_values("k").reset_index(drop=True)
    assert got["k"].tolist() == [2, 3]
    assert got["rv"].tolist() == [7, 8]


def test_skew_join_hot_keys_supplied_and_multirow_right():
    """Caller-supplied hot_keys skip the histogram pass; a hot key with
    SEVERAL right rows must still produce each (left, right) pair exactly
    once despite the replication."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    import ray.data
    from dygiepp_ray.joins import hash_join, skew_join

    rng = np.random.default_rng(5)
    keys = np.where(rng.random(2000) < 0.5, 7,
                    rng.integers(0, 20, 2000)).astype("int64")
    left = pd.DataFrame({"k": keys, "lv": np.arange(2000, dtype="int64")})
    # hot key 7 has 3 right rows; others 1
    right = pd.DataFrame({"k": np.r_[np.arange(20), 7, 7].astype("int64"),
                          "rv": np.arange(22, dtype="int64")})
    lds = ray.data.from_pandas(left).repartition(5)
    rds = ray.data.from_pandas(right).repartition(2)
    t = {"k": pa.int64(), "lv": pa.int64()}
    rt = {"k": pa.int64(), "rv": pa.int64()}
    got = (skew_join(lds, rds, "k", left_types=t, right_types=rt,
                     hot_keys=[7])
           .to_pandas().sort_values(["k", "lv", "rv"]).reset_index(drop=True))
    exp = (hash_join(lds, rds, "k", left_types=t, right_types=rt)
           .to_pandas()[got.columns]
           .sort_values(["k", "lv", "rv"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert (got["k"] == 7).sum() == (keys == 7).sum() * 3


def _per_call_sums(keys: list[str]):
    """A `bucket_groups` fn: one row per key it sees, flagged with whether
    the frame carried `_bucket`."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(keys, dropna=False, as_index=False).agg(
            v=("v", "sum"), n=("v", "size"))
        out["saw_bucket"] = "_bucket" in df.columns
        for k in keys:  # null int keys come out float; one dtype for all
            if out[k].dtype.kind in "if":
                out[k] = out[k].astype("Int64")
        return out

    return fn


def _check_bucket_groups(ds, keys: list[str], frames: list[pd.DataFrame]):
    got = bucket_groups(ds, keys, 4, _per_call_sums(keys)).to_pandas()
    assert not got["saw_bucket"].any()
    # a key that reached two fn calls would come out once per call
    assert not got.duplicated(keys).any()
    ref = pd.concat(frames, ignore_index=True)
    for k in keys:
        if ref[k].dtype.kind in "if":
            ref[k] = ref[k].astype("Int64")
    exp = ref.groupby(keys, dropna=False, as_index=False).agg(
        v=("v", "sum"), n=("v", "size"))
    got = got[[*keys, "v", "n"]].sort_values(keys).reset_index(drop=True)
    exp = exp.sort_values(keys).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_bucket_groups_int32_and_int64_blocks_of_one_key():
    """A negative key hashes differently as int32 and as int64 in pandas;
    the stamp casts first, so both copies reach one call."""
    keys = np.r_[np.arange(-40, 0), -7, -7]
    a = pd.DataFrame({"k": keys.astype("int32"), "v": np.arange(42)})
    b = pd.DataFrame({"k": keys.astype("int64"), "v": np.arange(42) * 10})
    ds = ray.data.from_pandas(a).union(ray.data.from_pandas(b))
    _check_bucket_groups(ds, ["k"], [a, b])


def test_bucket_groups_int_key_with_nulls_in_some_blocks():
    frames = [pd.DataFrame({"k": pd.array([1, 2, None, 3, None], "Int64"),
                            "v": np.arange(5)}),
              pd.DataFrame({"k": pd.array([1, 2, 3, 4], "Int64"),
                            "v": np.arange(4) * 10}),
              pd.DataFrame({"k": pd.array([4, 5], "Int64"), "v": [7, 8]})]
    _check_bucket_groups(ray.data.from_pandas(frames), ["k"], frames)


def test_bucket_groups_multi_column_key():
    rng = np.random.default_rng(3)
    frames = [pd.DataFrame({"a": rng.choice(["x", "y", "z"], 300),
                            "b": rng.integers(0, 20, 300),
                            "v": rng.integers(0, 100, 300)})
              for _ in range(3)]
    _check_bucket_groups(ray.data.from_pandas(frames), ["a", "b"], frames)


def test_bucket_groups_empty_input():
    """No rows, so no key and no `fn` call: the output is empty, as is the
    pandas reference — both for an empty input and for one whose every
    block an upstream filter emptied."""
    empty = pd.DataFrame({"k": pd.Series(dtype="int64"),
                          "v": pd.Series(dtype="int64")})
    filtered = ray.data.from_pandas(
        pd.DataFrame({"k": np.arange(40), "v": np.arange(40)})).repartition(
        4).filter(lambda r: r["k"] < 0)
    for ds in (ray.data.from_pandas(empty), filtered):
        got = bucket_groups(ds, ["k"], 4, _per_call_sums(["k"])).to_pandas()
        assert len(got) == 0
    assert len(empty.groupby("k").size()) == 0


def test_chunk_pairs_matches_dense_compare_across_chunks(monkeypatch):
    """With the chunk bound shrunk, a 50-row self group and a 50 × 23 cross
    group each span several chunks whose size does not divide the row
    count; the pairs found equal a dense all-pairs compare."""
    rng = np.random.RandomState(3)
    a = rng.randint(0, 3, size=(50, 4)).astype(np.int64)
    b = rng.randint(0, 3, size=(23, 4)).astype(np.int64)
    # row width 32 B: self chunk 11_300 // (50 * 32) = 7 rows (8 chunks),
    # cross chunk 11_300 // (23 * 32) = 15 rows (4 chunks)
    monkeypatch.setattr(joins, "PAIR_CHUNK_BYTES", 11_300)
    calls = []

    def score(x, y):
        calls.append(len(x))
        return (x[:, None, :] == y[None, :, :]).sum(axis=2)

    def keep(s):
        return s >= 2

    def dense(x, y, upper):
        s = score(x, y)
        return {(i, j, int(s[i, j])) for i in range(len(x))
                for j in range(len(y)) if keep(s[i, j]) and (j > i or not upper)}

    for x, y, chunk in ((a, None, 7), (a, b, 15)):
        calls.clear()
        i, j, s = chunk_pairs(x, y, score, keep)
        assert calls == [chunk] * (50 // chunk) + [50 % chunk]
        got = set(zip(i.tolist(), j.tolist(), s.tolist()))
        assert len(got) == len(i)
        want = dense(x, a if y is None else y, y is None)
        assert got == want and len(want) > 20


def test_one_sided_bucket_shuffles_use_bucket_groups():
    """Keyed coarse-bucket shuffles stamp through `joins._key_buckets`, the
    stamp of `bucket_groups` and of the two-sided joins: no engine module
    hand-rolls a per-row `zlib.crc32` bucket loop, and `hash_pandas_object`
    is called only by that helper and by DSIR's feature hashing
    (`oracle.py` is independent of the engine by design). The LSH pair
    stages share one primitive: the chunk bound (`32 << 20`) and the
    singleton prefilter (`duplicated(keep=False)`) appear once each, in
    `joins.py`'s candidate-pair code, and only `joins.py` groups on
    `_bucket`."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    pkg = root / "dygiepp_ray"
    sources = [p for p in sorted(pkg.rglob("*.py")) if p.name != "oracle.py"]
    sources.append(root / "__ray_entry__.py")

    def lines_with(needle: str) -> list[str]:
        return [f"{path.relative_to(root)}:{i}"
                for path in sources
                for i, line in enumerate(path.read_text().splitlines(), 1)
                if needle in line]

    assert lines_with("zlib.crc32") == []
    hashers = {hit.rsplit(":", 1)[0] for hit in lines_with("hash_pandas_object")}
    assert hashers <= {"dygiepp_ray/joins.py", "dygiepp_ray/stages/dsir.py"}
    joins_src = (pkg / "joins.py").read_text()
    helper = joins_src[joins_src.index("def _key_buckets("):]
    helper = helper[:helper.index("\ndef ")]
    call = "pd.util.hash_pandas_object("
    assert joins_src.count(call) == helper.count(call) == 1

    primitive = joins_src[joins_src.index("PAIR_CHUNK_BYTES = "):]
    primitive = primitive[:primitive.index("\ndef hash_join(")]
    for needle in ("32 << 20", "duplicated(keep=False)"):
        assert len(lines_with(needle)) == 1
        assert joins_src.count(needle) == primitive.count(needle) == 1
    assert {hit.rsplit(":", 1)[0] for hit in lines_with('groupby("_bucket")')
            } == {"dygiepp_ray/joins.py"}


def test_composite_keys_and_shuffle_hygiene_live_in_the_primitives():
    """Joins take column-list keys, so no engine code builds a composite
    key column, and the shuffle primitives clean their own inputs:

    - `_TRI_SEP` is gone;
    - outside `oracle.py`, `binary_join_element_wise` and the "\\x1f"
      separator appear only where a key is hashed into an output value or
      checked against a driver-side set, never in front of a join;
    - `strip_schema_metadata(` is called only in `aggregates.py`,
      `joins.py` and the native-shuffle sites listed below."""
    import ast
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    pkg = root / "dygiepp_ray"
    sources = [p for p in sorted(pkg.rglob("*.py")) if p.name != "oracle.py"]
    sources.append(root / "__ray_entry__.py")

    def hits(needle: str) -> dict[tuple[str, int], list[str]]:
        """{(file, line): names of the functions around it, outermost
        first} for every source line holding `needle`."""
        out = {}
        for path in sources:
            text = path.read_text()
            funcs = [n for n in ast.walk(ast.parse(text))
                     if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for i, line in enumerate(text.splitlines(), 1):
                if needle in line:
                    around = sorted((f for f in funcs
                                     if f.lineno <= i <= f.end_lineno),
                                    key=lambda f: f.lineno)
                    out[(str(path.relative_to(root)), i)] = [
                        f.name for f in around]
        return out

    def sites(found: dict, allowed: dict, files=()) -> set:
        """The `allowed` (file, function) entries the hits fall in; a hit
        outside all of them and outside `files` fails the test."""
        used = set()
        for (path, line), names in found.items():
            site = [(path, n) for n in names if (path, n) in allowed]
            assert site or path in files, f"{path}:{line}"
            used.update(site)
        return used

    assert hits("_TRI_SEP") == {}

    key_sites = {
        ("dygiepp_ray/pipelines/kg.py", "negative_samples"):
            "hashes the edge into its deterministic negative draw",
        ("dygiepp_ray/pipelines/kg.py", "transe_eval"):
            "hashes the edge with negative_samples' corruption protocol",
        ("dygiepp_ray/stages/dedup.py", "contrastive_pairs"):
            "hashes the pair into its deterministic negative draw",
        ("dygiepp_ray/pipelines/sweep.py", "eval_sweep"):
            "probes a driver-side gold-key set",
        ("__ray_entry__.py", "q_kg_p_at_k"):
            "probes a driver-side gold-key set with is_in",
    }
    assert set().union(*(sites(hits(needle), key_sites) for needle in (
        "binary_join_element_wise", '"\\x1f"'))) == set(key_sites)

    native_shuffle_sites = {
        ("dygiepp_ray/stages/dedup.py", "_text_sha"):
            "exact_duplicates groups the stamped rows with a native groupby",
        ("dygiepp_ray/stages/graph.py", "khop_subgraph"):
            "the per-hop edge sets meet in a native union",
        ("dygiepp_ray/stages/graph.py", "_kcore_shuffle"):
            "the per-k core rows meet in a native union",
        ("dygiepp_ray/stages/graph.py", "_stamp_dist"):
            "the BFS round tables meet in a native union",
        ("dygiepp_ray/pipelines/kg.py", "edge_diff"):
            "the zero-padded sides meet in a native union",
    }
    strips = hits("strip_schema_metadata(")
    assert sites(strips, native_shuffle_sites, {
        "dygiepp_ray/aggregates.py", "dygiepp_ray/joins.py"}
    ) == set(native_shuffle_sites)
