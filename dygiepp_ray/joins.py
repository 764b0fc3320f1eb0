"""Join operators (SURVEY.md §2.4), the two keyed-bucket shuffle
primitives and the LSH candidate-pair primitive built on them.

A keyed shuffle over an unbounded key space never makes one Ray group per
key: it stamps a COARSE `_bucket` and runs ONE sort-based
`groupby("_bucket").map_groups`, and a per-bucket pandas kernel does the
per-key work. Every bucket-by-key shuffle goes through one of two
primitives, so a change to the shuffle itself (e.g. Ray Data's native hash
shuffle, or skew handling on the bucket) is an edit in two places. Both
stamp keys with the one helper `_key_buckets`:
`_bucket = hash_pandas_object(keys) % n_buckets`, computed on the key
columns alone (int keys hashed as int64, so an int32 and an int64 block
place a key alike; null keys share one bucket).

- `bucket_groups(ds, keys, n_buckets, fn)` — one-sided. `fn(frame)` runs
  once per bucket on the bucket's rows, `_bucket` already dropped. Every
  row of one key lands in one bucket, so a per-key reduce inside `fn` is
  exact. Window functions, argmax and dedup reduces, wedge generation and
  the in-bucket self-merges go through it.
- `_cogroup` — two-sided. Both sides arrive stamped with `_bucket`, each is
  padded to the union schema (zeros for int/bool columns, typed nulls
  otherwise) and tagged `_side`, the two are unioned and grouped once on
  `_bucket`. Each bucket's table is split back into its sides IN ARROW —
  each side selects only its own columns before its own pandas conversion
  — so no side ever sees a padded value and int/bool columns keep their
  dtypes. A `per_bucket(ldf, rdf)` callable then does the pandas work. The
  joins below, the J2 collect and the persisted dedup store matches differ
  only in how they stamp `_bucket` and in that callable: the joins stamp
  `_key_buckets` of the join key (`interval_join` of (key, band),
  `skew_join` of its cold rows only).

- `candidate_pairs` — near-duplicate / alias pairs from LSH band rows
  (key, id, payload): one `bucket_groups` shuffle on the band key, the
  singleton prefilter, a chunk-bounded pairwise `score` with a `keep`
  predicate inside each collision group (`chunk_pairs`, one
  `PAIR_CHUNK_BYTES` bound), `(min, max)` id order or a cross-side
  orientation, and the pair dedup. The MinHash, simhash, embedding,
  fuzzy-decontamination, alias and edit-1 stages keep only their row
  function and their score; `score_chunks` / `chunk_pairs` alone serve
  the persisted near-dup store match and the kNN graph's per-cell top-k.

The persisted `bucket` layouts of the build and the dedup stores are not
keyed-bucket shuffles and stamp their own.

Key model: every primitive and join here takes its key as one column name
or a list of names, and a composite key is that list — never a
concatenated string column (a separator can collide: "a|b" + "c" and
"a" + "b|c") or an arithmetic packing. `_key_buckets` hashes the list's
columns together and the per-bucket merge runs `on=` the same list.

Input hygiene: the primitives own it, so callers hand them Datasets as
they are. `_cogroup`'s pad rebuilds each side's table from its arrays and
`bucket_groups`' stamp drops the schema metadata, so the b'pandas' dict of
pandas-born blocks (which makes Ray's shuffle schema dedup fail to hash
the schema and warn once per shuffle) never reaches the shuffle; the block
partials of `aggregates.grouped_count` / `partial_final_agg` drop it the
same way. A caller strips it only before a native `groupby` / `sort` /
`repartition` / `union` of its own.

The joins:

- `broadcast_lookup` — small side `ray.put` once, dict-mapped per batch (J1
  when one side is a dimension table; no shuffle).
- `hash_join` — the portable big-big equi-join on a column or a column
  list: `_key_buckets(on)` on both sides, one pandas merge per bucket. ONE
  shuffle, B-way parallel merge, nothing materialized by the caller. Salt
  knob: raise B for hot keys; a single bucket only ever holds
  ~|A|/B + |B|/B rows.
- `zip_join_assert` — J2 shard-collect semantics: 1:1 key join with
  multiplicity asserts (03_collect_shards.py:36-46), bucketed so each group
  is a `ZIP_BUCKETS`-th of the keys (vectorized merge), not one tiny
  pandas frame per key.
- `asof_join` / `interval_join` — per-bucket `merge_asof` / banded
  equi-merge + range filter.
- `skew_join` — salting on top of the same co-group: hot left rows spread
  round-robin over the buckets, hot right rows replicate into every bucket.
"""

from __future__ import annotations

from typing import Literal

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data


def broadcast_lookup(big: "ray.data.Dataset", small_df: pd.DataFrame, key: str,
                     value_cols: list[str]) -> "ray.data.Dataset":
    """Map value columns of a small table onto the big side by key."""
    maps = {c: dict(zip(small_df[key], small_df[c])) for c in value_cols}
    ref = ray.put(maps)

    def add(df: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(ref)
        for c in value_cols:
            df[c] = df[key].map(m[c])
        return df

    return big.map_batches(add, batch_format="pandas")


def _arrow_types(ds: "ray.data.Dataset") -> dict:
    """{col: pyarrow.DataType} from a Dataset schema (numpy dtypes from
    pandas-backed blocks normalized to Arrow)."""
    sch = ds.schema()
    out = {}
    for name, typ in zip(sch.names, sch.types):
        if not isinstance(typ, pa.DataType):
            try:
                typ = pa.from_numpy_dtype(typ)
            except (pa.ArrowNotImplementedError, TypeError):
                typ = pa.string()
        out[name] = typ
    return out


def _int64_keys(t: pa.Table, key_cols: list[str]) -> pa.Table:
    """`t` with its int key columns cast to int64."""
    for k in key_cols:
        col = t.column(k)
        if pa.types.is_integer(col.type) and col.type != pa.int64():
            t = t.set_column(t.schema.get_field_index(k), k,
                             pc.cast(col, pa.int64()))
    return t


def _key_buckets(t: pa.Table, keys: str | list[str], n_buckets: int) -> pa.Array:
    """Per-row `hash_pandas_object(keys) % n_buckets` (int64) of `t`, the
    one keyed-bucket stamp. Only the key columns go through pandas. A str
    `keys` hashes that column, a list hashes the frame of those columns
    (pandas' own `df[keys]` rule). Int keys hash as int64, so a key arriving
    as int32 in one block and int64 in another lands in one bucket; a null
    int key hashes as pandas' NA value (via `Int64`) instead of turning the
    column float, which would move its non-null keys. Null keys all hash
    alike. The hash is `hash_pandas_object`'s fixed default key, so
    placement is the same in every process."""
    key_cols = [keys] if isinstance(keys, str) else list(keys)
    kt = _int64_keys(t.select(key_cols).replace_schema_metadata(None), key_cols)
    # Int64 only when an int key has a null: without nulls the two hash
    # alike, and the extension dtype makes the stamp several times slower
    nullable = any(pa.types.is_int64(c.type) and c.null_count for c in kt.columns)
    kdf = kt.to_pandas(
        types_mapper={pa.int64(): pd.Int64Dtype()}.get if nullable else None)
    h = pd.util.hash_pandas_object(kdf[keys], index=False).to_numpy()
    return pa.array((h % np.uint64(n_buckets)).astype(np.int64))


def _bucketed(ds: "ray.data.Dataset", cols: list[str], on: str | list[str],
              n_buckets: int) -> "ray.data.Dataset":
    """`ds` projected to `cols` and stamped with `_key_buckets(on)`."""

    def stamp(t: pa.Table) -> pa.Table:
        return t.append_column("_bucket", _key_buckets(t, on, n_buckets))

    return ds.select_columns(cols).map_batches(stamp, batch_format="pyarrow")


def _padding(n: int, typ: pa.DataType) -> pa.Array:
    """`n` filler values of `typ` for a column the other side owns. Ints and
    bools get zeros, not nulls: empty upstream blocks reach the shuffle as
    pandas blocks, which can make its merge run in pandas, and there a null
    turns the owner's int column into float64 and its bool column into
    object. Other types get typed nulls, `pa.null()` an untyped one."""
    if pa.types.is_integer(typ) or pa.types.is_boolean(typ):
        return pa.array(np.zeros(n, typ.to_pandas_dtype()), typ)
    return pa.nulls(n, typ)


def _cogroup(left: "ray.data.Dataset", lcols: list[str], ltypes: dict,
             right: "ray.data.Dataset", rcols: list[str], rtypes: dict,
             per_bucket) -> "ray.data.Dataset":
    """Co-group two `_bucket`-stamped Datasets: ONE union + `groupby(_bucket)`
    shuffle, then `per_bucket(ldf, rdf) -> DataFrame` on each bucket's two
    sides (`lcols` / `rcols`, each converted to pandas on its own).

    A column only one side owns is padded on the other side with
    `_padding` of the owner's type from `ltypes` / `rtypes`; a type missing
    there pads with untyped nulls, which the shuffle's schema unification
    promotes whenever the owning side has rows in the bucket."""
    all_cols = list(dict.fromkeys([*lcols, *rcols]))

    def pad(own: list[str], other_types: dict, side: int):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            arrays = [t.column(c) if c in own
                      else _padding(n, other_types.get(c, pa.null()))
                      for c in all_cols]
            arrays += [t.column("_bucket"), pa.array(np.full(n, side, np.int8))]
            return pa.Table.from_arrays(arrays, names=[*all_cols, "_bucket", "_side"])

        return fn

    def split(t: pa.Table) -> pd.DataFrame:
        is_left = pc.equal(t.column("_side"), 0)
        ldf = t.filter(is_left).select(lcols).to_pandas()
        rdf = t.filter(pc.invert(is_left)).select(rcols).to_pandas()
        return per_bucket(ldf, rdf)

    l = left.map_batches(pad(lcols, rtypes, 0), batch_format="pyarrow")
    r = right.map_batches(pad(rcols, ltypes, 1), batch_format="pyarrow")
    return l.union(r).groupby("_bucket").map_groups(split, batch_format="pyarrow")


def bucket_groups(ds: "ray.data.Dataset", keys: str | list[str],
                  n_buckets: int, fn) -> "ray.data.Dataset":
    """Run `fn(frame) -> DataFrame` once per coarse key bucket: ONE
    `groupby("_bucket").map_groups` shuffle on
    `_bucket = hash_pandas_object(keys) % n_buckets`, so every row of one
    key reaches the same single `fn` call and the group count stays at
    `n_buckets` whatever the key cardinality.

    The stamp is `_key_buckets`, in Arrow. Int keys are also cast to
    int64 in the stamped table itself, so every block reaches `fn` with one
    key dtype. `fn` sees the bucket's rows as pandas, without `_bucket`."""
    key_cols = [keys] if isinstance(keys, str) else list(keys)

    def stamp(t: pa.Table) -> pa.Table:
        t = _int64_keys(t.replace_schema_metadata(None), key_cols)
        return t.append_column("_bucket", _key_buckets(t, keys, n_buckets))

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return fn(df.drop(columns=["_bucket"]))

    return (ds.map_batches(stamp, batch_format="pyarrow")
            .groupby("_bucket").map_groups(per_bucket, batch_format="pandas"))


# a chunk of `a` rows is compared with all of `b` at a time, so that chunk
# rows × len(b) × b's row width stays under this many bytes: a heavy
# collision group (boilerplate documents sharing a band) becomes bounded
# fragments instead of one O(n²) tensor in one task (FP-Hadoop's split of
# heavy groups); a typical 2-5 row group is one chunk
PAIR_CHUNK_BYTES = 32 << 20


def score_chunks(a: np.ndarray, b: np.ndarray, score):
    """Yield `(lo, score(a[lo:hi], b))` over row chunks of `a`, each chunk
    sized by `PAIR_CHUNK_BYTES` against `b`'s row width in bytes."""
    chunk = max(1, PAIR_CHUNK_BYTES // max(1, len(b) * b[:1].nbytes))
    for lo in range(0, len(a), chunk):
        yield lo, score(a[lo:lo + chunk], b)


def chunk_pairs(a: np.ndarray, b: np.ndarray | None, score, keep):
    """`(i, j, s)`: the row pairs of `a` × `b` whose score matrix entry `s`
    passes `keep(scores) -> bool matrix`, one `score_chunks` chunk at a
    time. `b=None` compares `a` with itself and keeps only `i < j`."""
    self_pairs = b is None
    b = a if self_pairs else b
    out_i, out_j, out_s = [], [], []
    for lo, s in score_chunks(a, b, score):
        ok = keep(s)
        if self_pairs:
            ok = ok & (np.arange(len(b))[None, :]
                       > np.arange(lo, lo + len(s))[:, None])
        ri, cj = np.nonzero(ok)
        out_i.append(lo + ri)
        out_j.append(cj)
        out_s.append(s[ri, cj])
    if not out_s:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)
    return np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_s)


def _payload_block(values: np.ndarray) -> np.ndarray:
    """A payload column as one numpy block: equal-length list cells stack
    into a 2-D array; scalars and ragged cells stay as they are."""
    if (values.dtype == object and len(values)
            and isinstance(values[0], (list, np.ndarray))
            and len({len(v) for v in values}) == 1):
        return np.stack(values)
    return values


def candidate_pairs(rows: "ray.data.Dataset", n_buckets: int, score, keep,
                    score_col: str | None, score_dtype: str = "float64",
                    side: str | None = None) -> "ray.data.Dataset":
    """(id_a, id_b[, score_col]) candidate pairs of LSH band rows, each pair
    once.

    `rows` holds one row per (band key, item): columns `key`, `id`,
    `payload` (without it, the ids are the payload), and with `side` also
    that column. ONE `bucket_groups` shuffle on `key`; inside a bucket,
    singleton keys are dropped before any per-group work, a repeated
    (key[, side], id) row counts once, and each key's rows are compared
    with `chunk_pairs` on their payload block (`_payload_block`):
    `score(block_a, block_b)` returns the vectorized score matrix and
    `keep(scores)` the bool matrix of pairs to emit.

    - Without `side`, a key's rows pair among themselves: equal ids never
      pair, and each pair is ordered `(min, max)`.
    - With `side`, rows whose side value is 0 pair with the others only,
      as `(side-0 id, other id)`.

    A pair found under several keys is emitted once: the in-bucket dedup,
    then a global `bucket_groups` dedup on the pair. The score column is
    cast to `score_dtype`, float scores rounded to 6 decimals after `keep`
    saw them unrounded; `score_col=None` emits no score. Ids keep the
    `id` column's dtype (object ids as pandas `string`), so an empty
    bucket still emits typed columns."""

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        id_dtype = "string" if df["id"].dtype == object else df["id"].dtype
        df = df[df["key"].duplicated(keep=False)].drop_duplicates(
            ["key", "id"] if side is None else ["key", side, "id"])
        ids = df["id"].to_numpy()
        pay = _payload_block(
            df["payload" if "payload" in df else "id"].to_numpy())
        is_a = None if side is None else df[side].to_numpy() == 0
        out_a, out_b, out_s = [ids[:0]], [ids[:0]], []
        for pos in df.groupby("key", sort=False).indices.values():
            if is_a is None:
                i, j, s = chunk_pairs(pay[pos], None, score, keep)
                ia, ib = ids[pos[i]], ids[pos[j]]
                ok = ia != ib
                ia, ib, s = (np.minimum(ia[ok], ib[ok]),
                             np.maximum(ia[ok], ib[ok]), s[ok])
            else:
                pos_a, pos_b = pos[is_a[pos]], pos[~is_a[pos]]
                if not len(pos_a) or not len(pos_b):
                    continue
                i, j, s = chunk_pairs(pay[pos_a], pay[pos_b], score, keep)
                ia, ib = ids[pos_a[i]], ids[pos_b[j]]
            out_a.append(ia)
            out_b.append(ib)
            out_s.append(s)
        out = {"id_a": pd.Series(np.concatenate(out_a), dtype=id_dtype),
               "id_b": pd.Series(np.concatenate(out_b), dtype=id_dtype)}
        if score_col is not None:
            s = np.concatenate(out_s) if out_s else np.zeros(0, score_dtype)
            if s.dtype.kind == "f":
                s = np.round(s, 6)
            out[score_col] = pd.Series(s, dtype=score_dtype)
        return pd.DataFrame(out).drop_duplicates(["id_a", "id_b"])

    pairs = bucket_groups(rows, "key", n_buckets, verify)
    return bucket_groups(pairs, ["id_a", "id_b"], n_buckets,
                         lambda df: df.drop_duplicates(["id_a", "id_b"]))


def hash_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
              on: str | list[str], n_buckets: int = 32,
              how: Literal["inner", "left", "outer"] = "inner",
              left_cols: list[str] | None = None,
              right_cols: list[str] | None = None,
              left_types: dict | None = None,
              right_types: dict | None = None,
              bucket_post=None) -> "ray.data.Dataset":
    """Bucketed hash join of two large Datasets on one key column or a
    list of them (`on`, any mix of int and string columns): both sides
    bucket on `_key_buckets(on)`, each bucket runs one pandas merge on the
    key columns, so a composite key needs no concatenated key column.

    `left_types` / `right_types` ({col: pyarrow.DataType}) skip the
    `Dataset.schema()` probes — on a lazy non-read input, schema inference
    executes the whole upstream plan once just to learn the column types, so
    callers chaining joins off expensive pipelines should pass them.

    `how="outer"` is a FULL OUTER join: because both sides co-bucket on the
    key, every key's rows land in exactly one bucket, so the per-bucket
    pandas outer merge composes to the global full outer join with no
    cross-bucket bookkeeping.

    `bucket_post(df) -> df` is the aggregate-pushdown hook: it runs on each
    bucket's merged rows INSIDE the join task. A downstream reduction (e.g.
    a grouped count/sum whose result is tiny) passed here means the full
    joined rows never leave the task — only the per-bucket partials travel,
    turning join→aggregate into ONE shuffle plus a trivial final combine."""
    keys = [on] if isinstance(on, str) else list(on)
    lcols = sorted(set(left_cols or (left_types or left.schema().names)) | set(keys))
    rcols = sorted(set(right_cols or (right_types or right.schema().names)) | set(keys))
    overlap = (set(lcols) & set(rcols)) - set(keys)
    if overlap:
        # a shared non-key column would come out _x/_y-suffixed from some
        # buckets and unsuffixed from empty ones — reject up front
        raise ValueError(
            f"hash_join: non-key columns {sorted(overlap)} exist on both sides; "
            "pass left_cols/right_cols (or rename) to disambiguate"
        )

    def join_bucket(ldf: pd.DataFrame, rdf: pd.DataFrame) -> pd.DataFrame:
        merged = ldf.merge(rdf, on=keys, how=how)
        return bucket_post(merged) if bucket_post is not None else merged

    return _cogroup(
        _bucketed(left, lcols, on, n_buckets), lcols,
        left_types if left_types is not None else _arrow_types(left),
        _bucketed(right, rcols, on, n_buckets), rcols,
        right_types if right_types is not None else _arrow_types(right),
        join_bucket)


# zip_join_assert's bucket count: each bucket merges 1/64 of the keys
ZIP_BUCKETS = 64


def zip_join_assert(a: "ray.data.Dataset", b: "ray.data.Dataset", on: str,
                    b_cols: list[str],
                    a_cols: list[str] | None = None) -> "ray.data.Dataset":
    """J2 — 1:1 join with uniqueness asserts (shard-collect semantics).

    Bucketed by hash(key) % `ZIP_BUCKETS`: each bucket merges that share of
    the key space with ONE vectorized pandas merge (per-side key uniqueness
    + key-set equality asserted per bucket), instead of building a one-row
    DataFrame per key — millions of tiny groups at scale. Pass `a_cols` to skip the
    schema probe (which executes a lazy upstream plan)."""
    a_types = _arrow_types(a) if a_cols is None else {}
    a_cols = list(a_cols) if a_cols is not None else list(a_types)
    b_cols = [on, *b_cols]

    def zip_bucket(av: pd.DataFrame, bv: pd.DataFrame) -> pd.DataFrame:
        assert av[on].is_unique and bv[on].is_unique, f"{on} not unique (1:1 zip join)"
        assert len(av) == len(bv) and set(av[on]) == set(bv[on]), (
            f"{on} key sets differ between zip-join sides"
        )
        merged = av.merge(bv, on=on, how="inner")
        assert len(merged) == len(av)
        return merged

    return _cogroup(_bucketed(a, a_cols, on, ZIP_BUCKETS), a_cols, a_types,
                    _bucketed(b, b_cols, on, ZIP_BUCKETS), b_cols, {}, zip_bucket)


def asof_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
              by: str, left_on: str, right_on: str,
              left_cols: list[str], right_cols: list[str],
              n_buckets: int = 32,
              direction: Literal["backward", "forward"] = "backward",
              left_types: dict | None = None,
              right_types: dict | None = None) -> "ray.data.Dataset":
    """As-of join: for each left row, the single right row with the same
    `by` key and the greatest `right_on` <= `left_on` (direction=backward;
    forward = smallest >=). Left-outer semantics (unmatched -> nulls).

    Ray Data has no native as-of join; this is the bucketed composition:
    `_bucket = hash(by) % B` on BOTH sides (all history of a key is
    co-located with all its probes), then one vectorized
    `pandas.merge_asof` per bucket over sorted frames. ONE shuffle;
    per-bucket cost ~(|L|+|R|)/B log. Partitioning assumption: a single
    `by` key's history fits in one task (band-partition `right_on` within
    the key for pathological single-key streams).

    Determinism: ties on (by, right_on) are broken by sorting the right
    side on (right_on, *right_cols) — the LAST row wins in merge_asof, so
    the max of `right_cols` under lexicographic order is the deterministic
    representative. Keep (by, right_on) unique on the right for SQL-ASOF
    parity (SQL leaves the tie representative unspecified).

    Pass `left_types` / `right_types` ({col: pa.DataType}) when a side is a
    lazy pipeline — the default `.schema()` probe executes the upstream
    plan once just to learn column types."""
    lcols = [by, left_on, *left_cols]
    rcols = [by, right_on, *right_cols]
    overlap = set(lcols) & set(rcols) - {by}
    if overlap:
        raise ValueError(f"asof_join: overlapping non-key columns {sorted(overlap)}")

    def asof_bucket(ldf: pd.DataFrame, rdf: pd.DataFrame) -> pd.DataFrame:
        if rdf.empty:
            for c in rcols:
                if c != by:
                    ldf[c] = None
            return ldf
        # datetime resolutions may diverge between the sides ([s] vs [us]);
        # merge_asof requires identical on-key dtypes — upcast losslessly
        if (ldf[left_on].dtype.kind == "M" and
                rdf[right_on].dtype != ldf[left_on].dtype):
            rdf[right_on] = rdf[right_on].astype(ldf[left_on].dtype)
        rdf = rdf.sort_values([right_on, *right_cols], kind="mergesort")
        ldf = ldf.sort_values(left_on, kind="mergesort")
        return pd.merge_asof(ldf, rdf, left_on=left_on, right_on=right_on,
                             by=by, direction=direction)

    return _cogroup(_bucketed(left, lcols, by, n_buckets), lcols,
                    left_types or _arrow_types(left),
                    _bucketed(right, rcols, by, n_buckets), rcols,
                    right_types or _arrow_types(right), asof_bucket)


def interval_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
                  on: str, left_ts: str, right_start: str, right_end: str,
                  left_cols: list[str], right_cols: list[str],
                  bucket_width: int, n_buckets: int = 32,
                  post_filter=None) -> "ray.data.Dataset":
    """Range (interval) join: left row ⨝ right row when `on` keys are equal
    and right_start <= left_ts < right_end (half-open). All three time
    columns are int64 (e.g. epoch micros).

    Ray Data has no native range join; this is the banding composition:
    each left row is stamped with its single time band g = ts //
    bucket_width; each right row is REPLICATED to every band its interval
    overlaps (replication factor = interval_len / bucket_width + 1 — pick
    `bucket_width` near the typical interval length to bound it). Both
    sides then hash-bucket on (on, g) — ONE shuffle — and each bucket does
    a vectorized pandas equi-merge + exact range filter. A (left, right)
    pair meets in exactly one band (the left row's), so no dedup pass is
    needed. `post_filter(df) -> df` runs in-bucket (e.g. drop self-pairs)."""
    lcols = [on, left_ts, *left_cols]
    rcols = [on, right_start, right_end, *right_cols]
    overlap = set(lcols) & set(rcols) - {on}
    if overlap:
        raise ValueError(f"interval_join: overlapping columns {sorted(overlap)}")

    def stamp_bucket(t: pa.Table) -> pa.Table:
        # COARSE bucket of (key, band): the Ray group count stays at
        # n_buckets and the per-bucket pandas merge on [on, _g] does the
        # fine matching vectorized. (The first version used key-bucket ×
        # band as the group key — one near-empty pandas group per distinct
        # band at scale, which dominated wall time.)
        return t.append_column("_bucket",
                               _key_buckets(t, [on, "_g"], n_buckets))

    def stamp_left(t: pa.Table) -> pa.Table:
        g = pc.divide(pc.cast(t.column(left_ts), pa.int64()),
                      pa.scalar(bucket_width, pa.int64()))
        return stamp_bucket(t.append_column("_g", pc.cast(g, pa.int64())))

    def replicate_right(t: pa.Table) -> pa.Table:
        s = np.asarray(t.column(right_start).to_numpy(zero_copy_only=False),
                       dtype=np.int64) // bucket_width
        # end is exclusive: the band of (end - 1)
        e = (np.asarray(t.column(right_end).to_numpy(zero_copy_only=False),
                        dtype=np.int64) - 1) // bucket_width
        reps = np.maximum(e - s + 1, 0).astype(np.int64)
        idx = np.repeat(np.arange(t.num_rows), reps)
        # offsets 0..rep-1 per source row, fully vectorized (a python list
        # of per-row aranges is an O(rows) interpreter loop)
        ends = np.cumsum(reps)
        offs = (np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64)
                - np.repeat(ends - reps, reps))
        out = t.take(pa.array(idx, pa.int64()))
        return stamp_bucket(out.append_column(
            "_g", pa.array(np.repeat(s, reps) + offs, pa.int64())))

    def join_bucket(ldf: pd.DataFrame, rdf: pd.DataFrame) -> pd.DataFrame:
        merged = ldf.merge(rdf, on=[on, "_g"], how="inner")
        if len(merged):
            ts = merged[left_ts].to_numpy(dtype=np.int64, na_value=0)
            keep = ((merged[right_start].to_numpy(dtype=np.int64) <= ts)
                    & (ts < merged[right_end].to_numpy(dtype=np.int64)))
            merged = merged[keep]
        merged = merged.drop(columns=["_g"])
        if post_filter is not None:
            merged = post_filter(merged)
        return merged

    return _cogroup(
        left.select_columns(lcols).map_batches(stamp_left, batch_format="pyarrow"),
        [*lcols, "_g"], _arrow_types(left),
        right.select_columns(rcols).map_batches(replicate_right,
                                                batch_format="pyarrow"),
        [*rcols, "_g"], _arrow_types(right), join_bucket)


def skew_join(left: "ray.data.Dataset", right: "ray.data.Dataset", on: str,
              hot_threshold: int = 10_000, n_buckets: int = 32,
              left_types: dict | None = None,
              right_types: dict | None = None,
              hot_keys=None) -> "ray.data.Dataset":
    """Skew-aware inner join by SALT-AND-REPLICATE, in ONE stamped pass per
    side.

    A plain bucketed hash join sends every row of a hot key to ONE bucket
    task — at web scale a single 30%-of-the-corpus key serializes the whole
    join behind one straggler. Here hot LEFT rows are salted round-robin
    across all `n_buckets` buckets and hot RIGHT rows are REPLICATED into
    every bucket, so the hottest key's merge work spreads B ways while the
    join stays one union + one groupby shuffle. Unlike the earlier
    broadcast variant, neither side is ever `materialize()`d (at 100 TB a
    fact-side snapshot doubles storage traffic) and no row data crosses the
    driver — the only driver-side value is the hot-key list itself (keys
    with left count > `hot_threshold`, few by definition).

    The histogram pass streams over `left.select_columns([on])` — a
    key-column projection, not a full-row pass. Callers whose left side is
    an expensive lazy chain should pass `hot_keys` (any iterable of key
    values) to skip that pass entirely.

    Requires the right side to be small PER HOT KEY (the usual dim-table
    case): each hot right row is duplicated `n_buckets` ways. Results are
    identical to `hash_join(left, right, on)` — each (hot-left, hot-right)
    pair meets exactly once, in the left row's salted bucket — pinned by a
    pytest equivalence test."""
    from .aggregates import grouped_count

    lt = left_types or _arrow_types(left)
    rt = right_types or _arrow_types(right)

    if hot_keys is None:
        counts = grouped_count(left.select_columns([on]), [on], out_name="_n")
        hot_keys = sorted(
            r[on] for r in counts.map_batches(
                lambda t: t.filter(pc.greater(t["_n"],
                                              pa.scalar(hot_threshold))),
                batch_format="pyarrow").take_all()
        )
    hot = sorted(hot_keys)
    if not hot:
        return hash_join(left, right, on, n_buckets=n_buckets,
                         left_types=lt, right_types=rt)
    hot_arr = pa.array(hot)

    lcols = sorted(set(lt) | {on})
    rcols = sorted(set(rt) | {on})
    overlap = (set(lcols) & set(rcols)) - {on}
    if overlap:
        raise ValueError(
            f"skew_join: non-key columns {sorted(overlap)} exist on both "
            "sides; rename to disambiguate")

    def stamp_left(t: pa.Table) -> pa.Table:
        bucket = _key_buckets(t, on, n_buckets).to_numpy().copy()
        is_hot = pc.is_in(t.column(on), value_set=hot_arr).to_numpy(
            zero_copy_only=False)
        if is_hot.any():  # salt: spread hot rows round-robin over buckets
            bucket[is_hot] = np.arange(int(is_hot.sum())) % n_buckets
        return t.append_column("_bucket", pa.array(bucket))

    def stamp_right(t: pa.Table) -> pa.Table:
        is_hot = pc.is_in(t.column(on), value_set=hot_arr)
        cold = t.filter(pc.invert(is_hot))
        hot_t = t.filter(is_hot)
        # replicate each hot right row into every bucket
        return pa.concat_tables([cold, *[hot_t] * n_buckets]).append_column(
            "_bucket", pa.concat_arrays([
                _key_buckets(cold, on, n_buckets),
                pa.array(np.repeat(np.arange(n_buckets, dtype=np.int64),
                                   hot_t.num_rows))]))

    return _cogroup(
        left.select_columns(lcols).map_batches(stamp_left, batch_format="pyarrow"),
        lcols, lt,
        right.select_columns(rcols).map_batches(stamp_right, batch_format="pyarrow"),
        rcols, rt,
        lambda ldf, rdf: ldf.merge(rdf, on=on, how="inner"))
