"""Shuffle-aware aggregation helpers (SURVEY.md §2.5 A1/A8, §7.3).

The KB span/pair counts (make_kb.py:198-220) are the engine's one mandatory
all-to-all shuffle, and the keys are Zipfian (popular entities). Strategy:

1. `partial_count` — combine INSIDE each `map_batches` block first (pyarrow
   `Table.group_by(...).aggregate([("", "count_all")])`), so at most one row
   per (key, block) enters the shuffle. This alone bounds any key's shuffle
   fan-in to the number of blocks, independent of its row popularity.
2. optional salting (`salt_buckets > 1`) — a deterministic salt column spreads
   a hot key across `salt_buckets` reducers for the first groupby, then a
   second (tiny) groupby folds the salt away. Use when the number of blocks
   itself is huge (100 TB → 10^5-10^6 blocks) and a single reducer per hot
   key would still be a straggler.

Both phases stream; nothing is materialized on the driver.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Sum


def strip_schema_metadata(t: pa.Table) -> pa.Table:
    """Drop schema metadata before a shuffle: the b'pandas' metadata dict
    that rides along from pandas-written parquet makes `pa.Schema`
    unhashable in Ray's shuffle schema-dedup (warning spam per block) and
    makes otherwise-identical block schemas compare unequal."""
    return t.replace_schema_metadata(None) if t.schema.metadata else t


def _block_partial_count(keys: list[str]):
    def fn(batch: pa.Table) -> pa.Table:
        batch = strip_schema_metadata(batch)
        g = batch.select(keys).group_by(keys).aggregate([([], "count_all")])
        # rename ONLY the count column by name — pyarrow's key/aggregate
        # column ordering has varied across versions, so a positional rename
        # could silently swap keys and counts
        return g.rename_columns(
            ["partial_count" if n == "count_all" else n for n in g.column_names]
        )

    return fn


def grouped_count(ds: "ray.data.Dataset", keys: list[str], out_name: str = "count",
                  salt_buckets: int = 1) -> "ray.data.Dataset":
    """Partial+final grouped count. `keys` are the groupby columns; result has
    columns keys + [out_name]."""
    partial = ds.map_batches(_block_partial_count(keys), batch_format="pyarrow")
    if salt_buckets > 1:
        import numpy as np

        def stamp_salt(batch: pa.Table) -> pa.Table:
            # Per-row salt (row position mod buckets): a hot key's partial
            # rows — one per upstream block — spread across salt_buckets
            # reducers. The salt is folded away by the second groupby, so its
            # exact assignment never affects the result.
            salts = pa.array(np.arange(batch.num_rows) % salt_buckets, pa.int32())
            return batch.append_column("_salt", salts)

        salted = partial.map_batches(stamp_salt, batch_format="pyarrow")
        first = salted.groupby(keys + ["_salt"]).aggregate(
            Sum("partial_count", alias_name="_salted_count")
        )
        final = first.groupby(keys).aggregate(Sum("_salted_count", alias_name=out_name))
        return final
    return partial.groupby(keys).aggregate(Sum("partial_count", alias_name=out_name))


def rollup_count(ds: "ray.data.Dataset", keys: list[str], out_name: str = "n",
                 key_types: dict | None = None) -> "ray.data.Dataset":
    """`GROUP BY ROLLUP(keys...)` counts: finest level + every prefix level +
    grand total, collapsed key columns emitted as typed nulls (SQL ROLLUP
    shape).

    The raw rows are scanned ONCE (partial+final grouped count at the finest
    level); every coarser level is re-aggregated from the finest result,
    which is small by definition (one row per distinct key combination) —
    so it is materialized and the rollup levels are tiny follow-on
    groupbys, not extra passes over the input."""
    finest = grouped_count(ds, keys, out_name=out_name).materialize()
    subsets = [keys[:i] for i in range(len(keys), -1, -1)]
    return _grouping_set_union(finest, keys, subsets, out_name, key_types)


def cube_count(ds: "ray.data.Dataset", keys: list[str], out_name: str = "n",
               key_types: dict | None = None) -> "ray.data.Dataset":
    """`GROUP BY CUBE(keys...)` counts: EVERY subset of the key list
    (rollup's prefixes plus the cross marginals), collapsed columns emitted
    as typed nulls. Same scan discipline as `rollup_count`: the raw rows
    are scanned once at the finest level; all 2^k−1 coarser grouping sets
    re-aggregate the small finest result."""
    import itertools

    finest = grouped_count(ds, keys, out_name=out_name).materialize()
    subsets = []
    for r in range(len(keys), -1, -1):
        for combo in itertools.combinations(keys, r):
            subsets.append(list(combo))
    return _grouping_set_union(finest, keys, subsets, out_name, key_types)


def _grouping_set_union(finest: "ray.data.Dataset", keys: list[str],
                        subsets: list[list[str]], out_name: str,
                        key_types: dict | None) -> "ray.data.Dataset":
    """Union of grouping-set re-aggregations over a materialized finest
    count table (one row per distinct key combination). `subsets[0]` must
    be the full key list (reused as-is, no re-aggregation)."""
    # collapsed-column types default to the INPUT key types (finest is
    # materialized, so schema() is free) — casting every key to string
    # would silently diverge from SQL ROLLUP/CUBE on int/date keys
    sch = finest.schema()
    in_types = {}
    for name, typ in zip(sch.names, sch.types):
        if not isinstance(typ, pa.DataType):
            try:
                typ = pa.from_numpy_dtype(typ)
            except (pa.ArrowNotImplementedError, TypeError):
                typ = pa.string()
        in_types[name] = typ
    types = {k: (key_types or {}).get(k, in_types.get(k, pa.string()))
             for k in keys}

    def pad(keep: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            cols = {}
            for k in keys:
                cols[k] = (pc.cast(t.column(k), types[k]) if k in keep
                           else pa.nulls(t.num_rows, types[k]))
            cols[out_name] = pc.cast(t.column(out_name), pa.int64())
            return pa.table(cols)
        return fn

    levels = [finest.map_batches(pad(subsets[0]), batch_format="pyarrow")]
    for grp in subsets[1:]:
        if grp:
            lvl = finest.groupby(grp).aggregate(
                Sum(out_name, alias_name=out_name))
            levels.append(lvl.map_batches(pad(grp), batch_format="pyarrow"))
        else:
            total = finest.aggregate(Sum(out_name, alias_name=out_name)
                                     )[out_name]
            total_tbl = pa.table({
                **{k: pa.nulls(1, types[k]) for k in keys},
                out_name: pa.array([total], pa.int64())})
            levels.append(ray.data.from_arrow(total_tbl))
    return levels[0].union(*levels[1:])


def partial_final_agg(ds: "ray.data.Dataset", keys: list[str],
                      spec: list[tuple[str, str | None, str]]) -> "ray.data.Dataset":
    """Generic partial+final grouped aggregation.

    `spec` = [(out_name, col, op)] with op ∈ {sum, count, mean, min, max}
    (col=None for count). Phase 1 aggregates INSIDE each Arrow block with
    `pyarrow.Table.group_by`, so the shuffle moves ≤ one row per (key, block)
    instead of every input row; phase 2 is a small Ray groupby combining the
    partials (sum-of-sums, sum-of-counts, min-of-mins, …; mean = Σsum/Σcount).
    This is the A1/A2 pattern generalized — use it instead of
    `ds.groupby().aggregate()` whenever the per-block group count is much
    smaller than the block row count.
    """
    need_count = any(op in ("count", "mean") for _, _, op in spec)
    sum_cols = sorted({col for _, col, op in spec if op in ("sum", "mean")})
    min_cols = sorted({col for _, col, op in spec if op == "min"})
    max_cols = sorted({col for _, col, op in spec if op == "max"})

    def block_agg(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        aggs = [(c, "sum") for c in sum_cols]
        aggs += [(c, "min") for c in min_cols]
        aggs += [(c, "max") for c in max_cols]
        if need_count:
            aggs.append(([], "count_all"))
        # arrow names results "{col}_{fn}" / "count_all" and puts keys last
        return t.group_by(keys).aggregate(aggs)

    partial = ds.map_batches(block_agg, batch_format="pyarrow")
    final_aggs = [Sum(f"{c}_sum", alias_name=f"{c}_sum") for c in sum_cols]
    if need_count:
        final_aggs.append(Sum("count_all", alias_name="count_all"))
    from ray.data.aggregate import Max as _Max, Min as _Min

    final_aggs += [_Min(f"{c}_min", alias_name=f"{c}_min") for c in min_cols]
    final_aggs += [_Max(f"{c}_max", alias_name=f"{c}_max") for c in max_cols]
    combined = partial.groupby(keys).aggregate(*final_aggs)

    def project(t: pa.Table) -> pa.Table:
        cols = {k: t.column(k) for k in keys}
        for out_name, col, op in spec:
            if op == "sum":
                cols[out_name] = t.column(f"{col}_sum")
            elif op == "count":
                cols[out_name] = t.column("count_all")
            elif op == "mean":
                cols[out_name] = pc.divide(
                    pc.cast(t.column(f"{col}_sum"), pa.float64()),
                    pc.cast(t.column("count_all"), pa.float64()),
                )
            elif op == "min":
                cols[out_name] = t.column(f"{col}_min")
            elif op == "max":
                cols[out_name] = t.column(f"{col}_max")
        return pa.table(cols)

    return combined.map_batches(project, batch_format="pyarrow")


def distinct_first(ds: "ray.data.Dataset", keys: list[str]) -> "ray.data.Dataset":
    """A8/D3 exact dedup: keep the first row per key group, deterministically
    (the least row of the group, sorted by all its columns). One
    `bucket_groups` shuffle: each bucket is sorted by the keys, then the
    other columns, once, and keeps its first row per key — one pandas sort
    per bucket, not one Ray group and one sort per key. Rows come out in
    no particular order."""
    import pandas as pd

    from .joins import bucket_groups

    def first(df: pd.DataFrame) -> pd.DataFrame:
        order = [*keys, *(c for c in df.columns if c not in keys)]
        return df.sort_values(order).drop_duplicates(keys)

    return bucket_groups(ds, keys, 64, first)


def top_k(ds: "ray.data.Dataset", col: str, k: int, descending: bool = True) -> "ray.data.Dataset":
    """T2 global top-k: per-block prune to k candidates first so the global
    sort only sees num_blocks × k rows, then sort+limit."""
    def block_topk(batch: pa.Table) -> pa.Table:
        batch = strip_schema_metadata(batch)
        idx = pc.select_k_unstable(batch, k=min(k, batch.num_rows),
                                   sort_keys=[(col, "descending" if descending else "ascending")])
        return batch.take(idx)

    pruned = ds.map_batches(block_topk, batch_format="pyarrow")
    return pruned.sort(col, descending=descending).limit(k)


def distributed_quantiles(ds: "ray.data.Dataset", col: str,
                          qs: list[float], by: str | None = None,
                          n_bins: int = 4096, rank_targets=None):
    """Exact distributed quantiles by histogram refinement (3 streaming
    passes, no sort, no full materialization):

      1. (group,) min / max / count — partial per block, tiny combine.
      2. (group, bin) exact counts over `n_bins` equal-width bins — per-block
         `np.bincount` partials streamed to the driver (driver state =
         n_bins × groups int64, bounded).
      3. rank-walk the histogram to find each target bin, then pull ONLY the
         candidate bins' DISTINCT (value, count) pairs (per-block compacted)
         and walk to the exact rank inside the bin.

    Rank semantics match DuckDB `quantile_disc`: value at 1-indexed rank
    `ceil(q*n)` (clamped to >= 1) in ascending order — so a SQL oracle
    hash-matches bit for bit (returned values are actual data values, never
    bin midpoints; float bin assignment only routes values, consistently in
    passes 2 and 3).

    Scale assumptions (documented): the group count is modest (driver holds
    groups × n_bins counts) and a candidate bin's DISTINCT value set fits on
    the driver — heavy duplication collapses in the per-block compaction,
    and a wider `n_bins` shrinks per-bin cardinality. Returns a pandas
    DataFrame [(by,) q, v] sorted by (group, q)."""
    import math

    import pandas as pd

    group_cols = [by] if by else []

    # ---- pass 1: per-group min / max / count
    def mmc(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        if by:
            g = t.group_by([by]).aggregate([(col, "min"), (col, "max"),
                                            ([], "count_all")])
            return g
        v = t.column(col)
        return pa.table({f"{col}_min": [pc.min(v).as_py()],
                         f"{col}_max": [pc.max(v).as_py()],
                         "count_all": [t.num_rows]})

    stats: dict = {}
    for b in ds.map_batches(mmc, batch_format="pyarrow").iter_batches(
            batch_format="pandas"):
        for _, row in b.iterrows():
            k = row[by] if by else None
            lo, hi, n = (row[f"{col}_min"], row[f"{col}_max"],
                         int(row["count_all"]))
            if k in stats:
                p = stats[k]
                stats[k] = (min(p[0], lo), max(p[1], hi), p[2] + n)
            else:
                stats[k] = (lo, hi, n)

    def bin_of(vals: np.ndarray, lo: float, hi: float) -> np.ndarray:
        width = (hi - lo) or 1.0
        b = np.floor((vals - lo) / width * n_bins).astype(np.int64)
        return np.clip(b, 0, n_bins - 1)

    stats_ref = ray.put(stats)

    # ---- pass 2: per-(group, bin) exact counts
    def hist(df: pd.DataFrame) -> pd.DataFrame:
        st = ray.get(stats_ref)
        out_g, out_b, out_c = [], [], []
        groups = df.groupby(by) if by else [(None, df)]
        for k, g in groups:
            lo, hi, _ = st[k]
            cnt = np.bincount(bin_of(g[col].to_numpy(np.float64),
                                     float(lo), float(hi)),
                              minlength=n_bins)
            nz = np.nonzero(cnt)[0]
            out_g.extend([k] * len(nz))
            out_b.extend(nz.tolist())
            out_c.extend(cnt[nz].tolist())
        res = {"_bin": np.asarray(out_b, np.int64),
               "_cnt": np.asarray(out_c, np.int64)}
        if by:
            res = {by: out_g, **res}
        return pd.DataFrame(res)

    hists = {k: np.zeros(n_bins, dtype=np.int64) for k in stats}
    for b in ds.map_batches(hist, batch_format="pandas").iter_batches(
            batch_format="numpy"):
        keys = b[by] if by else np.array([None] * len(b["_bin"]), object)
        for k in (np.unique(keys) if by else [None]):
            m = keys == k if by else slice(None)
            np.add.at(hists[k], b["_bin"][m], b["_cnt"][m])

    # ---- rank-walk: target (group, bin, rank-within-bin) per quantile
    # `rank_targets(n) -> [(tag, rank)]` overrides the quantile_disc rank
    # rule with explicit PER-GROUP rank picks (the grouped
    # percentile_cont path needs ranks r and r+1, which no single q can
    # express across groups of different sizes); tags surface in the
    # output's `q` column.
    targets: dict = {}  # (k, bin) -> [(tag, rank_in_bin)]
    for k, (lo, hi, n) in stats.items():
        cum = np.cumsum(hists[k])
        want = (rank_targets(n) if rank_targets
                else [(float(q), max(1, math.ceil(q * n)))  # disc rank
                      for q in qs])
        for tag, r in want:
            bin_ix = int(np.searchsorted(cum, r, side="left"))
            r_in = r - (int(cum[bin_ix - 1]) if bin_ix else 0)
            targets.setdefault((k, bin_ix), []).append((tag, r_in))
    targets_ref = ray.put({k_b: None for k_b in targets})

    # ---- pass 3: distinct (value, count) inside candidate bins only
    def candidates(df: pd.DataFrame) -> pd.DataFrame:
        st = ray.get(stats_ref)
        want = ray.get(targets_ref)
        out_g, out_v, out_c = [], [], []
        groups = df.groupby(by) if by else [(None, df)]
        for k, g in groups:
            lo, hi, _ = st[k]
            vals = g[col].to_numpy(np.float64)
            bins = bin_of(vals, float(lo), float(hi))
            keep = np.isin(bins, [bb for (kk, bb) in want if kk == k])
            uniq, cnt = np.unique(vals[keep], return_counts=True)
            out_g.extend([k] * len(uniq))
            out_v.extend(uniq.tolist())
            out_c.extend(cnt.tolist())
        res = {"_v": np.asarray(out_v, np.float64),
               "_c": np.asarray(out_c, np.int64)}
        if by:
            res = {by: out_g, **res}
        return pd.DataFrame(res)

    from collections import defaultdict

    val_counts: dict = defaultdict(lambda: defaultdict(int))
    for b in ds.map_batches(candidates, batch_format="pandas").iter_batches(
            batch_format="numpy"):
        keys = b[by] if by else [None] * len(b["_v"])
        for k, v, c in zip(keys, b["_v"], b["_c"]):
            val_counts[k][float(v)] += int(c)

    rows = []
    for k, (lo, hi, n) in stats.items():
        vc = sorted(val_counts[k].items())
        vals = np.array([v for v, _ in vc])
        cnts = np.array([c for _, c in vc], dtype=np.int64)
        vbins = bin_of(vals, float(lo), float(hi))
        for (kk, bb), wants in targets.items():
            if kk != k:
                continue
            m = vbins == bb
            bvals, bcum = vals[m], np.cumsum(cnts[m])
            for q, r_in in wants:
                ix = int(np.searchsorted(bcum, r_in, side="left"))
                rows.append({**({by: k} if by else {}), "q": float(q),
                             "v": float(bvals[ix])})
    out = pd.DataFrame(rows).sort_values(
        [*group_cols, "q"]).reset_index(drop=True)
    return out


def pivot_counts(ds: "ray.data.Dataset", row_key: str, col_key: str,
                 col_values: list[str], prefix: str = "n_",
                 salt_buckets: int = 1) -> "ray.data.Dataset":
    """Pivot (long -> wide) of grouped counts: one row per `row_key`, one
    int64 column per entry of `col_values` named `prefix + slug(value)`.

    One partial+final count shuffle over (row_key, col_key) — the wide
    reshape runs in a single final task because the counted table is tiny
    (|rows| × |cols|); `col_values` must be the closed category list (rows
    with other values are dropped, like SQL conditional aggregation)."""
    import re

    import pandas as pd

    def slug(v: str) -> str:
        return prefix + re.sub(r"[^a-z0-9]+", "_", str(v).lower()).strip("_")

    names = {v: slug(v) for v in col_values}
    counted = grouped_count(ds.select_columns([row_key, col_key]),
                            [row_key, col_key], out_name="_n",
                            salt_buckets=salt_buckets)

    def widen(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[col_key].isin(col_values)]
        wide = df.pivot_table(index=row_key, columns=col_key, values="_n",
                              aggfunc="sum", fill_value=0)
        out = pd.DataFrame({row_key: wide.index})
        for v in col_values:
            out[names[v]] = (wide[v].to_numpy(dtype=np.int64)
                             if v in wide.columns
                             else np.zeros(len(wide), np.int64))
        return out

    return counted.repartition(1).map_batches(widen, batch_format="pandas")


def group_zscore_outliers(ds: "ray.data.Dataset", key: str, x_col: str,
                          keep_cols: list[str], t_sigma: int = 3,
                          max_groups: int = 100_000) -> "ray.data.Dataset":
    """Rows whose int64-quantized `x_col` sits more than `t_sigma`
    population standard deviations from its group mean. Two streaming
    passes: (1) exact int64 moment partials (n, Σx, Σx²) per group via
    `partial_final_agg` — the same exact-moments discipline as the Pearson
    pipeline — then (2) a vectorized flag pass with the per-group stats
    broadcast (one tiny dict; `max_groups` is the admission guard, the
    group key is a low-cardinality dimension by contract). The comparison
    (n·x − Σx)² > t²·(n·Σx² − (Σx)²) is evaluated in float64 on BOTH
    engine and oracle — same IEEE expression tree over the same exact
    integers, so the strict `>` is deterministic (boundary equality has
    measure zero on continuous data).

    `x_col` must already be int64-quantized by the caller (who owns the
    scale/overflow-headroom arithmetic for their value range)."""
    import pandas as pd

    def prep(df: "pd.DataFrame") -> "pd.DataFrame":
        x = df[x_col].to_numpy("int64")
        return pd.DataFrame({key: df[key], "_x": x, "_xx": x * x})

    stats = partial_final_agg(
        ds.map_batches(prep, batch_format="pandas"), [key],
        [("n", None, "count"), ("sx", "_x", "sum"), ("sxx", "_xx", "sum")])
    sdf = stats.to_pandas()
    if len(sdf) > max_groups:
        raise ValueError(
            f"group_zscore_outliers: {len(sdf)} groups exceeds the "
            f"broadcast admission guard ({max_groups}); pre-aggregate or "
            "shard the key")
    lut = {k: (float(n), float(sx), float(sxx))
           for k, n, sx, sxx in zip(sdf[key], sdf["n"].astype("int64"),
                                    sdf["sx"].astype("int64"),
                                    sdf["sxx"].astype("int64"))}
    t2 = float(t_sigma * t_sigma)

    def flag(df: "pd.DataFrame") -> "pd.DataFrame":
        ks = df[key].to_numpy(object)
        n = np.array([lut[k][0] for k in ks], dtype="float64")
        sx = np.array([lut[k][1] for k in ks], dtype="float64")
        sxx = np.array([lut[k][2] for k in ks], dtype="float64")
        x = df[x_col].to_numpy("int64").astype("float64")
        d = n * x - sx
        lhs = d * d  # explicit multiply (not pow) — mirrors the SQL exactly
        rhs = t2 * (n * sxx - sx * sx)
        return df.loc[lhs > rhs, keep_cols]

    return ds.map_batches(flag, batch_format="pandas")


def argmax_per_key(ds: "ray.data.Dataset", key: str, order_cols: list[str],
                   ascending: list[bool], keep_cols: list[str],
                   n_buckets: int = 16) -> "ray.data.Dataset":
    """Per-key argmax/argmin row selection at unbounded key cardinality:
    `joins.bucket_groups` on `hash(key) % n_buckets` (ONE shuffle on coarse
    buckets — never one Ray group per key), then a vectorized sort +
    head(1)-per-key inside each bucket. `order_cols`/`ascending` define the
    winner (put deterministic tie-breaks last); `keep_cols` is the output
    projection."""
    from .joins import bucket_groups

    def per_bucket(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(
            [key] + order_cols, ascending=[True] + list(ascending),
            kind="mergesort")
        return df.groupby(key, sort=False).head(1)[keep_cols]

    return bucket_groups(ds, key, n_buckets, per_bucket)
