"""Window-function family over Ray Data (formalizes the groupby→map_groups
idiom used by top-N-per-key, sessionization, running aggregates).

Ray Data has no native OVER(PARTITION BY … ORDER BY …). The naive shape —
`groupby(partition_key).map_groups(fn)` — shuffles on the FINE key and pays
one Ray group + one pandas frame per key; with near-unique keys (customers,
users) that is per-group overhead on millions of tiny groups. The window
functions here run on `joins.bucket_groups` instead: ONE shuffle on
`hash(partition_key) % n_buckets`, then inside each bucket a single sort by
(keys, order) followed by a VECTORIZED segment kernel
(`groupby(...).cumcount/cumsum/diff` — cython, no per-group Python). Key
skew note: every row of one partition key lands in one bucket by
construction (order within a partition must be global), so a single giant
partition is still the caller's skew to solve — pre-aggregate or salt by a
secondary key when order within the salt is still correct.

The banded range-window operators at the bottom (`_band` keys) shuffle on
their band value and are not keyed-bucket shuffles.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd

import ray.data

from .joins import bucket_groups


def _as_list(x) -> list:
    return [x] if isinstance(x, str) else list(x)


def _bucketed(ds: "ray.data.Dataset", keys: list[str], order: list[str],
              ascending, kernel: Callable[[pd.DataFrame, list[str]], pd.DataFrame],
              n_buckets: int) -> "ray.data.Dataset":
    """`joins.bucket_groups` on hash(keys) % n_buckets, then sort each
    bucket by (keys, order) and run `kernel(sorted_df, keys)`."""
    asc = [ascending] * len(order) if isinstance(ascending, bool) else list(ascending)
    if len(asc) != len(order):
        raise ValueError("ascending must be a bool or match order_by length")

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            keys + order, ascending=[True] * len(keys) + asc, kind="mergesort")
        return kernel(df, keys)

    return bucket_groups(ds, keys, n_buckets, per_bucket)


def window(ds: "ray.data.Dataset", partition_by: str | list[str],
           order_by: str | list[str], fn: Callable[[pd.DataFrame], pd.DataFrame],
           ascending: bool | list[bool] = True,
           n_buckets: int = 64) -> "ray.data.Dataset":
    """Generic OVER() kernel: apply `fn` (frame in → frame out) to each
    partition, sorted by `order_by`. The per-group Python apply makes this
    the slow generic fallback — prefer the vectorized helpers below, or pass
    a whole-bucket kernel via `_bucketed` for new window ops."""
    keys, order = _as_list(partition_by), _as_list(order_by)

    def kernel(df: pd.DataFrame, ks: list[str]) -> pd.DataFrame:
        parts = [fn(g) for _, g in df.groupby(ks, sort=False)]
        if not parts:
            return df.iloc[0:0]
        return pd.concat(parts, ignore_index=True)

    return _bucketed(ds, keys, order, ascending, kernel, n_buckets)


def row_number(ds, partition_by, order_by, ascending=True,
               out_col: str = "rn", n_buckets: int = 64) -> "ray.data.Dataset":
    keys, order = _as_list(partition_by), _as_list(order_by)

    def kernel(df: pd.DataFrame, ks: list[str]) -> pd.DataFrame:
        df = df.copy()
        df[out_col] = df.groupby(ks, sort=False).cumcount() + 1
        return df

    return _bucketed(ds, keys, order, ascending, kernel, n_buckets)


def rank_with_ties(ds, partition_by, order_by, ascending=True,
                   out_col: str = "rnk",
                   n_buckets: int = 64) -> "ray.data.Dataset":
    """SQL `rank()` (gaps on ties: rank = #strictly-preceding rows + 1).
    Peers are rows equal on ALL `order_by` columns. Vectorized: per-bucket
    stable sort, cumcount, tie-start mask from column-wise shifts, then a
    grouped forward-fill of the rank at each tie start."""
    keys, order = _as_list(partition_by), _as_list(order_by)

    def kernel(df: pd.DataFrame, ks: list[str]) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        rn = df.groupby(ks, sort=False).cumcount().to_numpy("int64")
        new_key = rn == 0
        tie_break = np.zeros(len(df), dtype=bool)
        for c in order:
            col = df[c].to_numpy()
            tie_break[1:] |= col[1:] != col[:-1]
        start = new_key | tie_break
        # rank at each peer-group start, forward-filled within the key
        r = pd.Series(np.where(start, rn + 1, np.nan))
        df[out_col] = r.groupby(pd.Series(
            df.groupby(ks, sort=False).ngroup().to_numpy()),
            sort=False).ffill().to_numpy("float64").astype("int64")
        return df

    return _bucketed(ds, keys, order, ascending, kernel, n_buckets)


def ntile(ds, partition_by, order_by, k: int, ascending=True,
          out_col: str = "tile", n_buckets: int = 64) -> "ray.data.Dataset":
    """SQL `NTILE(k)`: rows of each partition split into k groups whose
    sizes differ by at most one, earlier groups larger (the exact SQL
    remainder rule: the first n mod k tiles get ceil(n/k) rows). Callers
    should make `order_by` a total order (include a tiebreak column) —
    NTILE is order-dependent on peers."""
    keys, order = _as_list(partition_by), _as_list(order_by)

    def kernel(df: pd.DataFrame, ks: list[str]) -> pd.DataFrame:
        df = df.copy()
        g = df.groupby(ks, sort=False)
        rn = g.cumcount().to_numpy("int64")
        n = g[order[0]].transform("size").to_numpy("int64")
        q, r = n // k, n % k
        big = (q + 1) * r  # rows covered by the ceil-sized tiles
        df[out_col] = np.where(
            rn < big, rn // np.maximum(q + 1, 1),
            r + (rn - big) // np.maximum(q, 1)) + 1
        return df

    return _bucketed(ds, keys, order, ascending, kernel, n_buckets)


def top_n_per_key(ds, partition_by, order_by, n: int,
                  ascending=False, n_buckets: int = 64) -> "ray.data.Dataset":
    keys, order = _as_list(partition_by), _as_list(order_by)

    def kernel(df: pd.DataFrame, ks: list[str]) -> pd.DataFrame:
        rn = df.groupby(ks, sort=False).cumcount()
        return df[rn < n]

    return _bucketed(ds, keys, order, ascending, kernel, n_buckets)


def lag_diff(ds, partition_by, order_by, value_col: str,
             out_col: str = "delta", n_buckets: int = 64) -> "ray.data.Dataset":
    keys, order = _as_list(partition_by), _as_list(order_by)

    def kernel(df: pd.DataFrame, ks: list[str]) -> pd.DataFrame:
        df = df.copy()
        df[out_col] = df.groupby(ks, sort=False)[value_col].diff()
        return df

    return _bucketed(ds, keys, order, True, kernel, n_buckets)


def running_sum(ds, partition_by, order_by, value_col: str,
                out_col: str = "running", n_buckets: int = 64) -> "ray.data.Dataset":
    keys, order = _as_list(partition_by), _as_list(order_by)

    def kernel(df: pd.DataFrame, ks: list[str]) -> pd.DataFrame:
        df = df.copy()
        df[out_col] = df.groupby(ks, sort=False)[value_col].cumsum()
        return df

    return _bucketed(ds, keys, order, True, kernel, n_buckets)


def moving_sum(ds, partition_by, order_by, value_col: str, k: int,
               out_col: str = "moving", n_buckets: int = 64) -> "ray.data.Dataset":
    """Trailing k-row INCLUSIVE moving sum per partition — the ROWS-frame
    window `SUM(v) OVER (PARTITION BY key ORDER BY o ROWS BETWEEN k-1
    PRECEDING AND CURRENT ROW)` (reference window semantics family:
    eval_metric.py's running accumulators). One coarse-bucket shuffle, then
    a vectorized in-bucket cumsum minus its k-shifted self — no per-group
    Python apply, no rolling object.

    Exactness: int64 value columns stay exact as long as per-partition
    cumulative sums stay under 2^53 (the k-shift passes through a float64
    NaN hole); callers with larger magnitudes should pre-scale down."""
    keys, order = _as_list(partition_by), _as_list(order_by)

    def kernel(df: pd.DataFrame, ks: list[str]) -> pd.DataFrame:
        df = df.copy()
        g = df.groupby(ks, sort=False)
        cs = g[value_col].cumsum()
        df["_cs"] = cs
        shifted = df.groupby(ks, sort=False)["_cs"].shift(k)
        base = np.nan_to_num(shifted.to_numpy(np.float64), nan=0.0)
        out = cs.to_numpy(np.float64) - base
        if pd.api.types.is_integer_dtype(df[value_col].dtype):
            df[out_col] = out.astype("int64")
        else:
            df[out_col] = out
        return df.drop(columns=["_cs"])

    return _bucketed(ds, keys, order, True, kernel, n_buckets)


def sessionize(ds, partition_by, ts_col: str, gap: "pd.Timedelta",
               tiebreak_col: str | None = None,
               n_buckets: int = 64) -> "ray.data.Dataset":
    """Gap-based sessionization: per partition key, count the sessions
    implied by sorting on `ts_col` and breaking whenever the inter-event
    gap exceeds `gap`. Returns (keys…, n_sessions, n_events). Vectorized:
    a session starts where the key changes or the timestamp diff exceeds
    the gap — one boolean mask over the whole sorted bucket."""
    keys = _as_list(partition_by)
    order = [ts_col] + ([tiebreak_col] if tiebreak_col else [])

    def kernel(df: pd.DataFrame, ks: list[str]) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(columns=ks + ["n_sessions", "n_events"])
        new_key = (df[ks] != df[ks].shift()).any(axis=1)
        brk = df[ts_col].diff() > gap
        df = df.assign(_start=(new_key | brk))
        out = df.groupby(ks, sort=False, as_index=False).agg(
            n_sessions=("_start", "sum"), n_events=("_start", "size"))
        out["n_sessions"] = out["n_sessions"].astype("int64")
        out["n_events"] = out["n_events"].astype("int64")
        return out

    return _bucketed(ds, keys, order, True, kernel, n_buckets)


def funnel_counts(ds, stages: list[str], user_col: str = "user_id",
                  type_col: str = "event_type", ts_col: str = "ts",
                  n_buckets: int = 64) -> "ray.data.Dataset":
    """Ordered conversion funnel: per user, stage i counts iff the user has
    a stage-i event STRICTLY AFTER their first completion of stage i-1
    (first-touch semantics: each stage binds to the earliest timestamp that
    satisfies the order constraint). Returns one row per stage:
    (stage, stage_name, n_users).

    Scale shape: the input is pre-filtered to the funnel's event types,
    users are hash-bucketed so each user's history lands in one task (the
    `_bucketed` coarse-key discipline — ONE shuffle), and the per-bucket
    kernel is vectorized (one groupby-min merge chain per stage, no
    per-user Python). Buckets emit 3-row PARTIAL counts; the final combine
    is a partial+final sum over ≤ len(stages) keys."""
    from .aggregates import partial_final_agg

    keys, order = [user_col], [ts_col]

    def kernel(df: pd.DataFrame, ks: list[str]) -> pd.DataFrame:
        counts = []
        t_prev = None
        for i, st in enumerate(stages):
            sub = df[df[type_col] == st]
            if i == 0:
                t = sub.groupby(user_col, sort=False)[ts_col].min()
            elif not len(t_prev):
                t = t_prev
            else:
                # reset_index so the join key is a plain column on both
                # sides (a named index + same-named column makes the later
                # groupby ambiguous)
                tp = t_prev.rename("_tp").reset_index()
                m = sub.merge(tp, on=user_col, how="inner")
                m = m[m[ts_col] > m["_tp"]]
                t = m.groupby(user_col, sort=False)[ts_col].min()
            counts.append(int(len(t)))
            t_prev = t
        return pd.DataFrame({
            "stage": np.arange(1, len(stages) + 1, dtype="int64"),
            "stage_name": np.array(stages, dtype=object),
            "n_part": np.array(counts, dtype="int64")})

    # pre-filtering to the funnel's event types is the caller's read-time
    # concern (push it into the scan, not a second pass here)
    partials = _bucketed(ds, keys, order, True, kernel, n_buckets)
    return partial_final_agg(partials, ["stage", "stage_name"],
                             [("n_users", "n_part", "sum")])


def last_touch_attribution(ds, convert_type: str, window_us: int,
                           user_col: str = "user_id",
                           type_col: str = "event_type", ts_col: str = "ts",
                           id_col: str = "event_id", value_col: str = "value",
                           n_buckets: int = 64) -> "ray.data.Dataset":
    """Marketing-style last-touch attribution: each `convert_type` event
    binds to the user's most recent PRECEDING non-convert event (strict
    `(ts, id)` order — ties break on the id column) if it lies within
    `window_us` microseconds, else to the sentinel `'none'`. Returns
    (attributed_type, n_conversions, value_s) with value_s the exact
    cents sum of the conversions' values.

    Scale shape: users hash-bucket (ONE shuffle), the in-bucket kernel is
    two cython grouped scans (cummax of source positions + grouped
    shift — no per-user Python), buckets emit per-type PARTIALS, and the
    final combine is a tiny partial+final sum over ≤ |event types| keys."""
    from .aggregates import partial_final_agg

    keys, order = [user_col], [ts_col, id_col]

    def kernel(df: pd.DataFrame, ks: list[str]) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        types = df[type_col].to_numpy(object)
        is_src = types != convert_type
        pos = np.arange(len(df), dtype="int64")
        src_pos = pd.Series(np.where(is_src, pos, -1), dtype="int64")
        g = src_pos.groupby(df[user_col].to_numpy(), sort=False)
        last_prec = g.cummax().groupby(df[user_col].to_numpy(),
                                       sort=False).shift(1, fill_value=-1)
        conv = np.flatnonzero(~is_src)
        if not len(conv):
            return pd.DataFrame({
                "attributed_type": pd.Series(dtype=object),
                "n_part": pd.Series(dtype="int64"),
                "value_part": pd.Series(dtype="int64")})
        src_ix = last_prec.to_numpy("int64")[conv]
        # unit-agnostic epoch microseconds (events ts is timestamp[us];
        # a plain astype(int64) would change meaning with the pandas unit)
        ts_us = ((df[ts_col] - pd.Timestamp(0))
                 // pd.Timedelta(1, "us")).to_numpy("int64")
        ok = src_ix >= 0
        ok[ok] &= (ts_us[conv[ok]] - ts_us[src_ix[ok]]) <= window_us
        attr = np.where(ok, types[np.maximum(src_ix, 0)], "none")
        val = np.floor(df[value_col].to_numpy(np.float64)[conv] * 100.0
                       + 0.5).astype("int64")
        out = pd.DataFrame({"attributed_type": attr, "one": 1, "val": val})
        gg = out.groupby("attributed_type", as_index=False).agg(
            n_part=("one", "sum"), value_part=("val", "sum"))
        gg["n_part"] = gg["n_part"].astype("int64")
        return gg

    partials = _bucketed(ds, keys, order, True, kernel, n_buckets)
    return partial_final_agg(partials, ["attributed_type"],
                             [("n_conversions", "n_part", "sum"),
                              ("value_s", "value_part", "sum")])


def ohlc(ds, partition_by, order_by, value_col: str,
         n_buckets: int = 64) -> "ray.data.Dataset":
    """Open/high/low/close + count per partition — the time-bucketed
    candle aggregate (first/last are ORDER-based selections, not sums, so
    this is not expressible as a plain partial+final agg without argmin
    machinery). One coarse-bucket shuffle; the in-bucket kernel is a single
    vectorized stable-sorted groupby with first/last/max/min/size — values
    are pure selections, bit-identical to SQL's window row_number pick."""
    keys, order = _as_list(partition_by), _as_list(order_by)

    def kernel(df: pd.DataFrame, ks: list[str]) -> pd.DataFrame:
        g = df.groupby(ks, sort=False)[value_col]
        out = g.agg(open_v="first", high_v="max", low_v="min",
                    close_v="last", n="size").reset_index()
        out["n"] = out["n"].astype("int64")
        return out

    return _bucketed(ds, keys, order, True, kernel, n_buckets)


def trailing_range_sum(ds, partition_by, order_col: str, value_col: str,
                       width: int, out_col: str = "trailing",
                       n_buckets: int = 64) -> "ray.data.Dataset":
    """RANGE-frame trailing window: `SUM(v) OVER (PARTITION BY key ORDER BY
    o RANGE BETWEEN width-1 PRECEDING AND CURRENT ROW)` for an INTEGER
    order column (e.g. epoch days) — the value-based complement to
    `moving_sum`'s row-count frame.

    Contract: (key, order) pairs are UNIQUE (callers pre-aggregate peers —
    a per-day sums table — exactly the peer semantics SQL's RANGE frame
    gives for free). One coarse-bucket shuffle; in-bucket cumsum + ONE
    vectorized backward merge_asof against (order − width) finds each
    row's window base — no per-group Python loop. Exact for int64 values
    with per-partition cumsums under 2^53 (the asof miss passes through a
    float64 NaN hole)."""
    keys = _as_list(partition_by)

    def kernel(df: pd.DataFrame, ks: list[str]) -> pd.DataFrame:
        df = df.reset_index(drop=True)
        cs = df.groupby(ks, sort=False)[value_col].cumsum()
        df["_cs"] = cs
        left = df.assign(_tgt=df[order_col] - width).sort_values(
            "_tgt", kind="mergesort")
        right = df[ks + [order_col, "_cs"]].sort_values(
            order_col, kind="mergesort").rename(
            columns={order_col: "_ro", "_cs": "_base"})
        m = pd.merge_asof(left, right, left_on="_tgt", right_on="_ro",
                          by=ks, direction="backward")
        base = np.nan_to_num(m["_base"].to_numpy(np.float64), nan=0.0)
        win = m["_cs"].to_numpy(np.float64) - base
        if pd.api.types.is_integer_dtype(df[value_col].dtype):
            m[out_col] = win.astype("int64")
        else:
            m[out_col] = win
        return m.drop(columns=["_cs", "_tgt", "_ro", "_base"])

    return _bucketed(ds, keys, [order_col], True, kernel, n_buckets)


def transition_counts(ds, partition_by, order_by, state_col: str,
                      n_buckets: int = 64) -> "ray.data.Dataset":
    """Markov transition counts: per partition, ordered by `order_by`,
    count adjacent (prev_state, next_state) pairs — the first-order
    sequence-mining primitive (event-flow graphs, session path analysis).
    One coarse-bucket shuffle; per-bucket vectorized shift + grouped
    partials, so only |states|² rows per bucket travel to the tiny final
    combine."""
    from .aggregates import partial_final_agg

    keys, order = _as_list(partition_by), _as_list(order_by)

    def kernel(df: pd.DataFrame, ks: list[str]) -> pd.DataFrame:
        prev = df.groupby(ks, sort=False)[state_col].shift(1)
        m = prev.notna().to_numpy()
        out = pd.DataFrame({
            "prev_state": prev.to_numpy(object)[m],
            "next_state": df[state_col].to_numpy(object)[m]})
        g = out.groupby(["prev_state", "next_state"], sort=False,
                        as_index=False).size()
        return g.rename(columns={"size": "n_p"})

    partials = _bucketed(ds, keys, order, True, kernel, n_buckets)
    return partial_final_agg(partials, ["prev_state", "next_state"],
                             [("n", "n_p", "sum")])


def ordered_prefix_sum(ds: "ray.data.Dataset", partition_by, order_col: str,
                       value_col: str, out_col: str = "cum",
                       n_bands: int = 64) -> "ray.data.Dataset":
    """Global ordered INCLUSIVE prefix sum of `value_col` per partition key
    — `SUM(v) OVER (PARTITION BY k ORDER BY o)` for partitions too large
    for one task (the per-key cumsum in `running_sum` handles the
    high-cardinality-key case; this primitive handles the opposite: FEW
    partitions, each spanning the whole dataset).

    Two-phase banded scan: (0) one tiny pass finds the global [lo, hi] of
    `order_col`; rows route to `n_bands` order-aligned range bands (the
    float band expression only ROUTES rows — sums stay exact int64, so
    banding does not affect results); (1) per-(partition, band) sums —
    bounded at |partitions| × n_bands rows — collect to the driver, which
    computes exclusive band offsets per partition and broadcasts them;
    (2) each (partition, band) group sorts locally and adds its offset.

    Contract: `order_col` values are UNIQUE within a partition (callers
    pre-aggregate ties first — a distinct (key, order) table), and the
    partition cardinality is bounded (offsets live on the driver)."""
    keys = _as_list(partition_by)

    def block_env(t) -> "pd.DataFrame":
        col = t[order_col]
        import pyarrow.compute as _pc

        return pd.DataFrame({"lo": [_pc.min(col).as_py()],
                             "hi": [_pc.max(col).as_py()]})

    env = ds.select_columns([order_col]).map_batches(
        block_env, batch_format="pyarrow").to_pandas()
    lo = float(env["lo"].min())
    hi = float(env["hi"].max())
    span = (hi - lo) or 1.0

    def stamp(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        o = df[order_col].to_numpy(np.float64)
        b = np.floor((o - lo) * float(n_bands) / span)
        df["_band"] = np.clip(b, 0, n_bands - 1).astype(np.int64)
        return df

    stamped = ds.map_batches(stamp, batch_format="pandas").materialize()

    def band_partials(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys + ["_band"], sort=False)[value_col].sum()
        out = g.index.to_frame(index=False)
        out["_bsum"] = g.to_numpy()
        return out

    bs = (stamped.map_batches(band_partials, batch_format="pandas")
          .to_pandas()
          .groupby(keys + ["_band"], sort=False)["_bsum"].sum()
          .reset_index()
          .sort_values(keys + ["_band"], kind="mergesort"))
    grp = bs.groupby(keys, sort=False)["_bsum"]
    bs["_off"] = grp.cumsum() - bs["_bsum"]
    off = {tuple(r[k] for k in keys) + (r["_band"],): r["_off"]
           for r in bs.to_dict("records")}
    import ray as _ray

    off_ref = _ray.put(off)

    def per_band(df: pd.DataFrame) -> pd.DataFrame:
        offs = _ray.get(off_ref)
        df = df.sort_values(keys + [order_col], kind="mergesort").copy()
        cum = df.groupby(keys, sort=False)[value_col].cumsum()
        key0 = tuple(df.iloc[0][k] for k in keys) + (df.iloc[0]["_band"],)
        # one (partition, band) per group — a single offset applies
        df[out_col] = cum + offs[key0]
        return df.drop(columns=["_band"])

    return stamped.groupby(keys + ["_band"]).map_groups(
        per_band, batch_format="pandas")


def ordered_prefix_max(ds: "ray.data.Dataset", order_col: str,
                       value_col: str, out_col: str = "wm",
                       n_bands: int = 64) -> "ray.data.Dataset":
    """Global EXCLUSIVE running max of `value_col` in `order_col` order —
    the streaming WATERMARK primitive (`MAX(v) OVER (ORDER BY o ROWS
    BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)`): each row sees the max
    value of all rows that ARRIVED before it.

    Same two-phase banded scan as `ordered_prefix_sum` (bands only route;
    results are exact): per-band int64 max partials collect to the driver,
    which broadcasts exclusive prefix maxima per band; each band then
    sorts locally and combines its shifted cummax with the band offset.
    Rows with no predecessor anywhere emit INT64_MIN (the SQL NULL twin —
    compare with `wm > x + L`, never `wm - x`, so the sentinel stays on
    the false side without overflow). Contract: `order_col` values are
    unique ints; `value_col` is int64."""
    import ray as _ray

    SENT = np.iinfo(np.int64).min

    def block_env(t) -> "pd.DataFrame":
        import pyarrow.compute as _pc

        col = t[order_col]
        return pd.DataFrame({"lo": [_pc.min(col).as_py()],
                             "hi": [_pc.max(col).as_py()]})

    env = ds.select_columns([order_col]).map_batches(
        block_env, batch_format="pyarrow").to_pandas()
    lo = float(env["lo"].min())
    hi = float(env["hi"].max())
    span = (hi - lo) or 1.0

    def stamp(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        o = df[order_col].to_numpy(np.float64)
        b = np.floor((o - lo) * float(n_bands) / span)
        df["_band"] = np.clip(b, 0, n_bands - 1).astype(np.int64)
        return df

    stamped = ds.map_batches(stamp, batch_format="pandas").materialize()

    def band_partials(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("_band", sort=False)[value_col].max()
        return pd.DataFrame({"_band": g.index.to_numpy("int64"),
                             "_bmax": g.to_numpy("int64")})

    bs = (stamped.map_batches(band_partials, batch_format="pandas")
          .to_pandas()
          .groupby("_band", sort=False)["_bmax"].max()
          .sort_index())
    bands = bs.index.to_numpy("int64")
    maxes = bs.to_numpy("int64")
    # exclusive prefix max over band order
    off = {}
    run = SENT
    for b, m in zip(bands, maxes):
        off[int(b)] = run
        run = max(run, int(m))
    off_ref = _ray.put(off)

    def per_band(df: pd.DataFrame) -> pd.DataFrame:
        offs = _ray.get(off_ref)
        df = df.sort_values(order_col, kind="mergesort").copy()
        v = df[value_col].to_numpy("int64")
        cm = np.maximum.accumulate(v)
        excl = np.concatenate(([SENT], cm[:-1]))
        df[out_col] = np.maximum(excl, offs[int(df.iloc[0]["_band"])])
        return df.drop(columns=["_band"])

    return stamped.groupby("_band").map_groups(per_band,
                                               batch_format="pandas")
