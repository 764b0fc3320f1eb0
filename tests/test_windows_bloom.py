"""Window family + Bloom-filter broadcast membership."""

import numpy as np
import pandas as pd

import ray.data

from dygiepp_ray.state.broadcast import BloomFilter, bloom_anti_join
from dygiepp_ray.windows import lag_diff, row_number, running_sum, top_n_per_key


def _df():
    rng = np.random.RandomState(4)
    return pd.DataFrame({
        "k": rng.randint(0, 10, size=200),
        "ts": rng.permutation(200),
        "v": rng.randint(0, 100, size=200).astype(float),
    })


def test_row_number():
    got = row_number(ray.data.from_pandas(_df()), "k", "ts").to_pandas()
    for k, g in got.groupby("k"):
        g = g.sort_values("ts")
        assert g["rn"].tolist() == list(range(1, len(g) + 1))


def test_top_n_per_key():
    df = _df()
    got = top_n_per_key(ray.data.from_pandas(df), "k", "v", 3).to_pandas()
    for k, g in df.groupby("k"):
        want = set(g.nlargest(3, "v")["v"])  # may have ties; compare counts
        assert len(got[got["k"] == k]) == min(3, len(g))
        assert set(got[got["k"] == k]["v"]) <= set(g["v"])


def test_running_sum_and_lag():
    df = _df()
    rs = running_sum(ray.data.from_pandas(df), "k", "ts", "v").to_pandas()
    for k, g in rs.groupby("k"):
        g = g.sort_values("ts")
        assert np.allclose(g["running"], g["v"].cumsum())
    ld = lag_diff(ray.data.from_pandas(df), "k", "ts", "v").to_pandas()
    for k, g in ld.groupby("k"):
        g = g.sort_values("ts")
        assert g["delta"].iloc[0] != g["delta"].iloc[0]  # NaN first row
        assert np.allclose(g["delta"].iloc[1:], g["v"].diff().iloc[1:])


def test_bloom_no_false_negatives():
    keys = [f"key{i}" for i in range(5000)]
    bf = BloomFilter.from_keys(keys, fpr=0.01)
    assert all(k in bf for k in keys)
    # false-positive rate near spec
    fp = sum(f"other{i}" in bf for i in range(10000)) / 10000
    assert fp < 0.03, fp


def test_bloom_anti_join():
    ds = ray.data.from_pandas(pd.DataFrame({"id": [f"row{i}" for i in range(1000)]}))
    member_keys = [f"row{i}" for i in range(0, 1000, 2)]  # evens
    got = bloom_anti_join(ds, member_keys, "id", fpr=0.001).to_pandas()
    ids = set(got["id"])
    # no member survives (no false negatives)
    assert not ids & set(member_keys)
    # nearly all non-members survive (false positives ≤ ~0.1%+slack)
    assert len(ids) >= 490


def test_sessionize_vs_pandas():
    from dygiepp_ray.windows import sessionize

    rng = np.random.RandomState(11)
    n = 300
    df = pd.DataFrame({
        "user": rng.randint(0, 12, size=n),
        "eid": np.arange(n),
        "ts": pd.Timestamp("2024-01-01")
        + pd.to_timedelta(rng.randint(0, 86400 * 3, size=n), unit="s"),
    })
    gap = pd.Timedelta(minutes=45)
    got = (sessionize(ray.data.from_pandas(df).repartition(4), "user", "ts",
                      gap, tiebreak_col="eid")
           .to_pandas().set_index("user").sort_index())
    for u, g in df.groupby("user"):
        g = g.sort_values(["ts", "eid"])
        n_sessions = int((g["ts"].diff() > gap).sum()) + 1
        assert got.loc[u, "n_sessions"] == n_sessions
        assert got.loc[u, "n_events"] == len(g)


def test_generic_window_fn():
    from dygiepp_ray.windows import window

    df = _df()

    def last_two(g: pd.DataFrame) -> pd.DataFrame:
        return g.tail(2)

    got = window(ray.data.from_pandas(df).repartition(3), "k", "ts",
                 last_two).to_pandas()
    for k, g in df.groupby("k"):
        want = g.sort_values("ts").tail(2)["ts"].tolist()
        have = sorted(got[got["k"] == k]["ts"].tolist())
        assert have == sorted(want)


def test_events_retention_shape():
    """Retention query: distinct (user, day) self-join — synthetic check
    through the registered query at sf0.001 (`conftest.py` puts this
    checkout's root first on `sys.path`)."""
    import __ray_entry__ as E

    got = E.queries()["events_retention"]("/root/testdata/sf0.001").to_pandas()
    assert set(got.columns) == {"day", "retained"}
    assert (got["retained"] > 0).all()
    # 30 days of events -> at most 29 adjacent-day rows
    assert 0 < len(got) <= 29


def _funnel_oracle(df, stages):
    """Per-user first-touch funnel counts, pure pandas."""
    counts = []
    t_prev = None
    for i, st in enumerate(stages):
        sub = df[df["event_type"] == st]
        if i == 0:
            t = sub.groupby("user_id")["ts"].min()
        else:
            m = sub.merge(t_prev.rename("_tp"), left_on="user_id",
                          right_index=True, how="inner")
            t = m[m["ts"] > m["_tp"]].groupby("user_id")["ts"].min()
        counts.append(len(t))
        t_prev = t
    return counts


def test_funnel_counts_vs_pandas_oracle():
    from dygiepp_ray.windows import funnel_counts

    rng = np.random.RandomState(9)
    n = 400
    df = pd.DataFrame({
        "user_id": rng.randint(0, 40, size=n),
        "event_type": rng.choice(["view", "click", "purchase"], size=n,
                                 p=[0.5, 0.3, 0.2]),
        "ts": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.permutation(n), unit="m"),
    })
    stages = ["view", "click", "purchase"]
    want = _funnel_oracle(df, stages)
    for nb in (4, 64):
        got = funnel_counts(ray.data.from_pandas(df).repartition(3),
                            stages, n_buckets=nb).to_pandas()
        got = got.sort_values("stage")
        assert got["stage_name"].tolist() == stages
        assert got["n_users"].astype(int).tolist() == want


def test_funnel_counts_order_constraint_is_strict():
    from dygiepp_ray.windows import funnel_counts

    t0 = pd.Timestamp("2024-01-01")
    # u1 completes in order; u2 clicks BEFORE viewing (stage 2 not reached);
    # u3 clicks at exactly the view timestamp (strict > → not reached)
    df = pd.DataFrame({
        "user_id":    [1, 1, 1, 2, 2, 3, 3],
        "event_type": ["view", "click", "purchase",
                       "click", "view", "view", "click"],
        "ts": [t0, t0 + pd.Timedelta("1min"), t0 + pd.Timedelta("2min"),
               t0, t0 + pd.Timedelta("1min"), t0, t0],
    })
    got = funnel_counts(ray.data.from_pandas(df),
                        ["view", "click", "purchase"]).to_pandas()
    got = got.sort_values("stage")
    assert got["n_users"].astype(int).tolist() == [3, 1, 1]


def test_ordered_prefix_sum_golden_and_band_invariance():
    import pandas as pd

    import ray.data
    from dygiepp_ray.windows import ordered_prefix_sum

    df = pd.DataFrame({
        "k": ["a"] * 5 + ["b"] * 3,
        "o": [1.0, 2.0, 5.0, 7.0, 9.0, 2.0, 4.0, 6.0],
        "v": [10, 20, 30, 40, 50, 1, 2, 3],
    })
    got = ordered_prefix_sum(ray.data.from_pandas(df), "k", "o", "v",
                             out_col="cum", n_bands=4).to_pandas(
        ).sort_values(["k", "o"]).reset_index(drop=True)
    assert got["cum"].tolist() == [10, 30, 60, 100, 150, 1, 3, 6]
    # band count must not affect results (banding only routes rows)
    one = ordered_prefix_sum(ray.data.from_pandas(df), "k", "o", "v",
                             n_bands=1).to_pandas().sort_values(
        ["k", "o"]).reset_index(drop=True)
    many = ordered_prefix_sum(ray.data.from_pandas(df).repartition(4),
                              "k", "o", "v", n_bands=16).to_pandas(
        ).sort_values(["k", "o"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(one, many)
    assert one["cum"].tolist() == got["cum"].tolist()


def test_moving_sum_vs_pandas_rolling_and_partition_invariance():
    import numpy as np
    import pandas as pd

    import ray.data
    from dygiepp_ray.windows import moving_sum

    rng = np.random.RandomState(7)
    df = pd.DataFrame({
        "k": rng.randint(0, 5, 40),
        "o": np.arange(40),
        "v": rng.randint(-100, 100, 40).astype("int64"),
    })
    want = df.sort_values(["k", "o"]).copy()
    want["m"] = (want.groupby("k")["v"]
                 .transform(lambda s: s.rolling(3, min_periods=1).sum())
                 .astype("int64"))
    exp = {(r.k, r.o): r.m for r in want.itertuples()}

    for nparts in (1, 6):
        got = moving_sum(ray.data.from_pandas(df).repartition(nparts),
                         "k", "o", "v", k=3, out_col="m",
                         n_buckets=4).to_pandas()
        assert got["m"].dtype == np.dtype("int64")
        assert {(r.k, r.o): r.m for r in got.itertuples()} == exp


def test_transition_counts_golden_and_partition_invariance():
    import pandas as pd

    import ray.data
    from dygiepp_ray.windows import transition_counts

    df = pd.DataFrame({
        "u": [1, 1, 1, 2, 2, 3],
        "o": [1, 2, 3, 1, 2, 1],
        "s": ["a", "b", "a", "a", "a", "b"],
    })
    # u1: a->b, b->a ; u2: a->a ; u3: none
    want = {("a", "b"): 1, ("b", "a"): 1, ("a", "a"): 1}
    for nparts in (1, 5):
        got = transition_counts(
            ray.data.from_pandas(df).repartition(nparts), "u", "o", "s",
            n_buckets=4).to_pandas()
        assert {(r.prev_state, r.next_state): int(r.n)
                for r in got.itertuples()} == want


def test_trailing_range_sum_vs_bruteforce_and_invariance():
    import numpy as np
    import pandas as pd

    import ray.data
    from dygiepp_ray.windows import trailing_range_sum

    rng = np.random.RandomState(3)
    rows = []
    for k in range(4):
        days = np.sort(rng.choice(np.arange(0, 30), size=12, replace=False))
        for d in days:
            rows.append((k, int(d), int(rng.randint(-50, 50))))
    df = pd.DataFrame(rows, columns=["k", "day", "v"])

    W = 7
    want = {}
    for r in df.itertuples():
        sub = df[(df["k"] == r.k) & (df["day"] <= r.day)
                 & (df["day"] > r.day - W)]
        want[(r.k, r.day)] = int(sub["v"].sum())

    for nparts in (1, 5):
        got = trailing_range_sum(
            ray.data.from_pandas(df).repartition(nparts), "k", "day", "v",
            width=W, out_col="t", n_buckets=4).to_pandas()
        assert got["t"].dtype == np.dtype("int64")
        assert {(r.k, r.day): int(r.t) for r in got.itertuples()} == want


def test_ohlc_golden_and_partition_invariance():
    import pandas as pd

    import ray.data
    from dygiepp_ray.windows import ohlc

    df = pd.DataFrame({
        "k": ["a", "a", "a", "b", "b"],
        "o": [3, 1, 2, 1, 1],
        "tb": [0, 0, 0, 0, 1],   # tiebreak for b's duplicate order key
        "v": [30.0, 10.0, 20.0, 5.0, 7.0],
    })
    want = {"a": (10.0, 30.0, 10.0, 30.0, 3), "b": (5.0, 7.0, 5.0, 7.0, 2)}
    for nparts in (1, 4):
        got = ohlc(ray.data.from_pandas(df).repartition(nparts),
                   "k", ["o", "tb"], "v", n_buckets=4).to_pandas()
        assert {r.k: (r.open_v, r.high_v, r.low_v, r.close_v, int(r.n))
                for r in got.itertuples()} == want


def test_rank_with_ties_and_ntile_goldens():
    import pandas as pd

    import ray.data
    from dygiepp_ray.windows import ntile, rank_with_ties

    df = pd.DataFrame({
        "k": ["a"] * 5 + ["b"] * 7,
        "v": [10, 10, 5, 5, 1, 9, 8, 8, 8, 2, 2, 1],
        "id": list(range(12)),
    })
    got = rank_with_ties(ray.data.from_pandas(df).repartition(3),
                         "k", ["v"], ascending=False, n_buckets=4
                         ).to_pandas()
    want_rnk = {}
    for kk, grp in df.groupby("k"):
        for r in grp.itertuples():
            want_rnk[r.id] = 1 + int((grp["v"] > r.v).sum())
    assert {r.id: int(r.rnk) for r in got.itertuples()} == want_rnk

    got_t = ntile(ray.data.from_pandas(df).repartition(3),
                  "k", ["v", "id"], k=3, n_buckets=4).to_pandas()
    # a: n=5, k=3 -> sizes 2,2,1 ; b: n=7 -> sizes 3,2,2 (SQL remainder rule)
    sizes = got_t.groupby(["k", "tile"]).size().to_dict()
    assert sizes == {("a", 1): 2, ("a", 2): 2, ("a", 3): 1,
                     ("b", 1): 3, ("b", 2): 2, ("b", 3): 2}
    # tiles respect the order: max v of tile i <= min v of tile i+1
    for kk, grp in got_t.groupby("k"):
        srt = grp.sort_values(["v", "id"])
        assert srt["tile"].is_monotonic_increasing


def test_ordered_prefix_max_golden_and_band_invariance():
    import numpy as np
    import pandas as pd

    import ray.data
    from dygiepp_ray.windows import ordered_prefix_max

    rng = np.random.RandomState(11)
    df = pd.DataFrame({
        "o": rng.permutation(40),
        "v": rng.randint(-1000, 1000, 40).astype("int64"),
    })
    srt = df.sort_values("o").reset_index(drop=True)
    SENT = np.iinfo(np.int64).min
    want = {}
    run = SENT
    for r in srt.itertuples():
        want[int(r.o)] = run
        run = max(run, int(r.v))

    for nparts, nbands in ((1, 1), (4, 8)):
        got = ordered_prefix_max(
            ray.data.from_pandas(df).repartition(nparts), "o", "v",
            out_col="wm", n_bands=nbands).to_pandas()
        assert {int(r.o): int(r.wm) for r in got.itertuples()} == want


# ------------------------------------------------- last-touch attribution


def _attribution_oracle(df, window_us):
    """Row-by-row pandas re-walk of the last-touch contract."""
    out = {}
    df = df.sort_values(["user_id", "ts", "event_id"]).reset_index(drop=True)
    for _, g in df.groupby("user_id"):
        rows = list(g.itertuples())
        for i, r in enumerate(rows):
            if r.event_type != "purchase":
                continue
            attr = "none"
            for s in reversed(rows[:i]):
                if s.event_type != "purchase":
                    d_us = (r.ts - s.ts) // pd.Timedelta(1, "us")
                    if d_us <= window_us:
                        attr = s.event_type
                    break
            cents = int(np.floor(r.value * 100 + 0.5))
            n, v = out.get(attr, (0, 0))
            out[attr] = (n + 1, v + cents)
    return out


def test_last_touch_attribution_vs_oracle_and_invariance():
    from dygiepp_ray.windows import last_touch_attribution

    rng = np.random.RandomState(13)
    n = 500
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype="int64"),
        "user_id": rng.randint(0, 30, size=n),
        "event_type": rng.choice(["view", "click", "purchase", "error"],
                                 size=n, p=[0.4, 0.3, 0.2, 0.1]),
        "ts": pd.to_datetime("2024-01-01")
        + pd.to_timedelta(rng.randint(0, 20 * 1440, size=n), unit="m"),
        "value": rng.uniform(0, 50, size=n).round(2),
    })
    win = 7 * 86400 * 1_000_000
    want = _attribution_oracle(df, win)
    for nparts, nb in ((1, 4), (5, 64)):
        got = last_touch_attribution(
            ray.data.from_pandas(df).repartition(nparts), "purchase",
            window_us=win, n_buckets=nb).to_pandas()
        have = {r.attributed_type: (int(r.n_conversions), int(r.value_s))
                for r in got.itertuples()}
        assert have == want


def test_last_touch_attribution_window_and_tiebreak():
    from dygiepp_ray.windows import last_touch_attribution

    t0 = pd.Timestamp("2024-01-01")
    day = pd.Timedelta("1d")
    # u1: view 8 days before purchase → outside 7d window → none
    # u2: view and click at the SAME ts; event_id order makes click later
    #     → click wins (strict (ts, id) order)
    # u3: purchase then view after it → nothing precedes → none
    df = pd.DataFrame({
        "event_id":   [1, 2, 3, 4, 5, 6, 7],
        "user_id":    [1, 1, 2, 2, 2, 3, 3],
        "event_type": ["view", "purchase", "view", "click", "purchase",
                       "purchase", "view"],
        "ts": [t0, t0 + 8 * day, t0, t0, t0 + day, t0, t0 + day],
        "value": [0.0, 10.0, 0.0, 0.0, 20.0, 30.0, 0.0],
    })
    got = last_touch_attribution(
        ray.data.from_pandas(df), "purchase",
        window_us=7 * 86400 * 1_000_000).to_pandas()
    have = {r.attributed_type: (int(r.n_conversions), int(r.value_s))
            for r in got.itertuples()}
    assert have == {"none": (2, 4000), "click": (1, 2000)}
