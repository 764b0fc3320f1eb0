"""Shuffle-aware aggregation helpers vs pandas oracles."""

import numpy as np
import pandas as pd
import pytest

import ray.data

from dygiepp_ray.aggregates import distinct_first, grouped_count, top_k


@pytest.fixture(scope="module")
def skewed_df():
    rng = np.random.RandomState(0)
    # Zipfian keys: key_0 dominates (the hot-key case salting exists for)
    keys = [f"key_{min(int(rng.zipf(1.5)), 20)}" for _ in range(5000)]
    return pd.DataFrame({"k": keys, "v": rng.randint(0, 100, size=5000)})


def test_grouped_count_unsalted(skewed_df):
    ds = ray.data.from_pandas(skewed_df)
    got = grouped_count(ds, ["k"], out_name="n").to_pandas()
    want = skewed_df.groupby("k").size().rename("n").reset_index()
    merged = got.sort_values("k").reset_index(drop=True).merge(want, on="k")
    assert (merged["n_x"] == merged["n_y"]).all()
    assert len(got) == len(want)


def test_grouped_count_salted_equals_unsalted(skewed_df):
    ds = ray.data.from_pandas(skewed_df)
    a = grouped_count(ds, ["k"], out_name="n", salt_buckets=1).to_pandas()
    b = grouped_count(ds, ["k"], out_name="n", salt_buckets=8).to_pandas()
    a = a.sort_values("k").reset_index(drop=True)
    b = b.sort_values("k").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_grouped_count_multi_key(skewed_df):
    skewed_df = skewed_df.assign(parity=skewed_df["v"] % 2)
    ds = ray.data.from_pandas(skewed_df)
    got = grouped_count(ds, ["k", "parity"], out_name="n", salt_buckets=4).to_pandas()
    want = skewed_df.groupby(["k", "parity"]).size().rename("n").reset_index()
    m = got.merge(want, on=["k", "parity"])
    assert len(m) == len(want) and (m["n_x"] == m["n_y"]).all()


def test_distinct_first(skewed_df):
    ds = ray.data.from_pandas(skewed_df)
    got = distinct_first(ds, ["k"]).to_pandas()
    assert len(got) == skewed_df["k"].nunique()
    # deterministic representative: the row that sorts first within the group
    want_v = skewed_df.sort_values(["k", "v"]).groupby("k").head(1)
    m = got.merge(want_v, on="k")
    assert (m["v_x"] == m["v_y"]).all()


def test_top_k(skewed_df):
    ds = ray.data.from_pandas(skewed_df)
    got = top_k(ds, "v", 17).to_pandas()
    want = skewed_df["v"].nlargest(17).tolist()
    assert sorted(got["v"].tolist(), reverse=True) == want


def _rank_quantile(vals, q):
    # DuckDB quantile_disc: 1-indexed rank ceil(q*n), clamped >= 1
    import math

    s = sorted(vals)
    return s[max(1, math.ceil(q * len(s))) - 1]


def test_distributed_quantiles_exact_vs_rank_oracle():
    import numpy as np
    import pandas as pd

    import ray.data

    from dygiepp_ray.aggregates import distributed_quantiles

    rng = np.random.RandomState(3)
    vals = np.concatenate([rng.uniform(0, 100, 500),
                           np.full(300, 42.5),  # heavy duplication
                           rng.uniform(1000, 1001, 7)])  # outlier bin
    ds = ray.data.from_pandas(pd.DataFrame({"v": vals})).repartition(8)
    qs = [0.0, 0.1, 0.5, 0.77, 0.9, 1.0]
    got = distributed_quantiles(ds, "v", qs, n_bins=16)  # few bins: forces
    # multi-value candidate bins and the exact in-bin rank walk
    for q, v in zip(got["q"], got["v"]):
        assert v == _rank_quantile(vals, q), q


def test_distributed_quantiles_grouped_and_degenerate():
    import numpy as np
    import pandas as pd

    import ray.data

    from dygiepp_ray.aggregates import distributed_quantiles

    df = pd.DataFrame({
        "g": ["a"] * 10 + ["b"] * 4,
        "v": list(np.arange(10, dtype=float)) + [7.0, 7.0, 7.0, 7.0],
    })  # group b: min == max (degenerate single-bin group)
    got = distributed_quantiles(ray.data.from_pandas(df).repartition(3),
                                "v", [0.25, 0.5, 1.0], by="g", n_bins=8)
    by_key = {(g, q): v for g, q, v in zip(got["g"], got["q"], got["v"])}
    assert by_key[("a", 0.25)] == 2.0  # rank ceil(2.5)=3 -> sorted[2]
    assert by_key[("a", 0.5)] == 4.0
    assert by_key[("a", 1.0)] == 9.0
    assert all(by_key[("b", q)] == 7.0 for q in (0.25, 0.5, 1.0))


def test_rollup_count_int_keys(skewed_df):
    # ADVICE r2: integer group keys must come back as ints in every rollup
    # level (collapsed levels previously cast all keys to string)
    from dygiepp_ray.aggregates import rollup_count

    df = skewed_df.assign(ik=(skewed_df["v"] % 3).astype("int64"),
                          jk=(skewed_df["v"] % 2).astype("int64"))
    ds = ray.data.from_pandas(df)
    got = rollup_count(ds, ["ik", "jk"], out_name="n").to_pandas()
    assert str(got["ik"].dtype) in ("Int64", "int64", "float64", "object")
    non_null = got[got["ik"].notna()]
    # values must remain integral, not '0'/'1' strings
    assert all(isinstance(v, (int, float)) or hasattr(v, "item")
               for v in non_null["ik"])
    total = got[got["ik"].isna() & got["jk"].isna()]
    assert total["n"].iloc[0] == len(df)


def test_rollup_count(skewed_df):
    from dygiepp_ray.aggregates import rollup_count

    df = skewed_df.assign(parity=(skewed_df["v"] % 2).astype(str))
    ds = ray.data.from_pandas(df)
    got = rollup_count(ds, ["k", "parity"], out_name="n").to_pandas()

    finest = df.groupby(["k", "parity"]).size().rename("n").reset_index()
    lvl1 = df.groupby("k").size().rename("n").reset_index().assign(parity=None)
    total = pd.DataFrame({"k": [None], "parity": [None], "n": [len(df)]})
    want = pd.concat([finest, lvl1, total], ignore_index=True)[
        ["k", "parity", "n"]]

    key = lambda f: f.fillna("\x00").sort_values(["k", "parity"]).reset_index(
        drop=True)  # noqa: E731
    got_s, want_s = key(got), key(want)
    assert len(got_s) == len(want_s)
    pd.testing.assert_frame_equal(got_s, want_s, check_dtype=False)


def test_broadcast_set_filter_semi_and_anti():
    import ray as _ray

    from dygiepp_ray.state.broadcast import BroadcastSetFilter

    df = pd.DataFrame({"id": range(100), "v": range(100)})
    ds = ray.data.from_pandas(df)
    keys_ref = _ray.put([5, 7, 11, 200])
    semi = ds.map_batches(
        BroadcastSetFilter(keys_ref, "id", keep_if_member=True),
        batch_format="pyarrow").to_pandas()
    assert sorted(semi["id"]) == [5, 7, 11]
    anti = ds.map_batches(
        BroadcastSetFilter(keys_ref, "id", keep_if_member=False),
        batch_format="pyarrow").to_pandas()
    assert len(anti) == 97 and not {5, 7, 11} & set(anti["id"])


def test_group_zscore_outliers_vs_pandas():
    import numpy as np

    from dygiepp_ray.aggregates import group_zscore_outliers

    rng = np.random.RandomState(5)
    df = pd.DataFrame({
        "g": rng.choice(["a", "b"], size=300),
        "x": np.floor(rng.exponential(50.0, size=300) * 100 + 0.5
                      ).astype("int64"),
        "rid": np.arange(300, dtype="int64"),
    })
    got = group_zscore_outliers(
        ray.data.from_pandas(df).repartition(3), key="g", x_col="x",
        keep_cols=["rid", "g", "x"], t_sigma=2).to_pandas()
    # pandas population-stddev oracle
    want_ids = []
    for g, sub in df.groupby("g"):
        mu = sub["x"].mean()
        sd = sub["x"].std(ddof=0)
        want_ids.extend(sub.loc[(sub["x"] - mu).abs() > 2 * sd, "rid"])
    assert sorted(got["rid"]) == sorted(want_ids)
    assert len(want_ids) > 0  # the fixture must exercise the flag path


def test_group_zscore_outliers_admission_guard():
    import numpy as np

    import pytest

    from dygiepp_ray.aggregates import group_zscore_outliers

    df = pd.DataFrame({"g": [f"g{i}" for i in range(30)],
                       "x": np.arange(30, dtype="int64")})
    with pytest.raises(ValueError, match="admission guard"):
        group_zscore_outliers(ray.data.from_pandas(df), key="g", x_col="x",
                              keep_cols=["g", "x"], max_groups=10).to_pandas()


def test_argmax_per_key_matches_pandas():
    import numpy as np

    from dygiepp_ray.aggregates import argmax_per_key

    rng = np.random.RandomState(12)
    df = pd.DataFrame({
        "k": rng.choice([f"e{i}" for i in range(25)], size=200),
        "lab": rng.choice(list("abcd"), size=200),
        "n": rng.randint(0, 5, size=200).astype("int64"),
    })
    # collapse to (k, lab) counts first so ties exercise the lab tie-break
    cnt = df.groupby(["k", "lab"], as_index=False)["n"].sum()
    want = (cnt.sort_values(["k", "n", "lab"],
                            ascending=[True, False, True])
            .groupby("k").head(1).set_index("k")["lab"].to_dict())
    for nb in (3, 16):
        got = argmax_per_key(
            ray.data.from_pandas(cnt).repartition(3), key="k",
            order_cols=["n", "lab"], ascending=[False, True],
            keep_cols=["k", "lab", "n"], n_buckets=nb).to_pandas()
        assert len(got) == len(want)
        assert dict(zip(got["k"], got["lab"])) == want
