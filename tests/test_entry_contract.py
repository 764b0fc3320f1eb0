"""Driver-contract smoke: queries()/oracle_sql() shape + a fast spot-check."""

import duckdb


def _entrymod():
    import __ray_entry__

    return __ray_entry__


def test_oracle_keys_subset_of_queries():
    m = _entrymod()
    qs, oracles = m.queries(), m.oracle_sql()
    assert set(oracles) <= set(qs)
    assert len(qs) >= 20
    assert len(oracles) >= 12


def test_spot_check_vs_duckdb():
    m = _entrymod()
    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    for t in ("orders", "lineitem", "documents"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")
    for name in ("topk_orders", "token_stats"):
        ours = m.queries()[name](sf).to_pandas()
        theirs = con.execute(m.oracle_sql()[name]).fetchdf()
        ours = ours[sorted(ours.columns)].sort_values(list(sorted(ours.columns))).reset_index(drop=True)
        theirs = theirs[sorted(theirs.columns)].sort_values(list(sorted(theirs.columns))).reset_index(drop=True)
        assert len(ours) == len(theirs), name
        for c in ours.columns:
            assert (ours[c].astype(str).values == theirs[c].astype(str).values).all(), (name, c)


def test_kg_build_resume_builds_fresh_on_every_call(monkeypatch):
    """`kg_build_resume` builds into its own fresh directory on each call:
    on a second call its first `build_kg` still writes all 16 buckets, its
    second writes none, and no build directory is left behind."""
    import os

    from dygiepp_ray.pipelines import kg as kgp

    m = _entrymod()
    build, calls = kgp.build_kg, []

    def spy(corpus, out, *args, **kwargs):
        res = build(corpus, out, *args, **kwargs)
        calls.append((out, len(res["written_buckets"])))
        return res

    monkeypatch.setattr(kgp, "build_kg", spy)
    for _ in range(2):
        got = m.queries()["kg_build_resume"]("/root/testdata/sf0.001")
        assert len(got) == 16 and (got["second_written"] == 0).all()
    assert [n for _, n in calls] == [16, 0, 16, 0]
    assert not any(os.path.exists(out) for out, _ in calls)


def test_store_build_removes_other_salt_stores():
    """Building a persisted store deletes what an older code salt left for
    the same sf tier in that store family (finished stores and `.build-`
    leftovers alike), and keeps the new store and other tiers' stores."""
    import inspect
    import os
    import shutil

    from scripts import check_correctness

    m = _entrymod()
    # the sf0.001 tier the correctness gate runs by default
    sf = inspect.signature(check_correctness.main).parameters["sf_dir"].default
    family = "/tmp/dygiepp_ray_invidx"
    store = os.path.join(family, m._store_tag(sf, "documents"))
    shutil.rmtree(store, ignore_errors=True)  # the query must build it
    old = os.path.join(family, "sf0.001-0-0-000000000000")
    other_tier = os.path.join(family, "sf0.01-0-0-000000000000")
    for d in (old, f"{old}.build-1", other_tier):
        os.makedirs(d, exist_ok=True)
    try:
        m.queries()["term_postings"](sf).materialize()
        assert not os.path.exists(old)
        assert not os.path.exists(f"{old}.build-1")
        assert os.path.isdir(store) and os.listdir(store)
        assert os.path.isdir(other_tier)
    finally:
        shutil.rmtree(other_tier, ignore_errors=True)


def test_entry_runs():
    m = _entrymod()
    res = m.entry()
    n = res.count()
    assert n > 0


def test_check_correctness_json_without_path_is_usage_error():
    """`--json` as the last argument names no output file: the driver-mimic
    CLI must exit 2 with a usage message, not raise IndexError."""
    import os
    import subprocess
    import sys

    script = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "scripts", "check_correctness.py")
    res = subprocess.run([sys.executable, script, "--json"],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 2, res.stderr
    assert "usage" in res.stderr
    assert "IndexError" not in res.stderr
