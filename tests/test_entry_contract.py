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
