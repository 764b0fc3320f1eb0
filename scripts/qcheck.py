"""Check a subset of queries() vs oracle_sql() — fast iteration helper.

Usage: python scripts/qcheck.py name1 name2 ... [--sf /root/testdata/sf0.001]
"""

from __future__ import annotations

import os
import sys

_SCRIPTS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(_SCRIPTS))  # this checkout's engine
sys.path.insert(0, _SCRIPTS)

from check_correctness import to_pandas, value_hash  # noqa: E402


def main() -> int:
    args = sys.argv[1:]
    sf_dir = "/root/testdata/sf0.001"
    if "--sf" in args:
        i = args.index("--sf")
        sf_dir = args[i + 1]
        args = args[:i] + args[i + 2:]

    import duckdb

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from dygiepp_ray.context import configure_for_scale

    configure_for_scale()

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    failures = 0
    import time

    for name in args:
        if name not in qs:
            print(f"????  {name}: no such query")
            failures += 1
            continue
        t0 = time.time()
        ours = to_pandas(qs[name](sf_dir))
        dt = time.time() - t0
        if name not in oracles:
            print(f"rows  {name}: {len(ours)} rows ({dt:.1f}s) [no oracle]")
            continue
        theirs = con.execute(oracles[name]).fetchdf()
        ok_rows = len(ours) == len(theirs)
        ok_cols = sorted(ours.columns) == sorted(theirs.columns)
        ok_hash = ok_rows and ok_cols and value_hash(ours) == value_hash(theirs)
        status = "OK   " if ok_hash else "FAIL "
        if not ok_hash:
            failures += 1
            print(f"{status} {name}: ray={len(ours)} sql={len(theirs)} "
                  f"cols ray={sorted(ours.columns)} sql={sorted(theirs.columns)}")
            if ok_cols and ok_rows:
                m = ours.merge(theirs, how="outer", indicator=True,
                               on=list(sorted(ours.columns)))
                diff = m[m["_merge"] != "both"]
                print(diff.head(10).to_string())
            else:
                print(ours.head(5).to_string())
                print(theirs.head(5).to_string())
        else:
            print(f"{status} {name}: ray={len(ours)} sql={len(theirs)} ({dt:.1f}s)")
    print(f"\n{failures} failures")
    return failures


if __name__ == "__main__":
    sys.exit(1 if main() else 0)
