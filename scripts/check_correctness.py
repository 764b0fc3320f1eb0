"""Driver-mimic: run queries() vs oracle_sql() side-by-side over a testdata
dir and report row-count / schema / order-insensitive value-hash matches.

Usage: python scripts/check_correctness.py [sf_dir]
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

import duckdb
import pandas as pd

# the checkout this script lives in: its engine is imported and stamped
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    rows = sorted(
        tuple(str(v) for v in row) for row in df.itertuples(index=False, name=None)
    )
    h = hashlib.sha256()
    for r in rows:
        h.update("\x1f".join(r).encode())
        h.update(b"\x1e")
    return h.hexdigest()


def main(sf_dir: str = "/root/testdata/sf0.001", json_out: str | None = None) -> int:
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
    gate: dict[str, dict] = {}
    for name, fn in qs.items():
        t0 = time.time()
        try:
            ours = to_pandas(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            gate[name] = {"ok": False, "err": f"{type(e).__name__}: {e}"}
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"rows  {name}: {len(ours)} rows ({dt:.1f}s) [no oracle]")
            gate[name] = {"ok": True, "rows": len(ours), "oracle": "rows-only",
                          "hash": value_hash(ours), "sec": round(dt, 2)}
            continue
        theirs = con.execute(oracles[name]).fetchdf()
        ok_rows = len(ours) == len(theirs)
        ok_cols = sorted(ours.columns) == sorted(theirs.columns)
        h = value_hash(ours) if (ok_rows and ok_cols) else None
        ok_hash = ok_rows and ok_cols and h == value_hash(theirs)
        status = "OK   " if ok_hash else "FAIL "
        if not ok_hash:
            failures += 1
        gate[name] = {"ok": bool(ok_hash), "rows": len(ours),
                      "oracle_rows": len(theirs), "rows_match": ok_rows,
                      "schema_match": ok_cols, "hash_match": bool(ok_hash),
                      "hash": h, "sec": round(dt, 2)}
        print(f"{status} {name}: ray={len(ours)} sql={len(theirs)} "
              f"cols_ok={ok_cols} hash_ok={ok_hash} ({dt:.1f}s)")
        if not ok_hash and ok_cols and ok_rows:
            m = ours.merge(theirs, how="outer", indicator=True,
                           on=list(sorted(ours.columns)))
            diff = m[m["_merge"] != "both"]
            print(diff.head(6).to_string())
    print(f"\n{failures} failures")
    if json_out:
        import json as _json
        import subprocess

        head = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                              capture_output=True, text=True).stdout.strip()
        payload = {
            "sf_dir": sf_dir,
            "git_head": head,
            "n_queries": len(gate),
            "n_failures": failures,
            "results": gate,
        }
        with open(json_out, "w") as fh:
            _json.dump(payload, fh, indent=1, sort_keys=True)
        print(f"wrote {json_out}")
    return failures


if __name__ == "__main__":
    argv = sys.argv[1:]
    json_path = None
    if "--json" in argv:
        i = argv.index("--json")
        if i + 1 >= len(argv):
            print("usage: check_correctness.py [sf_dir] [--json OUT]",
                  file=sys.stderr)
            sys.exit(2)
        json_path = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    sys.exit(1 if main(*(argv or []), json_out=json_path) else 0)
