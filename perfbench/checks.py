"""Output checks for every timed op, and the negative controls that prove
each check can fail.

- build: an order-free multiset digest over every TRIPLE_SCHEMA column
  (including `content_sha256`) equals the oracle's, and the 16 manifests'
  `row_count` sum to the oracle's row count;
- resume: every manifest equals the clean build's (`row_count`,
  `sha256_xor`), each bucket directory holds exactly the part files its
  manifest lists, the triples still match the oracle, and a further
  `build_kg` call writes nothing;
- kb: DuckDB runs the registry's `oracle_sql()` text over the same triple
  file and the results compare by `scripts/check_correctness.value_hash`.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

TRIPLE_SQL_PATH = "/tmp/dygiepp_ray_oracle/kg_triples.parquet"
KB_QUERIES = ("kg_entity_kb", "kg_graph_edges", "kg_pair_pmi")


def triple_digest(table) -> tuple[int, int]:
    """(sum mod 2**256 of sha256 over each row's TRIPLE_SCHEMA values, rows).
    Addition commutes, so shards and blocks can be digested separately."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from dygiepp_ray.schema import TRIPLE_SCHEMA

    cols = [pc.cast(table.column(n), pa.string()) for n in TRIPLE_SCHEMA.names]
    rows = pc.binary_join_element_wise(
        *cols, "\x1f", null_handling="replace", null_replacement="\x00")
    acc = 0
    for r in rows.cast(pa.binary()).to_pylist():
        acc += int.from_bytes(hashlib.sha256(r).digest(), "big")
    return acc % (1 << 256), table.num_rows


def part_files(out_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(out_dir, "bucket=*", "*.parquet")))


def read_triples(out_dir: str):
    import pyarrow.dataset as pads

    from dygiepp_ray.schema import TRIPLE_SCHEMA

    return pads.dataset(part_files(out_dir), schema=TRIPLE_SCHEMA,
                        format="parquet").to_table()


def read_manifests(out_dir: str, n_buckets: int) -> dict[int, dict]:
    out = {}
    for b in range(n_buckets):
        path = os.path.join(out_dir, "_manifests", f"bucket-{b}.json")
        if os.path.exists(path):
            with open(path) as fh:
                out[b] = json.load(fh)
    return out


def check_triples(table, meta: dict) -> list[str]:
    digest, rows = triple_digest(table)
    errs = []
    if rows != meta["oracle_rows"]:
        errs.append(f"rows {rows} != oracle {meta['oracle_rows']}")
    if format(digest, "064x") != meta["oracle_digest"]:
        errs.append("triple digest differs from the oracle")
    return errs


def check_build(out_dir: str, table, meta: dict, n_buckets: int) -> list[str]:
    errs = check_triples(table, meta)
    mans = read_manifests(out_dir, n_buckets)
    if len(mans) != n_buckets:
        errs.append(f"{len(mans)} of {n_buckets} manifests")
    manifest_rows = sum(m["row_count"] for m in mans.values())
    if manifest_rows != meta["oracle_rows"]:
        errs.append(f"manifest rows {manifest_rows} != oracle "
                    f"{meta['oracle_rows']}")
    return errs


def check_resume(out_dir: str, table, meta: dict, clean: dict[int, dict],
                 n_buckets: int, rerun: dict) -> list[str]:
    errs = check_triples(table, meta)
    mans = read_manifests(out_dir, n_buckets)
    for b in range(n_buckets):
        m, c = mans.get(b), clean[b]
        if m is None:
            errs.append(f"bucket {b}: no manifest after resume")
            continue
        if (m["row_count"], m["sha256_xor"]) != (c["row_count"], c["sha256_xor"]):
            errs.append(f"bucket {b}: manifest differs from the clean build")
        on_disk = sorted(os.path.basename(f) for f in glob.glob(
            os.path.join(out_dir, f"bucket={b}", "*.parquet")))
        if on_disk != sorted(m["files"]):
            errs.append(f"bucket {b}: part files {len(on_disk)} != "
                        f"manifest {len(m['files'])}")
    if rerun.get("written_buckets") != []:
        errs.append(f"further call wrote {rerun.get('written_buckets')}")
    return errs


def kb_oracle(triples_file: str) -> dict:
    """DuckDB results of the registry's KB oracle SQL over `triples_file`."""
    import duckdb

    import __ray_entry__ as entry

    sqls = entry.oracle_sql()
    con = duckdb.connect()
    try:
        return {q: con.execute(sqls[q].replace(TRIPLE_SQL_PATH, triples_file)
                               ).fetchdf() for q in KB_QUERIES}
    finally:
        con.close()


def check_kb(ours, theirs) -> list[str]:
    """Row count, column set and order-free value hash, as the repository's
    correctness gate compares them."""
    from scripts.check_correctness import value_hash

    if len(ours) != len(theirs):
        return [f"rows {len(ours)} != oracle {len(theirs)}"]
    if sorted(ours.columns) != sorted(theirs.columns):
        return [f"columns {sorted(ours.columns)} != {sorted(theirs.columns)}"]
    if value_hash(ours) != value_hash(theirs):
        return ["value hash differs from the oracle"]
    return []


def build_controls(table, meta: dict) -> dict[str, bool]:
    """Plant one defect per triple check; True = the check caught it."""
    import pyarrow as pa

    if table.num_rows < 2:
        return {"dropped_row": False, "flipped_sha256": False}
    dropped = table.slice(1)
    i = table.schema.get_field_index("content_sha256")
    shas = table.column(i).to_pylist()
    shas[0] = ("0" if shas[0][0] != "0" else "1") + shas[0][1:]
    flipped = table.set_column(i, table.schema.field(i),
                               pa.array(shas, pa.string()))
    return {"dropped_row": bool(check_triples(dropped, meta)),
            "flipped_sha256": bool(check_triples(flipped, meta))}


def resume_control(out_dir: str, table, meta: dict, clean: dict[int, dict],
                   n_buckets: int) -> bool:
    """Plant a duplicate part file in one bucket; True = the check caught it."""
    import shutil

    src = part_files(out_dir)[0]
    dup = os.path.join(os.path.dirname(src), "dup-" + os.path.basename(src))
    shutil.copyfile(src, dup)
    try:
        return bool(check_resume(out_dir, table, meta, clean, n_buckets,
                                 {"written_buckets": []}))
    finally:
        os.remove(dup)


def kb_control(ours, theirs) -> bool:
    """Perturb one count of the entity KB; True = the check caught it."""
    bad = ours.copy()
    bad.loc[bad.index[0], "n_mentions"] += 1
    return bool(check_kb(bad, theirs))
