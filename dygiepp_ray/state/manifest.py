"""Per-partition lineage manifests + resumable output (SURVEY.md §4, §7.2-6).

The reference's only resume unit is the per-shard output file
(make_kb.py:54-88); the engine generalizes it:

- every corpus row is assigned a deterministic `bucket` (hash of
  repo:path@commit, mod n_buckets) BEFORE any expensive stage;
- triples are written as `out_dir/bucket=<b>/` partitioned Parquet by
  `write_partitioned`, the one store writer of the engine: each write task
  takes at least `ROWS_PER_WRITE` rows (or the rest of the stream) and
  writes one zstd file per bucket, so a build of fewer rows leaves one file
  of one row group per bucket;
- after each bucket's files land, a manifest
  `out_dir/_manifests/bucket-<b>.json` records the input fingerprint, row
  count and a sha256 roll-up (XOR of per-row content_sha256) — the lineage
  record the north rule requires;
- on resume, buckets whose manifest validates against the current input
  fingerprint (`file_fingerprint` of every input file) are skipped by
  filtering them out right after the read (a cheap hash on two string
  columns — no kernel compute, no shuffle).

Manifest reads/writes are tiny driver-side JSON ops; all data movement stays
in the Dataset pipeline.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.arrow import pylist
from ..functions.strings import stable_hash64

ENGINE_VERSION = 2

# Rows bundled into one write task, and the row-group floor inside its
# files. A write task holds its whole bundle in memory: a triple row is
# ~240 B in Arrow (content_sha256 and sentence dominate), so 1 << 18 rows
# is about 65 MB; the widest store row, a near-dup band row carrying its
# 512 B signature, makes about 140 MB.
ROWS_PER_WRITE = 1 << 18


def write_partitioned(ds: "ray.data.Dataset", out_dir: str,
                      partition_col: str) -> None:
    """Write `ds` as hive-partitioned Parquet `out_dir/<partition_col>=<v>/`,
    zstd-compressed. Each write task takes at least `ROWS_PER_WRITE` rows
    (or the rest of the stream) and writes one file per partition, whose
    row groups hold at least `ROWS_PER_WRITE` rows except the last: a
    partition smaller than that is one row group."""
    ds.write_parquet(out_dir, partition_cols=[partition_col],
                     min_rows_per_file=ROWS_PER_WRITE, compression="zstd")


def bucket_of(repo: str, path: str, commit: str, n_buckets: int) -> int:
    return stable_hash64(f"{repo}:{path}@{commit}") % n_buckets


def assign_buckets(n_buckets: int):
    """map_batches fn: stamp the deterministic partition bucket on corpus rows."""

    def stamp_buckets(batch: pa.Table) -> pa.Table:
        buckets = [
            bucket_of(r, p, c, n_buckets)
            for r, p, c in zip(
                pylist(batch.column("repo")),
                pylist(batch.column("path")),
                pylist(batch.column("commit")),
            )
        ]
        return batch.append_column("bucket", pa.array(buckets, pa.int32()))

    return stamp_buckets


def file_fingerprint(path: str) -> str:
    """Cheap, deterministic fingerprint of one Parquet input file: its name
    and byte size plus its footer, read with `pq.read_metadata` — the row
    count and, per column chunk, the compressed and uncompressed sizes and
    the statistics (min, max, null and value counts). A same-size rewrite
    is noticed when any of these change; a rewrite that leaves the footer
    byte-identical (e.g. a value swapped for one of equal length strictly
    inside its column chunk's min/max) is still not detected."""
    meta = pq.read_metadata(path)
    parts = [os.path.basename(path), str(os.path.getsize(path)), str(meta.num_rows)]
    for g in range(meta.num_row_groups):
        group = meta.row_group(g)
        for c in range(group.num_columns):
            chunk = group.column(c)
            stats = chunk.statistics
            parts.append(f"{chunk.total_compressed_size}/{chunk.total_uncompressed_size}/"
                         f"{None if stats is None else stats.to_dict()}")
    return format(stable_hash64(";".join(parts)), "016x")


def input_files(input_dir: str) -> list[str]:
    """The input's Parquet files, in name order."""
    return sorted(glob.glob(os.path.join(input_dir, "*.parquet")))


def input_fingerprint(input_dir: str) -> str:
    """Fingerprint of the input: `file_fingerprint` of each Parquet file,
    in name order."""
    return format(stable_hash64(";".join(map(file_fingerprint,
                                             input_files(input_dir)))), "016x")


def input_rows(input_dir: str) -> int:
    """Rows of the input, from the Parquet footers `file_fingerprint`
    reads."""
    return sum(pq.read_metadata(f).num_rows for f in input_files(input_dir))


def manifest_path(out_dir: str, bucket: int) -> str:
    return os.path.join(out_dir, "_manifests", f"bucket-{bucket}.json")


def sha_rollup(shas: list[str]) -> str:
    """Order-independent roll-up: XOR of the 256-bit sha integers (bytewise)."""
    words = np.frombuffer(bytes.fromhex("".join(shas)), np.uint64)
    return np.bitwise_xor.reduce(words.reshape(-1, 4), axis=0).tobytes().hex()


def write_manifest(out_dir: str, bucket: int, fingerprint: str) -> dict:
    """Compute + persist a bucket's manifest: row count and sha roll-up from
    the content_sha256 column of its written Parquet files (columnar, cheap)."""
    part_dir = os.path.join(out_dir, f"bucket={bucket}")
    files = sorted(glob.glob(os.path.join(part_dir, "*.parquet")))
    shas = []
    for f in files:
        shas += pq.read_table(f, columns=["content_sha256"]).column(0).to_pylist()
    m = {
        "bucket": bucket,
        "engine_version": ENGINE_VERSION,
        "input_fingerprint": fingerprint,
        "row_count": len(shas),
        "sha256_xor": sha_rollup(shas),
        "files": [os.path.basename(f) for f in files],
    }
    os.makedirs(os.path.join(out_dir, "_manifests"), exist_ok=True)
    write_json_atomic(manifest_path(out_dir, bucket), m)
    return m


def write_json_atomic(path: str, obj: dict) -> None:
    """Publish `obj` as JSON at `path` via tmp + `os.replace`: a crash
    mid-write leaves the old file or none, never a torn one."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh)
    os.replace(tmp, path)


def read_json(path: str) -> dict | None:
    """The JSON object at `path`, or None when it is missing or unreadable
    (a torn manifest counts as no manifest: its unit is redone)."""
    try:
        with open(path) as fh:
            m = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return m if isinstance(m, dict) else None


def completed_buckets(out_dir: str, fingerprint: str) -> set[int]:
    """Buckets whose manifest validates against the current input."""
    done = set()
    for f in glob.glob(os.path.join(out_dir, "_manifests", "bucket-*.json")):
        m = read_json(f)
        if m is None:
            continue
        if (
            m.get("engine_version") == ENGINE_VERSION
            and m.get("input_fingerprint") == fingerprint
        ):
            done.add(int(m["bucket"]))
    return done
