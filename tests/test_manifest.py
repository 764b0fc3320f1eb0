"""The manifest's sha256 roll-up against its integer definition, and resume
after an input shard is rewritten at the same byte size or its manifest
comes from another engine version."""

import glob
import hashlib
import json
import os
import random

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from dygiepp_ray.corpus import write_corpus
from dygiepp_ray.pipelines.kg import build_kg, build_kg_incremental
from dygiepp_ray.state.manifest import ENGINE_VERSION, file_fingerprint, sha_rollup


def _int_xor(shas: list[str]) -> str:
    acc = 0
    for s in shas:
        acc ^= int(s, 16)
    return format(acc, "064x")


@pytest.mark.parametrize("n", [0, 1, 2, 64, 1001])
def test_sha_rollup_equals_integer_xor(n):
    rng = random.Random(n)
    shas = [hashlib.sha256(rng.randbytes(16)).hexdigest() for _ in range(n)]
    assert sha_rollup(shas) == _int_xor(shas)
    assert sha_rollup(shas + shas[:1] * 2) == _int_xor(shas)


def _plain_corpus(path: str) -> list[str]:
    """A 2-shard corpus rewritten uncompressed and without dictionaries, so
    a same-length value change keeps every file's byte size."""
    write_corpus(path, n_files=40, seed=5, n_shards=2)
    shards = sorted(glob.glob(os.path.join(path, "*.parquet")))
    for f in shards:
        pq.write_table(pq.read_table(f), f, compression="none",
                       use_dictionary=False)
    return shards


def _rewrite_same_size(shard: str) -> None:
    """Give one row a new `commit` of the same length that becomes the
    column's max, so only the footer statistics tell the files apart."""
    t = pq.read_table(shard)
    commits = t.column("commit").to_pylist()
    new = "f" * len(commits[0])
    assert new not in commits
    i = t.schema.get_field_index("commit")
    t = t.set_column(i, "commit", pa.array([new] + commits[1:], pa.string()))
    size, fp = os.path.getsize(shard), file_fingerprint(shard)
    pq.write_table(t, shard, compression="none", use_dictionary=False)
    assert os.path.getsize(shard) == size  # precondition: same byte size
    assert file_fingerprint(shard) != fp


def _triples(out_dir: str, part: str):
    files = sorted(glob.glob(os.path.join(out_dir, f"{part}=*", "*.parquet")))
    df = pa.concat_tables([pq.read_table(f) for f in files]).to_pandas()
    cols = [c for c in df.columns if c not in ("bucket", "shard")]
    return df[cols].sort_values(cols).reset_index(drop=True)


def test_build_kg_resume_rebuilds_after_same_size_rewrite(tmp_path):
    corpus, out, clean = (str(tmp_path / n) for n in ("corpus", "kb", "clean"))
    shards = _plain_corpus(corpus)
    build_kg(corpus, out, n_buckets=4, concurrency=1, batch_size=32)
    _rewrite_same_size(shards[1])

    r = build_kg(corpus, out, n_buckets=4, concurrency=1, batch_size=32)
    assert r["written_buckets"] == [0, 1, 2, 3]
    build_kg(corpus, clean, n_buckets=4, concurrency=1, batch_size=32)
    pd.testing.assert_frame_equal(_triples(out, "bucket"),
                                  _triples(clean, "bucket"))


def test_incremental_rebuilds_same_size_rewritten_shard(tmp_path):
    corpus, out, clean = (str(tmp_path / n) for n in ("corpus", "kb", "clean"))
    shards = _plain_corpus(corpus)
    build_kg_incremental(corpus, out, concurrency=1, batch_size=32)
    _rewrite_same_size(shards[1])

    r = build_kg_incremental(corpus, out, concurrency=1, batch_size=32)
    assert r["written_shards"] == ["part-00001"]
    assert r["skipped_shards"] == ["part-00000"]
    build_kg_incremental(corpus, clean, concurrency=1, batch_size=32)
    pd.testing.assert_frame_equal(_triples(out, "shard"),
                                  _triples(clean, "shard"))


def test_incremental_rebuilds_shard_of_older_engine(tmp_path):
    """A shard manifest written by another engine version is stale."""
    corpus, out = str(tmp_path / "corpus"), str(tmp_path / "kb")
    write_corpus(corpus, n_files=40, seed=5, n_shards=2)
    build_kg_incremental(corpus, out, concurrency=1, batch_size=32)
    mpath = os.path.join(out, "_shard_manifests", "part-00000.json")
    with open(mpath) as fh:
        rec = json.load(fh)
    rec["engine"] = ENGINE_VERSION - 1
    with open(mpath, "w") as fh:
        json.dump(rec, fh)

    r = build_kg_incremental(corpus, out, concurrency=1, batch_size=32)
    assert r["written_shards"] == ["part-00000"]
    assert r["skipped_shards"] == ["part-00001"]
