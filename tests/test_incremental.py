"""Shard-level incremental KB build: append-only inputs recompute only the
new shards, and the incremental result equals a from-scratch build."""

import glob
import os
import shutil

import pyarrow.parquet as pq

from dygiepp_ray.corpus import write_corpus
from dygiepp_ray.pipelines.kg import build_kg_incremental


def _read_triples(out_dir: str):
    import pandas as pd

    files = sorted(glob.glob(os.path.join(out_dir, "shard=*", "*.parquet")))
    df = pd.concat([pq.read_table(f).to_pandas() for f in files],
                   ignore_index=True)
    cols = [c for c in df.columns]
    return df.sort_values(cols).reset_index(drop=True)[cols]


def test_incremental_append_only_recomputes_new_shards(tmp_path):
    corpus = str(tmp_path / "corpus")
    out = str(tmp_path / "kb")
    write_corpus(corpus, n_files=60, seed=3, n_shards=3)

    base = ["part-00000", "part-00001", "part-00002"]
    r1 = build_kg_incremental(corpus, out, concurrency=1, batch_size=32)
    assert r1["written_shards"] == base
    assert r1["skipped_shards"] == []

    # no-op re-run: everything skipped
    r2 = build_kg_incremental(corpus, out, concurrency=1, batch_size=32)
    assert r2["written_shards"] == []
    assert r2["skipped_shards"] == base

    # append one shard (fresh rows under a new shard file that sorts FIRST
    # — stems are the manifest key, so existing shards stay skipped)
    extra = str(tmp_path / "extra")
    write_corpus(extra, n_files=20, seed=11, n_shards=1)
    src = glob.glob(os.path.join(extra, "*.parquet"))[0]
    shutil.copy(src, os.path.join(corpus, "aa-extra.parquet"))

    r3 = build_kg_incremental(corpus, out, concurrency=1, batch_size=32)
    assert r3["written_shards"] == ["aa-extra"]
    assert r3["skipped_shards"] == base

    # incremental result == from-scratch build on the full corpus
    clean = str(tmp_path / "kb_clean")
    build_kg_incremental(corpus, clean, concurrency=1, batch_size=32)
    a = _read_triples(out)
    b = _read_triples(clean)
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)


def test_incremental_rebuilds_shard_with_torn_manifest(tmp_path):
    """A shard manifest cut short mid-write counts as no manifest: the
    re-run rebuilds that shard only, instead of failing to parse it."""
    corpus = str(tmp_path / "corpus")
    out = str(tmp_path / "kb")
    write_corpus(corpus, n_files=60, seed=3, n_shards=3)
    build_kg_incremental(corpus, out, concurrency=1, batch_size=32)
    before = _read_triples(out)

    mpath = os.path.join(out, "_shard_manifests", "part-00001.json")
    with open(mpath) as fh:
        text = fh.read()
    with open(mpath, "w") as fh:
        fh.write(text[: len(text) // 2])

    r = build_kg_incremental(corpus, out, concurrency=1, batch_size=32)
    assert r["written_shards"] == ["part-00001"]
    assert r["skipped_shards"] == ["part-00000", "part-00002"]
    import pandas as pd

    pd.testing.assert_frame_equal(_read_triples(out), before)
    assert not glob.glob(os.path.join(out, "_shard_manifests", "*.tmp"))


def test_neardup_store_build_and_match(tmp_path):
    import numpy as np
    import pandas as pd

    import ray.data

    from dygiepp_ray.stages.dedup import (MinHasher, _band_keys,
                                          build_neardup_store,
                                          neardup_against_store)

    rng = np.random.RandomState(8)
    vocab = [f"w{i}" for i in range(50)]
    texts = [" ".join(rng.choice(vocab, size=30)) for _ in range(40)]
    # new docs: 5 near-copies of stored texts (drop last 2 words), 5 fresh
    near = [" ".join(t.split()[:-2]) for t in texts[:5]]
    fresh = [" ".join(rng.choice(vocab, size=30)) for _ in range(5)]
    store_df = pd.DataFrame({"doc_id": np.arange(40, dtype="int64"),
                             "text": texts})
    new_df = pd.DataFrame({
        "doc_id": np.arange(100, 110, dtype="int64"),
        "text": near + fresh})

    store_dir = str(tmp_path / "ndstore")
    build_neardup_store(ray.data.from_pandas(store_df).repartition(3),
                        store_dir)

    # brute-force truth with the same hash family
    mh = MinHasher(n_perm=64, shingle_k=3)
    s_sig = np.asarray([mh.signature(t) for t in store_df["text"]],
                       dtype=np.int64)
    n_sig = np.asarray([mh.signature(t) for t in new_df["text"]],
                       dtype=np.int64)
    sb = _band_keys(s_sig, 16)
    nb = _band_keys(n_sig, 16)
    want = {}
    for i in range(len(new_df)):
        bi = set(nb[i].tolist())
        for j in range(len(store_df)):
            if bi.isdisjoint(sb[j].tolist()):
                continue
            m = int((n_sig[i] == s_sig[j]).sum())
            if m * 1000 < 800 * 64:
                continue
            d = int(new_df["doc_id"].iloc[i])
            cand = (m, -int(store_df["doc_id"].iloc[j]))
            if d not in want or cand > want[d]:
                want[d] = cand
    assert want, "planted near-copies must match"

    for nparts in (1, 4):
        got = neardup_against_store(
            ray.data.from_pandas(new_df).repartition(nparts),
            store_dir).to_pandas()
        have = {int(r.doc_id): (int(r.est_matches), -int(r.dup_of))
                for r in got.itertuples()}
        assert have == want


def test_neardup_store_empty_intersection(tmp_path):
    import pandas as pd

    import ray.data

    from dygiepp_ray.stages.dedup import (build_neardup_store,
                                          neardup_against_store)

    store_df = pd.DataFrame({"doc_id": [1, 2],
                             "text": ["alpha beta gamma delta epsilon",
                                      "zeta eta theta iota kappa"]})
    new_df = pd.DataFrame({"doc_id": [9],
                           "text": ["one two three four five six"]})
    store_dir = str(tmp_path / "nd2")
    build_neardup_store(ray.data.from_pandas(store_df), store_dir)
    got = neardup_against_store(ray.data.from_pandas(new_df),
                                store_dir).to_pandas()
    assert len(got) == 0
