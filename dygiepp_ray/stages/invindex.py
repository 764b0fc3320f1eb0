"""Persisted inverted text index: token → postings (doc_id, tf), parquet
hash-partitioned on the token (`bucket=<b>/...`) so a term lookup reads ONLY
the matching partition directories — O(probed buckets) I/O instead of a
corpus re-scan per query. The build is one shuffle-free flat-map pass over
the documents (tf is row-local) followed by a partitioned write; mirrors the
persisted signature-partitioned LSH index (`similarity.build_lsh_index`).

Reference shape: the KB span/count tables of `scripts/eval/make_kb.py:198-220`
are driver-global dicts keyed by surface form; a partitioned on-disk postings
table is the scale-safe equivalent for lookup workloads.
"""

from __future__ import annotations

import glob
import hashlib
import os

import numpy as np
import pandas as pd

import ray
import ray.data

from ..state.manifest import write_partitioned


def token_bucket(token: str, n_buckets: int) -> int:
    """Stable across processes/runs (NOT Python hash())."""
    h = int.from_bytes(hashlib.blake2b(token.encode("utf-8"),
                                       digest_size=8).digest(), "big")
    return h % n_buckets


def _bucket_series(tokens: pd.Series, n_buckets: int) -> pd.Series:
    # hash each DISTINCT token once, then a vectorized map
    uniq = pd.unique(tokens)
    m = {t: token_bucket(t, n_buckets) for t in uniq}
    return tokens.map(m).astype("int64")


def build_inverted_index(docs: "ray.data.Dataset", out_dir: str,
                         n_buckets: int = 32) -> str:
    """docs(doc_id, text) → `out_dir/bucket=<b>/*.parquet` postings
    (token, doc_id, tf)."""
    from .text import doc_term_freqs

    def rows(df: pd.DataFrame) -> pd.DataFrame:
        tf = doc_term_freqs(df)
        if not len(tf):
            return pd.DataFrame({"token": pd.Series([], dtype=object),
                                 "doc_id": pd.Series([], dtype="int64"),
                                 "tf": pd.Series([], dtype="int64"),
                                 "bucket": pd.Series([], dtype="int64")})
        tf["tf"] = tf["tf"].astype("int64")
        tf["bucket"] = _bucket_series(tf["token"], n_buckets)
        return tf

    write_partitioned(docs.map_batches(rows, batch_format="pandas"),
                      out_dir, "bucket")
    return out_dir


def term_lookup(index_dir: str, terms: list[str],
                n_buckets: int = 32) -> "ray.data.Dataset":
    """Postings for `terms`: reads only the buckets the terms hash into."""
    import pyarrow as pa
    import pyarrow.compute as pc

    probe = sorted({token_bucket(t, n_buckets) for t in terms})
    files = [
        f
        for b in probe
        for f in sorted(glob.glob(os.path.join(index_dir, f"bucket={b}",
                                               "*.parquet")))
    ]
    if not files:
        # pandas-backed empty block: keeps the (token, doc_id, tf) schema
        # through to_pandas() (an empty Arrow block drops it)
        return ray.data.from_pandas(pd.DataFrame({
            "token": pd.Series([], dtype=object),
            "doc_id": pd.Series([], dtype="int64"),
            "tf": pd.Series([], dtype="int64")}))
    term_set = pa.array(sorted(set(terms)))
    return ray.data.read_parquet(files, columns=["token", "doc_id", "tf"]) \
        .map_batches(
            lambda t: t.filter(pc.is_in(t["token"], value_set=term_set)),
            batch_format="pyarrow")
