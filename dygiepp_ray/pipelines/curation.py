"""End-to-end corpus curation pipeline: the composed chain a training-data
team runs before a corpus touches a tokenizer —

    exact dedup  →  near-dup cluster dedup  →  quality filter

Every document receives exactly one status:

  - ``exact_dup``   an identical text exists with a smaller doc_id
  - ``near_dup``    in a MinHash-LSH near-dup cluster whose keeper
                    (min doc_id) is another SURVIVOR of the exact pass
  - ``low_quality`` survived both dedups, quality < threshold
  - ``kept``        everything else

Stage order is part of the spec (pinned by the oracle): near-dup clustering
runs over the exact-dedup SURVIVORS only, and quality over the near-dup
survivors — each stage sees the previous stage's output, like a production
funnel.

Scale shape: NOTHING is collected on the driver. Cross-stage membership is
expressed as bucketed `hash_join` semi/anti joins — the id/sha tables that
travel are aggregate-sized rows inside a Dataset, never a Python set (the
round-2 version broadcast O(n_docs) keeper-id sets via `ray.put`, which is
tens of GB of driver heap at 100 TB). The exact-dedup keeper decision rides
a (doc_id, text_sha) join, so document TEXT moves through exactly one
shuffle (the stage-1 semi join); the surviving texts are materialized once
into the object store (spillable) because two downstream stages consume
them.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray.data
from ray.data.aggregate import Min


def curate_corpus(docs: "ray.data.Dataset", quality_min: float = 0.5,
                  jaccard_threshold: float = 0.8,
                  n_buckets: int = 32) -> "ray.data.Dataset":
    """(doc_id, status) over the full input. See module docstring."""
    from ..joins import hash_join
    from ..stages.curate import neardup_clusters
    from ..stages.dedup import _text_sha
    from ..stages.text import quality_score

    id_t, sha_t = pa.int64(), pa.string()
    docs = docs.select_columns(["doc_id", "text"])

    # ---- stage 1: exact dedup — keeper is min doc_id per sha. One sha pass
    # produces the (doc_id, text_sha) table; the keeper table and the per-doc
    # flags both derive from it (materialized: it is consumed twice and is
    # only ids + 64-char digests).
    doc_sha = (docs.map_batches(lambda b: _text_sha(b, "text"),
                                batch_format="pyarrow")
               .select_columns(["doc_id", "text_sha"]).materialize())
    keepers = doc_sha.groupby("text_sha").aggregate(
        Min("doc_id", alias_name="keep_id"))

    flags = hash_join(
        doc_sha, keepers, on="text_sha", n_buckets=n_buckets,
        left_types={"doc_id": id_t, "text_sha": sha_t},
        right_types={"text_sha": sha_t, "keep_id": id_t},
        bucket_post=lambda m: pd.DataFrame({
            "doc_id": m["doc_id"].astype("int64"),
            "_dup": (m["doc_id"].astype("int64")
                     != m["keep_id"].astype("int64")),
        })).materialize()

    exact_dups = flags.map_batches(
        lambda df: df[df["_dup"]][["doc_id"]].assign(status="exact_dup"),
        batch_format="pandas")
    surv1_ids = flags.map_batches(
        lambda df: df[~df["_dup"]][["doc_id"]], batch_format="pandas")

    # semi join: the one shuffle that moves text. Materialized because both
    # the near-dup pass and the anti join below consume it.
    survivors1 = hash_join(
        docs, surv1_ids, on="doc_id", n_buckets=n_buckets,
        left_types={"doc_id": id_t, "text": pa.string()},
        right_types={"doc_id": id_t},
        bucket_post=lambda m: m[["doc_id", "text"]]).materialize()

    # ---- stage 2: near-dup clusters over survivors. The drop list is the
    # cluster table itself (doc_id != keep_id) — no driver set.
    clusters = neardup_clusters(
        survivors1, jaccard_threshold=jaccard_threshold).materialize()
    near_dups = clusters.map_batches(
        lambda df: df[df["doc_id"].astype("int64")
                      != df["keep_id"].astype("int64")][["doc_id"]]
        .assign(status="near_dup"),
        batch_format="pandas")

    # anti join survivors1 against the near-dup drop ids (left join + null
    # marker — rows with no match survive)
    drop_ids = near_dups.map_batches(
        lambda df: df[["doc_id"]].rename(columns={"doc_id": "nd_id"})
        .assign(_nd=1),
        batch_format="pandas")

    def keep_unmatched(m: pd.DataFrame) -> pd.DataFrame:
        return m[m["_nd"].isna()][["doc_id", "text"]]

    survivors2 = hash_join(
        survivors1.map_batches(
            lambda df: df.assign(nd_id=df["doc_id"].astype("int64")),
            batch_format="pandas"),
        drop_ids, on="nd_id", how="left", n_buckets=n_buckets,
        left_types={"doc_id": id_t, "text": pa.string(), "nd_id": id_t},
        right_types={"nd_id": id_t, "_nd": pa.int64()},
        bucket_post=keep_unmatched)

    # ---- stage 3: quality filter
    def quality_status(df: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        q = quality_score(df)
        status = np.where(q["quality"] >= quality_min, "kept", "low_quality")
        return pd.DataFrame({"doc_id": q["doc_id"].astype("int64"),
                             "status": status})

    judged = survivors2.map_batches(quality_status, batch_format="pandas")

    return exact_dups.union(near_dups).union(judged)
