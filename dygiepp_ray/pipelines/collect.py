"""Shard-collect pipeline (SURVEY.md §3.3; dw-experiments/2020-09-03).

Two models' prediction runs over the same corpus → one merged set:
1. zip-join on doc_key with 1:1 asserts (03_collect_shards.py:36-46) —
   `joins.zip_join_assert`, model B's clusters renamed to `b_clusters`;
2. skip docs whose `_failed_prediction` marker is set on EITHER side (the
   reference skips docs marked by upstream failures —
   03_collect_shards.py:23, 44-50);
3. merge the two models' coref clusters per row with the D1 worklist
   algorithm (merge.py:51-100).

Returns documents with model A's predictions plus `merged_clusters`.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data

from ..joins import zip_join_assert
from ..stages.coref import merge_clusters

_FAILED = "_failed_prediction"


def _spans(clusters) -> list:
    if clusters is None:
        return []
    return [[(m["start"], m["end"]) for m in c] for c in list(clusters)]


def collect_model_runs(run_a: "ray.data.Dataset", run_b: "ray.data.Dataset",
                       carry_cols: list[str] | None = None) -> "ray.data.Dataset":
    """J2 + D1: 1:1 zip-join on doc_key, failed-row skip, cluster merge.
    `carry_cols`: model-A columns to keep alongside doc_key (default: the
    prediction columns present)."""
    names_a = run_a.schema().names
    carry = carry_cols or [c for c in ("sentences", "predicted_ner",
                                       "predicted_relations", "predicted_events",
                                       "predicted_clusters") if c in names_a]
    a_cols = ["doc_key", *carry]
    if _FAILED in names_a and _FAILED not in a_cols:
        a_cols.append(_FAILED)
    b_src, b_cols = ["doc_key", "predicted_clusters"], ["b_clusters"]
    if _FAILED in run_b.schema().names:
        b_src.append(_FAILED)
        b_cols.append("_b_failed")
    b = run_b.select_columns(b_src).map_batches(
        lambda t: t.rename_columns(["doc_key", *b_cols]), batch_format="pyarrow")
    joined = zip_join_assert(run_a, b, "doc_key", b_cols, a_cols=a_cols)

    def merge_rows(df: pd.DataFrame) -> pd.DataFrame:
        failed = np.zeros(len(df), bool)
        for c in (_FAILED, "_b_failed"):
            if c in df:
                failed |= df[c].eq(True).to_numpy()
        df = df[~failed]
        a_clusters = (df["predicted_clusters"] if "predicted_clusters" in carry
                      else [None] * len(df))
        out = df[["doc_key", *carry]].reset_index(drop=True)
        out["merged_clusters"] = [
            [[{"start": s, "end": e} for (s, e) in c]
             for c in merge_clusters(_spans(ca), _spans(cb))]
            for ca, cb in zip(a_clusters, df["b_clusters"])
        ]
        return out

    return joined.map_batches(merge_rows, batch_format="pandas")
