"""Corpus-shape analytics over the north-rule input table
`(repo, path, commit, lang, content)` — the per-repository bookkeeping a
100-TB source-code ingest needs before/alongside KG extraction (the
reference's shard manifests at `dw-experiments/2020-09-03/script/02_predict.py`
track files per shard only; these operators generalize that to per-repo
inventories and cross-repo clone detection keyed on the end-to-end
`content_sha256` invariant from BASELINE.json's input_hint).

Scale shape: everything is ONE corpus scan feeding per-block compacted
partials; distinct-counting (langs / commits / content hashes per repo)
rides a single (repo, kind, value) shuffle whose row count is bounded by the
number of DISTINCT pairs (per-block dedup first), never the file count.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..aggregates import partial_final_agg
from .prep import stamp_sha256

_WIDE_COLS = ["n_files", "n_langs", "n_commits", "n_distinct_content",
              "total_bytes"]


def _block_tag_partials(t: pa.Table) -> pd.DataFrame:
    """Per-block compaction: straight partials (file count, byte sum) as
    `__files` / `__bytes` rows, plus per-block-DEDUPED (repo, kind, value)
    rows for the three distinct-counted attributes."""
    nb = pc.cast(pc.binary_length(t.column("content")), pa.int64())
    per_repo = (pa.table({"repo": t.column("repo"), "nb": nb})
                .group_by(["repo"]).aggregate([("nb", "sum"), ([], "count_all")])
                .to_pandas())
    parts = [
        pd.DataFrame({"repo": per_repo["repo"], "kind": "__files",
                      "value": "", "c": per_repo["count_all"].astype("int64")}),
        pd.DataFrame({"repo": per_repo["repo"], "kind": "__bytes",
                      "value": "", "c": per_repo["nb_sum"].astype("int64")}),
    ]
    df = t.select(["repo", "lang", "commit", "content_sha256"]).to_pandas()
    for kind, col in (("lang", "lang"), ("commit", "commit"),
                      ("sha", "content_sha256")):
        u = df[["repo", col]].drop_duplicates()
        parts.append(pd.DataFrame({
            "repo": u["repo"].to_numpy(),
            "kind": kind,
            "value": u[col].to_numpy(),
            "c": np.zeros(len(u), dtype=np.int64),
        }))
    return pd.concat(parts, ignore_index=True)


def _widen(t: pa.Table) -> pd.DataFrame:
    """Globally-deduped (repo, kind, value) rows → per-block wide conditional
    partials (a (repo, kind) group straddling a block boundary is healed by
    the final sum)."""
    df = t.to_pandas()
    g = (df.groupby(["repo", "kind"], sort=False)
         .agg(n=("value", "size"), c=("c", "sum")).reset_index())
    k = g["kind"]
    n = g["n"].astype("int64")
    c = g["c"].astype("int64")
    zero = np.zeros(len(g), dtype=np.int64)
    return pd.DataFrame({
        "repo": g["repo"],
        "n_files": np.where(k == "__files", c, zero),
        "n_langs": np.where(k == "lang", n, zero),
        "n_commits": np.where(k == "commit", n, zero),
        "n_distinct_content": np.where(k == "sha", n, zero),
        "total_bytes": np.where(k == "__bytes", c, zero),
    })


def repo_stats(corpus: "ray.data.Dataset") -> "ray.data.Dataset":
    """(repo, n_files, n_langs, n_commits, n_distinct_content, total_bytes)
    — one corpus scan, two bounded shuffles (distinct-pair dedup, then a
    ≤5-rows-per-repo final sum)."""
    stamped = corpus.map_batches(stamp_sha256, batch_format="pyarrow")
    tags = stamped.map_batches(_block_tag_partials, batch_format="pyarrow")
    deduped = partial_final_agg(tags, ["repo", "kind", "value"],
                                [("c", "c", "sum")])
    wide = deduped.map_batches(_widen, batch_format="pyarrow")
    return partial_final_agg(wide, ["repo"],
                             [(c, c, "sum") for c in _WIDE_COLS])


def cross_repo_clones(corpus: "ray.data.Dataset",
                      min_repos: int = 2) -> "ray.data.Dataset":
    """(sha, n_repos, n_files, first_repo) for every content_sha256 found in
    ≥ `min_repos` DISTINCT repositories — exact cross-repo clone detection
    on the end-to-end sha invariant. Two partial+final shuffles: per
    (sha, repo) file counts, then per-sha rollup."""
    stamped = corpus.map_batches(stamp_sha256, batch_format="pyarrow")
    per = partial_final_agg(stamped, ["content_sha256", "repo"],
                            [("c", None, "count")])
    rolled = partial_final_agg(per, ["content_sha256"],
                               [("n_repos", None, "count"),
                                ("n_files", "c", "sum"),
                                ("first_repo", "repo", "min")])

    def finish(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater_equal(t.column("n_repos"),
                                      pa.scalar(min_repos, pa.int64())))
        return pa.table({
            "sha": t.column("content_sha256"),
            "n_repos": t.column("n_repos"),
            "n_files": t.column("n_files"),
            "first_repo": t.column("first_repo"),
        })

    return rolled.map_batches(finish, batch_format="pyarrow")
