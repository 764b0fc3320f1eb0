"""Training-data curation operators: benchmark decontamination, PII
redaction, and priority ("keep-best") deduplication.

These are the cross-corpus hygiene steps an LLM training pipeline runs after
the near-dup passes in `stages/dedup.py`:

- decontaminate:  drop/flag training docs that share word n-grams with a
  (small) held-out benchmark set.  The benchmark side is tiny by definition
  (MBs even when the training side is 100 TB), so it is collected once on
  the driver and broadcast via `ray.put`; the training side streams through
  a `map_batches` task map whose stage reads the broadcast set once per
  worker process.
  One pass over the training corpus, zero shuffles.
- pii_redact:     regex redaction of emails / IPv4s / phone-shaped numbers,
  vectorized via pandas `.str.replace` with compiled patterns.  Pure
  per-batch map — embarrassingly parallel at any scale.
- keep_best:      exact dedup that keeps the HIGHEST-SCORING copy of each
  key (the argmax variant of `dedup.exact_duplicates`, which keeps min id).
  Two-phase: a per-block vectorized partial reduce (sort + drop_duplicates
  + partial counts), then ONE coarse-bucket shuffle (`hash(key) % B`) with
  a vectorized in-bucket final reduce — never one Ray group per key.

Reference scope note: the reference engine (tomhoper/dygiepp) stops at
document prep + KB construction; these operators extend it with the corpus
curation steps described in public web-scale-data pipelines (C4/Gopher-style
filtering, benchmark decontamination as in GPT-3 appendix C).
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

import ray
import ray.data

from ..state.process_local import ProcessLocal


# ------------------------------------------------------------- decontaminate


def _word_ngrams(tokens: list[str], n: int) -> list[str]:
    """Space-joined word n-grams.  String form (not hashed) so the DuckDB
    oracle can re-derive them; the pure-scale path would reuse the rolling
    uint64 shingle hash from stages/dedup.py instead (same shape, smaller
    broadcast)."""
    if len(tokens) < n:
        return []
    return [" ".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def _ngram_explode(df: pd.DataFrame, n: int) -> pd.DataFrame:
    """(doc_id, ng) — one row per n-gram OCCURRENCE (not per distinct)."""
    toks = df["text"].str.lower().str.split()
    ngs = toks.map(lambda ws: _word_ngrams(ws, n))
    out = pd.DataFrame({"doc_id": df["doc_id"], "ng": ngs}).explode("ng")
    return out[out["ng"].notna()].reset_index(drop=True)


def collect_eval_ngrams(eval_docs: "ray.data.Dataset", n: int = 5) -> frozenset:
    """Distinct word n-grams of the benchmark set, collected to the driver.

    The benchmark side of decontamination is small by construction (eval
    suites are thousands of documents, not billions); per-block dedup keeps
    the driver transfer at one string per distinct n-gram.
    """
    per_block = eval_docs.map_batches(
        lambda df, n=n: _ngram_explode(df, n)[["ng"]].drop_duplicates(),
        batch_format="pandas",
    )
    return frozenset(per_block.to_pandas()["ng"])


class Decontaminator(ProcessLocal):
    """Task-pool stage: flag training docs overlapping the benchmark set.

    The eval n-gram set arrives as a `ray.put` ObjectRef and, as a
    `ProcessLocal`, is fetched ONCE per worker process in `__init__`
    (zero-copy from the local object store), never re-shipped per batch.
    """

    def __init__(self, eval_ref, n: int = 5):
        self.eval_set = ray.get(eval_ref)
        self.n = n

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        e = _ngram_explode(df, self.n)
        toks = df["text"].str.lower().str.split()
        n_grams = (toks.str.len() - (self.n - 1)).clip(lower=0).astype("int64")
        if len(e):
            hit = e["ng"].isin(self.eval_set)
            contam = (
                e.loc[hit].groupby("doc_id").size().rename("n_contam")
            )
        else:
            contam = pd.Series(dtype="int64", name="n_contam")
        out = pd.DataFrame({"doc_id": df["doc_id"], "n_grams": n_grams})
        out = out.merge(contam, left_on="doc_id", right_index=True, how="left")
        out["n_contam"] = out["n_contam"].fillna(0).astype("int64")
        return out[out["n_contam"] > 0].reset_index(drop=True)


def decontaminate(train: "ray.data.Dataset", eval_docs: "ray.data.Dataset",
                  n: int = 5) -> "ray.data.Dataset":
    """(doc_id, n_grams, n_contam) for every training doc sharing at least
    one word n-gram with the benchmark set.  n_contam counts overlapping
    n-gram OCCURRENCES in the training doc."""
    eval_ref = ray.put(collect_eval_ngrams(eval_docs, n))
    return train.map_batches(Decontaminator(eval_ref, n),
                             batch_format="pandas")


# ---------------------------------------------------------------- pii_redact

# Patterns chosen to parse identically under Python `re` and DuckDB's RE2:
# no backreferences, no lookaround, ASCII classes only.
PII_EMAIL = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_IPV4 = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"
PII_PHONE = r"\b\d{3}-\d{4}\b"

_EMAIL_RE = re.compile(PII_EMAIL)
_IPV4_RE = re.compile(PII_IPV4)
_PHONE_RE = re.compile(PII_PHONE)


def pii_redact(df: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """(doc_id, red, n_email, n_ip, n_phone) — redact emails, then IPv4s,
    then phone-shaped numbers (order matters: an IPv4 octet must not be
    half-eaten by the phone pattern).  Vectorized pandas str kernels over
    compiled regexes."""
    s = df[text_col]
    n_email = s.str.count(_EMAIL_RE).astype("int64")
    red = s.str.replace(_EMAIL_RE, "<EMAIL>", regex=True)
    n_ip = red.str.count(_IPV4_RE).astype("int64")
    red = red.str.replace(_IPV4_RE, "<IP>", regex=True)
    n_phone = red.str.count(_PHONE_RE).astype("int64")
    red = red.str.replace(_PHONE_RE, "<PHONE>", regex=True)
    return pd.DataFrame(
        {
            "doc_id": df["doc_id"],
            "red": red,
            "n_email": n_email,
            "n_ip": n_ip,
            "n_phone": n_phone,
        }
    )


# --------------------------------------------------------- pack_concat_chunks


def pack_concat_chunks(docs: "ray.data.Dataset", seq_len: int = 256,
                       n_groups: int = 8) -> "ray.data.Dataset":
    """GPT-style sequence packing: concatenate documents in deterministic
    doc_id order within each pack group and cut fixed `seq_len`-token
    training sequences; a document may span a chunk boundary (no padding,
    no document reordering — the concat-then-chunk semantics of GPT-2/3
    data prep).

    Output, one row per doc:
      (doc_id, pack_group, n_tokens, tok_start, seq_first, seq_last)
    where tok_start is the doc's offset in its group's token stream and
    seq_first/seq_last the first/last training-sequence index it lands in.

    Shape: a vectorized token-count pass, then ONE shuffle on `pack_group`
    (`doc_id % n_groups`) with a vectorized cumsum per group.  At scale,
    n_groups = number of output shards (fixed tokens per group), so groups
    stay bounded and are packed in parallel; the within-group sort is by
    doc_id over (id, count) pairs only — text never moves through the
    shuffle.
    """

    def counts(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "pack_group": (df["doc_id"] % n_groups).astype("int64"),
                "n_tokens": df["text"].str.split().str.len().astype("int64"),
            }
        )

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id").reset_index(drop=True)
        n = g["n_tokens"].to_numpy(np.int64)
        tok_start = np.concatenate([[0], np.cumsum(n)[:-1]])
        seq_first = tok_start // seq_len
        last_tok = tok_start + np.maximum(n, 1) - 1  # empty doc: its own start
        g["tok_start"] = tok_start
        g["seq_first"] = seq_first
        g["seq_last"] = last_tok // seq_len
        return g

    counted = docs.map_batches(counts, batch_format="pandas")
    return counted.groupby("pack_group").map_groups(
        pack, batch_format="pandas")


# ------------------------------------------------------------ mixture_sample


def mixture_sample(ds: "ray.data.Dataset", key: str, id_col: str,
                   total: int, temperature: float = 0.5,
                   seed: int = 42) -> "ray.data.Dataset":
    """Temperature-based data mixing (multilingual/multi-source LLM recipe):
    sample a `total`-row training mix where each `key` group contributes
    quota_k = floor(total · n_k^τ / Σ n^τ) rows — τ < 1 upsamples small
    sources relative to their natural share.  Within each group the sample
    is the quota_k rows with the smallest splitmix64(id ^ seed): hash-order
    instead of a shuffle, so the mix is deterministic across runs, block
    layouts and cluster sizes (same invariance contract as
    `misc.stratified_sample`, which this generalizes to per-group quotas).

    Output: (id_col, key).  Σ quotas ≤ total (floor; no remainder
    redistribution — documented, mirrored by the oracle).
    """
    from ..aggregates import grouped_count
    from .dedup import _splitmix64

    cnt = grouped_count(ds.select_columns([key, id_col]), [key],
                        out_name="n").to_pandas()
    w = cnt["n"].to_numpy(np.float64) ** temperature
    quota = np.floor(total * w / w.sum()).astype(np.int64)
    qmap = {k: int(qk) for k, qk in zip(cnt[key], quota)}
    qref = ray.put(qmap)
    seed64 = np.uint64(seed)

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        qm = ray.get(qref)
        df = df[[key, id_col]].copy()
        df["_h"] = _splitmix64(df[id_col].to_numpy().astype(np.uint64)
                               ^ seed64)
        df = df.sort_values([key, "_h", id_col])
        df["_r"] = df.groupby(key, sort=False).cumcount()
        df = df[df["_r"] < df[key].map(qm)]
        return df.drop(columns=["_r"])

    pruned = ds.map_batches(prune, batch_format="pandas")

    def final(g: pd.DataFrame) -> pd.DataFrame:
        qm = ray.get(qref)
        k = g[key].iloc[0]
        g = g.sort_values(["_h", id_col]).head(qm[k])
        return g.drop(columns=["_h"])

    return pruned.groupby(key).map_groups(final, batch_format="pandas")


# ------------------------------------------------------------- ccnet_buckets


def ccnet_buckets(docs: "ray.data.Dataset", lang_col: str = "lang",
                  scale: int = 1_000_000) -> "ray.data.Dataset":
    """CCNet-style quality bucketing (Wenzek et al. 2020): score every doc
    under a corpus LM, then split each LANGUAGE into head / middle / tail
    terciles of the score (head = most fluent third of its language).

    Output: (doc_id, lang, lm_score, bucket).

    Shape: one scoring pass (`ngram_lm_score` — exact integer bigram LM,
    broadcast count tables), checkpointed via `materialize()` (the scored
    table is 4 scalar columns per doc — tiny next to the corpus, and the
    tercile cutoffs need 3 more streaming passes over it), then exact
    per-language cutoffs via `distributed_quantiles` (histogram refinement,
    no sort) broadcast to a final vectorized labeling pass.
    """
    from ..aggregates import distributed_quantiles
    from .text import ngram_lm_score

    scored = ngram_lm_score(docs, scale=scale, extra_cols=(lang_col,))
    scored = scored.materialize()

    cuts = distributed_quantiles(
        scored, "lm_score", [1 / 3, 2 / 3], by=lang_col)
    cut_map = {}
    for lang, g in cuts.groupby(lang_col):
        g = g.sort_values("q")
        cut_map[lang] = (int(g.iloc[0]["v"]), int(g.iloc[1]["v"]))
    cut_ref = ray.put(cut_map)

    def label(df: pd.DataFrame) -> pd.DataFrame:
        cm = ray.get(cut_ref)
        c1 = df[lang_col].map(lambda l: cm[l][0]).to_numpy(np.int64)
        c2 = df[lang_col].map(lambda l: cm[l][1]).to_numpy(np.int64)
        s = df["lm_score"].to_numpy(np.int64)
        bucket = np.select([s <= c1, s <= c2], ["tail", "middle"], "head")
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "lang": df[lang_col],
                "lm_score": s,
                "bucket": bucket,
            }
        )

    return scored.map_batches(label, batch_format="pandas")


# ----------------------------------------------------------------- keep_best


def keep_best(ds: "ray.data.Dataset", key_col: str, score_col: str,
              id_col: str = "doc_id", n_buckets: int = 64) -> "ray.data.Dataset":
    """Priority dedup: one row per distinct `key_col` keeping the copy with
    the highest `score_col` (ties: min `id_col`), plus the copy count.

    Output: (key_col, keep_id, score, n_copies).

    Shape: per-block partial argmax+count (vectorized pandas), then
    `joins.bucket_groups` on the key (ONE coarse-bucket shuffle) and a
    vectorized final reduce per bucket — groups-per-Ray-task stays at
    n_buckets regardless of key cardinality.
    """
    from ..joins import bucket_groups

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # (the vectorized path below is total on empty input: dtypes are
        # inherited from the input block, so no empty-schema special case)
        d = df[[key_col, id_col, score_col]].rename(
            columns={id_col: "keep_id", score_col: "score"})
        d = d.sort_values(["score", "keep_id"], ascending=[False, True],
                          kind="mergesort")
        counts = d.groupby(key_col, sort=False).size().rename("n_copies")
        best = d.drop_duplicates(key_col, keep="first")
        out = best.merge(counts, left_on=key_col, right_index=True)
        return out.reset_index(drop=True)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["score", "keep_id"], ascending=[False, True],
                           kind="mergesort")
        counts = d.groupby(key_col, sort=False)["n_copies"].sum()
        best = d.drop_duplicates(key_col, keep="first").drop(
            columns=["n_copies"])
        out = best.merge(counts, left_on=key_col, right_index=True)
        return out.reset_index(drop=True)

    partials = ds.map_batches(partial, batch_format="pandas")
    return bucket_groups(partials, key_col, n_buckets, final)


# ---------------------------------------------------------- neardup_clusters


def neardup_clusters(docs: "ray.data.Dataset",
                     jaccard_threshold: float = 0.8) -> "ray.data.Dataset":
    """Cluster-level near-dedup (what production pipelines run after pair
    generation): MinHash-LSH candidate pairs → connected components over the
    pair graph → every clustered doc labeled with its cluster keeper
    (min doc_id — CC's min-label fixpoint IS the keeper assignment, no extra
    pass).  Output: (doc_id, keep_id) for every doc in a non-trivial
    cluster; rows with doc_id != keep_id are the drop list.

    Composition of two existing scale shapes: one LSH shuffle for pairs,
    then the CC fixpoint (broadcast/local mode — the pair graph is a tiny
    fraction of the corpus by construction)."""
    from .dedup import minhash_lsh_pairs
    from .graph import connected_components

    pairs = minhash_lsh_pairs(docs, jaccard_threshold=jaccard_threshold)
    comp = connected_components(pairs.select_columns(["id_a", "id_b"]),
                                src="id_a", dst="id_b", mode="broadcast")

    def out(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "doc_id": df["node"].astype("int64"),
            "keep_id": df["component"].astype("int64"),
        })

    return comp.map_batches(out, batch_format="pandas")


# ------------------------------------------------------------ weighted_sample


def weighted_sample(ds: "ray.data.Dataset", id_col: str, weight_col: str,
                    k: int, seed: int = 42) -> "ray.data.Dataset":
    """Efraimidis–Spirakis weighted sampling without replacement,
    determinized: each row gets key = u ** (1/w) with
    u = (splitmix64(id ^ seed) + 1) / 2**64 ∈ (0, 1]; the sample is the k
    largest keys (ties → min id; float64 keys collide with probability ~0).
    Inclusion follows the classic ES distribution, but u comes from the id
    hash instead of an RNG, so the sample is identical across runs, block
    layouts and cluster sizes.

    Shape: per-block key stamp + per-block top-k prune, then a global sort
    over ≤ blocks × k rows (same two-phase shape as `aggregates.top_k`).

    Output: (id_col, weight_col, es_key)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .dedup import _splitmix64

    seed64 = np.uint64(seed)

    def stamp_prune(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy().astype(np.uint64)
        w = df[weight_col].to_numpy(np.float64)
        u = (_splitmix64(ids ^ seed64).astype(np.float64) + 1.0) / 2.0 ** 64
        key = u ** (1.0 / np.maximum(w, 1e-12))
        out = pd.DataFrame({
            id_col: df[id_col].astype("int64"),
            weight_col: df[weight_col],
            "es_key": key,
        })
        return out.sort_values(["es_key", id_col],
                               ascending=[False, True]).head(k)

    pruned = ds.map_batches(stamp_prune, batch_format="pandas")
    return pruned.sort(["es_key", id_col],
                       descending=[True, False]).limit(k)


def fuzzy_decontaminate(train: "ray.data.Dataset",
                        eval_docs: "ray.data.Dataset",
                        est_threshold: float = 0.5, n_perm: int = 64,
                        n_bands: int = 16, shingle_k: int = 3,
                        id_col: str = "doc_id", text_col: str = "text",
                        n_buckets: int = 64) -> "ray.data.Dataset":
    """(train_id, eval_id, est_jaccard) — NEAR-duplicate decontamination:
    training docs whose minhash-estimated shingle Jaccard against any
    benchmark doc is ≥ `est_threshold`. Catches paraphrased/templated eval
    leakage the exact n-gram `decontaminate` misses.

    Unlike exact decontamination (eval n-grams broadcast to a member-check
    task map), the fuzzy variant needs candidate PAIRS: both sides' band
    rows go through ONE `joins.candidate_pairs` shuffle, with the side as
    its side column, so only CROSS (train × eval) rows are compared.
    Neither side is ever collected to the driver — the eval side may be
    large (a full held-out split), and even a small one costs only its
    share of the one shuffle."""
    from ..joins import candidate_pairs
    from .dedup import _est_jaccard, _lsh_rows, _minhash_sigs

    def band_rows(ds, side: int):
        return _minhash_sigs(ds, n_perm, shingle_k, id_col, text_col).map_batches(
            lambda df: _lsh_rows(df, n_bands, id_col).assign(side=side),
            batch_format="pandas")

    pairs = candidate_pairs(
        band_rows(train, 0).union(band_rows(eval_docs, 1)), n_buckets,
        _est_jaccard, lambda est: est >= est_threshold, "est_jaccard",
        side="side")
    return pairs.map_batches(
        lambda df: df.rename(columns={"id_a": "train_id",
                                      "id_b": "eval_id"}),
        batch_format="pandas")


def source_quality_stats(docs: "ray.data.Dataset",
                         threshold_scaled: int = 450_000,
                         salt_buckets: int = 1) -> "ray.data.Dataset":
    """(source, n_docs, mean_q_scaled, kept) — per-source quality curation
    (RefinedWeb/C4-style domain filtering): every document is scored with
    the `quality_score` heuristics, per-source means are kept in exact
    integer arithmetic (quality is 6-dp-rounded, so q * 1e6 is integral;
    the mean is the floor-divided sum), and a source is `kept` (1/0) when
    its mean reaches `threshold_scaled`. Downstream pipelines drop every
    document of a flagged source — the per-source table IS the broadcast
    side of that filter, so this operator returns it rather than
    re-materializing the corpus.

    Scale shape: scoring is one vectorized map over (doc_id, text, source);
    per-(source) partials are computed INSIDE each block before the single
    salted partial+final aggregation — unbounded source cardinality never
    becomes one Ray group per source, and document rows never shuffle."""
    from ..aggregates import partial_final_agg
    from .text import quality_score

    def score_partial(batch: pd.DataFrame) -> pd.DataFrame:
        q = quality_score(batch[["doc_id", "text"]])
        qs = np.rint(q["quality"].to_numpy("float64") * 1_000_000
                     ).astype("int64")
        part = pd.DataFrame({"source": batch["source"].to_numpy(object),
                             "qs": qs})
        gb = part.groupby("source", sort=False)["qs"]
        agg = gb.agg(["sum", "count"]).reset_index()
        return pd.DataFrame({"source": agg["source"].to_numpy(object),
                             "q_part": agg["sum"].to_numpy("int64"),
                             "n_part": agg["count"].to_numpy("int64")})

    agg = partial_final_agg(
        docs.map_batches(score_partial, batch_format="pandas"),
        ["source"], [("q_sum", "q_part", "sum"), ("n_docs", "n_part", "sum")])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        q_sum = df["q_sum"].to_numpy("int64")
        n = df["n_docs"].to_numpy("int64")
        mean_q = q_sum // n
        return pd.DataFrame({
            "source": df["source"].to_numpy(object),
            "n_docs": n,
            "mean_q_scaled": mean_q,
            "kept": (mean_q >= threshold_scaled).astype("int64"),
        })

    return agg.map_batches(finish, batch_format="pandas")
