"""Text-analysis operators over a `documents(doc_id, text, ...)` table.

Large-scale training-data-pipeline primitives: token counting, quality
scoring, language ID, document fingerprinting. All are stateless vectorized
`map_batches` stages (pandas string kernels / numpy); the language-ID stage is
a callable `LangId()` instance over its module-level marker profiles.

Token convention for the SQL-checkable ops: WHITESPACE tokens
(`regexp_split_to_array(text, '\\s+')` in the DuckDB oracle) — simpler than
the KG tokenizer on purpose so Ray and SQL agree bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..functions.strings import STOPWORDS, normalize_surface, round_half_up

_STOP = frozenset(STOPWORDS)


def token_stats(batch: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, n_tokens, n_chars, avg_token_len) — whitespace tokens."""
    toks = batch["text"].str.split()
    n_tokens = toks.str.len().astype("int64")
    n_chars = batch["text"].str.len().astype("int64")
    tok_chars = toks.map(lambda ws: sum(len(w) for w in ws))
    out = pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": n_tokens,
            "n_chars": n_chars,
            "avg_token_len": round_half_up(tok_chars / n_tokens.clip(lower=1), 6),
        }
    )
    return out


def quality_score(batch: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, n_tokens, stop_ratio, uniq_ratio, quality) — length /
    stopword / repetition heuristics (C4/Gopher-style rules, simplified)."""
    toks = batch["text"].str.lower().str.split()
    n = toks.str.len().astype("int64")
    n_stop = toks.map(lambda ws: sum(w in _STOP for w in ws))
    n_uniq = toks.map(lambda ws: len(set(ws)))
    stop_ratio = round_half_up(n_stop / n.clip(lower=1), 6)
    uniq_ratio = round_half_up(n_uniq / n.clip(lower=1), 6)
    # quality in [0,1]: enough tokens, some stopwords, low repetition
    quality = round_half_up(
        (
            (n.clip(upper=100) / 100.0) * 0.4
            + stop_ratio.clip(upper=0.4) * 0.5
            + uniq_ratio * 0.4
        ).clip(upper=1.0),
        6,
    )
    return pd.DataFrame(
        {
            "doc_id": batch["doc_id"],
            "n_tokens": n,
            "stop_ratio": stop_ratio,
            "uniq_ratio": uniq_ratio,
            "quality": quality,
        }
    )


def normalize_text(batch: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, norm) — punct-strip + lower + whitespace collapse (the
    SQL-expressible prefix of the canonicalizer)."""
    return pd.DataFrame(
        {"doc_id": batch["doc_id"], "norm": batch["text"].map(normalize_surface)}
    )


# -- language ID -------------------------------------------------------------

# character/word profiles per language: tiny deterministic n-gram heuristic.
_LANG_MARKERS: dict[str, frozenset[str]] = {
    "en": frozenset("the and of to is are was with for that".split()),
    "fr": frozenset("le la les des et est une pour dans que".split()),
    "es": frozenset("el los las es una por para con del como".split()),
    "de": frozenset("der die das und ist mit für ein nicht von".split()),
    "zh": frozenset(),  # fallback: CJK codepoint ratio
}


class LangId:
    """Task-pool stage: (doc_id, lang_pred, lang_conf). Marker-word voting
    with a CJK-codepoint fallback; deterministic ties broken by language code."""

    def __init__(self):
        self.markers = _LANG_MARKERS

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        langs, confs = [], []
        for text in batch["text"]:
            toks = text.lower().split()
            n = max(1, len(toks))
            cjk = sum(1 for ch in text if "一" <= ch <= "鿿")
            if cjk > 0.2 * len(text):
                langs.append("zh")
                confs.append(float(round_half_up(cjk / max(1, len(text)), 6)))
                continue
            scores = {
                lang: sum(t in marks for t in toks) / n
                for lang, marks in self.markers.items()
                if marks
            }
            best = max(sorted(scores), key=lambda k: scores[k])
            langs.append(best if scores[best] > 0 else "unknown")
            confs.append(float(round_half_up(scores[best], 6)))
        return pd.DataFrame({"doc_id": batch["doc_id"], "lang_pred": langs, "lang_conf": confs})


# GPT-2-style pre-tokenizer classes, lookahead-free so the identical pattern
# runs under both Python `re` and DuckDB's RE2 (`regexp_extract_all`); char
# classes are explicit-ASCII so `\s` unicode differences can't split the
# oracle (ADVICE round-1 lesson).
BPE_SPLIT_RE = r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9 \t\n\r\f]+|[ \t\n\r\f]+"
_ALPHA_RE = r"[A-Za-z]+"
_NUM_RE = r"[0-9]+"
_PUNCT_RE = r"[^A-Za-z0-9 \t\n\r\f]+"


def token_count_bpe(batch: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, n_bpe, n_alpha, n_num, n_punct) — BPE-ish pre-tokenizer
    counts: n_bpe = segments under the GPT-2-style split regex (a proxy for
    subword-token budget planning); the rest are maximal-run counts per
    class. Vectorized via pandas str.count (compiled regex, no Python loop)."""
    return pd.DataFrame({
        "doc_id": batch["doc_id"],
        "n_bpe": batch["text"].str.count(BPE_SPLIT_RE).astype("int64"),
        "n_alpha": batch["text"].str.count(_ALPHA_RE).astype("int64"),
        "n_num": batch["text"].str.count(_NUM_RE).astype("int64"),
        "n_punct": batch["text"].str.count(_PUNCT_RE).astype("int64"),
    })


def dup_ngram_stats(batch: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, n_tokens, dup_trigram_frac, top_bigram_frac) — Gopher-style
    repetition signals over whitespace tokens: fraction of trigram
    occurrences that are repeats of an earlier trigram, and the share of the
    most frequent bigram among all bigrams (0.0 when the doc is too short)."""
    from collections import Counter

    n_toks, dup3, top2 = [], [], []
    for text in batch["text"]:
        t = text.split()
        n_toks.append(len(t))
        tris = [" ".join(t[i:i + 3]) for i in range(len(t) - 2)]
        dup3.append(1.0 - len(set(tris)) / len(tris) if tris else 0.0)
        bis = Counter(" ".join(t[i:i + 2]) for i in range(len(t) - 1))
        top2.append(max(bis.values()) / sum(bis.values()) if bis else 0.0)
    return pd.DataFrame({
        "doc_id": batch["doc_id"],
        "n_tokens": pd.array(n_toks, dtype="int64"),
        "dup_trigram_frac": round_half_up(np.asarray(dup3), 6),
        "top_bigram_frac": round_half_up(np.asarray(top2), 6),
    })


# -- corpus n-gram counts ----------------------------------------------------


def bigram_batch(df: pd.DataFrame) -> pd.DataFrame:
    """(bigram,) — one row per adjacent lowercased whitespace-token pair.
    Vectorized: all docs' tokens are flattened into one object array, doc
    boundaries masked out, and the pair strings built with pandas C-level
    concat — no per-token Python."""
    toks = df["text"].str.lower().str.split()
    lists = toks.tolist()
    lens = np.fromiter((len(x) for x in lists), dtype=np.int64,
                       count=len(lists))
    total = int(lens.sum())
    if total < 2:
        return pd.DataFrame({"bigram": pd.Series([], dtype=object)})
    flat = np.empty(total, dtype=object)
    pos = 0
    for x in lists:
        flat[pos:pos + len(x)] = x
        pos += len(x)
    valid = np.ones(total - 1, dtype=bool)
    ends = np.cumsum(lens)
    last = ends - 1  # last token index of each doc — no bigram across docs
    last = last[(last >= 0) & (last < total - 1)]
    valid[last] = False
    left = pd.Series(flat[:-1][valid])
    right = pd.Series(flat[1:][valid])
    return pd.DataFrame({"bigram": left.str.cat(right, sep=" ")})


def bigram_counts(ds, min_count: int = 1, salt_buckets: int = 8):
    """Corpus-wide bigram count table (n-gram LM / repetition analysis):
    flat-map to one row per bigram, salted partial+final grouped count,
    then a threshold filter. The partial combine bounds any bigram's
    shuffle fan-in to the block count regardless of its popularity."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..aggregates import grouped_count

    rows = ds.map_batches(bigram_batch, batch_format="pandas")
    counts = grouped_count(rows, ["bigram"], out_name="n",
                           salt_buckets=salt_buckets)
    if min_count > 1:
        counts = counts.map_batches(
            lambda t: t.filter(pc.greater_equal(t["n"],
                                                pa.scalar(min_count))),
            batch_format="pyarrow")
    return counts


# -- frequent items (heavy hitters) ------------------------------------------


def heavy_hitters(ds, col: str, k: int = 20, m: int | None = None):
    """Exact φ-frequent items (count > N/k) in two streaming passes — the
    Misra-Gries candidate pattern:

    pass 1: per block, keep values whose block count × (m+1) > block rows
            (≤ m survivors per block — the MG summary computed from exact
            per-block counts). A value absent from EVERY block summary has
            global count ≤ Σ n_b/(m+1) = N/(m+1), so with m ≥ k−1 the union
            of block summaries provably contains every answer. The union is
            bounded by blocks × m, never by the key cardinality.
    pass 2: exact recount of the candidate set only (broadcast is_in
            filter → salted partial+final count), then the exact
            n × k > N threshold.

    Returns (col, n) with exact counts — oracle-matchable against plain SQL
    `HAVING count(*)*k > total`."""
    import pyarrow as pa
    import pyarrow.compute as pc

    if m is None:
        m = max(4 * k, k - 1)
    assert m >= k - 1, "MG capacity must be >= k-1 for the candidate guarantee"

    def compact(t: pa.Table) -> pa.Table:
        # per-block exact value counts: the (value, weight) stream is
        # equivalent to the row stream for every step below, and it is the
        # ONLY thing materialized — compaction factor = mean per-block value
        # multiplicity (huge for Zipfian token streams). The expensive
        # upstream (tokenize + explode) thus executes exactly once instead
        # of once per pass (summary / total / recount).
        g = t.select([col]).group_by([col]).aggregate([([], "count_all")])
        return pa.table({col: g[col],
                         "_w": pc.cast(g["count_all"], pa.int64())})

    comp = ds.map_batches(compact, batch_format="pyarrow").materialize()

    def block_summary(t: pa.Table) -> pa.Table:
        # weighted MG summary: a value absent from every block summary has
        # weight <= sum_b n_b/(m+1) = N/(m+1) — same guarantee as unweighted.
        # map_batches may coalesce rows from MULTIPLE compacted blocks into
        # one summary batch, so a value can appear several times here; sum
        # duplicates first, making the batch equivalent to one larger block
        # (without this, r rows of one value weaken the bound to r·N/(m+1)).
        g = t.select([col, "_w"]).group_by([col]).aggregate([("_w", "sum")])
        w = pc.cast(g["_w_sum"], pa.int64())
        n_b = pc.sum(w).as_py() or 0
        keep = pc.greater(pc.multiply(w, pa.scalar(m + 1, pa.int64())),
                          pa.scalar(n_b, pa.int64()))
        cand = g.filter(keep)
        return pa.table({col: cand[col]})

    # candidates: bounded by blocks × m rows — a driver-side collect of an
    # aggregate-sized result, not of the input
    summary = comp.map_batches(block_summary, batch_format="pyarrow").to_pandas()
    total = int(comp.sum("_w") or 0)
    cand = sorted(set(summary[col])) if len(summary) else []
    if not cand:
        # nothing can exceed N/(m+1): empty result with the input's key type
        return comp.map_batches(
            lambda t: pa.table({col: t[col].slice(0, 0),
                                "n": pa.array([], pa.int64())}),
            batch_format="pyarrow").limit(1)
    cand_set = pa.array(cand)

    from ..aggregates import partial_final_agg

    filtered = comp.map_batches(
        lambda t: t.filter(pc.is_in(t[col], value_set=cand_set)),
        batch_format="pyarrow")
    counts = partial_final_agg(filtered, [col], [("n", "_w", "sum")])
    return counts.map_batches(
        lambda t: t.filter(pc.greater(
            pc.multiply(pc.cast(t["n"], pa.int64()), pa.scalar(k, pa.int64())),
            pa.scalar(total, pa.int64()))),
        batch_format="pyarrow")


# -- n-gram LM fluency score -------------------------------------------------


def _doc_bigram_counts(df: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, bigram, w1, c) — per-document bigram counts, vectorized with
    the same flatten-and-mask scheme as `bigram_batch` plus a doc-index
    repeat so each bigram keeps its document."""
    toks = df["text"].str.lower().str.split()
    lists = toks.tolist()
    lens = np.fromiter((len(x) for x in lists), dtype=np.int64,
                       count=len(lists))
    total = int(lens.sum())
    empty = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                          "bigram": pd.Series([], dtype=object),
                          "w1": pd.Series([], dtype=object),
                          "c": pd.Series([], dtype="int64")})
    if total < 2:
        return empty
    flat = np.empty(total, dtype=object)
    pos = 0
    for x in lists:
        flat[pos:pos + len(x)] = x
        pos += len(x)
    valid = np.ones(total - 1, dtype=bool)
    last = np.cumsum(lens) - 1  # last token of each doc — no cross-doc bigram
    valid[last[(last >= 0) & (last < total - 1)]] = False
    if not valid.any():
        return empty
    doc_idx = np.repeat(np.arange(len(lists)), lens)[:-1][valid]
    left = pd.Series(flat[:-1][valid])
    rows = pd.DataFrame({
        "doc_id": df["doc_id"].astype("int64").values[doc_idx],
        "bigram": left.str.cat(pd.Series(flat[1:][valid]), sep=" ").values,
        "w1": left.values,
    })
    out = rows.groupby(["doc_id", "bigram", "w1"], as_index=False).size()
    return out.rename(columns={"size": "c"})


def ngram_lm_score(ds, scale: int = 1_000_000, extra_cols: tuple = (),
                   vocab_broadcast_limit: int = 2_000_000,
                   n_buckets: int = 32):
    """Per-doc fluency under a corpus bigram LM — the shape of model-based
    quality filtering (perplexity filtering) with an exact integer score:

        p_scaled(w2|w1) = count(w1 w2) × scale // count(w1·)
        lm_score        = Σ p_scaled over the doc's bigrams // n_bigrams

    (mean scaled conditional probability instead of mean log-prob — same
    ordering signal, zero float nondeterminism, SQL-mirrorable.)

    Two paths, chosen by the measured bigram-vocabulary size:

    - **broadcast** (vocab ≤ `vocab_broadcast_limit`): corpus bigram +
      left-unigram count tables via salted partial+final counts, shipped
      once with `ray.put`; scoring is ONE shuffle-free pass over the docs
      with vectorized dict maps and per-doc segment sums.
    - **bucketed join** (huge vocab — billions of distinct bigrams at
      100 TB would OOM the driver dict): per-doc bigram counts are joined
      against the corpus count tables with `hash_join` on the bigram and
      left-unigram keys; probabilities reduce to per-doc partial sums
      INSIDE the join buckets, so only (doc_id, partial) rows shuffle.

    Returns (doc_id, n_bigrams, *extra_cols, lm_score)."""
    import ray

    from ..aggregates import grouped_count

    bi_ds = grouped_count(
        ds.map_batches(bigram_batch, batch_format="pandas"),
        ["bigram"], out_name="n", salt_buckets=8).materialize()
    vocab = bi_ds.count()

    def doc_base(df: pd.DataFrame) -> pd.DataFrame:
        lens = df["text"].str.lower().str.split().str.len().astype("int64")
        out = pd.DataFrame({"doc_id": df["doc_id"].astype("int64"),
                            "n_bigrams": (lens - 1).clip(lower=0)})
        for c in extra_cols:  # passthrough metadata (e.g. lang)
            out[c] = df[c].values
        return out

    if vocab > vocab_broadcast_limit:
        return _ngram_lm_score_join(ds, bi_ds, doc_base, scale, extra_cols,
                                    n_buckets)

    bi = bi_ds.to_pandas()
    bi_map = dict(zip(bi["bigram"], bi["n"].astype(int)))
    left_counts: dict[str, int] = {}
    for bg, n in bi_map.items():
        w1 = bg.split(" ", 1)[0]
        left_counts[w1] = left_counts.get(w1, 0) + int(n)
    bi_ref, left_ref = ray.put(bi_map), ray.put(left_counts)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        bm, lm = ray.get(bi_ref), ray.get(left_ref)
        toks = df["text"].str.lower().str.split()
        lists = toks.tolist()
        lens = np.fromiter((len(x) for x in lists), dtype=np.int64,
                           count=len(lists))
        nb = np.maximum(lens - 1, 0)
        total = int(lens.sum())
        out = pd.DataFrame({"doc_id": df["doc_id"].astype("int64").values,
                            "n_bigrams": nb})
        for c in extra_cols:  # passthrough metadata (e.g. lang)
            out[c] = df[c].values
        if total < 2 or nb.sum() == 0:
            out["lm_score"] = np.zeros(len(df), dtype=np.int64)
            return out
        flat = np.empty(total, dtype=object)
        pos = 0
        for x in lists:
            flat[pos:pos + len(x)] = x
            pos += len(x)
        valid = np.ones(total - 1, dtype=bool)
        last = np.cumsum(lens) - 1
        valid[last[(last >= 0) & (last < total - 1)]] = False
        left = pd.Series(flat[:-1][valid])
        bigr = left.str.cat(pd.Series(flat[1:][valid]), sep=" ")
        # vectorized dict maps + exact integer conditional probability
        p = (bigr.map(bm).fillna(0).astype("int64") * scale
             ) // left.map(lm).fillna(1).astype("int64")
        # per-doc segment sums over the flattened bigram stream: build
        # reduceat starts only for docs WITH bigrams, then scatter back —
        # clipping a zero-bigram doc's start instead would steal the last
        # bigram of the preceding doc whenever the empty doc is last
        nz = nb > 0
        starts = np.concatenate([[0], np.cumsum(nb[nz])[:-1]]).astype(np.int64)
        sums = np.zeros(len(nb), dtype=np.int64)
        sums[nz] = np.add.reduceat(p.to_numpy(), starts)
        out["lm_score"] = np.where(nz, sums // np.maximum(nb, 1), 0)
        return out

    return ds.map_batches(score, batch_format="pandas")


def _ngram_lm_score_join(ds, bi_ds, doc_base, scale: int, extra_cols: tuple,
                         n_buckets: int):
    """Huge-vocabulary path for `ngram_lm_score`: no driver-side count
    tables. Per-doc bigram counts join the corpus bigram counts on
    `bigram`, then the left-unigram counts on `w1`; the probability math
    and a per-doc partial sum run inside the second join's buckets
    (`bucket_post`), so the only rows that ever shuffle after the joins are
    aggregate-sized (doc_id, partial)."""
    import pyarrow as pa

    from ..aggregates import partial_final_agg
    from ..joins import _arrow_types, hash_join

    doc_bg = ds.map_batches(_doc_bigram_counts, batch_format="pandas")
    left_tbl = partial_final_agg(
        bi_ds.map_batches(
            lambda df: pd.DataFrame(
                {"w1": df["bigram"].str.split(" ", n=1).str[0],
                 "n": df["n"].astype("int64")}),
            batch_format="pandas"),
        ["w1"], [("nl", "n", "sum")])

    j1 = hash_join(
        doc_bg, bi_ds, on="bigram", n_buckets=n_buckets,
        left_types={"doc_id": pa.int64(), "bigram": pa.string(),
                    "w1": pa.string(), "c": pa.int64()},
        right_types={"bigram": pa.string(), "n": pa.int64()},
        bucket_post=lambda m: m[["doc_id", "w1", "c", "n"]])

    def prob_partial(m: pd.DataFrame) -> pd.DataFrame:
        p = (m["n"].astype("int64") * scale) // m["nl"].astype("int64")
        part = (m["c"].astype("int64") * p)
        out = pd.DataFrame({"doc_id": m["doc_id"].astype("int64"),
                            "s_part": part})
        return out.groupby("doc_id", as_index=False)["s_part"].sum()

    j2 = hash_join(
        j1, left_tbl, on="w1", n_buckets=n_buckets,
        left_types={"doc_id": pa.int64(), "w1": pa.string(),
                    "c": pa.int64(), "n": pa.int64()},
        right_types={"w1": pa.string(), "nl": pa.int64()},
        bucket_post=prob_partial)
    sums = partial_final_agg(j2, ["doc_id"], [("s", "s_part", "sum")])

    base_types = {"doc_id": pa.int64(), "n_bigrams": pa.int64()}
    in_types = _arrow_types(ds)  # reads are metadata-cheap; extras only
    for c in extra_cols:
        base_types[c] = in_types.get(c, pa.string())
    base = ds.map_batches(doc_base, batch_format="pandas")

    def finish(m: pd.DataFrame) -> pd.DataFrame:
        nb = m["n_bigrams"].astype("int64")
        s = m["s"].fillna(0).astype("int64")
        out = pd.DataFrame({"doc_id": m["doc_id"].astype("int64"),
                            "n_bigrams": nb})
        for c in extra_cols:
            out[c] = m[c].values
        out["lm_score"] = np.where(nb > 0, s // nb.clip(lower=1), 0)
        return out

    return hash_join(
        base, sums, on="doc_id", how="left", n_buckets=n_buckets,
        left_types=base_types,
        right_types={"doc_id": pa.int64(), "s": pa.int64()},
        bucket_post=finish)


# -- TF-IDF ------------------------------------------------------------------


def doc_term_freqs(df: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, token, tf) — per-document term frequencies over lowercased
    whitespace tokens. A document's rows never leave its batch (tf is
    row-local), so this is shuffle-free."""
    toks = df["text"].str.lower().str.split()
    e = df[["doc_id"]].assign(token=toks).explode("token")
    e = e[e["token"].notna()]
    tf = e.groupby(["doc_id", "token"], as_index=False).size()
    return tf.rename(columns={"size": "tf"})


def tfidf_top_terms(ds, top_n: int = 3, df_broadcast_limit: int = 5_000_000):
    """Per-document top-n terms by integer-scaled TF-IDF:

        score_scaled = tf × n_docs × 1000 // df      (exact int arithmetic)

    so Ray and a SQL oracle agree bit-for-bit (no float log). Two paths by
    measured vocabulary size:

    - **broadcast** (vocab ≤ `df_broadcast_limit`): document-frequency dict
      shipped once with `ray.put`; per-doc tf + in-batch top-n — one
      shuffle-free scoring pass.
    - **bucketed join** (huge vocab): the (doc_id, token, tf) rows join the
      df table with `hash_join` on token, then ONE coarse-bucket shuffle on
      doc_id picks the top-n per doc (`windows.top_n_per_key`) — nothing
      driver-sized.

    Ties broken by token asc. Returns (doc_id, token, tf, df,
    score_scaled)."""
    import ray

    from ..aggregates import grouped_count

    def doc_distinct(df_: pd.DataFrame) -> pd.DataFrame:
        toks = df_["text"].str.lower().str.split().map(
            lambda ws: sorted(set(ws)))
        e = df_[["doc_id"]].assign(token=toks).explode("token")
        return e[e["token"].notna()][["token"]]

    dfc = grouped_count(
        ds.map_batches(doc_distinct, batch_format="pandas"),
        ["token"], out_name="df", salt_buckets=4).materialize()
    n_docs = ds.count()
    if dfc.count() > df_broadcast_limit:
        return _tfidf_top_terms_join(ds, dfc, n_docs, top_n)
    df_tbl = dfc.to_pandas()
    df_ref = ray.put(dict(zip(df_tbl["token"], df_tbl["df"].astype(int))))

    def topn(df_: pd.DataFrame) -> pd.DataFrame:
        tf = doc_term_freqs(df_)
        if not len(tf):
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                                 "token": pd.Series([], dtype=object),
                                 "tf": pd.Series([], dtype="int64"),
                                 "df": pd.Series([], dtype="int64"),
                                 "score_scaled": pd.Series([], dtype="int64")})
        dfs = ray.get(df_ref)
        tf["df"] = tf["token"].map(dfs).astype("int64")
        tf["score_scaled"] = (tf["tf"].astype("int64") * n_docs * 1000
                              ) // tf["df"]
        tf = tf.sort_values(["doc_id", "score_scaled", "token"],
                            ascending=[True, False, True])
        out = tf.groupby("doc_id", as_index=False).head(top_n).copy()
        out["tf"] = out["tf"].astype("int64")
        return out.reset_index(drop=True)

    return ds.map_batches(topn, batch_format="pandas")


def _tfidf_top_terms_join(ds, dfc, n_docs: int, top_n: int,
                          n_buckets: int = 32):
    """Huge-vocabulary path for `tfidf_top_terms`: per-doc tf rows join the
    document-frequency table on token (bucketed, scores computed inside the
    join buckets), then one coarse doc_id-bucket shuffle selects the top-n
    per document with the vectorized window kernel."""
    import pyarrow as pa

    from ..joins import hash_join
    from ..windows import top_n_per_key

    tf_rows = ds.map_batches(doc_term_freqs, batch_format="pandas")

    def score(m: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame({"doc_id": m["doc_id"].astype("int64"),
                            "token": m["token"],
                            "tf": m["tf"].astype("int64"),
                            "df": m["df"].astype("int64")})
        out["score_scaled"] = (out["tf"] * n_docs * 1000) // out["df"]
        return out

    j = hash_join(
        tf_rows, dfc, on="token", n_buckets=n_buckets,
        left_types={"doc_id": pa.int64(), "token": pa.string(),
                    "tf": pa.int64()},
        right_types={"token": pa.string(), "df": pa.int64()},
        bucket_post=score)
    out = top_n_per_key(j, "doc_id", ["score_scaled", "token"], n=top_n,
                        ascending=[False, True])
    return out.map_batches(
        lambda d: d[["doc_id", "token", "tf", "df", "score_scaled"]],
        batch_format="pandas")


_FP_B = np.uint64(1000003)
_FP_H0 = np.uint64(1469598103934665603)


def fingerprint(batch: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, fp64) — rolling (Rabin-style) polynomial hash over whitespace
    tokens (each token's UTF-8 bytes followed by a 0x20 separator), i.e.
    h = h0*B^n + Σ byte_i * B^(n-1-i)  (mod 2^64).

    Vectorized: the Horner recurrence is expanded into a power-weighted dot
    product per document (numpy uint64 wraps mod 2^64 like the scalar loop);
    no per-byte Python. The per-byte loop twin lives in the oracle module."""
    fps = []
    for text in batch["text"]:
        toks = text.split()
        if not toks:
            fps.append(int(_FP_H0))
            continue
        data = b" ".join(t.encode("utf-8") for t in toks) + b" "
        arr = np.frombuffer(data, dtype=np.uint8).astype(np.uint64)
        n = len(arr)
        pw = np.full(n, _FP_B, dtype=np.uint64)
        pw[0] = np.uint64(1)
        with np.errstate(over="ignore"):  # mod-2^64 wraparound is the point
            np.cumprod(pw, out=pw)  # pw[i] = B^i (mod 2^64)
            h = _FP_H0 * pw[-1] * _FP_B + np.dot(arr, pw[::-1])
        fps.append(int(h))
    return pd.DataFrame({"doc_id": batch["doc_id"], "fp64": pd.array(fps, dtype="uint64")})


def compression_ratio(batch: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, raw_len, zlen, ratio_scaled) — zlib-compressibility quality
    signal (highly repetitive/boilerplate text compresses far below natural
    prose; used as a filter in Gopher/FineWeb-style pipelines).
    ratio_scaled = zlen * 10000 // max(raw_len, 1) — exact ints, so the
    scalar oracle recompute hash-matches (zlib level pinned)."""
    import zlib

    raw = batch["text"].str.len().astype("int64")
    zlen = pd.array(
        [len(zlib.compress(t.encode("utf-8"), 6)) for t in batch["text"]],
        dtype="int64")
    return pd.DataFrame({
        "doc_id": batch["doc_id"],
        "raw_len": raw,
        "zlen": zlen,
        "ratio_scaled": (zlen * 10000) // raw.clip(lower=1),
    })


def readability(batch: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, n_words, n_sents, n_syll, flesch_milli) — Flesch-reading-
    ease-style readability as EXACT scaled integers (readability is a
    standard curation quality signal alongside the Gopher rules).

    Contract (mirrored verbatim by the SQL oracle): words = whitespace
    tokens; sentences = max(1, count of `[.!?]+` runs); syllables = vowel
    runs `[aeiouy]+` over the LOWERCASED text (whitespace breaks runs, so
    the whole-text count equals the per-token sum); score_milli =
    206835 − 1015·W // S − 84600·Syl // max(W, 1), each term floor-divided
    (operands non-negative → SQL `//` agrees). Pure vectorized pandas
    string kernels — one regex count per column."""
    w = batch["text"].str.count(r"\S+").astype("int64")
    s = batch["text"].str.count(r"[.!?]+").astype("int64").clip(lower=1)
    syl = batch["text"].str.lower().str.count(r"[aeiouy]+").astype("int64")
    flesch = 206835 - (1015 * w) // s - (84600 * syl) // w.clip(lower=1)
    return pd.DataFrame({
        "doc_id": batch["doc_id"],
        "n_words": w,
        "n_sents": s,
        "n_syll": syl,
        "flesch_milli": flesch.astype("int64"),
    })


def type_token_ratio(batch: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, n_tokens, n_types, ttr_ppm) — lexical-diversity signal
    (low TTR flags boilerplate/template text; curation companion to
    `compression_ratio`). Lowercased whitespace tokens; ttr_ppm =
    n_types · 1e6 // max(n_tokens, 1) exact — SQL mirrors with
    `list_distinct` over the same split."""
    toks = batch["text"].str.lower().str.split()
    n_tok = toks.str.len().astype("int64")
    n_typ = pd.array([len(set(ws)) for ws in toks], dtype="int64")
    return pd.DataFrame({
        "doc_id": batch["doc_id"],
        "n_tokens": n_tok,
        "n_types": n_typ,
        "ttr_ppm": (n_typ * 1_000_000) // n_tok.clip(lower=1),
    })


def char_entropy(batch: pd.DataFrame) -> pd.DataFrame:
    """(doc_id, n_chars, entropy_nano) — Shannon entropy of the
    character distribution as an EXACT integer contract (very low
    entropy flags repetitive/template text; the decode-free cousin of
    `compression_ratio`):

        H_nano = floor(ln(n)·1e9) − (Σ_c cnt_c · floor(ln(cnt_c)·1e9)) // n

    Each log term floors independently, so the value is partitioning-
    and summation-order-invariant, and the SQL oracle mirrors the
    expression per character group. Counts are over CHARACTERS (not
    bytes — the corpus contains CJK text, and the SQL mirror enumerates
    characters). Empty docs report 0."""
    from collections import Counter

    ids, ns, hs = [], [], []
    for doc_id, text in zip(batch["doc_id"], batch["text"]):
        n = len(text)
        if n == 0:
            ids.append(doc_id)
            ns.append(0)
            hs.append(0)
            continue
        cnt = np.array(list(Counter(text).values()), dtype=np.float64)
        term = int((cnt * np.floor(np.log(cnt) * 1e9)).sum())
        h = int(np.floor(np.log(float(n)) * 1e9)) - term // n
        ids.append(doc_id)
        ns.append(n)
        hs.append(h)
    return pd.DataFrame({"doc_id": ids,
                         "n_chars_e": pd.array(ns, dtype="int64"),
                         "entropy_nano": pd.array(hs, dtype="int64")})


def chunk_documents(batch: pd.DataFrame, chunk_tokens: int = 32,
                    stride: int = 24) -> pd.DataFrame:
    """(doc_id, chunk_ix, start_tok, n_chunk_tokens, chunk_text) — RAG-style
    overlapping chunking: windows of `chunk_tokens` whitespace tokens every
    `stride` tokens (overlap = chunk_tokens - stride).  Pure per-batch map
    (embarrassingly parallel); token offsets are retained so chunks can be
    traced back into the source doc."""
    ids, cix, starts, lens, texts = [], [], [], [], []
    for doc_id, text in zip(batch["doc_id"], batch["text"]):
        toks = text.split()
        n = len(toks)
        if n == 0:
            continue
        for k, s in enumerate(range(0, n, stride)):
            piece = toks[s:s + chunk_tokens]
            ids.append(doc_id)
            cix.append(k)
            starts.append(s)
            lens.append(len(piece))
            texts.append(" ".join(piece))
    return pd.DataFrame({
        "doc_id": pd.array(ids, dtype="int64"),
        "chunk_ix": pd.array(cix, dtype="int64"),
        "start_tok": pd.array(starts, dtype="int64"),
        "n_chunk_tokens": pd.array(lens, dtype="int64"),
        "chunk_text": pd.array(texts, dtype=object),
    })


def term_contexts(batch: pd.DataFrame, terms: tuple, window: int = 3
                  ) -> pd.DataFrame:
    """(doc_id, term, pos, context) — KWIC snippet extraction: for each
    probe term, the FIRST occurrence position (1-based token index, DuckDB
    `list_position` convention) and a ±`window`-token context string.
    Map-only; the probe list is a handful of terms (broadcast by closure)."""
    ids, out_t, out_p, out_c = [], [], [], []
    for doc_id, text in zip(batch["doc_id"], batch["text"]):
        toks = text.lower().split()
        for term in terms:
            try:
                i = toks.index(term)  # first occurrence, 0-based
            except ValueError:
                continue
            lo = max(0, i - window)
            ids.append(doc_id)
            out_t.append(term)
            out_p.append(i + 1)
            out_c.append(" ".join(toks[lo:i + window + 1]))
    return pd.DataFrame({
        "doc_id": pd.array(ids, dtype="int64"),
        "term": pd.array(out_t, dtype=object),
        "pos": pd.array(out_p, dtype="int64"),
        "context": pd.array(out_c, dtype=object),
    })


def bm25_scores(ds, terms: tuple, k1: float = 1.2, b: float = 0.75,
                top_n: int = 20):
    """Distributed BM25 (Robertson-Sparck Jones) over whitespace tokens for
    a small probe query: score(d) = Σ_t idf(t) · tf·(k1+1) / (tf + k1·(1−b
    + b·dl/avgdl)), idf = ln((N−df+0.5)/(df+0.5) + 1).

    Two streaming passes: (1) corpus stats — per-block partials for N, Σdl
    and per-term df (the probe list is tiny, so df fits in one driver dict);
    (2) a vectorized scoring pass with the stats broadcast, block-local
    top-n prune, bounded global sort. Output: (doc_id, score) descending,
    fixed term-order float64 summation so a scalar recompute matches."""
    import math

    import ray

    probe = list(terms)

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.lower().str.split()
        row = {"n_docs": len(df), "sum_dl": int(toks.str.len().sum())}
        for t in probe:
            row[f"df_{t}"] = int(toks.map(lambda ws, t=t: t in ws).sum())
        return pd.DataFrame([row])

    agg = {"n_docs": 0, "sum_dl": 0, **{f"df_{t}": 0 for t in probe}}
    for part in ds.map_batches(stats, batch_format="pandas").iter_batches(
            batch_format="pandas"):
        for c in agg:
            agg[c] += int(part[c].sum())
    n, avgdl = agg["n_docs"], agg["sum_dl"] / max(agg["n_docs"], 1)
    idf = {t: math.log((n - agg[f"df_{t}"] + 0.5)
                       / (agg[f"df_{t}"] + 0.5) + 1.0) for t in probe}
    sref = ray.put((idf, avgdl))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        from ..functions.strings import round_half_up

        idf_l, avgdl_l = ray.get(sref)
        toks = df["text"].str.lower().str.split()
        dl = toks.str.len().to_numpy(np.float64)
        s = np.zeros(len(df), dtype=np.float64)
        for t in probe:  # fixed term order -> deterministic float64 sum
            tf = toks.map(lambda ws, t=t: ws.count(t)).to_numpy(np.float64)
            denom = tf + k1 * (1.0 - b + b * dl / avgdl_l)
            with np.errstate(invalid="ignore"):
                part = np.where(tf > 0,
                                idf_l[t] * tf * (k1 + 1.0)
                                / np.where(denom == 0, 1.0, denom), 0.0)
            s += part
        out = pd.DataFrame({"doc_id": df["doc_id"].astype("int64"),
                            "score": round_half_up(s, 6)})
        out = out[out["score"] > 0]
        return out.sort_values(["score", "doc_id"],
                               ascending=[False, True]).head(top_n)

    scored = ds.map_batches(score, batch_format="pandas")
    return scored.sort(["score", "doc_id"],
                       descending=[True, False]).limit(top_n)


_GOPHER_STOPS = ("the", "be", "to", "of", "and", "that", "have", "with")
_GOPHER_SCALE = 1_000_000


def gopher_stats(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-document Gopher quality rules (Rae et al. 2021 §A1.1, simplified
    to the SQL-mirrorable subset): word/line counts, mean word length,
    symbol-token ratio (# / ...), bullet-start and ellipsis-end line
    fractions, alphabetic-word fraction, Gopher-stopword hits, and the
    composite keep flag. Every ratio is an exact scaled integer
    (`n * 1e6 // max(den, 1)`, floor) and the flag is int64 0/1, so the
    value-hash oracle holds bit-for-bit (no float rounding surface).

    Pure per-row map — embarrassingly parallel, no shuffle; the per-token
    python loops match the existing quality_score idiom (token-level
    predicates aren't expressible as pandas str kernels without losing the
    exact SQL mirror)."""
    toks = batch["text"].str.lower().str.split()
    lines = batch["text"].str.split("\n")
    n_words = toks.str.len().astype("int64")
    n_lines = lines.str.len().astype("int64")
    sum_chars = toks.map(lambda ws: sum(len(w) for w in ws)).astype("int64")
    n_symbol = toks.map(
        lambda ws: sum(("#" in w) or ("..." in w) for w in ws)).astype("int64")
    n_alpha = toks.map(
        lambda ws: sum(any("a" <= c <= "z" for c in w) for w in ws)
    ).astype("int64")
    n_bullet = lines.map(
        lambda ls: sum(l.startswith(("-", "*", "•")) for l in ls)
    ).astype("int64")
    n_ell_end = lines.map(
        lambda ls: sum(l.endswith("...") for l in ls)).astype("int64")
    stop_hits = toks.map(
        lambda ws: sum(s in set(ws) for s in _GOPHER_STOPS)).astype("int64")

    wden = n_words.clip(lower=1)
    lden = n_lines.clip(lower=1)
    mwl = (sum_chars * _GOPHER_SCALE) // wden
    symbol = (n_symbol * _GOPHER_SCALE) // wden
    alpha = (n_alpha * _GOPHER_SCALE) // wden
    bullet = (n_bullet * _GOPHER_SCALE) // lden
    ell_end = (n_ell_end * _GOPHER_SCALE) // lden
    keep = (
        (n_words >= 20) & (n_words <= 100_000)
        & (mwl >= 3 * _GOPHER_SCALE) & (mwl <= 10 * _GOPHER_SCALE)
        & (symbol <= _GOPHER_SCALE // 10)
        & (bullet <= 900_000) & (ell_end <= 300_000)
        & (alpha >= 800_000) & (stop_hits >= 2)
    ).astype("int64")
    return pd.DataFrame({
        "doc_id": batch["doc_id"],
        "n_words": n_words,
        "n_lines": n_lines,
        "mwl_scaled": mwl,
        "symbol_scaled": symbol,
        "bullet_scaled": bullet,
        "ellipsis_scaled": ell_end,
        "alpha_scaled": alpha,
        "stop_hits": stop_hits,
        "keep": keep,
    })


def term_drift(ds, min_count: int = 20, scale: int = 1_000_000,
               slice_mod: int = 2):
    """(term, n_a, n_b, rate_a_ppm, rate_b_ppm, drift_ppm) — vocabulary
    drift between two corpus slices (slice A = doc_id % slice_mod == 0,
    B = the rest): per-term counts in each slice plus integer-scaled
    relative frequencies floor(n·scale / slice_total) and their difference.
    The standard corpus-comparison report (distribution shift between
    crawl snapshots / sources before mixing training data); terms with
    n_a + n_b < `min_count` are dropped.

    Scale shape: ONE corpus scan emitting per-block (term, slice) partial
    counts (conditional indicator columns — no per-slice pass), a vocab-
    sized partial+final sum, and a scalar-sized totals reduce; the final
    rate map broadcasts the two totals in its closure. All arithmetic is
    exact int64 (floor division, mirrored by DuckDB `//` on nonnegative
    values), so any partitioning value-hash-matches the SQL oracle.
    Overflow bound: n·scale needs n < 2^63/scale ≈ 9.2e12 tokens per term
    per slice at the default ppm scale."""
    import numpy as np

    from ..aggregates import partial_final_agg

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        t = df[["doc_id"]].assign(
            term=df["text"].str.lower().str.split()).explode("term")
        t = t[t["term"].notna()]
        if not len(t):
            return pd.DataFrame({"term": pd.Series(dtype="string"),
                                 "a_p": pd.Series(dtype="int64"),
                                 "b_p": pd.Series(dtype="int64")})
        in_a = (t["doc_id"].to_numpy("int64") % slice_mod) == 0
        g = pd.DataFrame({"term": t["term"].to_numpy(object),
                          "a_p": in_a.astype("int64"),
                          "b_p": (~in_a).astype("int64")})
        gg = g.groupby("term", sort=False, as_index=False)[["a_p", "b_p"]].sum()
        gg["a_p"] = gg["a_p"].astype("int64")
        gg["b_p"] = gg["b_p"].astype("int64")
        return gg

    counts = partial_final_agg(
        ds.map_batches(partials, batch_format="pandas"),
        ["term"], [("n_a", "a_p", "sum"), ("n_b", "b_p", "sum")]
    ).materialize()

    # slice totals: per-block scalar partials -> driver sum (one int pair;
    # bounded by the block count, never the vocabulary)
    tot = counts.map_batches(
        lambda df: pd.DataFrame({"na": [int(df["n_a"].sum())],
                                 "nb": [int(df["n_b"].sum())]}),
        batch_format="pandas").to_pandas()
    na, nb = max(int(tot["na"].sum()), 1), max(int(tot["nb"].sum()), 1)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        a = df["n_a"].to_numpy("int64")
        b = df["n_b"].to_numpy("int64")
        keep = (a + b) >= min_count
        a, b = a[keep], b[keep]
        ra = (a * scale) // na
        rb = (b * scale) // nb
        return pd.DataFrame({"term": df["term"].to_numpy(object)[keep],
                             "n_a": a, "n_b": b,
                             "rate_a_ppm": ra, "rate_b_ppm": rb,
                             "drift_ppm": ra - rb})

    return counts.map_batches(finish, batch_format="pandas")


def oov_rate(ds, vocab_k: int = 16, group_col: str = "source",
             scale: int = 1_000_000):
    """(group, n_tokens, n_oov, oov_ppm) — tokenizer-vocabulary coverage per
    corpus slice: the rate of tokens falling OUTSIDE the top-`vocab_k` corpus
    vocabulary (count-desc, term-asc deterministic cutoff). The standard
    "how well does a fixed vocab cover this source" report run before
    committing to a tokenizer / before mixing a new source into training
    data.

    Scale shape: pass 1 is a vocab-sized partial+final term count whose
    top-K (K bounded, default 16) collects to the driver and broadcasts via
    ray.put — never the full vocabulary; pass 2 re-scans the corpus emitting
    two int64 partials per (block, group). Rates are exact floor-division
    ppm, mirrored by DuckDB `//` on nonnegative values."""
    import numpy as np
    import ray as _ray

    from ..aggregates import partial_final_agg

    def term_partials(df: pd.DataFrame) -> pd.DataFrame:
        t = df["text"].str.lower().str.split().explode()
        t = t[t.notna()]
        if not len(t):
            return pd.DataFrame({"term": pd.Series(dtype="string"),
                                 "c": pd.Series(dtype="int64")})
        g = pd.DataFrame({"term": t.to_numpy(object)})
        g = g.groupby("term", sort=False, as_index=False).size()
        return g.rename(columns={"size": "c"})

    counts = partial_final_agg(
        ds.map_batches(term_partials, batch_format="pandas"),
        ["term"], [("c", "c", "sum")])

    # block-local prune to K candidates, then one tiny driver sort — the
    # deterministic (count desc, term asc) cutoff both sides share
    def block_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["c", "term"],
                              ascending=[False, True]).head(vocab_k)

    cand = counts.map_batches(block_topk, batch_format="pandas").to_pandas()
    vocab = frozenset(cand.sort_values(["c", "term"], ascending=[False, True])
                      .head(vocab_k)["term"])
    vocab_ref = _ray.put(vocab)

    def oov_partials(df: pd.DataFrame) -> pd.DataFrame:
        vs = _ray.get(vocab_ref)
        t = df[[group_col]].assign(
            term=df["text"].str.lower().str.split()).explode("term")
        t = t[t["term"].notna()]
        if not len(t):
            return pd.DataFrame({group_col: pd.Series(dtype="string"),
                                 "tok_p": pd.Series(dtype="int64"),
                                 "oov_p": pd.Series(dtype="int64")})
        oov = ~t["term"].isin(vs)
        g = pd.DataFrame({group_col: t[group_col].to_numpy(object),
                          "tok_p": np.ones(len(t), dtype="int64"),
                          "oov_p": oov.to_numpy().astype("int64")})
        return g.groupby(group_col, sort=False,
                         as_index=False)[["tok_p", "oov_p"]].sum()

    per_group = partial_final_agg(
        ds.map_batches(oov_partials, batch_format="pandas"),
        [group_col], [("n_tokens", "tok_p", "sum"),
                      ("n_oov", "oov_p", "sum")])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n_tokens"].to_numpy("int64")
        o = df["n_oov"].to_numpy("int64")
        return pd.DataFrame({group_col: df[group_col].to_numpy(object),
                             "n_tokens": n, "n_oov": o,
                             "oov_ppm": (o * scale) // np.maximum(n, 1)})

    return per_group.map_batches(finish, batch_format="pandas")


def span_corruption(ds, block: int = 8, mask_off: int = 4,
                    max_span: int = 3, seed: int = 17):
    """(doc_id, input_text, target_text, n_masked) — T5-style span-corruption
    pairs for denoising pretraining: deterministic mask spans are replaced by
    `<extra_id_k>` sentinels in the input and emitted after their sentinel in
    the target (Raffel et al. 2020 objective shape).

    Mask rule (the operator contract, mirrored by the oracle re-walk):
    tokens partition into fixed blocks of `block`; block b of doc d masks its
    tokens at offsets [mask_off, mask_off+L) where
    L = splitmix64(d XOR ((b + seed) · GOLD)) mod (max_span+1). The rule
    depends only on (doc_id, token index) — partitioning-invariant, no RNG
    state — and block-aligned spans never overlap, so selection needs no
    sequential scan. Expected mask rate ≈ (max_span/2)/block.

    Scale shape: one pure vectorized map_batches — explode to tokens,
    uint64 hash per (doc, block), boolean mask algebra, two grouped string
    joins per block. No shuffle, no driver state."""
    import numpy as np

    from .dedup import _splitmix64

    GOLD = np.uint64(0x9E3779B97F4A7C15)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        t = df[["doc_id"]].assign(tok=df["text"].str.split()).explode("tok")
        t = t[t["tok"].notna()]
        out_index = df["doc_id"].to_numpy("int64")
        if not len(t):
            return pd.DataFrame({"doc_id": out_index,
                                 "input_text": [""] * len(df),
                                 "target_text": [""] * len(df),
                                 "n_masked": np.zeros(len(df), "int64")})
        doc = t["doc_id"].to_numpy("int64")
        idx = t.groupby("doc_id", sort=False).cumcount().to_numpy("int64")
        blk = (idx // block).astype("uint64")
        off = idx % block
        L = (_splitmix64(doc.astype(np.uint64)
                         ^ ((blk + np.uint64(seed)) * GOLD))
             % np.uint64(max_span + 1)).astype("int64")
        masked = (off >= mask_off) & (off < mask_off + L)
        start = masked & (off == mask_off)
        k = pd.Series(start.astype("int64")).groupby(
            pd.Series(doc), sort=False).cumsum().to_numpy("int64") - 1
        sent = np.char.add(np.char.add(
            "<extra_id_", k.astype("U20")), ">")
        toks = t["tok"].to_numpy(object)

        # input: span start -> sentinel, other masked tokens drop
        in_keep = ~masked | start
        in_tok = np.where(masked, sent, toks)
        inp = (pd.DataFrame({"doc_id": doc[in_keep],
                             "tok": in_tok[in_keep]})
               .groupby("doc_id", sort=False)["tok"]
               .agg(" ".join))
        # target: per masked token, span starts prepend their sentinel
        tgt_tok = np.where(start,
                           np.char.add(np.char.add(sent, " "),
                                       toks.astype("U")), toks)
        tgt = (pd.DataFrame({"doc_id": doc[masked],
                             "tok": tgt_tok[masked]})
               .groupby("doc_id", sort=False)["tok"]
               .agg(" ".join))
        nm = pd.Series(masked.astype("int64")).groupby(
            pd.Series(doc), sort=False).sum()

        return pd.DataFrame({
            "doc_id": out_index,
            "input_text": pd.Series(out_index).map(inp).fillna("").to_numpy(object),
            "target_text": pd.Series(out_index).map(tgt).fillna("").to_numpy(object),
            "n_masked": pd.Series(out_index).map(nm).fillna(0).to_numpy("int64"),
        })

    return ds.map_batches(fn, batch_format="pandas")


def vocab_growth(ds, n_slices: int = 10):
    """(slice, n_tokens, cum_tokens, new_terms, cum_vocab) — Heaps-law
    vocabulary-growth curve: the corpus is cut into `n_slices` deterministic
    slices (doc_id % n_slices, ordered 0..n-1 as the "ingest order"), and
    each row reports the slice's token count plus the number of terms whose
    FIRST appearance (minimum slice) is that slice, with running totals.
    The standard sub-linear V(N) ~ k·N^beta diagnostic run before sizing a
    tokenizer vocabulary against a growing crawl.

    Scale shape: ONE tokenize scan emitting per-block (term, slice) count
    partials; a vocab-sized partial+final sum; then two SLICE-sized reduces
    off it (per-term min-slice -> first-appearance counts, and per-slice
    token totals) whose outputs are n_slices rows — the driver cumsum runs
    over those, never over terms. All counts exact int64."""
    import numpy as np

    from ..aggregates import partial_final_agg

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        t = df[["doc_id"]].assign(
            term=df["text"].str.lower().str.split()).explode("term")
        t = t[t["term"].notna()]
        if not len(t):
            return pd.DataFrame({"term": pd.Series(dtype="string"),
                                 "slice": pd.Series(dtype="int64"),
                                 "n_p": pd.Series(dtype="int64")})
        g = pd.DataFrame({
            "term": t["term"].to_numpy(object),
            "slice": t["doc_id"].to_numpy("int64") % n_slices})
        gg = g.groupby(["term", "slice"], sort=False,
                       as_index=False).size()
        return gg.rename(columns={"size": "n_p"})

    counts = partial_final_agg(
        ds.map_batches(partials, batch_format="pandas"),
        ["term", "slice"], [("n", "n_p", "sum")]).materialize()

    # per-term first slice -> first-appearance counts (n_slices rows)
    first = partial_final_agg(
        counts.map_batches(
            lambda df: df.groupby("term", as_index=False)["slice"].min(),
            batch_format="pandas"),
        ["term"], [("s0", "slice", "min")])
    new_terms = first.map_batches(
        lambda df: df.groupby("s0", as_index=False).size().rename(
            columns={"s0": "slice", "size": "nt_p"}),
        batch_format="pandas")
    new_terms = partial_final_agg(new_terms, ["slice"],
                                  [("new_terms", "nt_p", "sum")]).to_pandas()

    # per-slice token totals (n_slices rows)
    toks = partial_final_agg(
        counts.map_batches(
            lambda df: df.groupby("slice", as_index=False)["n"].sum(),
            batch_format="pandas"),
        ["slice"], [("n_tokens", "n", "sum")]).to_pandas()

    out = toks.merge(new_terms, on="slice", how="left").fillna(0)
    out = out.sort_values("slice").reset_index(drop=True)
    out["n_tokens"] = out["n_tokens"].astype("int64")
    out["new_terms"] = out["new_terms"].astype("int64")
    out["cum_tokens"] = out["n_tokens"].cumsum().astype("int64")
    out["cum_vocab"] = out["new_terms"].cumsum().astype("int64")
    return out[["slice", "n_tokens", "cum_tokens", "new_terms",
                "cum_vocab"]]


def collocation_lift(ds, min_count: int = 20, scale: int = 1000,
                     salt_buckets: int = 8, n_buckets: int = 32):
    """(w1, w2, n_pair, n_1, n_2, lift_scaled) — collocation mining over
    adjacent token pairs: integer-scaled lift n_pair·total·scale //
    (n_1·n_2) where the marginals are the bigram table's own left/right
    sums (the kg_pair_pmi discipline — exact int64, no float log; bound:
    n_pair·total·scale < 2^63, same documented contract as pair_pmi).
    The phrase-detection pass (word2vec-style) run before tokenizer/vocab
    decisions on a new corpus.

    Scale shape: one bigram flat-map scan + salted pair count; marginals
    are two vocab-bounded partial+final sums OFF THE COUNT TABLE (never a
    second corpus scan); marginals attach by two bucketed hash_joins —
    no broadcast of the vocabulary."""
    import pyarrow as pa

    from ..aggregates import partial_final_agg
    from ..joins import hash_join

    counts = bigram_counts(ds, min_count=1, salt_buckets=salt_buckets)

    def split_pair(df: pd.DataFrame) -> pd.DataFrame:
        parts = df["bigram"].str.split(" ", n=1, expand=True)
        return pd.DataFrame({"w1": parts[0], "w2": parts[1],
                             "n_pair": df["n"].to_numpy("int64")})

    pairs = counts.map_batches(split_pair,
                               batch_format="pandas").materialize()

    left = partial_final_agg(
        pairs.map_batches(lambda df: df[["w1", "n_pair"]],
                          batch_format="pandas"),
        ["w1"], [("n_1", "n_pair", "sum")])
    right = partial_final_agg(
        pairs.map_batches(lambda df: df[["w2", "n_pair"]],
                          batch_format="pandas"),
        ["w2"], [("n_2", "n_pair", "sum")])
    tot = pairs.map_batches(
        lambda df: pd.DataFrame({"t": [int(df["n_pair"].sum())]}),
        batch_format="pandas").to_pandas()
    total = int(tot["t"].sum())

    s_t, i_t = pa.string(), pa.int64()
    keep = pairs.map_batches(
        lambda df: df[df["n_pair"] >= min_count], batch_format="pandas")
    with_l = hash_join(keep, left, on="w1", n_buckets=n_buckets,
                       left_types={"w1": s_t, "w2": s_t, "n_pair": i_t},
                       right_types={"w1": s_t, "n_1": i_t})
    with_lr = hash_join(with_l, right, on="w2", n_buckets=n_buckets,
                        left_types={"w1": s_t, "w2": s_t, "n_pair": i_t,
                                    "n_1": i_t},
                        right_types={"w2": s_t, "n_2": i_t})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        np_ = df["n_pair"].to_numpy("int64")
        n1 = df["n_1"].to_numpy("int64")
        n2 = df["n_2"].to_numpy("int64")
        return pd.DataFrame({
            "w1": df["w1"], "w2": df["w2"], "n_pair": np_,
            "n_1": n1, "n_2": n2,
            "lift_scaled": np_ * total * scale // (n1 * n2)})

    return with_lr.map_batches(finish, batch_format="pandas")
