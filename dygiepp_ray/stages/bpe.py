"""Distributed BPE vocabulary learning (Sennrich et al. 2016, ACL).

The trick that makes BPE tractable at corpus scale: merges are learned over
the WORD-TYPE table (word → corpus count), never over the token stream.
One corpus pass builds the type table (salted partial+final count — the
table is vocab-bounded, orders of magnitude smaller than the corpus); the
merge loop then runs over that compacted table only.

Two execution modes with bit-identical output (same pattern as
stages/graph.py):

- local  (vocab ≤ `local_max_vocab`): the type table is collected once and
  the merge loop is pure Python/Counter on the driver.
- distributed: the symbolized type table stays a Dataset; each round is one
  `map_batches` pair-count partial (weighted by word count) merged on the
  driver (pair space is bounded by symbol-vocab², partials are per-block
  compacted), then a broadcast merge-application pass rewriting the symbol
  sequences. k merges = k passes over the TYPE table, not the corpus.

Determinism: pair selection is argmax by (count, pair) with lexicographic
tie-break; merge application is leftmost-first non-overlapping (standard
BPE semantics — "aaa" counts ("a","a") twice but merges to ("aa","a")).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd

import ray
import ray.data

from ..state.process_local import ProcessLocal


def _pair_counts(syms_list, counts) -> Counter:
    """Weighted adjacent-pair counts over symbolized words."""
    pc: Counter = Counter()
    for syms, n in zip(syms_list, counts):
        for a, b in zip(syms, syms[1:]):
            pc[(a, b)] += n
    return pc


def _apply_merge(syms: tuple, a: str, b: str, ab: str) -> tuple:
    """Leftmost-first non-overlapping replacement of (a, b) by ab."""
    if a not in syms:
        return syms
    out = []
    i = 0
    while i < len(syms):
        if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
            out.append(ab)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return tuple(out)


def _best_pair(pc: Counter):
    """argmax by (count, lexicographic pair) — deterministic everywhere."""
    return max(pc.items(), key=lambda kv: (kv[1], kv[0][0], kv[0][1]))


def learn_bpe_local(word_counts: dict[str, int], n_merges: int,
                    min_count: int = 2) -> list[tuple]:
    """Reference merge loop over a word→count dict.
    Returns [(rank, left, right, merged, count)]."""
    table = {w: (tuple(w), n) for w, n in word_counts.items()}
    merges = []
    for rank in range(n_merges):
        pc: Counter = Counter()
        for syms, n in table.values():
            for p in zip(syms, syms[1:]):
                pc[p] += n
        if not pc:
            break
        (a, b), cnt = _best_pair(pc)
        if cnt < min_count:
            break
        ab = a + b
        merges.append((rank, a, b, ab, int(cnt)))
        table = {w: (_apply_merge(syms, a, b, ab), n)
                 for w, (syms, n) in table.items()}
    return merges


def learn_bpe(docs: "ray.data.Dataset", n_merges: int = 20,
              min_count: int = 2, text_col: str = "text",
              local_max_vocab: int = 5_000_000) -> "ray.data.Dataset":
    """Learn `n_merges` BPE merges from a documents Dataset.

    Output: (rank, left, right, merged, count) — the merge table in learned
    order, `count` the weighted pair frequency at the time of the merge.
    """
    from ..aggregates import grouped_count

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        w = df[text_col].str.lower().str.split().explode()
        w = w[w.notna()]
        return pd.DataFrame({"word": w})

    types = grouped_count(
        docs.map_batches(explode, batch_format="pandas"),
        ["word"], out_name="n", salt_buckets=8).materialize()

    n_vocab = types.count()
    if n_vocab <= local_max_vocab:
        wc: dict[str, int] = {}
        for b in types.iter_batches(batch_format="pandas"):
            wc.update(zip(b["word"], b["n"].astype(int)))
        merges = learn_bpe_local(wc, n_merges, min_count)
        return _merges_ds(merges)

    # distributed merge loop over the symbolized type table
    def symbolize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "syms": [list(w) for w in df["word"]],
            "n": df["n"].astype("int64"),
        })

    table = types.map_batches(symbolize, batch_format="pandas").materialize()
    merges = []
    for rank in range(n_merges):
        def count_pairs(df: pd.DataFrame) -> pd.DataFrame:
            pc = _pair_counts(df["syms"], df["n"].to_numpy(np.int64))
            if not pc:
                return pd.DataFrame({"a": pd.Series(dtype="object"),
                                     "b": pd.Series(dtype="object"),
                                     "c": pd.Series(dtype="int64")})
            ks = list(pc)
            return pd.DataFrame({"a": [k[0] for k in ks],
                                 "b": [k[1] for k in ks],
                                 "c": [pc[k] for k in ks]})

        total: Counter = Counter()
        for b in table.map_batches(count_pairs, batch_format="pandas") \
                      .iter_batches(batch_format="pandas"):
            for a_, b_, c_ in zip(b["a"], b["b"], b["c"]):
                total[(a_, b_)] += int(c_)
        if not total:
            break
        (a, b), cnt = _best_pair(total)
        if cnt < min_count:
            break
        ab = a + b
        merges.append((rank, a, b, ab, int(cnt)))

        def apply(df: pd.DataFrame, a=a, b=b, ab=ab) -> pd.DataFrame:
            return pd.DataFrame({
                "syms": [list(_apply_merge(tuple(s), a, b, ab))
                         for s in df["syms"]],
                "n": df["n"],
            })

        table = table.map_batches(apply, batch_format="pandas").materialize()
    return _merges_ds(merges)


def _merges_ds(merges: list[tuple]) -> "ray.data.Dataset":
    import pyarrow as pa

    return ray.data.from_arrow(pa.table({
        "rank": pa.array([m[0] for m in merges], pa.int64()),
        "left": pa.array([m[1] for m in merges], pa.string()),
        "right": pa.array([m[2] for m in merges], pa.string()),
        "merged": pa.array([m[3] for m in merges], pa.string()),
        "count": pa.array([m[4] for m in merges], pa.int64()),
    }))


# ---------------------------------------------------------- encoding


class BpeEncoder(ProcessLocal):
    """Task-pool stage: encode whitespace-lowered words with a learned
    merge table and emit per-block PARTIAL token counts (token, n_part) —
    the encoded corpus never leaves the task; the final combine is a small
    grouped sum. The merge list is broadcast ONCE via `ray.put` and read in
    `__init__` (once per worker process, not per batch); a per-process
    word-type cache makes encode cost proportional to distinct types, not
    corpus tokens.

    Encode semantics: one leftmost-non-overlapping pass per merge, in rank
    order — identical to the learner's table evolution (`_apply_merge`),
    and well-defined because a merge's operands can only be produced by
    strictly earlier-ranked merges."""

    def __init__(self, merges_ref, text_col: str = "text"):
        self.merges = ray.get(merges_ref)  # [(left, right, merged)] by rank
        self.text_col = text_col
        self.cache: dict[str, tuple] = {}

    def _encode_word(self, w: str) -> tuple:
        syms = self.cache.get(w)
        if syms is None:
            syms = tuple(w)
            for a, b, ab in self.merges:
                if a in syms:
                    syms = _apply_merge(syms, a, b, ab)
            self.cache[w] = syms
        return syms

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        c: Counter = Counter()
        for text in batch[self.text_col]:
            for w in text.lower().split():
                c.update(self._encode_word(w))
        ks = sorted(c)
        return pd.DataFrame({
            "token": pd.array(ks, dtype="string"),
            "n_part": pd.array([c[k] for k in ks], dtype="int64")})


def encode_token_counts(docs: "ray.data.Dataset",
                        merges: "ray.data.Dataset",
                        text_col: str = "text") -> "ray.data.Dataset":
    """(token, n) — corpus token-frequency table under a learned BPE merge
    table (`learn_bpe` output): the tokenizer-application half of the BPE
    pipeline (vocabulary usage / token-budget accounting at scale). The
    merge table is tiny by construction (n_merges rows) — the one
    legitimate driver-side take — and ships to every encoding worker as
    one broadcast object."""
    from ..aggregates import partial_final_agg

    rows = sorted(merges.select_columns(
        ["rank", "left", "right", "merged"]).take_all(),
        key=lambda r: r["rank"])
    ref = ray.put([(r["left"], r["right"], r["merged"]) for r in rows])
    parts = docs.map_batches(BpeEncoder(ref, text_col=text_col),
                             batch_format="pandas")
    return partial_final_agg(parts, ["token"], [("n", "n_part", "sum")])
