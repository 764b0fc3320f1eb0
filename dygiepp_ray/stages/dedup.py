"""Deduplication operators (exact and near) over a documents table.

Every variant follows the same scale shape: a cheap per-batch signature stage
(`map_batches`, vectorized) followed by ONE key-partitioned shuffle
(`groupby`) whose per-group work is bounded — never an all-pairs comparison
across the corpus.

- exact_duplicates:  sha-hash partition + per-group first (keeps min doc_id)
- minhash_lsh:       shingle → minhash (vectorized numpy) → band rows →
                     `joins.candidate_pairs` (candidate pairs verified by
                     their signature estimate within each band group)
- simhash:           64-bit simhash signature per doc; near-dups = same
                     signature after masking k rotated bit-blocks (Charikar /
                     Manku-Jain-Sarma style, block-permutation banding),
                     also through `joins.candidate_pairs`
- ngram_jaccard:     exact Jaccard over word n-grams, evaluated only inside
                     LSH candidate buckets (not all pairs)
- embedding near-dup lives in stages/similarity.py (cosine path).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data
from ray.data.aggregate import Count, Min

from ..state.manifest import write_partitioned

_MERSENNE = (1 << 61) - 1
_HASH32 = (1 << 32) - 1


def _text_sha(batch: pa.Table, text_col: str = "text") -> pa.Table:
    from ..aggregates import strip_schema_metadata

    shas = [
        hashlib.sha256(t.encode("utf-8")).hexdigest()
        for t in batch.column(text_col).to_pylist()
    ]
    return strip_schema_metadata(batch).append_column(
        "text_sha", pa.array(shas, pa.string()))


def exact_duplicates(docs: "ray.data.Dataset", id_col: str = "doc_id",
                     text_col: str = "text") -> "ray.data.Dataset":
    """Hash-partition exact dedup: one row per distinct text with the keeper
    (min id) and the duplicate count. (text_sha, keep_id, n_copies)."""
    sigs = docs.map_batches(lambda b: _text_sha(b, text_col), batch_format="pyarrow")
    sigs = sigs.select_columns(["text_sha", id_col])
    return sigs.groupby("text_sha").aggregate(
        Min(id_col, alias_name="keep_id"), Count(alias_name="n_copies")
    )


# ---------------------------------------------------------------- minhash


_token_hash_cache: dict[str, int] = {}
_M64 = (1 << 64) - 1

# per-byte popcount table (numpy < 2 has no bitwise_count ufunc)
_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                      axis=1).sum(axis=1).astype(np.uint8)


def _popcount_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount via the per-byte table."""
    b = np.ascontiguousarray(x, dtype=np.uint64).view(np.uint8)
    return _POP8[b].reshape(x.shape + (8,)).sum(axis=-1).astype(np.int64)


def _mix64(z: int) -> int:
    # scalar splitmix64 finalizer (python-int twin of _splitmix64)
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _M64
    z ^= z >> 31
    return z


def _token_hash(tok: str) -> int:
    h = _token_hash_cache.get(tok)
    if h is None:
        h = int.from_bytes(hashlib.blake2b(tok.encode(), digest_size=8).digest(), "big")
        if len(_token_hash_cache) < 1_000_000:
            _token_hash_cache[tok] = h
    return h


def _token_hash_array(toks: list[str]) -> np.ndarray:
    return np.fromiter((_token_hash(t) for t in toks), dtype=np.uint64,
                       count=len(toks))


def _shingle_values(hs: np.ndarray, k: int) -> np.ndarray:
    """Unique k-gram shingle values over a token-hash array: the k-step fold
    v = splitmix64(v ^ h) evaluated for ALL windows at once (k vectorized
    passes over the array instead of a Python loop per shingle — this was
    ~40% of the minhash pipeline's runtime as per-shingle scalar folds)."""
    n = len(hs)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    if n < k:
        v = 0
        for h in hs:
            v = _mix64(int(v) ^ int(h))
        return np.array([v], dtype=np.uint64)
    m = n - k + 1
    v = np.zeros(m, dtype=np.uint64)
    for j in range(k):
        v = _splitmix64(v ^ hs[j : j + m])
    return np.unique(v)


def _shingles(text: str, k: int) -> set[int]:
    """Word k-gram shingle set (set view of `_shingle_values`; order-sensitive:
    'a b' != 'b a'). One blake2b per distinct token via the cache."""
    toks = text.split()
    if not toks:
        return set()
    return set(map(int, _shingle_values(_token_hash_array(toks), k)))


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public-domain PRNG mixing function);
    uint64 ops wrap, which is exactly the arithmetic the mixer wants."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z = z * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def _perm_params(n_perm: int, seed: int = 7) -> np.ndarray:
    """Per-permutation xor seeds; h_i(x) = splitmix64(x ^ seed_i). Far better
    min-wise behavior than a 32-bit linear-congruential family and still one
    vectorized (n_shingles, n_perm) pass."""
    rng = np.random.RandomState(seed)
    return rng.randint(0, 2**63, size=n_perm, dtype=np.int64).astype(np.uint64)


class MinHasher:
    """Task-pool stage: doc → n_perm minhash values (vectorized across the
    shingle set with one (n_shingles, n_perm) modmul)."""

    def __init__(self, n_perm: int = 64, shingle_k: int = 3, seed: int = 7,
                 text_col: str = "text", id_col: str = "doc_id"):
        self.seeds = _perm_params(n_perm, seed)
        self.n_perm = n_perm
        self.k = shingle_k
        self.text_col = text_col
        self.id_col = id_col

    def signature(self, text: str) -> np.ndarray:
        toks = text.split()
        if not toks:
            return np.full(self.n_perm, _MERSENNE, dtype=np.int64)
        x = _shingle_values(_token_hash_array(toks), self.k)
        vals = _splitmix64(x[:, None] ^ self.seeds[None, :]).min(axis=0)
        # monotonic shift into int64 range for Arrow-friendly signatures
        return (vals >> np.uint64(2)).astype(np.int64)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        sigs = self.signatures(list(batch[self.text_col]))
        return pd.DataFrame(
            {self.id_col: batch[self.id_col].values, "minhash": [s.tolist() for s in sigs]}
        )

    def signatures(self, texts: list[str]) -> np.ndarray:
        """Batched twin of `signature` (bit-identical output, pinned by
        test): concatenate every doc's shingle values, then one
        `np.minimum.reduceat` per permutation over the concatenated array —
        per-doc Python work shrinks to the shingle computation itself.
        Memory stays O(total_shingles) (the perm loop avoids the
        (n_shingles, n_perm) matrix a fully-2D fold would allocate)."""
        per_doc = []
        for t in texts:
            toks = t.split()
            per_doc.append(
                _shingle_values(_token_hash_array(toks), self.k) if toks
                else np.zeros(0, dtype=np.uint64))
        counts = np.array([len(x) for x in per_doc], dtype=np.int64)
        out = np.full((len(texts), self.n_perm), _MERSENNE, dtype=np.int64)
        nz = np.flatnonzero(counts)
        if len(nz) == 0:
            return out
        x = (np.concatenate([per_doc[i] for i in nz])
             if len(nz) > 1 else per_doc[nz[0]])
        starts = np.concatenate(([0], np.cumsum(counts[nz])[:-1]))
        vals = np.empty((self.n_perm, len(nz)), dtype=np.uint64)
        for p in range(self.n_perm):
            vals[p] = np.minimum.reduceat(_splitmix64(x ^ self.seeds[p]), starts)
        out[nz] = (vals.T >> np.uint64(2)).astype(np.int64)
        return out


def _band_keys(sigs: np.ndarray, n_bands: int) -> np.ndarray:
    """(n_docs, n_perm) signature matrix → (n_docs, n_bands) int64 band
    keys: splitmix64 fold of each band's slice plus the band index, fully
    vectorized (the per-doc-per-band blake2b loop this replaces was the
    band-explode hot spot). Key identity matters only within one run —
    candidates are pairs whose band CONTENT matches, which any 64-bit hash
    of the slice preserves (collisions are 2^-64-scale and downstream
    verification re-checks the signature estimate anyway)."""
    n, P = sigs.shape
    r = P // n_bands
    B = sigs.astype(np.uint64).reshape(n, n_bands, r)
    v = np.zeros((n, n_bands), dtype=np.uint64)
    for j in range(r):
        v = _splitmix64(v ^ B[:, :, j])
    v = _splitmix64(v ^ np.arange(n_bands, dtype=np.uint64)[None, :])
    return (v >> np.uint64(2)).astype(np.int64)


def minhash_bands(sig_df: pd.DataFrame, n_bands: int, id_col: str = "doc_id") -> pd.DataFrame:
    """Explode signatures into (band_key, doc_id) rows; band_key is the
    int64 hash of one band's slice — the LSH bucket key (the shuffle key)."""
    if len(sig_df) == 0:
        return pd.DataFrame({"band_key": pd.array([], dtype="int64"),
                             id_col: []})
    sigs = np.asarray([np.asarray(s) for s in sig_df["minhash"]], dtype=np.int64)
    keys = _band_keys(sigs, n_bands)
    return pd.DataFrame({"band_key": keys.ravel(),
                         id_col: np.repeat(sig_df[id_col].to_numpy(), n_bands)})


def _est_jaccard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """MinHash estimate of every (a row, b row) pair: the share of equal
    signature values."""
    return (a[:, None, :] == b[None, :, :]).mean(axis=2)


def _lsh_rows(sig_df: pd.DataFrame, n_bands: int, id_col: str) -> pd.DataFrame:
    """`candidate_pairs` rows of a MinHash signature batch: (band key, id,
    signature)."""
    return minhash_bands_with_sig(sig_df, n_bands, id_col).rename(
        columns={"band_key": "key", id_col: "id", "minhash": "payload"})


def minhash_lsh_pairs(docs: "ray.data.Dataset", n_perm: int = 64, n_bands: int = 16,
                      shingle_k: int = 3, jaccard_threshold: float = 0.8,
                      id_col: str = "doc_id", text_col: str = "text",
                      n_buckets: int = 64) -> "ray.data.Dataset":
    """Near-duplicate pairs (id_a < id_b, est_jaccard ≥ threshold).

    shingle→minhash (task map) → band rows → `joins.candidate_pairs` over
    the band keys, scoring each collision group's signatures pairwise
    (`_est_jaccard`). Signatures travel WITH the band rows (512 B each at
    64 perms): one shuffle, and the verify needs no second join.
    """
    from ..joins import candidate_pairs

    rows = _minhash_sigs(docs, n_perm, shingle_k, id_col, text_col).map_batches(
        lambda df: _lsh_rows(df, n_bands, id_col), batch_format="pandas")
    return candidate_pairs(rows, n_buckets, _est_jaccard,
                           lambda est: est >= jaccard_threshold, "est_jaccard")


def minhash_bands_with_sig(sig_df: pd.DataFrame, n_bands: int,
                           id_col: str = "doc_id") -> pd.DataFrame:
    """`minhash_bands` rows plus each doc's signature (`minhash`)."""
    b = minhash_bands(sig_df, n_bands, id_col)
    b["minhash"] = sig_df["minhash"].to_numpy().repeat(n_bands)
    return b


# ---------------------------------------------------------------- simhash


class SimHasher:
    """Task-pool stage: 64-bit simhash over whitespace tokens (token hash
    bits weighted by term frequency)."""

    def __init__(self, text_col: str = "text", id_col: str = "doc_id"):
        self.text_col = text_col
        self.id_col = id_col
        self._cache: dict[str, int] = {}

    def _tok_hash(self, tok: str) -> int:
        h = self._cache.get(tok)
        if h is None:
            h = int.from_bytes(hashlib.blake2b(tok.encode(), digest_size=8).digest(), "big")
            if len(self._cache) < 500_000:
                self._cache[tok] = h
        return h

    def simhash(self, text: str) -> int:
        acc = np.zeros(64, dtype=np.int64)
        toks = text.split()
        if not toks:
            return 0
        from collections import Counter

        for tok, cnt in Counter(toks).items():
            h = self._tok_hash(tok)
            bits = np.unpackbits(
                np.frombuffer(h.to_bytes(8, "little"), dtype=np.uint8), bitorder="little"
            )
            acc += np.where(bits == 1, cnt, -cnt)
        out = 0
        for i in range(64):
            if acc[i] > 0:
                out |= 1 << i
        return out

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                self.id_col: batch[self.id_col].values,
                "simhash": pd.array([self.simhash(t) for t in batch[self.text_col]],
                                    dtype="uint64"),
            }
        )


def simhash_near_dups(docs: "ray.data.Dataset", n_blocks: int = 4,
                      max_hamming: int = 3, id_col: str = "doc_id",
                      text_col: str = "text",
                      n_buckets: int = 64) -> "ray.data.Dataset":
    """Near-dup pairs by simhash: docs sharing any of `n_blocks` 16-bit blocks
    are candidates (block-permutation banding); pairs verified by Hamming ≤ k.
    Each doc gives one `joins.candidate_pairs` row per block, keyed by
    (block index, block bits), with its simhash as the payload."""
    from ..joins import candidate_pairs

    sigs = docs.select_columns([id_col, text_col]).map_batches(
        SimHasher(text_col=text_col, id_col=id_col), batch_format="pandas")

    width = np.uint64(64 // n_blocks)
    blocks = np.arange(n_blocks, dtype=np.uint64)

    def band_rows(df: pd.DataFrame) -> pd.DataFrame:
        # explicit uint64 payload: a plain int column would be inferred as
        # object / float64 crossing the Arrow block boundary, silently
        # destroying the signature's low bits (wrong Hamming distances)
        sh = df["simhash"].to_numpy(np.uint64)
        bits = (sh[:, None] >> (blocks * width)) & ((np.uint64(1) << width)
                                                    - np.uint64(1))
        return pd.DataFrame({
            "key": ((blocks << width) | bits).ravel().astype(np.int64),
            "id": np.repeat(df[id_col].to_numpy(), n_blocks),
            "payload": np.repeat(sh, n_blocks)})

    return candidate_pairs(
        sigs.map_batches(band_rows, batch_format="pandas"), n_buckets,
        lambda a, b: _popcount_u64(a[:, None] ^ b[None, :]),
        lambda d: d <= max_hamming, "hamming", "int64")


def ngram_jaccard_pairs(docs: "ray.data.Dataset", shingle_k: int = 3,
                        threshold: float = 0.5, id_col: str = "doc_id",
                        text_col: str = "text",
                        n_buckets: int = 32) -> "ray.data.Dataset":
    """EXACT n-gram-Jaccard near-dup pairs at bounded cost.

    1. Candidate pairs from minhash-LSH (high recall: threshold lowered by
       0.2, many bands) — never all-pairs.
    2. Candidate texts are attached by TWO bucketed `hash_join`s (id_a then
       id_b) against the docs table — everything stays distributed. At real
       web-corpus near-dup rates 30-50% of docs are candidates, so a
       driver-side id->text dict would not fit; the joins shuffle only the
       candidate rows plus one pass over the docs table each.
    3. Exact shingle-set Jaccard verified per batch inside `map_batches`.
    """
    from ..joins import hash_join

    candidates = minhash_lsh_pairs(
        docs, n_perm=64, n_bands=32, shingle_k=shingle_k,
        jaccard_threshold=max(0.0, threshold - 0.2), id_col=id_col, text_col=text_col,
    )

    def rename(cols: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            return t.rename_columns(cols)

        return fn

    side = docs.select_columns([id_col, text_col])
    a_docs = side.map_batches(rename(["id_a", "_text_a"]), batch_format="pyarrow")
    b_docs = side.map_batches(rename(["id_b", "_text_b"]), batch_format="pyarrow")
    # explicit types: schema probes on the lazy candidate/join datasets would
    # execute the whole minhash pipeline once per probe
    sch = docs.schema()
    id_t = dict(zip(sch.names, sch.types))[id_col]
    if not isinstance(id_t, pa.DataType):
        id_t = pa.from_numpy_dtype(id_t)
    cand_t = {"id_a": id_t, "id_b": id_t, "est_jaccard": pa.float64()}
    side_a_t = {"id_a": id_t, "_text_a": pa.string()}
    side_b_t = {"id_b": id_t, "_text_b": pa.string()}
    with_a = hash_join(candidates, a_docs, on="id_a", n_buckets=n_buckets,
                       left_types=cand_t, right_types=side_a_t)
    with_ab = hash_join(with_a, b_docs, on="id_b", n_buckets=n_buckets,
                        left_types={**cand_t, **side_a_t}, right_types=side_b_t)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, jac = [], [], []
        for a, b, ta, tb in zip(df["id_a"], df["id_b"], df["_text_a"], df["_text_b"]):
            sa = _shingles(ta, shingle_k)
            sb = _shingles(tb, shingle_k)
            j = len(sa & sb) / max(1, len(sa | sb))
            if j >= threshold:
                out_a.append(a)
                out_b.append(b)
                jac.append(round(j, 6))
        return pd.DataFrame({"id_a": out_a, "id_b": out_b, "jaccard": jac})

    return with_ab.map_batches(verify, batch_format="pandas")


# ------------------------------------------------- substring (winnowing)


_WIN_B = np.uint64(1000003)          # odd -> invertible mod 2^64
_WIN_BINV = np.uint64(pow(1000003, -1, 1 << 64))


def char_window_hashes(text: str, k: int) -> np.ndarray:
    """Rolling polynomial hash of every k-BYTE window of the UTF-8 text,
    h(i) = Σ_j byte[i+j]·B^(k-1-j) (mod 2^64), then splitmix64-finalized.

    Vectorized via modular prefix sums: with S[t] = Σ_{u<t} byte[u]·B⁻ᵘ,
    h(i) = (S[i+k] − S[i])·B^(i+k-1) — two cumulative passes and one
    elementwise multiply, no per-window Python (B odd so B⁻¹ exists mod
    2^64; uint64 wraparound IS the modulus)."""
    b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.uint64)
    n = len(b)
    if n < k:
        return np.zeros(0, dtype=np.uint64)
    with np.errstate(over="ignore"):
        binv_pow = np.full(n, _WIN_BINV, dtype=np.uint64)
        binv_pow[0] = np.uint64(1)
        np.cumprod(binv_pow, out=binv_pow)          # B^-u
        s = np.zeros(n + 1, dtype=np.uint64)
        np.cumsum(b * binv_pow, out=s[1:])          # S[t], wraps mod 2^64
        bpow = np.full(n - k + 1, _WIN_B, dtype=np.uint64)
        bpow[0] = np.uint64(1)
        np.cumprod(bpow, out=bpow)                  # B^i
        bk1 = np.uint64(pow(1000003, k - 1, 1 << 64))
        h = (s[k:] - s[:-k]) * bpow * bk1
    return _splitmix64(h)


def winnow_values(h: np.ndarray, w: int) -> np.ndarray:
    """Winnowing (Schleimer et al., SIGMOD 2003): the min hash of every
    w-window of consecutive k-grams, deduplicated. Guarantee: two texts
    sharing a substring of ≥ k+w-1 bytes share at least one selected
    value."""
    if len(h) == 0:
        return h
    if len(h) <= w:
        return np.unique(h.min(keepdims=True))
    from numpy.lib.stride_tricks import sliding_window_view

    return np.unique(sliding_window_view(h, w).min(axis=1))


def substring_dup_pairs(docs: "ray.data.Dataset", k: int = 16, w: int = 8,
                        min_shared: int = 2, max_df: int = 8,
                        id_col: str = "doc_id", text_col: str = "text",
                        n_buckets: int = 32) -> "ray.data.Dataset":
    """Substring-level near-dup candidates (deduplicating-training-data
    style): documents sharing ≥ `min_shared` winnowed k-gram fingerprints,
    i.e. repeated byte-level passages, not whole-doc similarity.

    (fp, doc) rows → coarse-bucket shuffle on fp → per-fp doc groups (fps
    seen in > `max_df` docs are dropped as boilerplate — they would emit
    O(df²) pairs and match everything) → pair rows → salted grouped count →
    `n_shared ≥ min_shared` filter. Two shuffles, both over fingerprint/pair
    rows (≈ docs × windows/w rows), never all-pairs over the corpus.
    Not on `joins.candidate_pairs`: it counts each pair once per shared
    fingerprint, which that primitive's pair dedup would collapse."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..aggregates import grouped_count

    def fps(df: pd.DataFrame) -> pd.DataFrame:
        vals = [winnow_values(char_window_hashes(t, k), w)
                for t in df[text_col]]
        lens = np.array([len(v) for v in vals], dtype=np.int64)
        allv = np.concatenate(vals) if vals else np.zeros(0, np.uint64)
        return pd.DataFrame({
            id_col: np.repeat(df[id_col].to_numpy(), lens),
            "fp": pd.array(allv, dtype="uint64"),
            "_fb": pd.array((allv % np.uint64(n_buckets)).astype(np.int32),
                            dtype="int32"),
        })

    def pairs_in_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # (doc, fp) rows are unique (winnow_values dedups per doc), so the
        # per-fp doc list has distinct ids; a self-merge with id_a < id_b
        # enumerates each unordered pair once per shared fp — no per-group
        # Python loop over the (mostly boilerplate-or-singleton) fp groups.
        cnt = df.groupby("fp")["fp"].transform("size")
        df = df[(cnt >= 2) & (cnt <= max_df)][["fp", id_col]]
        m = df.merge(df, on="fp", suffixes=("_a", "_b"))
        m = m[m[f"{id_col}_a"] < m[f"{id_col}_b"]]
        return pd.DataFrame({
            "id_a": m[f"{id_col}_a"].to_numpy(dtype="int64"),
            "id_b": m[f"{id_col}_b"].to_numpy(dtype="int64")})

    fp_rows = docs.select_columns([id_col, text_col]).map_batches(
        fps, batch_format="pandas")
    pair_rows = fp_rows.groupby("_fb").map_groups(
        pairs_in_bucket, batch_format="pandas")
    # pair keys are near-unique: salting would only add a second (useless)
    # groupby pass — the block-local partial combine inside grouped_count is
    # the load-bearing part
    counted = grouped_count(pair_rows, ["id_a", "id_b"],
                            out_name="n_shared", salt_buckets=1)
    return counted.map_batches(
        lambda t: t.filter(pc.greater_equal(t["n_shared"],
                                            pa.scalar(min_shared))),
        batch_format="pyarrow")


# ---------------------------------------------------- persisted dedup store


def _sha_bucket(shas: pd.Series, n_buckets: int) -> pd.Series:
    """Stable bucket from the hex sha prefix (no Python hash())."""
    return shas.str[:8].map(lambda s: int(s, 16) % n_buckets).astype("int64")


def _sha_rows(df: pd.DataFrame, n_buckets: int, id_col: str,
              bucket_col: str) -> pd.DataFrame:
    """(text_sha, id_col, bucket_col) exact-dedup fingerprint rows."""
    out = df[["text_sha", id_col]].copy()
    out[bucket_col] = _sha_bucket(out["text_sha"], n_buckets)
    return out


def _doc_sha_rows(n_buckets: int, id_col: str, text_col: str,
                  bucket_col: str):
    """map_batches fn: documents batch → `_sha_rows`."""

    def fn(t: pa.Table) -> pd.DataFrame:
        sha = _text_sha(t, text_col).select(["text_sha", id_col]).to_pandas()
        return _sha_rows(sha, n_buckets, id_col, bucket_col)

    return fn


def build_dedup_store(docs: "ray.data.Dataset", out_dir: str,
                      n_buckets: int = 32, id_col: str = "doc_id",
                      text_col: str = "text") -> str:
    """Persist the corpus's exact-dedup fingerprints as a parquet store
    hash-partitioned on the sha bucket (`bucket=<b>/...`) — the cross-run /
    append-only counterpart of `exact_duplicates`: later crawls dedupe
    against the store by reading ONLY the buckets their own hashes fall in,
    never rescanning (or reshuffling) the historical corpus.  Mirrors the
    persisted LSH / inverted-index stores."""
    write_partitioned(
        docs.map_batches(_doc_sha_rows(n_buckets, id_col, text_col, "bucket"),
                         batch_format="pyarrow"), out_dir, "bucket")
    return out_dir


def _store_paths(new_rows: "ray.data.Dataset", store_dir: str) -> list[str]:
    """Parquet files of the store partitions `bucket=<b>` whose b is a
    `_bucket` of `new_rows`: per-block distinct + a local set union
    (≤ n_buckets values per block — no shuffle needed for a set this
    small)."""
    import glob
    import os

    need = sorted({int(r["_bucket"]) for r in new_rows.map_batches(
        lambda df: df[["_bucket"]].drop_duplicates(),
        batch_format="pandas").take_all()})
    return [f for b in need for f in sorted(
        glob.glob(os.path.join(store_dir, f"bucket={b}", "*.parquet")))]


def dedup_against_store(new_docs: "ray.data.Dataset", store_dir: str,
                        n_buckets: int = 32, id_col: str = "doc_id",
                        text_col: str = "text") -> "ray.data.Dataset":
    """(doc_id, dup_of) for every new doc whose exact text is already in the
    store; dup_of = the smallest stored id with that sha.

    Selective I/O: the new shard's sha buckets are collected first (a tiny
    distinct set) and only those `bucket=<b>` partition dirs are read — for
    a small append against a huge historical store, I/O is proportional to
    the APPEND, not the store.  The merge is one `joins._cogroup` over the
    sha bucket with a vectorized per-bucket join."""
    from ..joins import _cogroup

    new_sigs = new_docs.map_batches(
        _doc_sha_rows(n_buckets, id_col, text_col, "_bucket"),
        batch_format="pyarrow").materialize()
    paths = _store_paths(new_sigs, store_dir)
    if not paths:
        return new_sigs.map_batches(
            lambda df: pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                                     "dup_of": pd.Series([], dtype="int64")}),
            batch_format="pandas").limit(1)

    store = ray.data.read_parquet(paths).map_batches(
        lambda df: _sha_rows(df, n_buckets, id_col, "_bucket"),
        batch_format="pandas")

    def merge(old: pd.DataFrame, new: pd.DataFrame) -> pd.DataFrame:
        first = old.groupby("text_sha", sort=False)[id_col].min().rename(
            "dup_of")
        hit = new.merge(first, left_on="text_sha", right_index=True,
                        how="inner")
        return pd.DataFrame({id_col: hit[id_col].astype("int64"),
                             "dup_of": hit["dup_of"].astype("int64")})

    cols = ["text_sha", id_col]
    return _cogroup(store, cols, {}, new_sigs, cols, {}, merge)


# ----------------------------------------------------------- span-level dedup


_POS_CAP = 1 << 20  # max token positions per doc for the packed (doc, pos) key


def _window_hashes(hs: np.ndarray, k: int) -> np.ndarray:
    """Positional k-gram window hashes (the `_shingle_values` fold WITHOUT
    the unique: one value per window start, order preserved)."""
    m = len(hs) - k + 1
    if m <= 0:
        return np.zeros(0, dtype=np.uint64)
    v = np.zeros(m, dtype=np.uint64)
    for j in range(k):
        v = _splitmix64(v ^ hs[j: j + m])
    return v


def remove_dup_spans(docs: "ray.data.Dataset", k: int = 10,
                     id_col: str = "doc_id", text_col: str = "text",
                     n_buckets: int = 32) -> "ray.data.Dataset":
    """(doc_id, text, n_removed) — span-level exact dedup à la "Deduplicating
    Training Data Makes Language Models Better" (Lee et al. 2022): every
    k-token window that occurs more than once across the corpus is removed
    from every occurrence EXCEPT the globally first one (minimum packed
    (doc_id, pos) — a deterministic keeper rule, so the result is
    partitioning-invariant). Overlapping duplicate windows remove the union
    of their token intervals; docs shorter than k tokens pass through.

    Shape: (1) one pass emits (window_hash, packed_pos) rows; (2) a
    partial+final count/min shrinks to the DUPLICATED hash table (boilerplate
    only); (3) an inner bucketed `hash_join` windows×dups marks loser
    instances — the windows side ships 16 B/row and only rows whose hash is
    duplicated survive the join task; (4) removal intervals join back to the
    doc table by id and each doc is rebuilt vectorized. Two corpus-scale
    shuffles total (window join + doc rekey), no driver-side state."""
    import pandas as pd

    from ..aggregates import partial_final_agg
    from ..joins import hash_join

    i64 = pa.int64()

    def windows_of(df: pd.DataFrame) -> pd.DataFrame:
        whs, dids, poss = [], [], []
        for did, text in zip(df[id_col], df[text_col]):
            toks = text.split()
            v = _window_hashes(_token_hash_array(toks), k)
            if len(v) == 0:
                continue
            if len(v) >= _POS_CAP:
                raise ValueError(
                    f"doc {did}: {len(v)} windows >= _POS_CAP; "
                    "split docs (stages/prep.py) before span dedup")
            whs.append((v >> np.uint64(2)).astype(np.int64))
            dids.append(np.full(len(v), did, dtype=np.int64))
            poss.append(np.arange(len(v), dtype=np.int64))
        if not whs:
            return pd.DataFrame({"wh": pd.Series(dtype="int64"),
                                 id_col: pd.Series(dtype="int64"),
                                 "packed": pd.Series(dtype="int64")})
        wh = np.concatenate(whs)
        did = np.concatenate(dids)
        pos = np.concatenate(poss)
        return pd.DataFrame({"wh": wh, id_col: did,
                             "packed": did * _POS_CAP + pos})

    windows = docs.select_columns([id_col, text_col]).map_batches(
        windows_of, batch_format="pandas")

    dups = partial_final_agg(
        windows.select_columns(["wh", "packed"]), ["wh"],
        [("n", None, "count"), ("keeper", "packed", "min")])

    def dup_only(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.greater(t.column("n"), 1)).select(
            ["wh", "keeper"])

    dups = dups.map_batches(dup_only, batch_format="pyarrow")

    def losers(m: pd.DataFrame) -> pd.DataFrame:
        hit = m[m["packed"] != m["keeper"]]
        return pd.DataFrame({
            id_col: hit[id_col].to_numpy(dtype=np.int64),
            "pos": (hit["packed"] % _POS_CAP).to_numpy(dtype=np.int64)})

    removals = hash_join(
        windows, dups, on="wh", how="inner", n_buckets=n_buckets,
        left_types={"wh": i64, id_col: i64, "packed": i64},
        right_types={"wh": i64, "keeper": i64},
        bucket_post=losers)

    def rebuild(m: pd.DataFrame) -> pd.DataFrame:
        out_id, out_text, out_n = [], [], []
        for did, g in m.groupby(id_col, sort=False):
            text = g[text_col].iloc[0]
            toks = text.split()
            ps = g["pos"].dropna()
            if not len(ps):
                out_id.append(did); out_text.append(text); out_n.append(0)
                continue
            drop = np.zeros(len(toks), dtype=bool)
            for p in ps.to_numpy(dtype=np.int64):
                drop[p: p + k] = True
            kept = [t for t, d in zip(toks, drop) if not d]
            out_id.append(did)
            out_text.append(" ".join(kept))
            out_n.append(int(drop.sum()))
        return pd.DataFrame({id_col: pd.array(out_id, dtype="int64"),
                             text_col: out_text,
                             "n_removed": pd.array(out_n, dtype="int64")})

    s_t = pa.string()
    return hash_join(
        docs.select_columns([id_col, text_col]), removals, on=id_col,
        how="left", n_buckets=n_buckets,
        left_types={id_col: i64, text_col: s_t},
        right_types={id_col: i64, "pos": i64},
        bucket_post=rebuild)


def doc_novelty(docs: "ray.data.Dataset", k: int = 10, scale: int = 10_000,
                id_col: str = "doc_id", text_col: str = "text",
                n_buckets: int = 32) -> "ray.data.Dataset":
    """(doc_id, n_windows, n_novel, novelty_scaled) — per-document novelty
    against the whole corpus (the memorization/duplication profile of Lee
    et al. 2022, aggregated per document instead of rewriting text):
    `n_windows` counts a doc's DISTINCT k-token window hashes, `n_novel`
    how many of those the doc is the globally-FIRST occurrence of (minimum
    packed (doc_id, pos) — the same deterministic keeper rule as
    `remove_dup_spans`), and `novelty_scaled` the exact integer share
    n_novel * scale // n_windows. Boilerplate-heavy documents score near 0.
    Docs shorter than k tokens have no windows and are absent by contract.

    Scale shape: the window pass emits (hash, doc, packed) rows once; the
    global winner per hash is a partial+final MIN (per-block partials ship
    one row per (hash, block)); per-doc novel counts and per-doc distinct
    window totals are two more salted shrinking aggregations; one small
    bucketed left join attaches them. No driver-side state."""
    import pandas as pd
    import pyarrow.compute as pc

    from ..aggregates import grouped_count, partial_final_agg
    from ..joins import hash_join

    i64 = pa.int64()

    def windows_of(df: pd.DataFrame) -> pd.DataFrame:
        whs, dids, poss = [], [], []
        for did, text in zip(df[id_col], df[text_col]):
            toks = text.split()
            v = _window_hashes(_token_hash_array(toks), k)
            if len(v) == 0:
                continue
            if len(v) >= _POS_CAP:
                raise ValueError(
                    f"doc {did}: {len(v)} windows >= _POS_CAP; "
                    "split docs (stages/prep.py) before novelty profiling")
            whs.append((v >> np.uint64(2)).astype(np.int64))
            dids.append(np.full(len(v), did, dtype=np.int64))
            poss.append(np.arange(len(v), dtype=np.int64))
        if not whs:
            return pd.DataFrame({"wh": pd.Series(dtype="int64"),
                                 id_col: pd.Series(dtype="int64"),
                                 "packed": pd.Series(dtype="int64")})
        wh = np.concatenate(whs)
        did = np.concatenate(dids)
        pos = np.concatenate(poss)
        return pd.DataFrame({"wh": wh, id_col: did,
                             "packed": did * _POS_CAP + pos})

    windows = docs.select_columns([id_col, text_col]).map_batches(
        windows_of, batch_format="pandas").materialize()

    winners = partial_final_agg(
        windows.select_columns(["wh", "packed"]), ["wh"],
        [("keeper", "packed", "min")])

    def winner_doc(t: pa.Table) -> pa.Table:
        doc = pc.divide(t.column("keeper"), _POS_CAP)
        return pa.table({id_col: doc.cast(pa.int64())})

    novel = grouped_count(
        winners.map_batches(winner_doc, batch_format="pyarrow"),
        [id_col], out_name="n_novel", salt_buckets=4)

    totals = grouped_count(
        grouped_count(windows.select_columns([id_col, "wh"]),
                      [id_col, "wh"], out_name="_c", salt_buckets=4
                      ).select_columns([id_col]),
        [id_col], out_name="n_windows", salt_buckets=4)

    def attach(m: pd.DataFrame) -> pd.DataFrame:
        n_w = m["n_windows"].to_numpy("int64")
        n_n = m["n_novel"].fillna(0).to_numpy("int64")
        return pd.DataFrame({
            id_col: m[id_col].to_numpy("int64"),
            "n_windows": n_w,
            "n_novel": n_n,
            "novelty_scaled": (n_n * scale) // n_w,
        })

    return hash_join(totals, novel, on=id_col, how="left",
                     n_buckets=n_buckets,
                     left_types={id_col: i64, "n_windows": i64},
                     right_types={id_col: i64, "n_novel": i64},
                     bucket_post=attach)


def minhash_accuracy(docs: "ray.data.Dataset", shingle_k: int = 3,
                     est_threshold: float = 0.3, id_col: str = "doc_id",
                     text_col: str = "text",
                     n_buckets: int = 32) -> "ray.data.Dataset":
    """(id_a, id_b, est_scaled, true_scaled, err_scaled) — sketch-accuracy
    audit of the MinHash estimator: for every LSH candidate pair, the
    signature-estimated Jaccard vs the EXACT shingle-set Jaccard, both in
    exact scaled ints (est = matches·1e6/n_perm is a dyadic rational, so
    the float round-trip is lossless; true = |∩|·1e6 // |∪| computed in
    integer arithmetic). The calibration report run before trusting a
    banding configuration at corpus scale — systematic err_scaled bias
    means the shingle distribution violates the uniform-permutation
    assumption (boilerplate-heavy corpora do this).

    Scale shape: identical to `ngram_jaccard_pairs` — LSH candidates
    (never all-pairs), texts attached by two bucketed hash_joins, exact
    verify per batch."""
    from ..joins import hash_join

    candidates = minhash_lsh_pairs(
        docs, n_perm=64, n_bands=32, shingle_k=shingle_k,
        jaccard_threshold=est_threshold, id_col=id_col, text_col=text_col,
    )

    def rename(cols: list[str]):
        def fn(t: pa.Table) -> pa.Table:
            return t.rename_columns(cols)

        return fn

    side = docs.select_columns([id_col, text_col])
    a_docs = side.map_batches(rename(["id_a", "_text_a"]),
                              batch_format="pyarrow")
    b_docs = side.map_batches(rename(["id_b", "_text_b"]),
                              batch_format="pyarrow")
    sch = docs.schema()
    id_t = dict(zip(sch.names, sch.types))[id_col]
    if not isinstance(id_t, pa.DataType):
        id_t = pa.from_numpy_dtype(id_t)
    cand_t = {"id_a": id_t, "id_b": id_t, "est_jaccard": pa.float64()}
    side_a_t = {"id_a": id_t, "_text_a": pa.string()}
    side_b_t = {"id_b": id_t, "_text_b": pa.string()}
    with_a = hash_join(candidates, a_docs, on="id_a", n_buckets=n_buckets,
                       left_types=cand_t, right_types=side_a_t)
    with_ab = hash_join(with_a, b_docs, on="id_b", n_buckets=n_buckets,
                        left_types={**cand_t, **side_a_t},
                        right_types=side_b_t)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        est_s = np.rint(df["est_jaccard"].to_numpy(np.float64)
                        * 1e6).astype("int64")
        true_s = np.empty(len(df), dtype=np.int64)
        for i, (ta, tb) in enumerate(zip(df["_text_a"], df["_text_b"])):
            sa = _shingles(ta, shingle_k)
            sb = _shingles(tb, shingle_k)
            true_s[i] = len(sa & sb) * 1_000_000 // max(1, len(sa | sb))
        return pd.DataFrame({"id_a": df["id_a"].to_numpy(),
                             "id_b": df["id_b"].to_numpy(),
                             "est_scaled": est_s,
                             "true_scaled": true_s,
                             "err_scaled": est_s - true_s})

    return with_ab.map_batches(verify, batch_format="pandas")


def contrastive_pairs(docs: "ray.data.Dataset", est_threshold: float = 0.5,
                      seed: int = 29, id_col: str = "doc_id",
                      text_col: str = "text",
                      max_vocab: int = 50_000_000) -> "ray.data.Dataset":
    """(id_a, id_b, label) — contrastive training pairs for embedding
    models: label 1 = MinHash-LSH near-duplicate pairs (est Jaccard >=
    `est_threshold`), label 0 = one deterministic hash-drawn negative per
    positive (partner drawn from the sorted distinct ids APPEARING IN
    POSITIVE PAIRS — scale-safe: that vocabulary is dup-family-bounded,
    never the corpus; `max_vocab` admission guard, same contract as
    `negative_samples`). Draws hitting either member of the source pair
    are dropped inline (documented loss, the negative_samples discipline).

    Scale shape: the LSH candidate pipeline (never all-pairs) plus ONE
    streaming map with the id vocabulary broadcast via ray.put."""
    import ray

    from .sketch import hash64_values

    SEP = "\x1f"
    pos = minhash_lsh_pairs(
        docs, n_perm=64, n_bands=32, shingle_k=3,
        jaccard_threshold=est_threshold, id_col=id_col,
        text_col=text_col).materialize()

    def ids_of(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"id": np.concatenate([df["id_a"].to_numpy(),
                                   df["id_b"].to_numpy()])})

    from ..aggregates import grouped_count

    vocab_rows = grouped_count(
        pos.map_batches(ids_of, batch_format="pandas"), ["id"],
        out_name="_n").select_columns(["id"]).take_all()
    if len(vocab_rows) > max_vocab:
        raise ValueError(
            f"contrastive_pairs: |ids|={len(vocab_rows)} exceeds the "
            f"broadcast admission ({max_vocab})")
    vocab = np.array(sorted(r["id"] for r in vocab_rows))
    vocab_ref = ray.put(vocab)
    nv = np.uint64(max(len(vocab), 1))

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        V = ray.get(vocab_ref)
        a = df["id_a"].to_numpy()
        b = df["id_b"].to_numpy()
        key = np.array([str(x) + SEP + str(y) for x, y in zip(a, b)],
                       dtype=object)
        h = _splitmix64(hash64_values(key) ^ np.uint64(seed))
        cand = V[(h % nv).astype(np.int64)] if len(V) else a
        keep = (cand != a) & (cand != b)
        return pd.DataFrame({
            "id_a": np.concatenate([a, a[keep]]),
            "id_b": np.concatenate([b, cand[keep]]),
            "label": np.concatenate([np.ones(len(a), "int64"),
                                     np.zeros(int(keep.sum()), "int64")])})

    return pos.map_batches(emit, batch_format="pandas")


# ------------------------------------------- persisted NEAR-dup (LSH) store


def _band_bucket(keys: np.ndarray, n_buckets: int) -> np.ndarray:
    """Stable bucket from the int64 band key (uint64 view, no Python
    hash())."""
    return (keys.astype(np.uint64) % np.uint64(n_buckets)).astype(np.int64)


def _minhash_sigs(docs: "ray.data.Dataset", n_perm: int, shingle_k: int,
                  id_col: str, text_col: str) -> "ray.data.Dataset":
    """(id_col, minhash) signature rows of a documents table."""
    return docs.select_columns([id_col, text_col]).map_batches(
        MinHasher(n_perm=n_perm, shingle_k=shingle_k, text_col=text_col,
                  id_col=id_col),
        batch_format="pandas")


def _band_rows(df: pd.DataFrame, n_bands: int, n_buckets: int, id_col: str,
               bucket_col: str) -> pd.DataFrame:
    """(band_key, id_col, minhash_b, bucket_col) rows of a MinHash
    signature batch; `minhash_b` is the packed int64 signature."""
    b = minhash_bands(df, n_bands, id_col)
    packed = np.array([np.asarray(s, dtype=np.int64).tobytes()
                       for s in df["minhash"]], dtype=object)
    b["minhash_b"] = np.repeat(packed, n_bands)
    b[bucket_col] = _band_bucket(b["band_key"].to_numpy("int64"), n_buckets)
    return b


def build_neardup_store(docs: "ray.data.Dataset", out_dir: str,
                        n_perm: int = 64, n_bands: int = 16,
                        shingle_k: int = 3, n_buckets: int = 32,
                        id_col: str = "doc_id",
                        text_col: str = "text") -> str:
    """Persist the corpus's MinHash band rows (band_key, doc_id, packed
    signature) as a parquet store hash-partitioned on `bucket =
    band_key % n_buckets` — the cross-run counterpart of
    `minhash_lsh_pairs`, and the NEAR-dup sibling of `build_dedup_store`:
    later crawls LSH-match against the historical corpus by reading ONLY
    the band buckets their own keys fall in. Signatures travel WITH the
    band rows (512 B at 64 perms — the one-shuffle verify tradeoff
    documented in minhash_lsh_pairs), so matching needs no second join
    against a signature table."""
    write_partitioned(
        _minhash_sigs(docs, n_perm, shingle_k, id_col, text_col).map_batches(
            lambda df: _band_rows(df, n_bands, n_buckets, id_col, "bucket"),
            batch_format="pandas"), out_dir, "bucket")
    return out_dir


def neardup_against_store(new_docs: "ray.data.Dataset", store_dir: str,
                          n_perm: int = 64, n_bands: int = 16,
                          shingle_k: int = 3, n_buckets: int = 32,
                          thr_milli: int = 800, id_col: str = "doc_id",
                          text_col: str = "text") -> "ray.data.Dataset":
    """(doc_id, dup_of, est_matches) — for every new doc, its BEST stored
    near-duplicate: the stored doc sharing ≥ 1 full band whose signature
    agreement passes `matches · 1000 ≥ thr_milli · n_perm` (exact integer
    comparison — no float mean), best = (matches desc, stored id asc).

    Selective I/O: only the `bucket=` partitions the new shard's band
    keys fall in are read — I/O proportional to the APPEND, never the
    store. One `joins._cogroup` over the band bucket pairs the sides; the
    per-band verify compares the new×stored signature matrices with
    `joins.chunk_pairs` (the chunk bound of every LSH verify); per-bucket
    (new, stored, matches) candidates reduce to the best via one grouped
    argmax."""
    from ..aggregates import argmax_per_key
    from ..joins import _cogroup, chunk_pairs

    new_rows = _minhash_sigs(new_docs, n_perm, shingle_k, id_col, text_col) \
        .map_batches(lambda df: _band_rows(df, n_bands, n_buckets, id_col,
                                           "_bucket"),
                     batch_format="pandas").materialize()
    paths = _store_paths(new_rows, store_dir)
    empty = pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                          "dup_of": pd.Series([], dtype="int64"),
                          "est_matches": pd.Series([], dtype="int64")})
    if not paths:
        return new_rows.map_batches(lambda df: empty.copy(),
                                    batch_format="pandas").limit(1)

    def fix_store(df: pd.DataFrame) -> pd.DataFrame:
        df = df[["band_key", id_col, "minhash_b"]].copy()
        df["_bucket"] = _band_bucket(df["band_key"].to_numpy("int64"),
                                     n_buckets)
        return df

    store = ray.data.read_parquet(paths).map_batches(
        fix_store, batch_format="pandas")

    def match(old: pd.DataFrame, new: pd.DataFrame) -> pd.DataFrame:
        out = []
        old = old[old["band_key"].isin(new["band_key"])].drop_duplicates(
            ["band_key", id_col])
        new = new[new["band_key"].isin(old["band_key"])].drop_duplicates(
            ["band_key", id_col])
        old_by_band = dict(tuple(old.groupby("band_key", sort=False)))
        for k, new_g in new.groupby("band_key", sort=False):
            old_g = old_by_band[k]
            i, j, m = chunk_pairs(
                np.stack([np.frombuffer(b, dtype=np.int64)
                          for b in new_g["minhash_b"]]),
                np.stack([np.frombuffer(b, dtype=np.int64)
                          for b in old_g["minhash_b"]]),
                lambda a, b: (a[:, None, :] == b[None, :, :]).sum(axis=2),
                lambda m: m * 1000 >= thr_milli * n_perm)
            if len(i):
                out.append(pd.DataFrame({
                    id_col: new_g[id_col].to_numpy("int64")[i],
                    "dup_of": old_g[id_col].to_numpy("int64")[j],
                    "est_matches": m.astype("int64")}))
        return pd.concat(out, ignore_index=True) if out else empty.copy()

    cols = ["band_key", id_col, "minhash_b"]
    cands = _cogroup(store, cols, {}, new_rows, cols, {}, match)
    return argmax_per_key(cands, key=id_col,
                          order_cols=["est_matches", "dup_of"],
                          ascending=[False, True],
                          keep_cols=[id_col, "dup_of", "est_matches"])
