"""Similarity search over an embedding column (`list<float>`).

- `knn_brute_force`: baseline exact top-k cosine. The query matrix is
  broadcast ONCE (`ray.put`); each batch does one numpy matmul against it and
  emits only its local top-k candidates, so the final global sort sees
  num_blocks × k rows, not the corpus.
- `knn_lsh`: the scale path — random-hyperplane LSH buckets the corpus; only
  buckets matching the query's signature are scanned.
- `embedding_near_dups`: cosine near-duplicate pairs via the same LSH
  bucketing (groupby bucket → in-bucket pair scan), never all-pairs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..functions.strings import round_half_up
from ..state.manifest import write_partitioned


def _batch_matrix(batch: pd.DataFrame, vec_col: str) -> np.ndarray:
    # float64 math: matches DuckDB's double-precision cosine for the oracle
    return np.stack([np.asarray(v, dtype=np.float64) for v in batch[vec_col]])


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=-1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


def knn_brute_force(embeddings: "ray.data.Dataset", query: np.ndarray, k: int = 10,
                    id_col: str = "vec_id", vec_col: str = "embedding") -> "ray.data.Dataset":
    """Exact top-k by cosine: (vec_id, cosine), sorted desc, ties by id asc."""
    q = _normalize(np.asarray(query, dtype=np.float64).reshape(1, -1))
    q_ref = ray.put(q)

    def score_block(batch: pd.DataFrame) -> pd.DataFrame:
        qm = ray.get(q_ref)
        m = _normalize(_batch_matrix(batch, vec_col))
        cos = (m @ qm.T).ravel()
        out = pd.DataFrame({id_col: batch[id_col].values, "cosine": round_half_up(cos, 6)})
        # local prune: only this block's top-k enter the global sort
        out = out.sort_values(["cosine", id_col], ascending=[False, True]).head(k)
        return out

    scored = embeddings.select_columns([id_col, vec_col]).map_batches(
        score_block, batch_format="pandas"
    )
    return scored.sort(["cosine", id_col], descending=[True, False]).limit(k)


def _hyperplanes(dim: int, n_bits: int, seed: int = 11) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return rng.standard_normal((dim, n_bits)).astype(np.float32)


def _lsh_sig(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (m @ planes) > 0
    weights = (1 << np.arange(planes.shape[1], dtype=np.uint64))
    return (bits.astype(np.uint64) * weights).sum(axis=1)


def knn_lsh(embeddings: "ray.data.Dataset", query: np.ndarray, k: int = 10,
            n_bits: int = 8, id_col: str = "vec_id",
            vec_col: str = "embedding", seed: int = 11) -> "ray.data.Dataset":
    """ANN top-k: scan only rows whose random-hyperplane signature is within
    Hamming distance 1 of the query's (recall knob: n_bits / radius)."""
    query = np.asarray(query, dtype=np.float32)
    planes = _hyperplanes(query.shape[0], n_bits, seed)
    qsig = int(_lsh_sig(_normalize(query.reshape(1, -1)), planes)[0])
    near = {qsig} | {qsig ^ (1 << b) for b in range(n_bits)}
    planes_ref = ray.put(planes)
    q_ref = ray.put(_normalize(query.reshape(1, -1)))

    def score_block(batch: pd.DataFrame) -> pd.DataFrame:
        p = ray.get(planes_ref)
        qm = ray.get(q_ref)
        m = _normalize(_batch_matrix(batch, vec_col))
        sigs = _lsh_sig(m, p)
        mask = np.isin(sigs, list(near))
        if not mask.any():
            return pd.DataFrame({id_col: [], "cosine": []})
        cos = (m[mask] @ qm.T).ravel()
        out = pd.DataFrame({id_col: batch[id_col].values[mask], "cosine": round_half_up(cos, 6)})
        return out.sort_values(["cosine", id_col], ascending=[False, True]).head(k)

    scored = embeddings.select_columns([id_col, vec_col]).map_batches(
        score_block, batch_format="pandas"
    )
    return scored.sort(["cosine", id_col], descending=[True, False]).limit(k)


def build_lsh_index(embeddings: "ray.data.Dataset", out_dir: str,
                    n_bits: int = 8, seed: int = 11, id_col: str = "vec_id",
                    vec_col: str = "embedding") -> str:
    """Materialize a PERSISTED signature-partitioned ANN index: vectors are
    written as parquet partitioned by their random-hyperplane signature
    (`sig=<s>/...`). A repeated query then reads ONLY its Hamming-radius
    partitions — O(probed partitions) I/O instead of a full corpus re-scan
    per query (the one-shot `knn_lsh` recomputes signatures every call)."""

    def sig_stamp(batch: pd.DataFrame) -> pd.DataFrame:
        planes = _hyperplanes(
            len(np.asarray(batch[vec_col].iloc[0])), n_bits, seed)
        m = _normalize(_batch_matrix(batch, vec_col))
        out = batch[[id_col, vec_col]].copy()
        out["sig"] = _lsh_sig(m, planes).astype("int64")
        return out

    write_partitioned(embeddings.select_columns([id_col, vec_col]).map_batches(
        sig_stamp, batch_format="pandas"), out_dir, "sig")
    return out_dir


def knn_lsh_indexed(index_dir: str, query: np.ndarray, k: int = 10,
                    n_bits: int = 8, seed: int = 11, radius: int = 1,
                    id_col: str = "vec_id",
                    vec_col: str = "embedding") -> "ray.data.Dataset":
    """ANN top-k over a persisted signature-partitioned index: only the
    partitions within Hamming `radius` of the query signature are read.
    Ranking math matches `knn_lsh` (float64 corpus rows x float32-normalized
    query) so both paths return identical results."""
    import os

    query32 = np.asarray(query, dtype=np.float32)
    planes = _hyperplanes(query32.shape[0], n_bits, seed)
    qsig = int(_lsh_sig(_normalize(query32.reshape(1, -1)), planes)[0])
    probe = {qsig}
    if radius >= 1:
        probe |= {qsig ^ (1 << b) for b in range(n_bits)}
    import glob

    files = [
        f
        for s in sorted(probe)
        for f in sorted(glob.glob(os.path.join(index_dir, f"sig={s}", "*.parquet")))
    ]
    if not files:
        return ray.data.from_pandas(pd.DataFrame({id_col: [], "cosine": []}))
    ds = ray.data.read_parquet(files)
    q_ref = ray.put(_normalize(query32.reshape(1, -1)))

    def score_block(batch: pd.DataFrame) -> pd.DataFrame:
        qm = ray.get(q_ref)
        m = _normalize(_batch_matrix(batch, vec_col))
        cos = (m @ qm.T).ravel()
        out = pd.DataFrame({id_col: batch[id_col].values,
                            "cosine": round_half_up(cos, 6)})
        return out.sort_values(["cosine", id_col],
                               ascending=[False, True]).head(k)

    return ds.map_batches(score_block, batch_format="pandas").sort(
        ["cosine", id_col], descending=[True, False]).limit(k)


def embedding_near_dups(embeddings: "ray.data.Dataset", threshold: float = 0.95,
                        n_bits: int = 10, n_tables: int = 8,
                        id_col: str = "vec_id", vec_col: str = "embedding",
                        seed: int = 11) -> "ray.data.Dataset":
    """Cosine near-dup pairs (id_a < id_b, cosine ≥ threshold) via MULTI-TABLE
    random-hyperplane LSH: a pair is a candidate if it collides in ANY of the
    `n_tables` independent sign-signatures. One table at n_bits=10 only
    catches ~(1-θ/π)^10 ≈ 22% of cosine-0.9 pairs; 8 tables lift recall to
    ~86% (and ~99.8% at cosine 0.97). Pairs are exact-verified by
    `joins.candidate_pairs` over the (table, sig) keys, which also dedups
    them across tables; rows = n_tables × n."""
    from ..joins import candidate_pairs

    # hyperplanes built per batch from the fixed seed — identical everywhere.
    # Table replication is a block np.tile/list-repeat over the (n_tables, n)
    # signature matrix (table-major) — no per-(table, row) Python appends in
    # this hot LSH path.
    def sig_block(batch: pd.DataFrame) -> pd.DataFrame:
        m = _normalize(_batch_matrix(batch, vec_col))
        n = m.shape[0]
        vecs = [np.asarray(v, dtype=np.float32) for v in batch[vec_col]]
        all_sigs = np.empty((n_tables, n), dtype=np.int64)
        for t in range(n_tables):
            planes = _hyperplanes(m.shape[1], n_bits, seed + 101 * t)
            all_sigs[t] = _lsh_sig(m, planes).astype(np.int64)
        table_sig = (np.arange(n_tables, dtype=np.int64)[:, None] << n_bits
                     ) | all_sigs
        return pd.DataFrame({
            "key": pd.array(table_sig.ravel(), dtype="int64"),
            "id": np.tile(np.asarray(batch[id_col].values), n_tables),
            "payload": vecs * n_tables,
        })

    def cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # float64 verification math: float32 dots differ in the last ulp
        # across BLAS shapes, which would flip the 6-decimal rounding between
        # buckets (and against the independent oracle); double precision puts
        # the rounding boundary ~1e10 x further away
        return (_normalize(a.astype(np.float64))
                @ _normalize(b.astype(np.float64)).T)

    sigs = embeddings.select_columns([id_col, vec_col]).map_batches(
        sig_block, batch_format="pandas")
    return candidate_pairs(sigs, 64, cosine, lambda cos: cos >= threshold,
                           "cosine")


# ---------------------------------------------------------------- PCA


def _pca_power_basis(G: np.ndarray, s: np.ndarray, n: int, scale: int,
                     n_components: int, power_iters: int) -> np.ndarray:
    """Deterministic top-k eigenbasis of the covariance implied by the EXACT
    integer partials (G = Σ xs xsᵀ, s = Σ xs over quantized rows): power
    iteration from a fixed start with Gram–Schmidt deflation, a fixed
    iteration count, and sign fixed by making the largest-|coordinate|
    entry positive — no RNG, no LAPACK (eigh's sign/order conventions vary
    across BLAS builds; this is bit-stable on one platform and reproducible
    by the oracle)."""
    d = G.shape[0]
    C = (G.astype(np.float64) - np.outer(s, s).astype(np.float64) / n) \
        / (float(n) * float(scale) ** 2)
    basis = []
    for _ in range(n_components):
        v = np.full(d, 1.0 / np.sqrt(d))
        for _i in range(power_iters):
            w = C @ v
            nw = np.linalg.norm(w)
            if nw == 0:
                break
            v = w / nw
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        lam = float(v @ C @ v)
        C = C - lam * np.outer(v, v)
        basis.append(v)
    return np.stack(basis, axis=1)  # (d, k)


def pca_project(embeddings: "ray.data.Dataset", id_col: str = "vec_id",
                vec_col: str = "embedding", n_components: int = 2,
                scale: int = 4096, power_iters: int = 64,
                salt_buckets: int = 64) -> "ray.data.Dataset":
    """Distributed PCA projection (embedding whitening / SemDeDup-style
    preprocessing): (id, pc1..pck), each rounded to 6 dp.

    Scale shape: vectors are quantized to int64 (round(x·scale)) and each
    block emits ONE flattened exact-integer partial (Gram d², column sums d,
    row count); partials pre-combine inside `salt_buckets` groups so the
    driver collects ≤ salt_buckets aggregate rows no matter the corpus
    size. Integer partials make the distributed sum order-independent —
    bit-identical to a single-pass scalar recompute, so the oracle can
    hash-match. The d×k basis is solved on the driver (d² is tiny),
    broadcast once, and the projection pass is a per-row float64 dot (fixed
    per-row order → deterministic)."""
    def block_partial(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"salt": pd.Series([], dtype="int64"),
                                 "g": pd.Series([], dtype=object),
                                 "s": pd.Series([], dtype=object),
                                 "n": pd.Series([], dtype="int64")})
        m = _batch_matrix(df, vec_col)
        xs = np.rint(m * scale).astype(np.int64)
        g = (xs.T @ xs).ravel()
        s = xs.sum(axis=0)
        salt = int(df[id_col].iloc[0]) % salt_buckets if len(df) else 0
        return pd.DataFrame({"salt": [salt], "g": [g.tolist()],
                             "s": [s.tolist()], "n": [len(df)]})

    def combine(dfg: pd.DataFrame) -> pd.DataFrame:
        g = np.sum([np.asarray(x, dtype=np.int64) for x in dfg["g"]], axis=0)
        s = np.sum([np.asarray(x, dtype=np.int64) for x in dfg["s"]], axis=0)
        return pd.DataFrame({"g": [g.tolist()], "s": [s.tolist()],
                             "n": [int(dfg["n"].sum())]})

    parts = (embeddings.select_columns([id_col, vec_col])
             .map_batches(block_partial, batch_format="pandas")
             .groupby("salt").map_groups(combine, batch_format="pandas")
             .take_all())  # ≤ salt_buckets aggregate rows
    n = sum(int(r["n"]) for r in parts)
    if n == 0:
        raise ValueError("pca_project: empty input")
    d2 = len(parts[0]["g"])
    d = int(round(d2 ** 0.5))
    G = np.zeros(d2, dtype=np.int64)
    S = np.zeros(d, dtype=np.int64)
    for r in parts:
        G += np.asarray(r["g"], dtype=np.int64)
        S += np.asarray(r["s"], dtype=np.int64)
    V = _pca_power_basis(G.reshape(d, d), S, n, scale, n_components,
                         power_iters)
    mean = S.astype(np.float64) / (float(n) * scale)
    v_ref = ray.put((V, mean))

    def project(df: pd.DataFrame) -> pd.DataFrame:
        basis, mu = ray.get(v_ref)
        m = _batch_matrix(df, vec_col)
        xs = np.rint(m * scale).astype(np.int64).astype(np.float64) / scale
        proj = (xs - mu) @ basis
        out = pd.DataFrame({id_col: df[id_col].astype("int64")})
        for k in range(basis.shape[1]):
            out[f"pc{k + 1}"] = round_half_up(proj[:, k], 6)
        return out

    return embeddings.select_columns([id_col, vec_col]).map_batches(
        project, batch_format="pandas")


def knn_recall_lsh(embeddings: "ray.data.Dataset", queries: "np.ndarray",
                   query_ids: list[int], k: int = 10, n_bits: int = 8,
                   seed: int = 11, id_col: str = "vec_id",
                   vec_col: str = "embedding") -> "ray.data.Dataset":
    """(query_id, recall) — recall@k of the Hamming-radius-1 LSH ANN
    (`knn_lsh` semantics: same planes, same radius, same 6-dp tie order)
    against the exact brute-force top-k, for ALL queries in ONE corpus
    scan: the query matrix is broadcast once, each block emits ≤ 2k rows
    per query (its local exact top-k and its local in-LSH top-k), and a
    small per-query group combine computes the overlap. Evaluating Q
    queries costs one pass, not Q passes — the ANN-quality eval a recall
    sweep over (n_bits, radius) would run per setting."""
    import pandas as pd

    qm = _normalize(np.asarray(queries, dtype=np.float64))
    q32 = _normalize(np.asarray(queries, dtype=np.float32))
    planes = _hyperplanes(qm.shape[1], n_bits, seed)
    qsigs = _lsh_sig(q32, planes)
    near = [({int(s)} | {int(s) ^ (1 << b) for b in range(n_bits)})
            for s in qsigs]
    state_ref = ray.put((qm, planes, near, list(query_ids)))

    def score_block(batch: pd.DataFrame) -> pd.DataFrame:
        qmat, p, near_sets, qids = ray.get(state_ref)
        m = _normalize(_batch_matrix(batch, vec_col))
        ids = batch[id_col].to_numpy()
        cos = round_half_up(m @ qmat.T, 6)          # (n, Q)
        sigs = _lsh_sig(m.astype(np.float32), p)
        parts = []
        for j, qid in enumerate(qids):
            cj = cos[:, j]
            order = np.lexsort((ids, -cj))          # cosine desc, id asc
            top = order[:k]
            in_lsh = np.fromiter((int(s) in near_sets[j] for s in sigs),
                                 dtype=bool, count=len(sigs))
            lsh_rows = order[in_lsh[order]][:k]
            for rows, kind in ((top, "exact"), (lsh_rows, "lsh")):
                if len(rows):
                    parts.append(pd.DataFrame({
                        "query_id": np.int64(qid), "kind": kind,
                        id_col: ids[rows], "cosine": cj[rows]}))
        if not parts:
            return pd.DataFrame({
                "query_id": pd.Series(dtype="int64"),
                "kind": pd.Series(dtype="string"),
                id_col: pd.Series(dtype="int64"),
                "cosine": pd.Series(dtype="float64")})
        return pd.concat(parts, ignore_index=True)

    cands = embeddings.select_columns([id_col, vec_col]).map_batches(
        score_block, batch_format="pandas")

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        def topk(kind: str) -> set:
            sub = g[g["kind"] == kind].sort_values(
                ["cosine", id_col], ascending=[False, True]).head(k)
            return set(sub[id_col])

        exact, lsh = topk("exact"), topk("lsh")
        return pd.DataFrame({
            "query_id": [np.int64(g["query_id"].iloc[0])],
            "recall": [float(round_half_up(len(exact & lsh) / k, 6))]})

    return cands.groupby("query_id").map_groups(combine,
                                                batch_format="pandas")


def scalar_quantize_stats(embeddings: "ray.data.Dataset", levels: int = 256,
                          id_col: str = "vec_id",
                          vec_col: str = "embedding") -> "ray.data.Dataset":
    """(vec_id, code_sum, code_min, code_max) — per-vector summary of int8-
    style scalar quantization: every dimension is affinely mapped onto
    [0, levels) over its GLOBAL [min, max] envelope (the standard SQ8
    compression step in ANN index builds, e.g. Faiss ScalarQuantizer;
    degenerate dimensions map to code 0), and the per-vector code sum /
    min / max are reported in exact integer arithmetic so the SQL oracle
    mirrors the float64 binning expression bit for bit.

    Scale shape: pass 1 reduces each block to ONE (min[dim], max[dim])
    partial row — the driver combines num_blocks tiny rows into the
    2 × dim envelope and broadcasts it into the quantizing closure (never
    the vectors); pass 2 is a single vectorized map. Two streaming passes
    over the pruned (id, vector) read, no materialization."""

    def envelope_partial(batch: pd.DataFrame) -> pd.DataFrame:
        m = _batch_matrix(batch, vec_col)
        return pd.DataFrame({"mn": [m.min(axis=0).tolist()],
                             "mx": [m.max(axis=0).tolist()]})

    parts = embeddings.select_columns([vec_col]).map_batches(
        envelope_partial, batch_format="pandas").take_all()
    mn = np.min(np.array([p["mn"] for p in parts], dtype=np.float64), axis=0)
    mx = np.max(np.array([p["mx"] for p in parts], dtype=np.float64), axis=0)
    span = mx - mn
    ok = span > 0.0

    def quantize(batch: pd.DataFrame) -> pd.DataFrame:
        m = _batch_matrix(batch, vec_col)
        codes = np.zeros(m.shape, dtype=np.int64)
        if ok.any():
            scaled = ((m[:, ok] - mn[ok]) * float(levels - 1)) / span[ok]
            codes[:, ok] = np.minimum(levels - 1,
                                      np.floor(scaled).astype(np.int64))
        return pd.DataFrame({
            id_col: batch[id_col].to_numpy(),
            "code_sum": codes.sum(axis=1),
            "code_min": codes.min(axis=1),
            "code_max": codes.max(axis=1),
        })

    return embeddings.select_columns([id_col, vec_col]).map_batches(
        quantize, batch_format="pandas")
