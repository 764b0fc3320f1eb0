"""Distributed k-means over an embedding column, plus the two operators
built on top of it: IVF ANN search (coarse-quantizer probe, the scale path
beyond `knn_lsh`) and SemDeDup-style semantic near-dedup (in-cluster cosine
pair scan — Abbas et al. 2023's shape: cluster first, compare only within a
cluster, never all-pairs).

Scale notes
-----------
- `kmeans_fit` streams the corpus once per Lloyd iteration; the only
  driver-side state is the (k × dim) centroid matrix and the per-block
  partial sums (num_blocks × k rows — an aggregate result, bounded and
  independent of corpus size). Centroids are broadcast per iteration with
  `ray.put`, read once per batch.
- Determinism discipline (oracle hash-parity): partial sums are
  INTEGER-scaled (`round(x·10⁶)` int64), so the distributed sum is exact and
  order-independent — float64 block sums would differ in ulps from a
  single-pass oracle recompute and could flip boundary assignments.
  Assignment ties break to the lowest cluster id (np.argmin), pair output
  ties to the lowest vec_id.
- `semantic_dedup` shuffles once on the cluster id. Pick k ≈ √n (or larger)
  at scale so per-cluster pair scans stay bounded; the reference-scale
  SemDeDup runs k in the tens of thousands for billions of docs.

Reference anchor: the engine-side twin of the reference's canonical-key
dedup idea (make_kb.py:198-212) lifted to embedding space; no counterpart
exists in the reference — this is a training-data op (SURVEY.md §"beyond").
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray
import ray.data

from ..functions.strings import round_half_up
from ..joins import score_chunks

_SCALE = 1_000_000  # integer-scaling grid for exact distributed sums


def _matrix(batch: pd.DataFrame, vec_col: str) -> np.ndarray:
    return np.stack([np.asarray(v, dtype=np.float64) for v in batch[vec_col]])


def _assign(m: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per row by squared euclidean distance.

    Distances are computed with the explicit difference form
    ``((x-c)²).sum`` — NOT the expanded ``x²-2xc+c²`` BLAS form — so engine
    and oracle evaluate the identical float64 expression (the two forms
    differ in ulps, which could flip near-equidistant assignments)."""
    # (n, k) pairwise squared distances, chunked to bound memory at wide k
    n = m.shape[0]
    d = np.empty((n, centroids.shape[0]), dtype=np.float64)
    for j in range(centroids.shape[0]):
        diff = m - centroids[j]
        # (diff*diff).sum — np.add.reduce pairwise, the same reduction the
        # oracle's broadcast ((x-c)**2).sum(-1) uses (einsum's loop order
        # differs in the last ulp)
        d[:, j] = (diff * diff).sum(axis=1)
    labels = d.argmin(axis=1)
    return labels, d[np.arange(n), labels]


def kmeans_init(embeddings: "ray.data.Dataset", k: int,
                id_col: str = "vec_id", vec_col: str = "embedding") -> np.ndarray:
    """Deterministic seeding: the vectors of the k smallest ids (sorted-id
    prefix — reproducible on any partitioning, no RNG)."""
    rows = (embeddings.select_columns([id_col, vec_col])
            .sort(id_col).limit(k).take_all())
    return np.stack([np.asarray(r[vec_col], dtype=np.float64) for r in rows])


def kmeans_fit(embeddings: "ray.data.Dataset", k: int = 8, n_iter: int = 4,
               id_col: str = "vec_id", vec_col: str = "embedding") -> np.ndarray:
    """Lloyd iterations with exact integer-scaled partial sums.

    Each iteration: broadcast centroids → per-block (cluster, count,
    int64-scaled component sums) → combine the (bounded) partials on the
    driver → new centroid = Σ/count (empty clusters keep their previous
    centroid). Returns the (k, dim) float64 centroid matrix."""
    centroids = kmeans_init(embeddings, k, id_col, vec_col)
    dim = centroids.shape[1]
    src = embeddings.select_columns([vec_col])

    for _ in range(n_iter):
        cref = ray.put(centroids)

        def partial(batch: pd.DataFrame) -> pd.DataFrame:
            c = ray.get(cref)
            m = _matrix(batch, vec_col)
            labels, _ = _assign(m, c)
            scaled = np.rint(m * _SCALE).astype(np.int64)
            out = {"cluster": [], "count": [], "ssum": []}
            for j in np.unique(labels):
                sel = scaled[labels == j]
                out["cluster"].append(int(j))
                out["count"].append(int(sel.shape[0]))
                out["ssum"].append(sel.sum(axis=0))  # int64 exact
            return pd.DataFrame(out)

        parts = src.map_batches(partial, batch_format="pandas").to_pandas()
        new = centroids.copy()
        for j in range(k):
            sel = parts[parts["cluster"] == j]
            if len(sel) == 0:
                continue
            total = int(sel["count"].sum())
            ssum = np.sum(np.stack(sel["ssum"].to_numpy()), axis=0,
                          dtype=np.int64)
            new[j] = ssum.astype(np.float64) / (_SCALE * total)
        centroids = new
        assert centroids.shape == (k, dim)
    return centroids


def kmeans_assign(embeddings: "ray.data.Dataset", centroids: np.ndarray,
                  id_col: str = "vec_id", vec_col: str = "embedding",
                  keep_vec: bool = False) -> "ray.data.Dataset":
    """(id, cluster, dist) per row; dist = euclidean, rounded half-up to 6
    decimals. `keep_vec=True` carries the vector along (for semantic_dedup's
    in-cluster verify, so texts/vectors travel with the shuffle rows)."""
    cref = ray.put(np.asarray(centroids, dtype=np.float64))

    def stamp(batch: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(cref)
        m = _matrix(batch, vec_col)
        labels, d2 = _assign(m, c)
        out = pd.DataFrame({
            id_col: batch[id_col].values,
            "cluster": labels.astype(np.int32),
            "dist": round_half_up(np.sqrt(d2), 6),
        })
        if keep_vec:
            out[vec_col] = batch[vec_col].values
        return out

    return embeddings.select_columns([id_col, vec_col]).map_batches(
        stamp, batch_format="pandas")


def knn_ivf(embeddings: "ray.data.Dataset", centroids: np.ndarray,
            query: np.ndarray, k: int = 10, nprobe: int = 2,
            id_col: str = "vec_id", vec_col: str = "embedding") -> "ray.data.Dataset":
    """IVF-flat ANN: probe only the `nprobe` clusters whose centroids are
    nearest the query (L2 coarse quantizer, standard IVF), rank the surviving
    rows by exact float64 cosine. Block-local top-k prune before the global
    sort (same discipline as `knn_brute_force`)."""
    c = np.asarray(centroids, dtype=np.float64)
    qv = np.asarray(query, dtype=np.float64)
    _, _ = c.shape
    dq = np.array([float(np.dot(qv - cj, qv - cj)) for cj in c])
    probe = set(np.argsort(dq, kind="stable")[:nprobe].tolist())
    cref = ray.put(c)
    qn = qv / (np.linalg.norm(qv) or 1.0)
    q_ref = ray.put(qn.reshape(1, -1))

    def score_block(batch: pd.DataFrame) -> pd.DataFrame:
        cm = ray.get(cref)
        qm = ray.get(q_ref)
        m = _matrix(batch, vec_col)
        labels, _ = _assign(m, cm)
        mask = np.isin(labels, list(probe))
        if not mask.any():
            return pd.DataFrame({id_col: pd.array([], dtype="int64"),
                                 "cosine": pd.array([], dtype="float64")})
        sel = m[mask]
        norms = np.linalg.norm(sel, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        cos = ((sel / norms) @ qm.T).ravel()
        out = pd.DataFrame({id_col: batch[id_col].values[mask],
                            "cosine": round_half_up(cos, 6)})
        return out.sort_values(["cosine", id_col],
                               ascending=[False, True]).head(k)

    scored = embeddings.select_columns([id_col, vec_col]).map_batches(
        score_block, batch_format="pandas")
    return scored.sort(["cosine", id_col], descending=[True, False]).limit(k)


def embedding_silhouette(embeddings: "ray.data.Dataset",
                         centroids: np.ndarray,
                         id_col: str = "vec_id",
                         vec_col: str = "embedding") -> "ray.data.Dataset":
    """(cluster, n, mean_sil_ppm, mean_dist_scaled) — per-cluster
    SIMPLIFIED silhouette (centroid-based: a = distance to own centroid,
    b = distance to the second-nearest centroid; s = (b−a)/b) — the
    clustering-quality audit for the k-means family (low silhouette flags
    clusters to re-fit or merge before SemDeDup-style pruning trusts
    them). Distances use `_assign`'s difference form, 6-dp-rounded and
    lifted to exact int64 (the `embedding_outliers` grid); per-row
    s_ppm = (b_s − a_s)·1e6 // max(b_s, 1), so every emitted number is
    integer-exact under any partitioning. b takes the second-smallest
    VALUE (duplicate centroids → s = 0), matching the oracle's sorted
    order statistic bit-for-bit.

    Scale shape: ONE assignment scan emitting per-(block, cluster)
    (n, Σs_ppm, Σa_s) partials; the reduce is k-row."""
    from ..aggregates import partial_final_agg

    cref = ray.put(np.asarray(centroids, dtype=np.float64))

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(cref)
        m = _matrix(batch, vec_col)
        n = m.shape[0]
        d = np.empty((n, c.shape[0]), dtype=np.float64)
        for j in range(c.shape[0]):
            diff = m - c[j]
            d[:, j] = (diff * diff).sum(axis=1)
        labels = d.argmin(axis=1)
        two = np.partition(d, 1, axis=1)[:, :2]
        a_s = np.rint(round_half_up(np.sqrt(two[:, 0]), 6)
                      * 1e6).astype(np.int64)
        b_s = np.rint(round_half_up(np.sqrt(two[:, 1]), 6)
                      * 1e6).astype(np.int64)
        s_ppm = (b_s - a_s) * 1_000_000 // np.maximum(b_s, 1)
        g = pd.DataFrame({"cluster": labels.astype(np.int32),
                          "n_p": np.ones(n, dtype=np.int64),
                          "sil_p": s_ppm, "a_p": a_s})
        return g.groupby("cluster", as_index=False)[
            ["n_p", "sil_p", "a_p"]].sum()

    agg = partial_final_agg(
        embeddings.select_columns([id_col, vec_col]).map_batches(
            partials, batch_format="pandas"),
        ["cluster"], [("n", "n_p", "sum"), ("sil", "sil_p", "sum"),
                      ("a", "a_p", "sum")])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n"].to_numpy("int64")
        return pd.DataFrame({
            "cluster": df["cluster"].astype("int32"),
            "n": n,
            "mean_sil_ppm": df["sil"].to_numpy("int64") // np.maximum(n, 1),
            "mean_dist_scaled": df["a"].to_numpy("int64") // np.maximum(n, 1),
        })

    return agg.map_batches(finish, batch_format="pandas")


def semantic_dedup(embeddings: "ray.data.Dataset", centroids: np.ndarray,
                   threshold: float = 0.9, id_col: str = "vec_id",
                   vec_col: str = "embedding") -> "ray.data.Dataset":
    """SemDeDup: (id_a < id_b, cosine) pairs with cosine ≥ threshold, scanned
    ONLY within each k-means cluster — one shuffle on the cluster id, never
    all-pairs. Cross-cluster near-dups are missed by design (that is the
    SemDeDup recall trade-off; raise k to tighten clusters, or union with
    the LSH `embedding_near_dups` for multi-probe recall)."""
    assigned = kmeans_assign(embeddings, centroids, id_col, vec_col,
                             keep_vec=True)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) < 2:
            return pd.DataFrame({"id_a": pd.array([], dtype="int64"),
                                 "id_b": pd.array([], dtype="int64"),
                                 "cosine": pd.array([], dtype="float64")})
        df = df.sort_values(id_col)
        ids = df[id_col].to_numpy()
        m = np.stack([np.asarray(v, dtype=np.float64) for v in df[vec_col]])
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        cos = (m / norms) @ (m / norms).T
        ii, jj = np.triu_indices(len(ids), k=1)
        keep = cos[ii, jj] >= threshold
        return pd.DataFrame({
            "id_a": pd.array(ids[ii[keep]], dtype="int64"),
            "id_b": pd.array(ids[jj[keep]], dtype="int64"),
            "cosine": round_half_up(cos[ii[keep], jj[keep]], 6),
        })

    return assigned.groupby("cluster").map_groups(verify, batch_format="pandas")


# ------------------------------------------------------ product quantization


def pq_train(embeddings: "ray.data.Dataset", m: int = 4, k: int = 16,
             n_iter: int = 4, id_col: str = "vec_id",
             vec_col: str = "embedding") -> np.ndarray:
    """Product-quantization codebooks (Jégou et al. 2011): the vector space
    is split into `m` contiguous subspaces and each gets its own k-means
    codebook — a PQ code stores a vector in m bytes instead of dim floats
    (the memory trick that makes billion-vector ANN fit in RAM).

    Training is FUSED: all m subspace Lloyd updates happen in ONE pass over
    the data per iteration (per-block partials keyed by (subspace, cluster),
    exact int64-scaled component sums — same determinism discipline as
    `kmeans_fit`). Init = the k smallest-id vectors, sliced per subspace
    (`kmeans_init` rule). Returns (m, k, dim/m) float64 codebooks."""
    rows = (embeddings.select_columns([id_col, vec_col])
            .sort(id_col).limit(k).take_all())
    full = np.stack([np.asarray(r[vec_col], dtype=np.float64) for r in rows])
    dim = full.shape[1]
    assert dim % m == 0, f"dim {dim} not divisible by m={m}"
    dsub = dim // m
    codebooks = np.ascontiguousarray(
        full.reshape(k, m, dsub).transpose(1, 0, 2))
    src = embeddings.select_columns([vec_col])

    for _ in range(n_iter):
        cref = ray.put(codebooks)

        def partial(batch: pd.DataFrame) -> pd.DataFrame:
            cb = ray.get(cref)
            x = _matrix(batch, vec_col)
            out = {"sub": [], "cluster": [], "count": [], "ssum": []}
            for s in range(m):
                xs = x[:, s * dsub:(s + 1) * dsub]
                labels, _ = _assign(xs, cb[s])
                scaled = np.rint(xs * _SCALE).astype(np.int64)
                for j in np.unique(labels):
                    sel = scaled[labels == j]
                    out["sub"].append(s)
                    out["cluster"].append(int(j))
                    out["count"].append(int(sel.shape[0]))
                    out["ssum"].append(sel.sum(axis=0))
            return pd.DataFrame(out)

        parts = src.map_batches(partial, batch_format="pandas").to_pandas()
        new = codebooks.copy()
        for s in range(m):
            for j in range(k):
                sel = parts[(parts["sub"] == s) & (parts["cluster"] == j)]
                if len(sel) == 0:
                    continue
                total = int(sel["count"].sum())
                ssum = np.sum(np.stack(sel["ssum"].to_numpy()), axis=0,
                              dtype=np.int64)
                new[s, j] = ssum.astype(np.float64) / (_SCALE * total)
        codebooks = new
    return codebooks


def pq_encode_matrix(x: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
    """(n, m) int codes for a row-matrix under (m, k, dsub) codebooks."""
    m, _, dsub = codebooks.shape
    codes = np.empty((x.shape[0], m), dtype=np.int64)
    for s in range(m):
        labels, _ = _assign(x[:, s * dsub:(s + 1) * dsub], codebooks[s])
        codes[:, s] = labels
    return codes


def knn_pq(embeddings: "ray.data.Dataset", codebooks: np.ndarray,
           query: np.ndarray, k: int = 10, id_col: str = "vec_id",
           vec_col: str = "embedding") -> "ray.data.Dataset":
    """PQ asymmetric-distance (ADC) top-k: per block, vectors are encoded
    and their distance to the query estimated as
    Σ_s ||q_s − codebook[s][code_s]||² via an (m × k) lookup table built
    once from the query — O(m) adds per vector, no full-precision vector
    math in the scan. Block-local top-k prune, bounded global sort.

    Output: (vec_id, adc) ascending (adc = estimated squared L2, rounded
    half-up to 6)."""
    cb = np.asarray(codebooks, dtype=np.float64)
    m, kcode, dsub = cb.shape
    qv = np.asarray(query, dtype=np.float64)
    lut = np.empty((m, kcode), dtype=np.float64)
    for s in range(m):
        diff = cb[s] - qv[s * dsub:(s + 1) * dsub]
        lut[s] = (diff * diff).sum(axis=1)
    cref, lref = ray.put(cb), ray.put(lut)

    def score_block(batch: pd.DataFrame) -> pd.DataFrame:
        cbl, lutl = ray.get(cref), ray.get(lref)
        x = _matrix(batch, vec_col)
        codes = pq_encode_matrix(x, cbl)
        # fixed s-order summation so engine and oracle add in the same order
        adc = np.zeros(x.shape[0], dtype=np.float64)
        for s in range(cbl.shape[0]):
            adc += lutl[s][codes[:, s]]
        out = pd.DataFrame({id_col: batch[id_col].astype("int64"),
                            "adc": round_half_up(adc, 6)})
        return out.sort_values(["adc", id_col]).head(k)

    scored = embeddings.select_columns([id_col, vec_col]).map_batches(
        score_block, batch_format="pandas")
    return scored.sort(["adc", id_col]).limit(k)


def label_centroids(embeddings: "ray.data.Dataset", scale: int = 1_000_000,
                    label_col: str = "label",
                    vec_col: str = "embedding") -> "ray.data.Dataset":
    """(label, d, n_vecs, centroid_scaled) — per-class embedding prototypes
    (nearest-class-mean / SemDeDup-style class statistics): each dimension
    of every vector is fixed-pointed to `scale` units (float64 cast →
    round-to-nearest int64, exact for |x| ≲ 9e12/scale) and the per-label
    per-dimension mean is the floor-divided exact integer sum — bitwise
    partitioning-invariant, unlike a float mean whose partial order drifts.

    Scale shape: one vectorized pass computes per-(label) per-dimension
    int64 partial sums INSIDE each block (a (labels × dim)-row partial per
    block, never the vectors), one partial+final aggregation on (label, d)
    finishes. Label cardinality × dim is the only shuffled row count."""
    from ..aggregates import partial_final_agg

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        m = _matrix(batch, vec_col)
        fixed = np.rint(m * float(scale)).astype(np.int64)
        labels = batch[label_col].to_numpy()
        dim = m.shape[1]
        frames = []
        for lab in np.unique(labels):
            rows = fixed[labels == lab]
            frames.append(pd.DataFrame({
                "label": np.full(dim, lab),
                "d": np.arange(1, dim + 1, dtype=np.int64),
                "s_part": rows.sum(axis=0),
                "n_part": np.full(dim, rows.shape[0], dtype=np.int64),
            }))
        return pd.concat(frames, ignore_index=True)

    agg = partial_final_agg(
        embeddings.select_columns([label_col, vec_col]).map_batches(
            partials, batch_format="pandas"),
        ["label", "d"], [("s_sum", "s_part", "sum"),
                         ("n_vecs", "n_part", "sum")])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        s = df["s_sum"].to_numpy("int64")
        n = df["n_vecs"].to_numpy("int64")
        # DuckDB integer // truncates toward zero (checked: -7//2 = -3);
        # mirror with exact int64 sign * (|s| // n) — no float division,
        # which would lose exactness past 2^53
        cent = np.sign(s) * (np.abs(s) // n)
        out = pd.DataFrame({
            "label": df["label"].to_numpy(),
            "d": df["d"].to_numpy("int64"),
            "n_vecs": n,
            "centroid_scaled": cent,
        })
        return out

    return agg.map_batches(finish, batch_format="pandas")


def knn_graph(embeddings: "ray.data.Dataset", centroids: np.ndarray,
              k: int = 5, id_col: str = "vec_id",
              vec_col: str = "embedding") -> "ray.data.Dataset":
    """(vec_id, nb_id, cosine) — approximate k-NN graph over the embedding
    column: every vector's top-`k` cosine neighbors WITHIN its coarse
    k-means cell (nprobe=1 — the SemDeDup in-cluster contract; cross-cell
    neighbors are sacrificed by design, exactly like `semantic_dedup`'s
    pair scope). Neighbor order is (cosine DESC on the 6-dp rounding,
    nb_id ASC) so the result is deterministic across engines and
    partitionings; cells smaller than k+1 emit what they have. The
    building block for kNN-graph clustering / connectivity-based semantic
    dedup at corpus scale.

    Scale shape: one vectorized assignment pass stamps the cell id
    (centroids broadcast once via ray.put), ONE shuffle groups each cell
    into a single task, and the in-cell exact compare is a row-block ×
    cellᵀ matmul chunked by `joins.score_chunks` (the bound of every LSH
    verify);
    size the centroid count ~sqrt(n) so cells stay task-sized."""
    cref = ray.put(np.asarray(centroids, dtype=np.float64))

    def stamp(batch: pd.DataFrame) -> pd.DataFrame:
        c = ray.get(cref)
        m = _matrix(batch, vec_col)
        labels, _ = _assign(m, c)
        return pd.DataFrame({
            id_col: batch[id_col].values,
            "cluster": labels.astype(np.int32),
            vec_col: batch[vec_col].values,
        })

    stamped = embeddings.select_columns([id_col, vec_col]).map_batches(
        stamp, batch_format="pandas")

    def per_cell(df: pd.DataFrame) -> pd.DataFrame:
        ids = df[id_col].to_numpy(dtype=np.int64)
        m = _matrix(df, vec_col)
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0.0] = 1.0
        m = m / norms[:, None]
        n = len(ids)
        if n < 2:
            return pd.DataFrame({id_col: pd.Series(dtype="int64"),
                                 "nb_id": pd.Series(dtype="int64"),
                                 "cosine": pd.Series(dtype="float64")})
        out_src, out_nb, out_cos = [], [], []
        for lo, cos in score_chunks(
                m, m, lambda a, b: round_half_up(a @ b.T, 6)):
            for r in range(len(cos)):
                row = cos[r].copy()
                row[lo + r] = np.inf  # exclude self by POSITION
                order = np.lexsort((ids, -row))
                take = order[row[order] != np.inf][:k]
                out_src.append(np.full(len(take), ids[lo + r],
                                       dtype=np.int64))
                out_nb.append(ids[take])
                out_cos.append(row[take])
        return pd.DataFrame({
            id_col: np.concatenate(out_src),
            "nb_id": np.concatenate(out_nb),
            "cosine": np.concatenate(out_cos),
        })

    return stamped.groupby("cluster").map_groups(per_cell,
                                                 batch_format="pandas")


def embedding_link(embeddings: "ray.data.Dataset", scale: int = 1_000_000,
                   id_col: str = "vec_id", label_col: str = "label",
                   vec_col: str = "embedding") -> "ray.data.Dataset":
    """(vec_id, label, label_pred, dist_scaled2, match) — link every
    embedding to its nearest CLASS PROTOTYPE (the label_centroids
    fixed-point means): the entity-linking shape (mention embedding →
    candidate entity prototype) over the embeddings table.

    Exactness: vectors fixed-point to `scale` units (int64), centroids are
    label_centroids' exact truncated integer means, and the squared L2
    distance is an int64 sum of squared integer differences — every
    quantity is an exact integer, so argmin + (distance, label ASC)
    tie-break is bitwise deterministic across partitionings and matches
    the single-threaded oracle re-walk with no float surface at all.

    Scale shape: the prototype table is tiny (labels × dim) — collected
    once, `ray.put` once; assignment is one vectorized pass over the
    embedding blocks (int64 GEMM via the expanded form x²-2xc+c², exact in
    int64 well past any realistic dim × scale²)."""
    from .. import aggregates as _agg  # noqa: F401 (parity with family)

    cents = label_centroids(embeddings, scale=scale, label_col=label_col,
                            vec_col=vec_col).to_pandas()
    labels = sorted(cents["label"].unique())
    dim = int(cents["d"].max())
    C = np.zeros((len(labels), dim), dtype=np.int64)
    lab_ix = {lab: i for i, lab in enumerate(labels)}
    C[cents["label"].map(lab_ix).to_numpy(),
      cents["d"].to_numpy("int64") - 1] = cents["centroid_scaled"].to_numpy("int64")
    c_ref = ray.put((labels, C, (C.astype(np.int64) ** 2).sum(axis=1)))

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        labs, cmat, c2 = ray.get(c_ref)
        x = np.rint(_matrix(batch, vec_col) * float(scale)).astype(np.int64)
        # expanded form is EXACT here (all int64): ||x-c||² = x² - 2xc + c²
        x2 = (x ** 2).sum(axis=1)
        dist = x2[:, None] - 2 * (x @ cmat.T) + c2[None, :]
        best = dist.argmin(axis=1)  # ties -> first = smallest label (sorted)
        pred = np.array(labs, dtype=object)[best]
        true = batch[label_col].to_numpy()
        return pd.DataFrame({
            "vec_id": batch[id_col].to_numpy(),
            "label": true,
            "label_pred": pred,
            "dist_scaled2": dist[np.arange(len(best)), best],
            "match": (true == pred).astype(np.int64),
        })

    return embeddings.select_columns([id_col, label_col, vec_col]).map_batches(
        assign, batch_format="pandas")


def embedding_outliers(embeddings: "ray.data.Dataset", centroids: np.ndarray,
                       k_out: int = 10,
                       id_col: str = "vec_id",
                       vec_col: str = "embedding") -> "ray.data.Dataset":
    """(vec_id, cluster, dist_scaled, cluster_mean_scaled) — embedding-space
    outlier report for data curation: the `k_out` FARTHEST rows from each
    k-means centroid (ties broken by vec_id asc), each carrying its
    cluster's exact mean distance for context. The inspect-list a
    SemDeDup-style curation pass reviews for mislabeled / off-distribution
    vectors; a top-k rule (not a mean-multiple gate) so the report is
    non-degenerate on tightly concentrated distributions.

    Scale shape: ONE assignment scan emits per-(block, cluster) count/sum
    partials (k-row reduce, broadcast back via `ray.put`) and a SECOND
    scan emits only its block-local per-cluster top-`k_out` candidates —
    the final exact top-k sees ≤ blocks·k·k_out rows, never the corpus
    (same block-local-prune discipline as `knn_brute_force`). Distances
    are `kmeans_assign`'s 6-dp-rounded values lifted to exact int64, so
    ordering and the mean are integer-exact under any partitioning."""
    cref = ray.put(np.asarray(centroids, dtype=np.float64))

    def dist_scaled_of(batch: pd.DataFrame) -> tuple:
        c = ray.get(cref)
        m = _matrix(batch, vec_col)
        labels, d2 = _assign(m, c)
        ds6 = round_half_up(np.sqrt(d2), 6)
        return labels, np.rint(ds6 * 1e6).astype(np.int64)

    def stat_partials(batch: pd.DataFrame) -> pd.DataFrame:
        labels, dist_s = dist_scaled_of(batch)
        g = pd.DataFrame({"cluster": labels.astype(np.int32),
                          "n_p": np.ones(len(labels), dtype=np.int64),
                          "s_p": dist_s})
        return g.groupby("cluster", as_index=False)[["n_p", "s_p"]].sum()

    from ..aggregates import partial_final_agg

    stats = partial_final_agg(
        embeddings.select_columns([id_col, vec_col]).map_batches(
            stat_partials, batch_format="pandas"),
        ["cluster"], [("n", "n_p", "sum"), ("s", "s_p", "sum")]).to_pandas()
    n_by = np.zeros(len(centroids), dtype=np.int64)
    s_by = np.zeros(len(centroids), dtype=np.int64)
    n_by[stats["cluster"].to_numpy("int64")] = stats["n"].to_numpy("int64")
    s_by[stats["cluster"].to_numpy("int64")] = stats["s"].to_numpy("int64")
    stats_ref = ray.put((n_by, s_by))

    def block_topk(batch: pd.DataFrame) -> pd.DataFrame:
        n_c, s_c = ray.get(stats_ref)
        labels, dist_s = dist_scaled_of(batch)
        g = pd.DataFrame({
            id_col: batch[id_col].to_numpy(),
            "cluster": labels.astype(np.int32),
            "dist_scaled": dist_s,
            "cluster_mean_scaled": s_c[labels] // np.maximum(n_c[labels], 1),
        }).sort_values(["cluster", "dist_scaled", id_col],
                       ascending=[True, False, True], kind="mergesort")
        return g.groupby("cluster", sort=False).head(k_out)

    cand = embeddings.select_columns([id_col, vec_col]).map_batches(
        block_topk, batch_format="pandas").to_pandas()
    # final exact top-k over <= blocks*k*k_out candidate rows (tiny)
    cand = cand.sort_values(["cluster", "dist_scaled", id_col],
                            ascending=[True, False, True], kind="mergesort")
    return cand.groupby("cluster", sort=False).head(k_out).reset_index(
        drop=True)
