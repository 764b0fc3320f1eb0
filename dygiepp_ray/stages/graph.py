"""Graph analytics over the materialized KG edge table (the step after
`pipelines/kg.py:graph_edges` — SURVEY.md §3.2's `networkx.MultiDiGraph`
consumer, re-expressed as distributed fixpoint iterations; reference builds
the graph at make_kb.py:97-103 but offers no analytics beyond counts).

Two execution modes, dispatched on the node-vocabulary size (`mode="auto"`):

- **broadcast** (|V| fits in a worker's heap — the common case for a KG,
  whose nodes are canonicalized entity spans, a vocabulary orders of
  magnitude smaller than the edge set): per-node state (labels, rank
  units, alive masks) lives in driver numpy arrays over the sorted node
  vocabulary. Each algorithm writes every pass ONCE, as a kernel
  `(edge columns, state) -> (node idx, values)`; `_EdgePasses` runs that
  one kernel in one of two executions:
  - at most `LOCAL_MAX_EDGES` edges: the int edge columns are collected to
    the driver once and every pass is local numpy over them;
  - above: the state is `ray.put` once per pass and the kernel runs per
    int-indexed edge block in `map_batches`; each block scatters into a
    dense |V| array and ships only its touched entries, which the driver
    merges with the pass's ufunc (`add`, `minimum`, `maximum`). The two
    label-spreading algorithms count votes under sparse (node, label) keys
    instead and get a sparse-sum merge.
  Both executions merge the same kernel output with the same ufunc (int
  adds commute, min/max are idempotent), so they are bit-identical. Zero
  shuffles per pass; the edge set streams at any size.
- **shuffle** (|V| itself exceeds memory — e.g. URL-graph scale): the
  bucketed-`hash_join` + partial+final-aggregation fixpoint below; each
  iteration is a bounded number of key-partitioned shuffles, never a
  driver-side adjacency structure.

Determinism discipline (driver value-hash oracles hold in BOTH modes):

- connected components: min-label propagation; `min` is order-independent,
  so distributed evaluation matches a single-threaded union-find exactly.
  Node indices are assigned in sorted-name order, so index-min == name-min.
- PageRank: FIXED-POINT integer arithmetic — ranks live as int64
  micro-units and every share uses floor division
  (`units * 85 // (100 * outdeg)`), so partial sums are exact int64 and
  order-independent. This is a deterministic spec (documented mass loss to
  rounding and dangling nodes), not IEEE-float PageRank — the float `rank`
  column is derived from the integers, identically on engine and oracle.
  Uniform, personalized and weighted PageRank are one iteration: uniform
  is personalized with every node seeded, unweighted is weight 1.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..aggregates import grouped_count, partial_final_agg, strip_schema_metadata
from ..joins import _arrow_types, hash_join

UNITS = 1_000_000_000  # 1.0 of rank mass, in micro-units
DAMP_NUM, DAMP_DEN = 85, 100  # damping 0.85 as an exact ratio


def _nodes_of(edges: "ray.data.Dataset", src: str, dst: str) -> "ray.data.Dataset":
    """Distinct node set of an edge table (both endpoints), via per-block
    dedup then a grouped count (shuffle moves ≤ one row per (node, block))."""

    def both(t: pa.Table) -> pa.Table:
        chunks = list(t.column(src).chunks) + list(t.column(dst).chunks)
        arr = pa.chunked_array(chunks, t.column(src).type)
        return pa.table({"node": arr.unique()})

    return grouped_count(edges.map_batches(both, batch_format="pyarrow"),
                         ["node"], out_name="_n").select_columns(["node"])


def _pick_mode(mode: str, edges: "ray.data.Dataset", src: str, dst: str,
               max_nodes: int) -> str:
    """`mode`, with "auto" resolved by the broadcast admission: the node
    vocabulary is small enough to broadcast. The distinct-count is one
    partial+final aggregation (cheap: ≤ one row per (node, block)
    shuffles)."""
    if mode != "auto":
        return mode
    if _nodes_of(edges, src, dst).count() <= max_nodes:
        return "broadcast"
    return "shuffle"


def _index_edges(edges: "ray.data.Dataset", src: str, dst: str,
                 weight: str | None = None):
    """(names, indexed_edges) — names is the sorted node vocabulary (numpy
    object array, bounded by the broadcast-mode assumption |V| ≪ |E|);
    indexed_edges is the edge set re-expressed as int32 (s, d) columns,
    plus the int64 `weight` column as `w` when given, materialized once so
    every pass is pure numpy over it."""
    # the edge table is consumed twice (node vocab, then indexing) — pin it
    # once so a lazy upstream pipeline (e.g. the extraction kernel feeding
    # kg_components/kg_pagerank) doesn't re-execute per consumption
    edges = edges.materialize()
    name_rows = _nodes_of(edges, src, dst).take_all()
    names = np.array(sorted(r["node"] for r in name_rows), dtype=object)
    idx_ref = ray.put({n: i for i, n in enumerate(names)})

    def to_idx(df: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(idx_ref)
        out = {"s": df[src].map(m).to_numpy(dtype=np.int32),
               "d": df[dst].map(m).to_numpy(dtype=np.int32)}
        if weight is not None:
            out["w"] = df[weight].to_numpy(dtype=np.int64)
        return pd.DataFrame(out)

    cols = [src, dst] if weight is None else [src, dst, weight]
    indexed = edges.select_columns(cols).map_batches(
        to_idx, batch_format="pandas").materialize()
    return names, indexed


# Below this edge count the indexed edge columns (8 B/edge) are collected
# to the driver ONCE and every broadcast-mode pass runs as local numpy —
# bit-identical to the per-block distributed passes but without paying one
# Ray dataset execution per pass, which dominates wall time on small
# post-aggregation graphs (a deduped KG edge table).
LOCAL_MAX_EDGES = 2_000_000


def _collect_indexed(indexed: "ray.data.Dataset") -> dict:
    """{column: array} of a small materialized indexed-edge dataset."""
    parts: dict[str, list] = {}
    for b in indexed.iter_batches(batch_format="numpy", batch_size=None):
        for c, v in b.items():
            parts.setdefault(c, []).append(v)
    if not parts:
        return {"s": np.zeros(0, np.int32), "d": np.zeros(0, np.int32)}
    return {c: np.concatenate(v) for c, v in parts.items()}


def _sum_by_key(keys: np.ndarray, cnts: np.ndarray):
    """(unique keys, summed counts) of sparse int64 partials."""
    uk, inv = np.unique(keys, return_inverse=True)
    out = np.zeros(len(uk), dtype=np.int64)
    np.add.at(out, inv, cnts)
    return uk, out


class _EdgePasses:
    """Every broadcast-mode pass over one int-indexed edge set.

    A pass is a kernel `(cols, state) -> (idx, vals)`, where `cols` holds
    the edge columns (`s`, `d`, and `w` when weighted). At most
    `LOCAL_MAX_EDGES` edges, the columns are collected here, once, and the
    kernel runs on them locally. Above, `state` is `ray.put` once per pass
    and the kernel runs per edge block in `map_batches`."""

    def __init__(self, indexed: "ray.data.Dataset"):
        self.indexed = indexed
        self.cols = (_collect_indexed(indexed)
                     if indexed.count() <= LOCAL_MAX_EDGES else None)

    def _per_block(self, part, state):
        ref = ray.put(state)
        return self.indexed.map_batches(
            lambda b: part(b, ray.get(ref)), batch_format="numpy"
        ).iter_batches(batch_format="numpy", batch_size=None)

    def scatter(self, kernel, state, ufunc, out: np.ndarray) -> np.ndarray:
        """`ufunc.at(out, idx, vals)` over every edge's kernel output, in
        place; returns `out` (int64). Streamed, each block scatters into a
        dense |V|-sized array of the ufunc's identity and ships only the
        entries it touched — no `np.unique` over the block."""
        if self.cols is not None:
            ufunc.at(out, *kernel(self.cols, state))
            return out
        n, dt = len(out), out.dtype  # not `out`: the closure ships per pass
        info = np.iinfo(dt)
        ident = {np.add: 0, np.minimum: info.max, np.maximum: info.min}[ufunc]

        def part(b: dict, st) -> dict:
            acc = np.full(n, ident, dt)
            ufunc.at(acc, *kernel(b, st))
            touched = np.nonzero(acc != ident)[0]
            return {"n": touched, "v": acc[touched]}

        for b in self._per_block(part, state):
            ufunc.at(out, b["n"], b["v"])
        return out

    def votes(self, kernel, state):
        """(keys, counts): the sparse sum of `kernel(cols, state) ->
        (unique int64 keys, counts)` over every edge. For vote counts under
        (node, label) keys, whose key space is too large for a dense array;
        the streamed merge re-compacts past 4M buffered keys."""
        if self.cols is not None:
            return kernel(self.cols, state)

        def part(b: dict, st) -> dict:
            k, c = kernel(b, st)
            return {"k": k, "c": c}

        keys, cnts = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        buffered = 0
        for b in self._per_block(part, state):
            keys.append(b["k"])
            cnts.append(b["c"])
            buffered += len(b["k"])
            if buffered > 4_000_000:
                uk, uc = _sum_by_key(np.concatenate(keys), np.concatenate(cnts))
                keys, cnts, buffered = [uk], [uc], len(uk)
        return _sum_by_key(np.concatenate(keys), np.concatenate(cnts))


def _broadcast_edges(edges: "ray.data.Dataset", src: str, dst: str,
                     max_nodes: int, who: str, weight: str | None = None):
    """(names, _EdgePasses) of a broadcast-mode algorithm, after the |V|
    admission: a vocabulary above `max_nodes` is an explicit error, not a
    silent driver-memory cliff."""
    names, indexed = _index_edges(edges, src, dst, weight)
    if len(names) > max_nodes:
        raise ValueError(
            f"{who}: |V|={len(names)} exceeds the broadcast admission "
            f"({max_nodes}); use mode='shuffle' where the operator has one")
    return names, _EdgePasses(indexed)


def _min_label_step(cols: dict, lab: np.ndarray):
    """CC pass: each endpoint is offered the other endpoint's label (min).
    Unfiltered: compressing the edge arrays to the lowering offers costs
    more than scattering them all."""
    s, d = cols["s"], cols["d"]
    return np.concatenate([s, d]), np.concatenate([lab[d], lab[s]])


def _components_broadcast(edges: "ray.data.Dataset", src: str, dst: str,
                          max_iter: int, max_nodes: int) -> "ray.data.Dataset":
    """Broadcast-mode CC: labels = one int64 array over the sorted node
    vocabulary; each round is one min-scatter edge pass, then driver-side
    pointer compression (labels[labels]) — so rounds ≈ O(log diameter),
    not diameter."""
    names, passes = _broadcast_edges(edges, src, dst, max_nodes,
                                     "connected_components")
    labels = np.arange(len(names), dtype=np.int64)
    for _ in range(max_iter):
        before = labels.copy()
        passes.scatter(_min_label_step, before, np.minimum, labels)
        # pointer compression (pure acceleration; fixpoint is unchanged)
        while True:
            nxt = np.minimum(labels, labels[labels])
            if (nxt == labels).all():
                break
            labels = nxt
        if (labels == before).all():
            break
    return ray.data.from_arrow(pa.table({
        "node": pa.array(list(names)),
        "component": pa.array(list(names[labels]))}))


def _out_mass(cols: dict, _state):
    """PageRank pass: each edge's weight (1 when unweighted) at its source —
    summed, the out-weight W_out; maxed, the largest out-edge weight."""
    s = cols["s"]
    return s, cols["w"] if "w" in cols else np.ones(len(s), np.int64)


def _deliver_shares(cols: dict, shares: tuple):
    """PageRank pass: Σ over u→v of floor(units(u)·85·w / (100·W_out(u)))
    at v, exactly, as q·w + (r·w)//b with (q, r) = divmod(units(u)·85, b)
    and b = 100·W_out(u). Unweighted (w ≡ 1) that is q, since r < b."""
    q, s = shares[0], cols["s"]
    if "w" not in cols:
        return cols["d"], q[s]
    _, r, b = shares
    w = cols["w"]
    return cols["d"], q[s] * w + (r[s] * w) // np.maximum(b[s], 1)


def _pagerank_broadcast(edges: "ray.data.Dataset", src: str, dst: str,
                        n_iter: int, max_nodes: int, who: str,
                        seeds: set | None = None,
                        weight: str | None = None) -> "ray.data.Dataset":
    """Broadcast-mode PageRank, the one iteration behind
    `pagerank_fixedpoint` (`seeds=None`: every node seeded),
    `personalized_pagerank` and `pagerank_weighted` (`weight`): per
    iteration one add-scatter edge pass delivering the exact integer
    shares."""
    from ..functions.strings import round_half_up

    names, passes = _broadcast_edges(edges, src, dst, max_nodes, who, weight)
    n = len(names)
    wout = passes.scatter(_out_mass, None, np.add, np.zeros(n, np.int64))
    if weight is not None:
        wmax = passes.scatter(_out_mass, None, np.maximum,
                              np.full(n, np.iinfo(np.int64).min))
        assert (DAMP_DEN * int(wout.max(initial=0))
                * max(int(wmax.max(initial=0)), 1) < 2 ** 63), \
            "pagerank_weighted: 100·max(W_out)·max(w) must fit int64"
    if seeds is None:
        seeded, k = np.ones(n, dtype=bool), n
    else:
        seeded = np.fromiter((nm in seeds for nm in names), bool, n)
        k = len(seeds)
    base = np.where(seeded, np.int64(UNITS * (DAMP_DEN - DAMP_NUM) // DAMP_DEN),
                    np.int64(0))
    units = np.where(seeded, np.int64(UNITS), np.int64(0))
    b = DAMP_DEN * wout
    nz = wout > 0
    for _ in range(n_iter):
        q = np.zeros(n, dtype=np.int64)
        r = np.zeros(n, dtype=np.int64)
        q[nz], r[nz] = np.divmod(units[nz] * DAMP_NUM, b[nz])
        shares = (q,) if weight is None else (q, r, b)
        units = base + passes.scatter(_deliver_shares, shares, np.add,
                                      np.zeros(n, np.int64))
    rank = round_half_up(units.astype(np.float64) / (k * UNITS), 9)
    return ray.data.from_arrow(pa.table({
        "node": pa.array(list(names), pa.string()),
        "rank_units": pa.array(units, pa.int64()),
        "rank": pa.array(rank, pa.float64())}))


def connected_components(edges: "ray.data.Dataset", src: str = "src",
                         dst: str = "dst", max_iter: int = 50,
                         n_buckets: int = 32, mode: str = "auto",
                         broadcast_max_nodes: int = 5_000_000
                         ) -> "ray.data.Dataset":
    """(node, component) — component = the MINIMUM node id (lexicographic
    for strings) of the node's weakly-connected component.

    `mode`: "broadcast" (label array broadcast, zero shuffles/round),
    "shuffle" (bucketed-join fixpoint for huge vocabularies), or "auto"."""
    if _pick_mode(mode, edges, src, dst, broadcast_max_nodes) == "broadcast":
        return _components_broadcast(edges, src, dst, max_iter,
                                     broadcast_max_nodes)
    return _components_shuffle(edges, src, dst, max_iter, n_buckets)


def _bound_blocks(ds: "ray.data.Dataset", n_buckets: int,
                  factor: int = 4) -> "ray.data.Dataset":
    """Cap an iterative state's block count. The Sort-based bucketed joins
    emit ≈ (sum of input blocks) output blocks, so an un-capped fixpoint
    state DOUBLES its block count every round — per-task overhead then
    dominates wall time within ~8 rounds (measured: 3→7→15→31→63→127
    blocks over 6 color rounds) and scheduler pressure grows the same way
    at cluster scale. The check is metadata-only on a materialized
    dataset; the repartition runs only when over the cap."""
    if ds.num_blocks() > factor * n_buckets:
        return ds.repartition(n_buckets).materialize()
    return ds


def _symmetrize(edges: "ray.data.Dataset", src: str, dst: str,
                weight: str | None = None) -> "ray.data.Dataset":
    """(src, dst[, weight]) rows of every edge in both directions (a
    reversed edge keeps its weight); duplicates are the caller's to drop."""

    def both(t: pa.Table) -> pa.Table:
        u, v = t.column(src), t.column(dst)
        out = {src: pa.chunked_array(list(u.chunks) + list(v.chunks), u.type),
               dst: pa.chunked_array(list(v.chunks) + list(u.chunks), u.type)}
        if weight is not None:
            w = t.column(weight)
            out[weight] = pa.chunked_array(list(w.chunks) * 2, w.type)
        return pa.table(out)

    cols = [src, dst] if weight is None else [src, dst, weight]
    return edges.select_columns(cols).map_batches(both, batch_format="pyarrow")


def _components_shuffle(edges: "ray.data.Dataset", src: str,
                        dst: str, max_iter: int,
                        n_buckets: int) -> "ray.data.Dataset":
    """Shuffle-mode CC (|V| beyond broadcast): min-label propagation to
    fixpoint — each iteration joins current labels onto the (symmetrized)
    edges and takes the grouped min of neighbor labels vs own label.
    Iterations are driver-coordinated but all data motion is bucketed
    shuffles; per-iteration convergence is detected with a tiny changed-row
    count. Label diameter bounds iterations (≤ graph diameter); `max_iter`
    is a safety stop."""
    sym_edges = _symmetrize(edges, src, dst).materialize()
    labels = _nodes_of(edges, src, dst).map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "label": t.column("node")}),
        batch_format="pyarrow").materialize()
    node_type = pa.string()

    for _ in range(max_iter):
        # neighbor labels: label(src) delivered to dst
        nbr = hash_join(
            sym_edges, labels.map_batches(
                lambda t: t.rename_columns([src, "label"]),
                batch_format="pyarrow"),
            on=src, n_buckets=n_buckets,
            left_types={src: node_type, dst: node_type},
            right_types={src: node_type, "label": node_type},
            bucket_post=lambda df: df.groupby(dst, as_index=False)
                                     .agg(nbr_min=("label", "min")),
        )
        cand = partial_final_agg(
            nbr.map_batches(lambda t: t.rename_columns(["node", "nbr_min"]),
                            batch_format="pyarrow"),
            ["node"], [("nbr_min", "nbr_min", "min")])
        merged = hash_join(
            labels, cand, on="node", n_buckets=n_buckets, how="left",
            left_types={"node": node_type, "label": node_type},
            right_types={"node": node_type, "nbr_min": node_type},
        )

        def take_min(t: pa.Table) -> pa.Table:
            new = pc.min_element_wise(t.column("label"),
                                      t.column("nbr_min"),
                                      skip_nulls=True)
            return pa.table({
                "node": t.column("node"), "label": new,
                "_changed": pc.cast(pc.not_equal(new, t.column("label")),
                                    pa.int32()),
            })

        stepped = _bound_blocks(
            merged.map_batches(take_min, batch_format="pyarrow").materialize(),
            n_buckets)
        changed = stepped.sum("_changed") or 0
        labels = stepped.select_columns(["node", "label"])
        if changed == 0:
            break
    return labels.map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "component": t.column("label")}),
        batch_format="pyarrow")


def pagerank_fixedpoint(edges: "ray.data.Dataset", src: str = "src",
                        dst: str = "dst", n_iter: int = 10,
                        n_buckets: int = 32, mode: str = "auto",
                        broadcast_max_nodes: int = 5_000_000
                        ) -> "ray.data.Dataset":
    """(node, rank_units, rank) after `n_iter` fixed-point iterations.

    `mode` as in `connected_components` (identical result either way).

    Spec (exact integer arithmetic, see module docstring):
      units⁰(v)   = UNITS
      share(u)    = units(u) * 85 // (100 * outdeg(u))
      unitsᵗ⁺¹(v) = base + Σ_{(u,v)∈E} share(u),
      base        = (N * UNITS) * 15 // (100 * N)  (= UNITS * 15 // 100)
    Mass lost to floor rounding and dangling nodes is NOT redistributed
    (deterministic spec choice; documented). `rank` = units / (N * UNITS)
    rounded half-up to 9 decimals — derived from the integers, so it hashes
    identically everywhere. This is `personalized_pagerank` with every node
    seeded (k = N), and runs as that same iteration."""
    if _pick_mode(mode, edges, src, dst, broadcast_max_nodes) == "broadcast":
        return _pagerank_broadcast(edges, src, dst, n_iter,
                                   broadcast_max_nodes, "pagerank_fixedpoint")
    return _pagerank_shuffle(edges, src, dst, n_iter, n_buckets)


def _pagerank_shuffle(edges: "ray.data.Dataset", src: str, dst: str,
                      n_iter: int, n_buckets: int,
                      seeds: set | None = None) -> "ray.data.Dataset":
    """Shuffle-mode PageRank (|V| beyond broadcast): each iteration = two
    bucketed joins (rank⋈outdeg → share; share delivered along edges with
    the grouped sum pushed into the join task) + one partial+final sum.
    Teleport and initial mass sit on the `seeds` nodes; `seeds=None` seeds
    every node without collecting the node set (k = its count)."""
    from ..functions.strings import round_half_up

    e = edges.select_columns([src, dst]).map_batches(
        lambda t: t.rename_columns(["u", "v"]),
        batch_format="pyarrow").materialize()
    nodes = _nodes_of(edges, src, dst).materialize()
    k = nodes.count() if seeds is None else len(seeds)
    base = UNITS * (DAMP_DEN - DAMP_NUM) // DAMP_DEN
    node_type = pa.string()
    seed_arr = None if seeds is None else pa.array(sorted(seeds), pa.string())

    outdeg = partial_final_agg(
        e.map_batches(lambda t: pa.table({"node": t.column("u")}),
                      batch_format="pyarrow"),
        ["node"], [("outdeg", None, "count")]).materialize()

    def init_units(t: pa.Table) -> pa.Table:
        if seed_arr is None:
            return t.append_column(
                "units", pa.array(np.full(t.num_rows, UNITS), pa.int64()))
        return t.append_column("units", pc.if_else(
            pc.is_in(t.column("node"), value_set=seed_arr),
            pa.scalar(UNITS, pa.int64()), pa.scalar(0, pa.int64())))

    ranks = nodes.map_batches(init_units, batch_format="pyarrow").materialize()

    for _ in range(n_iter):
        # share per source node (rank joined to outdeg — both keyed by node)
        shares = hash_join(
            ranks, outdeg, on="node", n_buckets=n_buckets,
            left_types={"node": node_type, "units": pa.int64()},
            right_types={"node": node_type, "outdeg": pa.int64()},
            bucket_post=lambda df: pd.DataFrame({
                "node": df["node"],
                "share": (df["units"].to_numpy() * DAMP_NUM)
                         // (DAMP_DEN * df["outdeg"].to_numpy()),
            }),
        )
        # deliver shares along edges, sum per destination
        delivered = hash_join(
            e, shares.map_batches(lambda t: t.rename_columns(["u", "share"]),
                                  batch_format="pyarrow"),
            on="u", n_buckets=n_buckets,
            left_types={"u": node_type, "v": node_type},
            right_types={"u": node_type, "share": pa.int64()},
            bucket_post=lambda df: df.groupby("v", as_index=False)
                                     .agg(in_sum=("share", "sum")),
        )
        summed = partial_final_agg(
            delivered.map_batches(lambda t: t.rename_columns(["node", "in_sum"]),
                                  batch_format="pyarrow"),
            ["node"], [("in_sum", "in_sum", "sum")])
        joined = hash_join(
            nodes, summed, on="node", n_buckets=n_buckets, how="left",
            left_types={"node": node_type},
            right_types={"node": node_type, "in_sum": pa.int64()},
        )

        def refresh(df: pd.DataFrame) -> pd.DataFrame:
            s = df["in_sum"].fillna(0).astype("int64")
            b = (base if seeds is None
                 else np.where(df["node"].isin(seeds), base, 0))
            return pd.DataFrame({"node": df["node"],
                                 "units": (b + s).astype("int64")})

        ranks = _bound_blocks(
            joined.map_batches(refresh, batch_format="pandas").materialize(),
            n_buckets)

    def finalize(t: pa.Table) -> pa.Table:
        units = t.column("units").to_numpy(zero_copy_only=False)
        rank = round_half_up(units.astype(np.float64) / (k * UNITS), 9)
        return pa.table({"node": t.column("node"),
                         "rank_units": t.column("units"),
                         "rank": pa.array(rank, pa.float64())})

    return ranks.map_batches(finalize, batch_format="pyarrow")


def khop_subgraph(edges: "ray.data.Dataset", seeds: "ray.data.Dataset",
                  src: str = "src", dst: str = "dst", hops: int = 2,
                  n_buckets: int = 32,
                  node_type: "pa.DataType | None" = None) -> "ray.data.Dataset":
    """Directed k-hop subgraph expansion: the edges reachable from `seeds`
    in at most `hops` steps, each stamped with the smallest hop number that
    reaches it (reference consumer: the networkx MultiDiGraph built at
    make_kb.py:97-103 is exactly what users slice neighborhoods out of).

    Scale shape: each hop is ONE bucketed semi-join (`hash_join` of the
    edge table against the current frontier on the edge source), and the
    frontier itself is a grouped-distinct Dataset — it never lands on the
    driver, so hub-explosion frontiers (millions of nodes after 2 hops in
    a web-scale KG) spill instead of OOMing. The final min-hop combine is
    a partial+final aggregation over the per-hop edge sets.

    `seeds` must have exactly one column named `src`. `edges` should be a
    DISTINCT edge table (callers dedup first); pass `node_type` to skip
    schema probes on lazy inputs.
    """
    if node_type is None:
        node_type = _arrow_types(edges)[src]
    nt = node_type
    etypes = {src: nt, dst: nt}
    per_hop: list["ray.data.Dataset"] = []
    frontier = seeds
    for h in range(1, hops + 1):
        eh = hash_join(
            edges, frontier, on=src, n_buckets=n_buckets,
            left_cols=[src, dst], right_cols=[src],
            left_types=etypes, right_types={src: nt},
        )

        def stamp(t: pa.Table, _h=h) -> pa.Table:
            t = strip_schema_metadata(t)
            return t.append_column("hop", pa.array([_h] * t.num_rows,
                                                   pa.int64()))

        eh = eh.map_batches(stamp, batch_format="pyarrow")
        # the edge set is re-consumed per hop AND by the final union —
        # materialize each hop once (object store, spillable)
        eh = eh.materialize()
        per_hop.append(eh)
        if h < hops:
            # next frontier: distinct reached nodes, renamed to the source
            # column (grouped dedup — one row per node, stays distributed)
            frontier = grouped_count(
                eh.select_columns([dst]), [dst], out_name="_n"
            ).map_batches(
                lambda t: t.select([dst]).rename_columns([src]),
                batch_format="pyarrow")

    union = per_hop[0]
    for e in per_hop[1:]:
        union = union.union(e)
    return partial_final_agg(union, [src, dst], [("hop", "hop", "min")])


# ------------------------------------------------------------------ k-core


def kcore_decomposition(edges: "ray.data.Dataset", src: str = "src",
                        dst: str = "dst", mode: str = "auto",
                        n_buckets: int = 32,
                        broadcast_max_nodes: int = 5_000_000
                        ) -> "ray.data.Dataset":
    """(node, core) — core number per node (largest k such that the node
    survives in the k-core) over the DISTINCT undirected edge set implied
    by (src, dst); self-loops ignored. Deterministic: the peel result is
    independent of removal order.

    `mode`: "broadcast" — degree/alive arrays over the sorted node
    vocabulary, every peel round one add-scatter edge pass of the alive
    degrees (`_EdgePasses`); "shuffle" — the huge-|V| fallback where each
    round is a bucketed semi-join dropping low-degree endpoints and a
    grouped re-count, nothing node-shaped ever on the driver; "auto" picks
    by the distinct-node admission check (same policy as
    `connected_components`).
    """
    if _pick_mode(mode, edges, src, dst, broadcast_max_nodes) == "broadcast":
        return _kcore_broadcast(edges, src, dst, broadcast_max_nodes)
    return _kcore_shuffle(edges, src, dst, n_buckets)


def _dedup_undirected(edges: "ray.data.Dataset", src: str,
                      dst: str) -> "ray.data.Dataset":
    """Distinct undirected (u < v) edge table, self-loops dropped."""
    def canon(t: pa.Table) -> pa.Table:
        a = t.column(src).combine_chunks().cast(pa.string())
        b = t.column(dst).combine_chunks().cast(pa.string())
        u = pc.min_element_wise(a, b)
        v = pc.max_element_wise(a, b)
        return pa.table({"u": u, "v": v}).filter(
            pc.invert(pc.equal(a, b)))

    return grouped_count(
        edges.select_columns([src, dst]).map_batches(
            canon, batch_format="pyarrow"),
        ["u", "v"], out_name="_c").select_columns(["u", "v"])


def _alive_ends(cols: dict, state: tuple):
    """Degree pass: a count of 1 at both ends of every edge whose ends are
    both alive (0 otherwise — cheaper than compressing the edge arrays),
    `d` shifted by `shift` (0 sums both roles into one degree, |V| keeps
    out- and in-degree apart in a 2|V| array)."""
    alive, shift = state
    s, d = cols["s"], cols["d"]
    keep = (alive[s] & alive[d]).astype(np.int64)
    return (np.concatenate([s, d.astype(np.int64) + shift]),
            np.concatenate([keep, keep]))


def _kcore_broadcast(edges: "ray.data.Dataset", src: str, dst: str,
                     max_nodes: int) -> "ray.data.Dataset":
    names, passes = _broadcast_edges(_dedup_undirected(edges, src, dst),
                                     "u", "v", max_nodes,
                                     "kcore_decomposition")
    n = len(names)
    core = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    k = 1
    while alive.any():
        while True:
            deg = passes.scatter(_alive_ends, (alive, 0), np.add,
                                 np.zeros(n, np.int64))
            low = alive & (deg < k)
            if not low.any():
                break
            core[low] = k - 1
            alive &= ~low
        k += 1
    return ray.data.from_arrow(pa.table({
        "node": pa.array(list(names), pa.string()),
        "core": pa.array(core, pa.int64())}))


def _kcore_shuffle(edges: "ray.data.Dataset", src: str, dst: str,
                   n_buckets: int) -> "ray.data.Dataset":
    """Huge-|V| peel: each inner round recomputes degrees with a grouped
    count, finds below-k nodes with a bucketed LEFT join from the alive
    NODE set onto the degree table (a missing degree row means degree 0 —
    isolated survivors peel too), and drops edges touching peeled nodes
    via two bucketed anti-join passes. All data motion is bucketed
    shuffles; the driver sees only per-round changed-row counts."""
    s_t, i_t = pa.string(), pa.int64()
    alive = _dedup_undirected(edges, src, dst).materialize()

    def explode(t: pa.Table) -> pa.Table:
        typ = t.column("u").type
        a = pa.chunked_array(list(t.column("u").chunks)
                             + list(t.column("v").chunks), typ)
        return pa.table({"node": a})

    alive_nodes = grouped_count(
        alive.map_batches(explode, batch_format="pyarrow"),
        ["node"], out_name="_c").select_columns(["node"]).materialize()

    def mark(name_col: str):
        def fn(t: pa.Table) -> pa.Table:
            t = t.rename_columns([name_col])
            return t.append_column(
                "_low", pa.array(np.ones(t.num_rows), pa.float64()))

        return fn

    def anti_post(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["_low"].isna()].drop(columns=["_low"])

    outs = []
    k = 1
    while alive_nodes.count() > 0:
        while True:
            deg = grouped_count(
                alive.map_batches(explode, batch_format="pyarrow"),
                ["node"], out_name="deg")

            def low_post(df: pd.DataFrame, kk=k) -> pd.DataFrame:
                d = df["deg"].fillna(0).astype("int64")
                return df.loc[d < kk, ["node"]]

            # block-count discipline: every join emits one block per
            # sort partition and the union doubles input blocks, so an
            # unbounded loop would double blocks per round (measured:
            # 0.8 s -> 47 s per execution by round 8). repartition back to
            # n_buckets before pinning.
            low = hash_join(
                alive_nodes, deg, on="node", how="left",
                n_buckets=n_buckets,
                left_types={"node": s_t},
                right_types={"node": s_t, "deg": i_t},
                bucket_post=low_post).repartition(2).materialize()
            if low.count() == 0:
                break
            outs.append(low.map_batches(
                lambda t, kk=k: strip_schema_metadata(t).append_column(
                    "core", pa.array(np.full(t.num_rows, kk - 1),
                                     pa.int64())),
                batch_format="pyarrow").materialize())
            alive_nodes = hash_join(
                alive_nodes, low.map_batches(mark("node"),
                                             batch_format="pyarrow"),
                on="node", how="left", n_buckets=n_buckets,
                left_types={"node": s_t},
                right_types={"node": s_t, "_low": pa.float64()},
                bucket_post=anti_post).repartition(n_buckets).materialize()
            st = {"u": s_t, "v": s_t}
            for col in ("u", "v"):
                alive = hash_join(
                    alive, low.map_batches(mark(col),
                                           batch_format="pyarrow"),
                    on=col, how="left", n_buckets=n_buckets,
                    left_types=st,
                    right_types={col: s_t, "_low": pa.float64()},
                    bucket_post=anti_post).repartition(n_buckets).materialize()
        k += 1
    if not outs:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], pa.string()),
            "core": pa.array([], pa.int64())}))
    res = outs[0]
    for o in outs[1:]:
        res = res.union(o)
    return res


def _bfs_adjacency(edges: "ray.data.Dataset", src: str, dst: str,
                   undirected: bool) -> "ray.data.Dataset":
    """The materialized adjacency a BFS expands: `edges`, or its distinct
    symmetrized (src, dst) pairs when `undirected`."""
    if undirected:
        edges = grouped_count(_symmetrize(edges, src, dst), [src, dst],
                              out_name="_c").select_columns([src, dst])
    return edges.materialize()


def _stamp_dist(h: int):
    """Batch fn appending a constant int64 `dist` = h (a BFS round)."""

    def fn(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        return t.append_column(
            "dist", pa.array(np.full(t.num_rows, h), pa.int64()))

    return fn


def bfs_distances(edges: "ray.data.Dataset", seeds: "ray.data.Dataset",
                  src: str = "src", dst: str = "dst", max_rounds: int = 3,
                  n_buckets: int = 32, undirected: bool = True,
                  node_type: "pa.DataType | None" = None) -> "ray.data.Dataset":
    """(node, dist) — multi-source unweighted shortest-path distances
    within `max_rounds` hops of `seeds` (dist 0), over the DISTINCT edge
    table. The node-level companion to `khop_subgraph` (which returns the
    reached EDGES): unweighted SSSP / "distance from the KG hubs", the
    neighborhood-radius slice users take from the reference's networkx
    graph (make_kb.py:97-103).

    Scale shape: each round is ONE bucketed semi-join of the (optionally
    symmetrized) adjacency against the current frontier plus a grouped
    distinct — the frontier stays a Dataset end-to-end, so hub-explosion
    frontiers spill instead of landing on the driver. Rounds re-expand
    already-visited nodes rather than anti-joining them out (`min(dist)`
    discards the longer rediscovery, exactly as in `khop_subgraph`); with
    small bounded `max_rounds` the wasted re-expansion is cheaper than an
    extra anti-join shuffle per round.

    `seeds` must have exactly one column named `node`."""
    if node_type is None:
        node_type = _arrow_types(edges)[src]
    nt = node_type

    adj = _bfs_adjacency(edges, src, dst, undirected)
    rounds: list["ray.data.Dataset"] = [
        seeds.map_batches(lambda t: t.select(["node"]),
                          batch_format="pyarrow").map_batches(
            _stamp_dist(0), batch_format="pyarrow").materialize()]
    frontier = rounds[0].map_batches(
        lambda t: t.select(["node"]).rename_columns([src]),
        batch_format="pyarrow")
    for h in range(1, max_rounds + 1):
        reached = hash_join(
            adj, frontier, on=src, n_buckets=n_buckets,
            left_cols=[src, dst], right_cols=[src],
            left_types={src: nt, dst: nt}, right_types={src: nt})
        nodes = grouped_count(
            reached.select_columns([dst]), [dst], out_name="_c"
        ).map_batches(
            lambda t: t.select([dst]).rename_columns(["node"]),
            batch_format="pyarrow").map_batches(
            _stamp_dist(h), batch_format="pyarrow").materialize()
        rounds.append(nodes)
        if h < max_rounds:
            frontier = nodes.map_batches(
                lambda t: t.select(["node"]).rename_columns([src]),
                batch_format="pyarrow")

    union = rounds[0]
    for r in rounds[1:]:
        union = union.union(r)
    return partial_final_agg(union, ["node"], [("dist", "dist", "min")])


def bfs_distances_per_seed(edges: "ray.data.Dataset",
                           seeds: "ray.data.Dataset", src: str = "src",
                           dst: str = "dst", max_rounds: int = 3,
                           n_buckets: int = 32, undirected: bool = True,
                           node_type: "pa.DataType | None" = None
                           ) -> "ray.data.Dataset":
    """(seed, node, dist) — per-seed bounded BFS distances in ONE fused
    pipeline: the frontier rows carry their originating seed, so k seeds
    cost the SAME number of dataset executions as one (`bfs_distances`
    folds seeds into a min — this variant keeps them separate for
    centrality/eccentricity reductions). Per-round state is (node, seed)
    pairs — k× the single-source frontier, still a Dataset end-to-end.

    `seeds` must have exactly one column named `node`."""
    if node_type is None:
        node_type = _arrow_types(edges)[src]
    nt = node_type

    adj = _bfs_adjacency(edges, src, dst, undirected)

    def seed_self(t: pa.Table) -> pa.Table:
        return pa.table({"node": t.column("node"),
                         "seed": t.column("node")})

    rounds: list["ray.data.Dataset"] = [
        seeds.map_batches(seed_self, batch_format="pyarrow").map_batches(
            _stamp_dist(0), batch_format="pyarrow").materialize()]
    frontier = rounds[0].map_batches(
        lambda t: t.select(["node", "seed"]).rename_columns([src, "seed"]),
        batch_format="pyarrow")
    for h in range(1, max_rounds + 1):
        reached = hash_join(
            adj, frontier, on=src, n_buckets=n_buckets,
            left_cols=[src, dst], right_cols=[src, "seed"],
            left_types={src: nt, dst: nt},
            right_types={src: nt, "seed": nt})
        nodes = grouped_count(
            reached.select_columns([dst, "seed"]), [dst, "seed"],
            out_name="_c"
        ).map_batches(
            lambda t: t.select([dst, "seed"]).rename_columns(["node", "seed"]),
            batch_format="pyarrow").map_batches(
            _stamp_dist(h), batch_format="pyarrow").materialize()
        rounds.append(nodes)
        if h < max_rounds:
            frontier = nodes.map_batches(
                lambda t: t.select(["node", "seed"]).rename_columns(
                    [src, "seed"]),
                batch_format="pyarrow")

    union = rounds[0]
    for r in rounds[1:]:
        union = union.union(r)
    return partial_final_agg(union, ["seed", "node"],
                             [("dist", "dist", "min")])


def personalized_pagerank(edges: "ray.data.Dataset",
                          seeds: "ray.data.Dataset", src: str = "src",
                          dst: str = "dst", n_iter: int = 10,
                          n_buckets: int = 32, mode: str = "auto",
                          broadcast_max_nodes: int = 5_000_000
                          ) -> "ray.data.Dataset":
    """(node, rank_units, rank) — PageRank personalized to a seed set
    (entity relatedness / recommendation over the extracted KG: rank mass
    teleports back to `seeds` instead of uniformly). The same exact-int64
    iteration as `pagerank_fixedpoint` (which is this with every node
    seeded), in either execution mode, identical result in both.

    Spec (k = |seeds|, total teleport mass fixed at k·UNITS):
      units⁰(v)   = UNITS if v ∈ S else 0
      share(u)    = units(u) * 85 // (100 * outdeg(u))
      unitsᵗ⁺¹(v) = [v ∈ S] * (UNITS * 15 // 100) + Σ_{(u,v)∈E} share(u)
      rank        = units / (k * UNITS), half-up 9 decimals.

    `seeds` must have one column `node`; the seed set is collected to the
    driver (personalization sets are small by nature — an assert guards
    the admission)."""
    seed_names = [r["node"] for r in seeds.take_all()]
    assert len(seed_names) <= 100_000, "personalization set too large"
    seed_set = set(seed_names)
    if _pick_mode(mode, edges, src, dst, broadcast_max_nodes) == "broadcast":
        return _pagerank_broadcast(edges, src, dst, n_iter,
                                   broadcast_max_nodes,
                                   "personalized_pagerank", seeds=seed_set)
    return _pagerank_shuffle(edges, src, dst, n_iter, n_buckets,
                             seeds=seed_set)


def strongly_connected_components(edges: "ray.data.Dataset",
                                  src: str = "src", dst: str = "dst",
                                  broadcast_max_nodes: int = 5_000_000,
                                  mode: str = "auto", n_buckets: int = 32,
                                  max_rounds: int = 512
                                  ) -> "ray.data.Dataset":
    """(node, scc_id) — strongly connected components of the DIRECTED
    distinct edge set; scc_id = the lexicographically smallest member
    (taxonomy-cycle QA: a non-singleton SCC in a hierarchy predicate like
    HYPONYM-OF is a cycle violating the ontology).

    Algorithm (deterministic bulk-synchronous coloring, the Pregel-style
    FW-BW/coloring family): repeat { TRIM in/out-degree-0 nodes to
    fixpoint (each is its own SCC); FORWARD min-label coloring to fixpoint
    (color(v) = min index over v's remaining ancestors ∪ v — every pass is
    a vectorized min-scatter over the alive edge list, so a fixpoint costs
    O(longest remaining path) passes, the documented BSP-SCC bound);
    BACKWARD mark from each color root within its color class; extract
    every marked node (the root's SCC — the root is provably its SCC's
    minimum: a smaller member would be an ancestor of the root,
    contradicting color(root)=root) } until no nodes remain. Trimming
    first collapses the DAG-like bulk so the coloring rounds track the
    cyclic core, not the graph.

    Execution: node state (alive / color / mark / scc) lives in driver
    arrays over the sorted node vocabulary — the same |V|-bounded
    broadcast-mode contract as `connected_components` / `pagerank` (KG
    node vocabularies are orders of magnitude smaller than edge sets);
    trim, color and mark are each one `_EdgePasses` kernel (add-, min- and
    add-scatter).

    `mode`: "broadcast" (state arrays on the driver, admission-bounded by
    `broadcast_max_nodes`), "shuffle" (the `_scc_shuffle` bucketed-join
    peel for huge vocabularies — node state lives in Datasets, every pass
    is a shuffle; same Dataset-frontier pattern as `bfs_distances`), or
    "auto" (broadcast when the vocabulary fits, else shuffle). The shuffle
    path pays O(longest remaining path) bucketed rounds per fixpoint —
    `max_rounds` caps the total with an explicit error, not a hang."""
    if _pick_mode(mode, edges, src, dst, broadcast_max_nodes) == "shuffle":
        return _scc_shuffle(edges, src, dst, n_buckets, max_rounds)
    names, passes = _broadcast_edges(edges, src, dst, broadcast_max_nodes,
                                     "strongly_connected_components")
    n = len(names)
    INF = np.iinfo(np.int64).max
    alive = np.ones(n, dtype=bool)
    scc = np.full(n, -1, dtype=np.int64)

    while alive.any():
        # ---- trim to fixpoint: in0/out0 alive nodes are singleton SCCs
        while True:
            deg = passes.scatter(_alive_ends, (alive, n), np.add,
                                 np.zeros(2 * n, np.int64))
            trim = alive & ((deg[:n] == 0) | (deg[n:] == 0))
            if not trim.any():
                break
            ix = np.nonzero(trim)[0]
            scc[ix] = ix
            alive[trim] = False
        if not alive.any():
            break

        # ---- forward min-label coloring to fixpoint
        color = np.arange(n, dtype=np.int64)
        color[~alive] = INF
        while True:
            before = color.copy()
            passes.scatter(_forward_color, (alive, before), np.minimum, color)
            if (color == before).all():
                break

        # ---- backward mark within color class, from the color roots
        ix_alive = np.nonzero(alive)[0]
        mark = np.zeros(n, dtype=bool)
        mark[ix_alive[color[ix_alive] == ix_alive]] = True
        while True:
            hits = passes.scatter(_backward_mark, (alive, color, mark),
                                  np.add, np.zeros(n, np.int64))
            new_mark = mark | (hits > 0)
            if (new_mark == mark).all():
                break
            mark = new_mark

        ix = np.nonzero(alive & mark)[0]
        scc[ix] = color[ix]
        alive[ix] = False

    return ray.data.from_arrow(pa.table({
        "node": pa.array(list(names), pa.string()),
        "scc_id": pa.array(names[scc].tolist(), pa.string())}))


def _forward_color(cols: dict, state: tuple):
    """SCC color pass: color(s) offered to d over alive edges (min); a dead
    s already has color INF, a dead d is offered INF."""
    alive, color = state
    s, d = cols["s"], cols["d"]
    return d, np.where(alive[d], color[s], np.iinfo(np.int64).max)


def _backward_mark(cols: dict, state: tuple):
    """SCC mark pass: a hit on s for every alive intra-color edge into a
    marked d (0 for every other edge)."""
    alive, color, mark = state
    s, d = cols["s"], cols["d"]
    keep = alive[s] & alive[d] & mark[d] & (color[s] == color[d])
    return s, keep.astype(np.int64)


def _scc_shuffle(edges: "ray.data.Dataset", src: str, dst: str,
                 n_buckets: int, max_rounds: int) -> "ray.data.Dataset":
    """Shuffle-mode SCC (|V| beyond the broadcast admission): the SAME
    trim / forward-min-color / backward-mark peel as the broadcast path,
    but node state (alive / color / mark) lives in (node, ...) Datasets
    and every pass is a bucketed join — no |V|-bounded driver arrays.
    The result is identical by construction (the SCC partition is unique
    and scc_id = the lexicographically smallest member, so ANY correct
    path bit-matches; pinned in tests/test_graph.py).

    Cost model: every fixpoint round costs a CONSTANT number of Ray
    executions (intermediates are composed lazily and materialized once
    per logical step — per-execution driver overhead is the dominant term
    on small inputs and a fixed tax on huge ones), each a bucketed
    shuffle over the alive edge set, which only shrinks; total rounds
    across trim + color + mark are O(longest simple path) — the
    documented BSP-SCC bound. `max_rounds` caps the sum with an explicit
    error instead of silent non-convergence. This is the honest
    huge-graph path the broadcast docstring used to refuse: prefer
    broadcast whenever the node vocabulary admits it."""
    node_type = pa.string()
    empty = pa.table({"node": pa.array([], pa.string()),
                      "scc_id": pa.array([], pa.string())})

    def ren(ds, names):
        return ds.map_batches(lambda t, _n=list(names): t.rename_columns(_n),
                              batch_format="pyarrow")

    # distinct directed edge set (duplicates only inflate the joins)
    e = partial_final_agg(
        ren(edges.select_columns([src, dst]), ["u", "v"]),
        ["u", "v"], [("_n", None, "count")],
    ).select_columns(["u", "v"]).materialize()
    alive = _nodes_of(edges, src, dst).materialize()
    n_alive = alive.count()
    out_parts: list = []
    rounds = 0

    def tick():
        nonlocal rounds
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(
                f"_scc_shuffle: exceeded max_rounds={max_rounds} bucketed "
                "fixpoint rounds (longest path beyond the round budget); "
                "raise max_rounds or use mode='broadcast'")

    def keep_alive(edge_ds, alive_ds):
        """Semi-join both endpoints against the alive node set — composed
        lazily, ONE materializing execution."""
        for col in ("u", "v"):
            edge_ds = hash_join(
                edge_ds, ren(alive_ds, [col]), on=col, n_buckets=n_buckets,
                left_types={"u": node_type, "v": node_type},
                right_types={col: node_type})
        return _bound_blocks(edge_ds.materialize(), n_buckets)

    def deg_both(t: pa.Table) -> pa.Table:
        # both degree roles in ONE pass (and ONE downstream join — chained
        # left joins would push nulled int64 columns into a key cast)
        u, v = t.column("u"), t.column("v")
        node = pa.chunked_array(list(u.chunks) + list(v.chunks), node_type)
        n_u, n_v = len(u), len(v)
        return pa.table({
            "node": node,
            "outd_p": pa.array(np.r_[np.ones(n_u, np.int64),
                                     np.zeros(n_v, np.int64)]),
            "ind_p": pa.array(np.r_[np.zeros(n_u, np.int64),
                                    np.ones(n_v, np.int64)])})

    def flag_trim(t: pa.Table) -> pa.Table:
        # missing keys may surface as nulls OR float NaN depending on the
        # join task's frame dtype — treat both as degree 0
        def dead(col):
            f = pc.cast(col, pa.float64())
            return pc.or_kleene(pc.is_null(f, nan_is_null=True),
                                pc.equal(f, 0.0))

        trim = pc.or_kleene(dead(t.column("outd")), dead(t.column("ind")))
        return pa.table({"node": t.column("node"),
                         "_trim": pc.cast(trim, pa.int32())})

    def split(flagged_ds, col, want):
        return flagged_ds.map_batches(
            lambda t, _c=col, _w=want: pa.table({"node": t.filter(
                pc.equal(t.column(_c), _w)).column("node")}),
            batch_format="pyarrow")

    while n_alive > 0:
        # ---- trim fixpoint: alive nodes with in- or out-degree 0 over
        # the alive edge set are singleton SCCs
        while True:
            tick()
            deg = partial_final_agg(
                e.map_batches(deg_both, batch_format="pyarrow"),
                ["node"], [("outd", "outd_p", "sum"),
                           ("ind", "ind_p", "sum")])
            flagged = hash_join(
                alive, deg, on="node", how="left", n_buckets=n_buckets,
                left_types={"node": node_type},
                right_types={"node": node_type, "outd": pa.int64(),
                             "ind": pa.int64()},
            ).map_batches(flag_trim, batch_format="pyarrow").materialize()
            flagged = _bound_blocks(flagged, n_buckets)
            n_trim = flagged.sum("_trim") or 0
            if n_trim == 0:
                break
            out_parts.append(split(flagged, "_trim", 1).map_batches(
                lambda t: pa.table({"node": t.column("node"),
                                    "scc_id": t.column("node")}),
                batch_format="pyarrow"))
            alive = _bound_blocks(split(flagged, "_trim", 0).materialize(),
                                  n_buckets)
            n_alive -= n_trim
            if n_alive == 0:
                break
            e = keep_alive(e, alive)
        if n_alive == 0:
            break

        # ---- forward min-label coloring to fixpoint (directed edges)
        colors = alive.map_batches(
            lambda t: pa.table({"node": t.column("node"),
                                "color": t.column("node")}),
            batch_format="pyarrow").materialize()
        while True:
            tick()
            nbr = hash_join(
                e, ren(colors, ["u", "color"]), on="u", n_buckets=n_buckets,
                left_types={"u": node_type, "v": node_type},
                right_types={"u": node_type, "color": node_type},
                bucket_post=lambda df: df.groupby("v", as_index=False)
                                         .agg(cand=("color", "min")))
            cand = partial_final_agg(ren(nbr, ["node", "cand"]),
                                     ["node"], [("cand", "cand", "min")])

            def take_min(t: pa.Table) -> pa.Table:
                new = pc.min_element_wise(t.column("color"),
                                          t.column("cand"), skip_nulls=True)
                return pa.table({
                    "node": t.column("node"), "color": new,
                    "_changed": pc.cast(
                        pc.not_equal(new, t.column("color")), pa.int32())})

            stepped = hash_join(
                colors, cand, on="node", how="left", n_buckets=n_buckets,
                left_types={"node": node_type, "color": node_type},
                right_types={"node": node_type, "cand": node_type},
            ).map_batches(take_min, batch_format="pyarrow").materialize()
            stepped = _bound_blocks(stepped, n_buckets)
            changed = stepped.sum("_changed") or 0
            colors = stepped.select_columns(["node", "color"])
            if changed == 0:
                break
        colors = colors.materialize()

        # ---- backward mark from each color root inside its color class:
        # attach both endpoint colors once, keep intra-color edges only
        ec = hash_join(e, ren(colors, ["u", "cu"]), on="u",
                       n_buckets=n_buckets,
                       left_types={"u": node_type, "v": node_type},
                       right_types={"u": node_type, "cu": node_type})
        ec = hash_join(
            ec, ren(colors, ["v", "cv"]), on="v", n_buckets=n_buckets,
            left_types={"u": node_type, "v": node_type, "cu": node_type},
            right_types={"v": node_type, "cv": node_type},
            bucket_post=lambda df: df[df["cu"] == df["cv"]][["u", "v"]],
        ).materialize()
        marked = colors.map_batches(
            lambda t: pa.table({"node": t.filter(pc.equal(
                t.column("node"), t.column("color"))).column("node")}),
            batch_format="pyarrow").materialize()
        m_count = marked.count()
        while True:
            tick()
            preds = hash_join(
                ec, ren(marked, ["v"]), on="v", n_buckets=n_buckets,
                left_types={"u": node_type, "v": node_type},
                right_types={"v": node_type},
                bucket_post=lambda df: df[["u"]].drop_duplicates())
            new_marked = partial_final_agg(
                marked.union(ren(preds, ["node"])),
                ["node"], [("_n", None, "count")],
            ).select_columns(["node"]).materialize()
            new_marked = _bound_blocks(new_marked, n_buckets)
            new_count = new_marked.count()
            marked, prev = new_marked, m_count
            m_count = new_count
            if new_count == prev:
                break

        # every marked node's SCC id is its color (the root is the
        # lexicographic minimum of its SCC — see broadcast docstring)
        out_parts.append(hash_join(
            marked, colors, on="node", n_buckets=n_buckets,
            left_types={"node": node_type},
            right_types={"node": node_type, "color": node_type},
        ).map_batches(
            lambda t: pa.table({"node": t.column("node"),
                                "scc_id": t.column("color")}),
            batch_format="pyarrow").materialize())

        # peel: drop marked nodes and their edges, continue on the rest
        alive = hash_join(
            alive, marked.map_batches(
                lambda t: t.append_column(
                    "_m", pa.array(np.ones(t.num_rows, np.int32))),
                batch_format="pyarrow"),
            on="node", how="left", n_buckets=n_buckets,
            left_types={"node": node_type},
            right_types={"node": node_type, "_m": pa.int32()},
        ).map_batches(
            lambda t: pa.table({"node": t.filter(pc.is_null(
                pc.cast(t.column("_m"), pa.float64()),
                nan_is_null=True)).column("node")}),
            batch_format="pyarrow").materialize()
        alive = _bound_blocks(alive, n_buckets)
        n_alive -= m_count
        if n_alive == 0:
            break
        e = keep_alive(e, alive)

    if not out_parts:
        return ray.data.from_arrow(empty)
    return out_parts[0].union(*out_parts[1:])


def label_propagation(edges: "ray.data.Dataset", src: str = "src",
                      dst: str = "dst", n_iter: int = 5,
                      broadcast_max_nodes: int = 5_000_000
                      ) -> "ray.data.Dataset":
    """(node, community) — community detection by SYNCHRONOUS label
    propagation (Raghavan et al. 2007, made deterministic): labels start as
    the node's own index (sorted-name order, so index order == name order);
    each round every node adopts the most frequent label among its
    neighbors' PREVIOUS-round labels (each distinct edge contributes one
    undirected vote in both directions), ties broken by the MINIMUM label;
    isolated or vote-less nodes keep their label. The round count is FIXED
    (`n_iter`, with early exit on a global fixpoint), which both bounds the
    well-known bipartite oscillation of synchronous LPA and makes the result
    a deterministic spec: exact integer vote counts + min tie-break are
    order-independent, so distributed evaluation matches a single-threaded
    re-walk bit-for-bit (oracle.py:expected_label_propagation).

    Execution contract mirrors `strongly_connected_components`: the label
    array lives on the driver over the sorted node vocabulary (|V|-bounded
    broadcast mode — KG vocabularies are far smaller than edge sets; callers
    above `broadcast_max_nodes` get an explicit error, not a silent cliff,
    because a shuffle fallback would pay one groupby-argmax shuffle per
    round). Each round is one `_label_votes` pass with the sparse-sum merge
    of `_EdgePasses.votes` (counts commute; merge is exact int64).

    Input contract: DISTINCT directed edges (callers dedup first, as the
    CC/PageRank family does) — a multi-edge input would double votes.
    """
    names, passes = _broadcast_edges(edges, src, dst, broadcast_max_nodes,
                                     "label_propagation")
    n = len(names)
    labels = np.arange(n, dtype=np.int64)
    n_labels = max(n, 1)  # key = node * n + label fits int64 under admission
    for _ in range(n_iter):
        keys, cnts = passes.votes(_label_votes, (labels, n_labels))
        vn, vl = _modal_labels(keys, cnts, n_labels)
        new = labels.copy()
        new[vn] = vl
        if (new == labels).all():
            break
        labels = new

    return ray.data.from_arrow(pa.table({
        "node": pa.array(list(names), pa.string()),
        "community": pa.array(names[labels].tolist(), pa.string())}))


def _label_votes(cols: dict, state: tuple):
    """Vote pass: each edge votes its labelled source's label onto its
    destination and its labelled destination's onto its source (label -1 =
    none); returns unique keys node·n_labels + label with their counts."""
    lab, n_labels = state
    s = cols["s"].astype(np.int64)
    d = cols["d"].astype(np.int64)
    ls, ld = lab[s], lab[d]
    ms, md = ls >= 0, ld >= 0
    key = (np.concatenate([d[ms], s[md]]) * n_labels
           + np.concatenate([ls[ms], ld[md]]))
    uk, cnt = np.unique(key, return_counts=True)
    return uk, cnt.astype(np.int64)


def _modal_labels(keys: np.ndarray, cnts: np.ndarray, n_labels: int,
                  open_nodes: np.ndarray | None = None):
    """(nodes, labels): per voted node (only `open_nodes`, when given) the
    label with the most votes, ties to the smallest label."""
    vn, vl = np.divmod(keys, n_labels)
    if open_nodes is not None:
        keep = open_nodes[vn]
        vn, vl, cnts = vn[keep], vl[keep], cnts[keep]
    # count DESC, then label ASC (lexsort: last key is the primary) — first
    # row of each node group after the sort
    order = np.lexsort((vl, -cnts, vn))
    vn, vl = vn[order], vl[order]
    head = np.ones(len(vn), dtype=bool)
    head[1:] = vn[1:] != vn[:-1]
    return vn[head], vl[head]


HITS_UNITS = 1_000_000  # 1.0 of hub/authority mass, in micro-units


def hits_scores(edges: "ray.data.Dataset", src: str = "src",
                dst: str = "dst", n_iter: int = 8,
                broadcast_max_nodes: int = 5_000_000
                ) -> "ray.data.Dataset":
    """(node, auth_units, hub_units) — HITS hubs/authorities (Kleinberg
    1999) as a deterministic FIXED-POINT integer spec: scores live in int64
    micro-units, each half-iteration is an exact integer sum-scatter over
    the DISTINCT edge set (auth[v] += hub[u] over u→v, then hub[u] +=
    auth[v]), and normalization is max-rescale `x * HITS_UNITS // max(x)`
    computed exactly via divmod splitting (q·U + r·U//mx), so every value
    is order-independent and the distributed evaluation matches a
    single-threaded dict re-walk bit-for-bit — the same determinism
    discipline as the integer PageRank above (float L2-normalized HITS
    would not survive partial-sum reordering).

    Execution contract mirrors `label_propagation`: driver score arrays
    over the sorted |V|-bounded vocabulary (admission error above the
    cap), each half-iteration one add-scatter `_EdgePasses` pass.
    Exactness bound (asserted): the pre-rescale maximum must stay below
    2^63 / HITS_UNITS ≈ 9.2e12 — i.e. max in/out degree below ~9.2e6, far
    above any |V|-bounded KG."""
    names, passes = _broadcast_edges(edges, src, dst, broadcast_max_nodes,
                                     "hits_scores")
    n = len(names)

    def scatter(vals: np.ndarray, forward: bool) -> np.ndarray:
        return passes.scatter(_hits_step, (vals, forward), np.add,
                              np.zeros(n, np.int64))

    def rescale(x: np.ndarray) -> np.ndarray:
        mx = int(x.max(initial=0))
        if mx <= 0:
            return x
        assert mx < (2 ** 63) // HITS_UNITS, "hits_scores: degree overflow"
        # exact floor(x * U / mx) without 128-bit: x = q*mx + r →
        # x*U//mx == q*U + r*U//mx (r < mx keeps r*U inside int64 by the
        # asserted bound)
        q, r = np.divmod(x, mx)
        return q * HITS_UNITS + (r * HITS_UNITS) // mx

    hub = np.full(n, HITS_UNITS, dtype=np.int64)
    auth = np.zeros(n, dtype=np.int64)
    for _ in range(n_iter):
        auth = rescale(scatter(hub, True))
        hub = rescale(scatter(auth, False))

    return ray.data.from_arrow(pa.table({
        "node": pa.array(list(names), pa.string()),
        "auth_units": pa.array(auth, pa.int64()),
        "hub_units": pa.array(hub, pa.int64())}))


def _hits_step(cols: dict, state: tuple):
    """HITS half-iteration pass: Σ vals[u] at v over u→v (forward), or
    Σ vals[v] at u (backward)."""
    vals, forward = state
    s, d = cols["s"], cols["d"]
    return (d, vals[s]) if forward else (s, vals[d])


def pagerank_weighted(edges: "ray.data.Dataset", src: str = "src",
                      dst: str = "dst", weight: str = "w", n_iter: int = 10,
                      broadcast_max_nodes: int = 5_000_000
                      ) -> "ray.data.Dataset":
    """(node, rank_units, rank) — PageRank over a WEIGHTED directed edge
    table (edge weight = assertion multiplicity, the edge-count weighting
    of the reference's networkx MultiDiGraph at make_kb.py:97-103).

    Spec (exact integer arithmetic, extending the module spec):
      W_out(u)       = Σ_v w(u,v)
      delivered(u,v) = floor(units(u)·85·w(u,v) / (100·W_out(u)))
      unitsᵗ⁺¹(v)    = base + Σ_{(u,v)∈E} delivered(u,v)
    computed per edge with an exact divmod split (q·w + (r·w)//b, b =
    100·W_out(u)) so no intermediate exceeds int64 while matching the
    128-bit product exactly; with w ≡ 1 this degenerates bit-for-bit to
    `pagerank_fixedpoint` (pinned by test). Overflow admission (asserted):
    100·max(W_out)·max(w) < 2^63. Floor/dangling mass is dropped, same
    documented discipline as the unweighted spec.

    Scale shape: the broadcast-mode PageRank iteration (`pagerank_fixedpoint`
    with the weight column carried through the edge passes), under the
    |V| ≤ `broadcast_max_nodes` admission — an explicit error beyond, the
    kg_scc discipline: a shuffle fixpoint would pay per-iteration join
    latency."""
    return _pagerank_broadcast(edges, src, dst, n_iter, broadcast_max_nodes,
                               "pagerank_weighted", weight=weight)


def seeded_type_propagation(edges: "ray.data.Dataset",
                            seeds: "ray.data.Dataset", src: str = "src",
                            dst: str = "dst", n_iter: int = 2,
                            broadcast_max_nodes: int = 5_000_000
                            ) -> "ray.data.Dataset":
    """(node, etype, round_assigned) — KG-completion typing by seeded label
    spreading: seed nodes carry fixed types (round 0); each synchronous
    round, every still-UNTYPED node adopts the modal type among its TYPED
    neighbors' previous-round labels (each distinct edge votes once in
    both directions; ties -> lexicographically smallest type).
    Assignments are monotone (never overwritten), so the result is a
    deterministic spec matched bit-for-bit by a dict re-walk
    (oracle.py:expected_type_propagation).

    Execution contract mirrors `label_propagation` and shares its vote
    pass (untyped nodes carry label -1 and cast no vote): driver label
    array over the sorted |V|-bounded vocabulary (admission error above
    the cap). `seeds` must have columns (entity, etype); seed entities
    absent from the graph are ignored."""
    names, passes = _broadcast_edges(edges, src, dst, broadcast_max_nodes,
                                     "seeded_type_propagation")
    n = len(names)
    seed_rows = seeds.take_all()
    type_vocab = sorted({r["etype"] for r in seed_rows})
    t_code = {t: i for i, t in enumerate(type_vocab)}
    ix_of = {nm: i for i, nm in enumerate(names)}
    lab = np.full(n, -1, dtype=np.int64)
    rnd = np.full(n, -1, dtype=np.int64)
    for r in seed_rows:
        i = ix_of.get(r["entity"])
        if i is not None:
            c = t_code[r["etype"]]
            # deterministic when duplicate seeds disagree: smallest type
            if lab[i] == -1 or c < lab[i]:
                lab[i] = c
            rnd[i] = 0
    nt = max(len(type_vocab), 1)
    for h in range(1, n_iter + 1):
        keys, cnts = passes.votes(_label_votes, (lab, nt))
        vn, vl = _modal_labels(keys, cnts, nt, open_nodes=lab == -1)
        if len(vn) == 0:
            break
        lab[vn] = vl
        rnd[vn] = h

    typed = np.nonzero(lab >= 0)[0]
    return ray.data.from_arrow(pa.table({
        "node": pa.array(names[typed].tolist(), pa.string()),
        "etype": pa.array([type_vocab[c] for c in lab[typed]], pa.string()),
        "round_assigned": pa.array(rnd[typed], pa.int64())}))


def _local_undirected(edges: "ray.data.Dataset", src: str, dst: str,
                      who: str):
    """(names, s, d): the distinct undirected edge set as driver int arrays,
    under the |E| admission of the two driver-side edge algorithms
    (`truss_decomposition`, `betweenness_sampled`) — above
    `LOCAL_MAX_EDGES` an explicit error, since neither has a shuffle
    fallback (see their docstrings)."""
    names, indexed = _index_edges(_dedup_undirected(edges, src, dst), "u", "v")
    n_edges = indexed.count()
    if n_edges > LOCAL_MAX_EDGES:
        raise ValueError(
            f"{who}: |E| = {n_edges} exceeds the local admission bound "
            f"{LOCAL_MAX_EDGES}; no shuffle fallback by design")
    cols = _collect_indexed(indexed)
    return names, cols["s"], cols["d"]


def truss_decomposition(edges: "ray.data.Dataset", src: str = "src",
                        dst: str = "dst") -> "ray.data.Dataset":
    """(u, v, trussness) — truss number per DISTINCT undirected non-loop
    edge: the largest k such that the edge belongs to the k-truss (the
    maximal subgraph where every edge closes ≥ k−2 triangles inside it).
    The edge-level cohesion analog of `kcore_decomposition` — trussness
    ≥ 3 marks community-core edges, 2 marks tree-like/bridge edges
    (`edge_support`'s peel-to-fixpoint refinement). The decomposition is
    UNIQUE, so the result is removal-order independent.

    Contract: driver peel under the `LOCAL_MAX_EDGES` admission bound
    (|E|-bounded state). NO shuffle fallback — a FORMAL, documented waiver
    (round-5 decision; pinned by test_truss_admission_guard): unlike SCC
    (which gained `_scc_shuffle`, whose per-round state is a min-/or-
    scatter expressible as one bucketed join), a distributed truss peel
    round must RE-ENUMERATE the triangles incident to every removed edge —
    a degree-ordered wedge join (two shuffles over the alive edge set) per
    peel round, O(peel-depth) rounds, with no partial that shrinks
    monotonically. At KG scale the wedge join alone is the most expensive
    op in this module (kg_triangles ≈ 9 s at sf0.1); multiplying it by
    peel depth is strictly worse than computing trussness per k-core-
    bounded SUBGRAPH — callers above the bound should first restrict to a
    k-core (`kcore_decomposition`, which HAS a shuffle path) and run the
    local peel per core, which is how community-core analysis uses
    trussness in practice. Callers above the bound get an explicit
    admission error instead of a silent cliff. Support updates during the
    peel touch only the removed edge's live common neighbors, so the local
    peel is O(Σ support) after the initial intersection pass."""
    from collections import deque

    names, s, d = _local_undirected(edges, src, dst, "truss_decomposition")
    adj: list[set] = [set() for _ in range(len(names))]
    for a, b in zip(s.tolist(), d.tolist()):
        adj[a].add(b)
        adj[b].add(a)

    def canon(a: int, b: int) -> tuple:
        return (a, b) if a < b else (b, a)

    alive = {canon(a, b) for a, b in zip(s.tolist(), d.tolist())}
    sup = {e: len(adj[e[0]] & adj[e[1]]) for e in alive}
    truss: dict[tuple, int] = {}
    k = 3
    while alive:
        queue = deque(sorted(e for e in alive if sup[e] < k - 2))
        while queue:
            e = queue.popleft()
            if e not in alive:
                continue
            a, b = e
            common = adj[a] & adj[b]
            alive.discard(e)
            truss[e] = k - 1
            adj[a].discard(b)
            adj[b].discard(a)
            for c in common:
                for f in (canon(a, c), canon(b, c)):
                    if f in alive:
                        sup[f] -= 1
                        if sup[f] < k - 2:
                            queue.append(f)
        k += 1

    items = sorted(truss.items())
    return ray.data.from_arrow(pa.table({
        "u": pa.array([names[e[0]] for e, _ in items], pa.string()),
        "v": pa.array([names[e[1]] for e, _ in items], pa.string()),
        "trussness": pa.array([t for _, t in items], pa.int64())}))


def weighted_min_distances(edges_w: "ray.data.Dataset",
                           seeds: "ray.data.Dataset", src: str = "src",
                           dst: str = "dst", w_col: str = "w",
                           max_rounds: int = 4, n_buckets: int = 32,
                           undirected: bool = True) -> "ray.data.Dataset":
    """(node, dist) — multi-source weighted shortest-path distances,
    bounded at `max_rounds` edges: dist = min total weight over paths of
    ≤ max_rounds edges from ANY seed (positive integer weights make the
    walk-minimum equal the path-minimum, so round h's relax explores
    exactly the h-edge optimum). The weighted companion of
    `bfs_distances`; the bounded-round contract is the same documented
    truncation as the fixed-round PageRank/label-propagation family.

    Scale shape: the per-round state is a (node, dist) Dataset — one
    bucketed hash join (relax, with the per-destination min pushed into
    the join bucket) plus one grouped min per round; NO driver-side node
    state at any |V|. Seeds carry dist 0; the final answer is a grouped
    min over the union of all rounds."""

    nt = _arrow_types(edges_w)[src]
    i_t = pa.int64()

    adj = edges_w
    if undirected:
        adj = partial_final_agg(_symmetrize(edges_w, src, dst, w_col),
                                [src, dst], [(w_col, w_col, "min")])
    adj = adj.materialize()

    def as_frontier(ds):
        return ds.map_batches(
            lambda t: t.select(["node", "dist"]).rename_columns(
                [src, "dist"]),
            batch_format="pyarrow")

    def stamp0(t: pa.Table) -> pa.Table:
        return pa.table({"node": t.column("node"),
                         "dist": pa.array(np.zeros(t.num_rows, np.int64),
                                          i_t)})

    rounds = [seeds.map_batches(stamp0, batch_format="pyarrow"
                                ).materialize()]
    frontier = as_frontier(rounds[0])
    for _h in range(max_rounds):
        def relax(m: "pd.DataFrame") -> "pd.DataFrame":
            g = pd.DataFrame({
                "node": m[dst].to_numpy(object),
                "dist": m["dist"].to_numpy(np.int64)
                + m[w_col].to_numpy(np.int64)})
            return g.groupby("node", as_index=False)["dist"].min()

        cand = partial_final_agg(
            hash_join(adj, frontier, on=src, n_buckets=n_buckets,
                      left_types={src: nt, dst: nt, w_col: i_t},
                      right_types={src: nt, "dist": i_t},
                      bucket_post=relax),
            ["node"], [("dist", "dist", "min")]).materialize()
        rounds.append(cand)
        frontier = as_frontier(cand)

    best = rounds[0]
    for r in rounds[1:]:
        best = best.union(r)
    return partial_final_agg(best, ["node"], [("dist", "dist", "min")])


def betweenness_sampled(edges: "ray.data.Dataset", src: str = "src",
                        dst: str = "dst", n_seeds: int = 3,
                        max_rounds: int = 3, scale: int = 1_000_000
                        ) -> "ray.data.Dataset":
    """(node, bc_scaled) — sampled betweenness centrality (Brandes
    accumulation from the `n_seeds` highest-(degree, name asc) hubs,
    shortest paths bounded at `max_rounds` hops) over the distinct
    undirected edge set. The dependency recursion is INTEGER-EXACT by
    contract: δ(v) = Σ_w (σ(v) · (scale + δ(w))) // σ(w) over v's
    successors w on the BFS DAG — each term floors independently, so the
    sum is evaluation-order independent and the value-hash oracle holds
    bit-for-bit. bc_scaled(v) = Σ_seeds δ_seed(v), seeds excluded.

    Contract: driver arrays under the `LOCAL_MAX_EDGES` admission (the
    kg_scc discipline — no shuffle fallback BY DESIGN: a distributed
    Brandes needs 2·R join rounds per seed, and the sampled-seed form
    only makes sense on the vocabulary-bounded KG graph). Overflow: σ ≤
    max_deg^R — document/re-scale past deg ~2M at R=3."""
    names, s, d = _local_undirected(edges, src, dst, "betweenness_sampled")
    n = len(names)
    es = np.concatenate([s, d]).astype(np.int64)
    ed = np.concatenate([d, s]).astype(np.int64)
    deg = np.bincount(es, minlength=n)
    order = sorted(range(n), key=lambda i: (-int(deg[i]), names[i]))
    seeds = order[:n_seeds]

    bc = np.zeros(n, dtype=np.int64)
    for seed in seeds:
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n, dtype=np.int64)
        dist[seed] = 0
        sigma[seed] = 1
        levels = [np.array([seed], dtype=np.int64)]
        for _h in range(max_rounds):
            on_frontier = np.zeros(n, dtype=bool)
            on_frontier[levels[-1]] = True
            m = on_frontier[es]
            tgt = ed[m]
            fresh = dist[tgt] == -1
            nxt = np.unique(tgt[fresh])
            if not len(nxt):
                break
            dist[nxt] = len(levels)
            # σ accumulates over DAG edges frontier→next-level
            dag = m & (dist[ed] == len(levels))
            np.add.at(sigma, ed[dag], sigma[es[dag]])
            levels.append(nxt)
        delta = np.zeros(n, dtype=np.int64)
        for h in range(len(levels) - 1, 0, -1):
            # DAG edges (u at h-1) -> (w at h)
            dag = (dist[es] == h - 1) & (dist[ed] == h)
            u, w = es[dag], ed[dag]
            term = (sigma[u] * (scale + delta[w])) // sigma[w]
            np.add.at(delta, u, term)
        delta[seed] = 0
        bc += delta

    keep = np.nonzero(bc >= 0)[0]
    return ray.data.from_arrow(pa.table({
        "node": pa.array([names[i] for i in keep], pa.string()),
        "bc_scaled": pa.array(bc[keep], pa.int64())}))
