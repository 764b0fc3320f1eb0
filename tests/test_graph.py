"""Graph materialization tables and graph analytics vs pure-python oracles."""

import pandas as pd
import pyarrow as pa

import ray.data

from dygiepp_ray.pipelines.kg import graph_edges, graph_nodes
from dygiepp_ray.stages.graph import connected_components, pagerank_fixedpoint
from dygiepp_ray import oracle as o


def _triples():
    return pd.DataFrame({
        "subj_norm": ["a", "a", "a", "b", "c"],
        "pred": ["R", "R", "S", "R", "R"],
        "obj_norm": ["b", "b", "b", "c", "a"],
        "conf": [0.9, 0.5, 0.8, 1.0, 0.7],
    })


def test_graph_edges_weights_and_confs():
    got = graph_edges(ray.data.from_pandas(_triples())).to_pandas()
    got = got.set_index(["subj_norm", "pred", "obj_norm"])
    assert got.loc[("a", "R", "b"), "weight"] == 2
    assert got.loc[("a", "R", "b"), "conf_max"] == 0.9
    assert got.loc[("a", "R", "b"), "conf_mean"] == 0.7
    assert got.loc[("b", "R", "c"), "weight"] == 1
    assert len(got) == 4


def test_graph_nodes_counts_both_slots():
    got = graph_nodes(ray.data.from_pandas(_triples())).to_pandas()
    counts = dict(zip(got["span_norm"], got["mention_count"]))
    # a: 3 subj + 1 obj; b: 1 subj + 3 obj; c: 1 subj + 1 obj
    assert counts == {"a": 4, "b": 4, "c": 2}


def _edge_ds(pairs):
    return ray.data.from_pandas(pd.DataFrame(
        {"src": [p[0] for p in pairs], "dst": [p[1] for p in pairs]}))


def _pairs_table(pairs):
    return pa.table({"subj_norm": pa.array([p[0] for p in pairs], pa.string()),
                     "obj_norm": pa.array([p[1] for p in pairs], pa.string())})


import pytest


@pytest.mark.parametrize("mode", ["broadcast", "shuffle"])
def test_connected_components_min_label(mode):
    # two components: {a,b,c,d} (direction must not matter) and {x,y}
    pairs = [("b", "a"), ("b", "c"), ("c", "d"), ("x", "y")]
    got = connected_components(_edge_ds(pairs), n_buckets=4, mode=mode).to_pandas()
    comp = dict(zip(got["node"], got["component"]))
    assert comp == {"a": "a", "b": "a", "c": "a", "d": "a", "x": "x", "y": "x"}


@pytest.mark.parametrize("mode", ["broadcast", "shuffle"])
def test_connected_components_matches_union_find_oracle(mode):
    # a denser deterministic graph incl. a cycle and a self-loop
    pairs = [("n%d" % i, "n%d" % ((i * 3) % 7)) for i in range(7)]
    pairs += [("m1", "m2"), ("m2", "m1"), ("z", "z")]
    got = connected_components(_edge_ds(pairs), n_buckets=4, mode=mode).to_pandas()
    exp = o.expected_components(_pairs_table(pairs)).to_pandas()
    got = got.sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)


@pytest.mark.parametrize("mode", ["broadcast", "shuffle"])
def test_pagerank_fixedpoint_matches_integer_oracle(mode):
    # star + chain + dangling node (b has no out-edges via "d")
    pairs = [("a", "b"), ("a", "c"), ("c", "a"), ("c", "b"), ("d", "a")]
    got = pagerank_fixedpoint(_edge_ds(pairs), n_iter=5, n_buckets=4,
                              mode=mode).to_pandas()
    exp = o.expected_pagerank(_pairs_table(pairs), n_iter=5).to_pandas()
    got = got.sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp)
    # exact integer mass conservation sanity: every unit value positive
    assert (got["rank_units"] > 0).all()


def test_graph_modes_agree_on_random_graph():
    # 40-node pseudo-random digraph: both execution modes must be
    # bit-identical on both operators (same deterministic spec)
    pairs = [("v%02d" % ((i * 7) % 40), "v%02d" % ((i * 13 + 5) % 40))
             for i in range(120)]
    ds = _edge_ds(pairs)
    cc_b = connected_components(ds, mode="broadcast").to_pandas().sort_values(
        "node").reset_index(drop=True)
    cc_s = connected_components(ds, mode="shuffle").to_pandas().sort_values(
        "node").reset_index(drop=True)
    pd.testing.assert_frame_equal(cc_b, cc_s)
    pr_b = pagerank_fixedpoint(ds, n_iter=4, mode="broadcast").to_pandas(
        ).sort_values("node").reset_index(drop=True)
    pr_s = pagerank_fixedpoint(ds, n_iter=4, mode="shuffle").to_pandas(
        ).sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(pr_b, pr_s)


def test_khop_subgraph_min_hop():
    """2-hop expansion from one seed: hop = smallest reach distance; edges
    beyond the horizon excluded; revisited edges keep hop 1."""
    import pandas as pd

    import ray.data
    from dygiepp_ray.stages.graph import khop_subgraph

    edges = ray.data.from_pandas(pd.DataFrame({
        "src": ["a", "a", "b", "c", "d", "z"],
        "dst": ["b", "c", "c", "d", "e", "q"],
    }))
    seeds = ray.data.from_pandas(pd.DataFrame({"src": ["a"]}))
    got = (khop_subgraph(edges, seeds, hops=2).to_pandas()
           .sort_values(["src", "dst"]).reset_index(drop=True))
    assert got[["src", "dst"]].values.tolist() == [
        ["a", "b"], ["a", "c"], ["b", "c"], ["c", "d"]]
    assert got["hop"].tolist() == [1, 1, 2, 2]


def test_khop_subgraph_int_nodes_and_multi_seed():
    """Integer node ids flow through the semi-joins; multiple seeds union
    their frontiers; hop horizon respected."""
    import pandas as pd

    import ray.data
    from dygiepp_ray.stages.graph import khop_subgraph

    edges = ray.data.from_pandas(pd.DataFrame({
        "src": [1, 2, 3, 4, 10],
        "dst": [2, 3, 4, 5, 11],
    }))
    seeds = ray.data.from_pandas(pd.DataFrame({"src": [1, 10]}))
    got = (khop_subgraph(edges, seeds, hops=2).to_pandas()
           .sort_values(["src", "dst"]).reset_index(drop=True))
    assert got[["src", "dst", "hop"]].values.tolist() == [
        [1, 2, 1], [2, 3, 2], [10, 11, 1]]


def test_khop_subgraph_partitioning_invariant():
    import pandas as pd

    import ray.data
    from dygiepp_ray.stages.graph import khop_subgraph

    edges = pd.DataFrame({
        "src": ["a", "a", "b", "c", "d", "e", "f", "g"],
        "dst": ["b", "c", "c", "d", "e", "f", "g", "h"],
    })
    seeds = ray.data.from_pandas(pd.DataFrame({"src": ["a"]}))

    def run(ds):
        return (khop_subgraph(ds, seeds, hops=3).to_pandas()
                .sort_values(["src", "dst"]).reset_index(drop=True))

    a = run(ray.data.from_pandas(edges))
    b = run(ray.data.from_pandas(edges).repartition(5))
    pd.testing.assert_frame_equal(a, b)
    assert a["hop"].max() == 3


# -------------------------------------------- functional conflicts / triangles


def test_functional_conflicts_golden():
    from dygiepp_ray.pipelines.kg import functional_conflicts

    tri = pd.DataFrame({
        "subj_norm": ["a", "a", "a", "a", "b", "b", "c"],
        "pred":      ["R", "R", "R", "S", "R", "R", "R"],
        # a-R asserts {b, c} (conflict, duplicates collapse); a-S and b-R
        # and c-R are functional (one distinct object each)
        "obj_norm":  ["b", "b", "c", "b", "c", "c", "a"],
    })
    got = functional_conflicts(
        ray.data.from_pandas(tri), salt_buckets=2).to_pandas()
    assert len(got) == 1
    row = got.iloc[0]
    assert (row["subj_norm"], row["pred"]) == ("a", "R")
    assert row["n_objs"] == 2
    assert (row["obj_min"], row["obj_max"]) == ("b", "c")


def _triangle_oracle(edges: list[tuple[str, str]]) -> dict[str, int]:
    """Brute-force per-node triangle participation."""
    import itertools

    und = {tuple(sorted(e)) for e in edges if e[0] != e[1]}
    nodes = sorted({x for e in und for x in e})
    out: dict[str, int] = {}
    for a, b, c in itertools.combinations(nodes, 3):
        if {(a, b), (a, c), (b, c)} <= und:
            for x in (a, b, c):
                out[x] = out.get(x, 0) + 1
    return out


def test_triangle_counts_golden_and_invariance():
    from dygiepp_ray.pipelines.kg import triangle_counts

    # K4 on {a,b,c,d} (every node in 3 triangles) plus a pendant edge and a
    # self-loop (both ignored), with duplicate/reversed assertions
    pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", "d"), ("d", "e"), ("e", "e"), ("b", "a"), ("c", "a")]
    tri = pd.DataFrame({
        "subj_norm": [p[0] for p in pairs],
        "pred": ["R"] * len(pairs),
        "obj_norm": [p[1] for p in pairs],
    })
    want = _triangle_oracle(pairs)
    for nparts in (1, 4):
        ds = ray.data.from_pandas(tri).repartition(nparts)
        got = triangle_counts(ds, salt_buckets=2).to_pandas()
        assert dict(zip(got["node"], got["n_triangles"].astype(int))) == want


def test_triangle_counts_random_graph_matches_bruteforce():
    import numpy as np

    from dygiepp_ray.pipelines.kg import triangle_counts

    rng = np.random.RandomState(7)
    names = [f"n{i:02d}" for i in range(18)]
    pairs = [(names[rng.randint(18)], names[rng.randint(18)])
             for _ in range(120)]
    tri = pd.DataFrame({
        "subj_norm": [p[0] for p in pairs],
        "pred": ["R"] * len(pairs),
        "obj_norm": [p[1] for p in pairs],
    })
    want = _triangle_oracle(pairs)
    got = triangle_counts(
        ray.data.from_pandas(tri).repartition(3), salt_buckets=2).to_pandas()
    assert dict(zip(got["node"], got["n_triangles"].astype(int))) == want


# --------------------------------------------------------------- k-core


def _kcore_brute(pairs: list[tuple[str, str]]) -> dict[str, int]:
    und = {tuple(sorted(p)) for p in pairs if p[0] != p[1]}
    adj: dict[str, set] = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    core, alive, k = {}, set(adj), 1
    while alive:
        while True:
            low = {v for v in alive
                   if sum(1 for w in adj[v] if w in alive) < k}
            if not low:
                break
            for v in low:
                core[v] = k - 1
            alive -= low
        k += 1
    return core


def test_kcore_golden_modes_agree():
    from dygiepp_ray.stages.graph import kcore_decomposition

    # K4 (core 3) + a triangle hanging off it (core 2) + a path tail
    # (core 1) + duplicate/reversed edges and a self-loop
    pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", "d"), ("d", "e"), ("e", "f"), ("d", "f"),
             ("f", "g"), ("g", "h"), ("h", "h"), ("b", "a")]
    want = _kcore_brute(pairs)
    edges = pd.DataFrame({"src": [p[0] for p in pairs],
                          "dst": [p[1] for p in pairs]})
    for mode in ("broadcast", "shuffle"):
        got = kcore_decomposition(
            ray.data.from_pandas(edges).repartition(3), mode=mode
        ).to_pandas()
        assert dict(zip(got["node"], got["core"].astype(int))) == want, mode


def test_kcore_random_graph_modes_and_bruteforce():
    import numpy as np

    from dygiepp_ray.stages.graph import kcore_decomposition

    rng = np.random.RandomState(5)
    names = [f"n{i:02d}" for i in range(16)]
    pairs = [(names[rng.randint(16)], names[rng.randint(16)])
             for _ in range(60)]
    want = _kcore_brute(pairs)
    edges = pd.DataFrame({"src": [p[0] for p in pairs],
                          "dst": [p[1] for p in pairs]})
    # broadcast only: the golden test pins shuffle==broadcast; a shuffle
    # run here costs ~3 min of pure per-round execution overhead at 4 cpus
    got_b = kcore_decomposition(
        ray.data.from_pandas(edges).repartition(4), mode="broadcast"
    ).to_pandas()
    assert dict(zip(got_b["node"], got_b["core"].astype(int))) == want


def test_graph_broadcast_distributed_rounds_match_local(monkeypatch):
    """Force the per-block-partials broadcast path (indexed edge count >
    LOCAL_MAX_EDGES) and pin it against the local-numpy fast path for CC,
    PageRank, k-core and personalized PageRank — the edge-stream branch
    that small fixtures never reach on their own."""
    import numpy as np

    import dygiepp_ray.stages.graph as G

    rng = np.random.RandomState(9)
    names = [f"n{i:02d}" for i in range(14)]
    pairs = [(names[rng.randint(14)], names[rng.randint(14)])
             for _ in range(50)]
    edges = pd.DataFrame({"src": [p[0] for p in pairs],
                          "dst": [p[1] for p in pairs]})
    ds = lambda: ray.data.from_pandas(edges).repartition(3)  # noqa: E731

    seeds = lambda: ray.data.from_pandas(  # noqa: E731
        pd.DataFrame({"node": ["n00", "n03", "n07"]}))

    local_cc = G.connected_components(ds(), mode="broadcast").to_pandas()
    local_pr = G.pagerank_fixedpoint(ds(), mode="broadcast").to_pandas()
    local_kc = G.kcore_decomposition(ds(), mode="broadcast").to_pandas()
    local_ppr = G.personalized_pagerank(ds(), seeds(),
                                        mode="broadcast").to_pandas()

    monkeypatch.setattr(G, "LOCAL_MAX_EDGES", 0)
    dist_cc = G.connected_components(ds(), mode="broadcast").to_pandas()
    dist_pr = G.pagerank_fixedpoint(ds(), mode="broadcast").to_pandas()
    dist_kc = G.kcore_decomposition(ds(), mode="broadcast").to_pandas()
    dist_ppr = G.personalized_pagerank(ds(), seeds(),
                                       mode="broadcast").to_pandas()

    for loc, dist, keys in ((local_cc, dist_cc, ["node"]),
                            (local_pr, dist_pr, ["node"]),
                            (local_kc, dist_kc, ["node"]),
                            (local_ppr, dist_ppr, ["node"])):
        loc = loc.sort_values(keys).reset_index(drop=True)
        dist = dist.sort_values(keys).reset_index(drop=True)
        pd.testing.assert_frame_equal(loc, dist)


def test_predicate_stats_golden():
    from dygiepp_ray.pipelines.kg import predicate_stats

    tri = pd.DataFrame({
        # R: edges a->b, a->c, b->c (dup collapses): 3 edges, 2 subj, 2 obj
        # S: a->b only: functional (fanout 1000)
        "subj_norm": ["a", "a", "a", "b", "a"],
        "pred":      ["R", "R", "R", "R", "S"],
        "obj_norm":  ["b", "b", "c", "c", "b"],
    })
    got = predicate_stats(
        ray.data.from_pandas(tri), salt_buckets=2).to_pandas().set_index("pred")
    assert got.loc["R", "n_edges"] == 3
    assert got.loc["R", "n_subj"] == 2
    assert got.loc["R", "n_obj"] == 2
    assert got.loc["R", "fanout_scaled"] == 1500     # 3 * 1000 // 2
    assert got.loc["S", "fanout_scaled"] == 1000


def test_entity_kb_golden():
    from dygiepp_ray.pipelines.kg import entity_kb

    tri = pd.DataFrame({
        "subj": ["The Cat", "the cat", "Dog"],
        "pred": ["chases", "chases", "bites"],
        "obj":  ["a dog", "Dog", "Cat"],
        "subj_norm": ["cat", "cat", "dog"],
        "obj_norm":  ["dog", "dog", "cat"],
    })
    got = entity_kb(ray.data.from_pandas(tri)).to_pandas().set_index("entity")
    assert got.loc["cat", "n_mentions"] == 3        # 2 subj + 1 obj
    assert got.loc["cat", "out_edges"] == 1         # distinct (cat,chases,dog)
    assert got.loc["cat", "in_edges"] == 1
    assert got.loc["cat", "top_pred"] == "chases"
    assert got.loc["cat", "aliases"] == "Cat|The Cat|the cat"
    assert got.loc["dog", "top_pred"] == "bites"
    assert got.loc["dog", "aliases"] == "Dog|a dog"


def test_entity_kb_int_columns_survive_mostly_empty_blocks():
    """Nine of ten input blocks come out of an upstream pandas filter EMPTY.
    Empty blocks skip every UDF and reach the shuffles as pandas blocks, and
    the five-way union pads the int columns with nulls; the per-entity
    counts must still come out int64 and equal the unfiltered result."""
    import numpy as np

    from dygiepp_ray.pipelines.kg import entity_kb

    rng = np.random.default_rng(11)
    ents = [f"e{i}" for i in range(30)]
    n = 200
    s, o = rng.choice(ents, n), rng.choice(ents, n)
    tri = pd.DataFrame({"subj": [x.upper() for x in s],
                        "pred": rng.choice(["R", "S", "T"], n),
                        "obj": [x.upper() for x in o],
                        "subj_norm": s, "obj_norm": o})
    filler = pd.concat([tri.assign(pred="drop")] * 9, ignore_index=True)
    filtered = ray.data.from_pandas(
        pd.concat([tri, filler], ignore_index=True)).repartition(10) \
        .map_batches(lambda df: df[df["pred"] != "drop"], batch_format="pandas")
    got = entity_kb(filtered, n_buckets=4).to_pandas()
    exp = entity_kb(ray.data.from_pandas(tri), n_buckets=4).to_pandas()
    for col in ("n_mentions", "out_edges", "in_edges"):
        assert str(got[col].dtype) == "int64", col
    key = ["entity"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True),
        exp.sort_values(key).reset_index(drop=True))


# --------------------------------- link prediction / pred paths / BFS dist


def _common_neighbor_oracle(edges, cap=64, min_common=2):
    und = {tuple(sorted(e)) for e in edges if e[0] != e[1]}
    adj: dict[str, set] = {}
    for u, v in und:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    centers = [c for c, ns in adj.items() if len(ns) <= cap]
    import itertools

    counts: dict[tuple, int] = {}
    for c in centers:
        for x, y in itertools.combinations(sorted(adj[c]), 2):
            counts[(x, y)] = counts.get((x, y), 0) + 1
    return {p: n for p, n in counts.items()
            if n >= min_common and p not in und}


def _lp_triples(pairs):
    return pd.DataFrame({
        "subj_norm": [p[0] for p in pairs],
        "pred": ["R"] * len(pairs),
        "obj_norm": [p[1] for p in pairs],
    })


def test_link_prediction_golden_and_invariance():
    from dygiepp_ray.pipelines.kg import link_prediction

    # hub h connects a,b,c,d (all non-adjacent pairs share >= 1 neighbor);
    # a-b also share z; existing edge a-c must be excluded even though it
    # has 2 common neighbors via h and w
    pairs = [("h", "a"), ("h", "b"), ("h", "c"), ("h", "d"),
             ("z", "a"), ("z", "b"), ("w", "a"), ("w", "c"),
             ("a", "c"), ("a", "a"), ("h", "a")]
    want = _common_neighbor_oracle(pairs)
    assert want  # the fixture must exercise the >= min_common path
    for nparts in (1, 3):
        ds = ray.data.from_pandas(_lp_triples(pairs)).repartition(nparts)
        got = link_prediction(ds, salt_buckets=2, n_buckets=4).to_pandas()
        got_d = {(x, y): int(n) for x, y, n in
                 zip(got["x"], got["y"], got["common_neighbors"])}
        assert got_d == want


def test_link_prediction_degree_cap_excludes_hub_wedges():
    from dygiepp_ray.pipelines.kg import link_prediction

    # cap=2: hub h (degree 4) is excluded as a CENTER, so its 6 wedge pairs
    # among {a,b,c,d} vanish; the surviving centers a,b (degree 2) still
    # vote (h,z) to 2 — the brute-force oracle applies the same cap
    pairs = [("h", "a"), ("h", "b"), ("h", "c"), ("h", "d"),
             ("z", "a"), ("z", "b")]
    got = link_prediction(ray.data.from_pandas(_lp_triples(pairs)),
                          max_center_degree=2, min_common=2,
                          n_buckets=4).to_pandas()
    got_d = {(x, y): int(n) for x, y, n in
             zip(got["x"], got["y"], got["common_neighbors"])}
    assert got_d == _common_neighbor_oracle(pairs, cap=2, min_common=2)
    assert got_d == {("h", "z"): 2}
    want = _common_neighbor_oracle(pairs, cap=2, min_common=1)
    got1 = link_prediction(ray.data.from_pandas(_lp_triples(pairs)),
                           max_center_degree=2, min_common=1,
                           n_buckets=4).to_pandas()
    got_d = {(x, y): int(n) for x, y, n in
             zip(got1["x"], got1["y"], got1["common_neighbors"])}
    assert got_d == want


def test_link_prediction_random_graph_matches_bruteforce():
    import numpy as np

    from dygiepp_ray.pipelines.kg import link_prediction

    rng = np.random.RandomState(11)
    names = [f"n{i:02d}" for i in range(14)]
    pairs = [(names[rng.randint(14)], names[rng.randint(14)])
             for _ in range(60)]
    want = _common_neighbor_oracle(pairs, cap=6, min_common=2)
    got = link_prediction(ray.data.from_pandas(_lp_triples(pairs)).repartition(3),
                          max_center_degree=6, min_common=2,
                          salt_buckets=2, n_buckets=4).to_pandas()
    got_d = {(x, y): int(n) for x, y, n in
             zip(got["x"], got["y"], got["common_neighbors"])}
    assert got_d == want


def test_pred_path_counts_golden():
    from dygiepp_ray.pipelines.kg import pred_path_counts

    tri = pd.DataFrame({
        "subj_norm": ["a", "a", "b", "b", "c", "a"],
        "pred":      ["P", "P", "Q", "R", "Q", "P"],  # a-P-b duplicated
        "obj_norm":  ["b", "b", "c", "c", "a", "c"],
    })
    # distinct edges: a-P-b, b-Q-c, b-R-c, c-Q-a, a-P-c
    # paths: P(a->b)->Q(b->c), P(a->b)->R, Q(b->c)->Q(c->a), R(b->c)->Q,
    #        Q(c->a)->P(a->b), Q(c->a)->P(a->c), P(a->c)->Q(c->a)
    want = {("P", "Q"): 2, ("P", "R"): 1, ("Q", "Q"): 1, ("R", "Q"): 1,
            ("Q", "P"): 2}
    for nparts in (1, 3):
        got = pred_path_counts(
            ray.data.from_pandas(tri).repartition(nparts),
            salt_buckets=2, n_buckets=4).to_pandas()
        got_d = {(a, b): int(n) for a, b, n in
                 zip(got["pred_a"], got["pred_b"], got["n_paths"])}
        assert got_d == want


def _bfs_oracle(edges, seeds, max_rounds, undirected=True):
    adj: dict[str, set] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        if undirected:
            adj.setdefault(v, set()).add(u)
    dist = {s: 0 for s in seeds}
    frontier = set(seeds)
    for h in range(1, max_rounds + 1):
        nxt = set()
        for n in frontier:
            for m in adj.get(n, ()):
                if m not in dist:
                    dist[m] = h
                    nxt.add(m)
        frontier = nxt
    return dist


def _seed_ds(names):
    return ray.data.from_pandas(pd.DataFrame({"node": names}))


def test_bfs_distances_golden():
    from dygiepp_ray.stages.graph import bfs_distances

    # path a-b-c-d-e plus branch b-x; undirected reach from {a}
    pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("x", "b")]
    want = _bfs_oracle(pairs, ["a"], 3)
    got = bfs_distances(_edge_ds(pairs), _seed_ds(["a"]), max_rounds=3,
                        n_buckets=4).to_pandas()
    assert dict(zip(got["node"], got["dist"].astype(int))) == want


def test_bfs_distances_directed_multi_seed_and_invariance():
    from dygiepp_ray.stages.graph import bfs_distances

    import numpy as np

    rng = np.random.RandomState(3)
    names = [f"n{i:02d}" for i in range(16)]
    pairs = [(names[rng.randint(16)], names[rng.randint(16)])
             for _ in range(40)]
    seeds = ["n00", "n07"]
    want = _bfs_oracle(pairs, seeds, 2, undirected=False)
    for nparts in (1, 3):
        got = bfs_distances(_edge_ds(pairs).repartition(nparts),
                            _seed_ds(seeds), max_rounds=2,
                            undirected=False, n_buckets=4).to_pandas()
        assert dict(zip(got["node"], got["dist"].astype(int))) == want


def test_personalized_pagerank_modes_and_oracle():
    from dygiepp_ray.oracle import expected_personalized_pagerank
    from dygiepp_ray.stages.graph import personalized_pagerank

    # DISTINCT edges: the operator contract takes a deduped edge table
    # (the oracle's _distinct_edges would otherwise collapse multi-edges
    # that the engine counted into outdeg)
    pairs = sorted({("v%02d" % ((i * 7) % 20), "v%02d" % ((i * 13 + 5) % 20))
                    for i in range(60)})
    ds = _edge_ds(pairs)
    seeds = ["v00", "v03", "v05"]
    sd = ray.data.from_pandas(pd.DataFrame({"node": seeds}))
    b = personalized_pagerank(ds, sd, n_iter=4, mode="broadcast").to_pandas(
        ).sort_values("node").reset_index(drop=True)
    s = personalized_pagerank(ds, sd, n_iter=4, mode="shuffle",
                              n_buckets=4).to_pandas(
        ).sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(b, s)
    want = expected_personalized_pagerank(
        _pairs_table(pairs), seeds, n_iter=4).to_pandas(
        ).sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(b, want)
    # sanity: mass concentrates on/near seeds, zero on unreachable-from-seed
    assert b.set_index("node").loc["v00", "rank_units"] > 0


@pytest.mark.parametrize("mode", ["broadcast", "shuffle"])
def test_pagerank_is_personalized_pagerank_with_every_node_seeded(mode):
    """Uniform PageRank is the seeded spec with the seed set = every node:
    base UNITS*15//100 on every node, UNITS initial units everywhere and
    rank divided by N*UNITS — bit-identical in both execution modes."""
    from dygiepp_ray.stages.graph import personalized_pagerank

    pairs = [("a", "b"), ("a", "c"), ("c", "a"), ("c", "b"), ("d", "a"),
             ("e", "e"), ("b", "e")]
    nodes = sorted({n for p in pairs for n in p})
    sd = ray.data.from_pandas(pd.DataFrame({"node": nodes}))
    want = pagerank_fixedpoint(_edge_ds(pairs), n_iter=3, n_buckets=4,
                               mode=mode).to_pandas().sort_values(
        "node").reset_index(drop=True)
    got = personalized_pagerank(_edge_ds(pairs), sd, n_iter=3, n_buckets=4,
                                mode=mode).to_pandas().sort_values(
        "node").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_personalized_pagerank_seed_locality():
    from dygiepp_ray.stages.graph import personalized_pagerank

    # two disconnected 2-cycles; seeding in one leaves the other at 0
    pairs = [("a", "b"), ("b", "a"), ("x", "y"), ("y", "x")]
    sd = ray.data.from_pandas(pd.DataFrame({"node": ["a"]}))
    got = personalized_pagerank(_edge_ds(pairs), sd, n_iter=6,
                                mode="broadcast").to_pandas()
    r = got.set_index("node")["rank_units"]
    assert r["x"] == 0 and r["y"] == 0
    assert r["a"] > 0 and r["b"] > 0


def _scc_oracle(pairs):
    from dygiepp_ray.oracle import expected_scc

    t = _pairs_table(pairs)
    t = t.append_column("pred", pa.array(["R"] * t.num_rows, pa.string()))
    df = expected_scc(t).to_pandas()
    return dict(zip(df["node"], df["scc_id"]))


def test_scc_golden_shapes():
    from dygiepp_ray.stages.graph import strongly_connected_components

    # 3-cycle {a,b,c}, 2-cycle {d,e} hanging off it, DAG tail f->g,
    # self-loop singleton z, isolated-by-direction pair x->y
    pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"),
             ("e", "d"), ("e", "f"), ("f", "g"), ("z", "z"), ("x", "y")]
    got = strongly_connected_components(_edge_ds(pairs)).to_pandas()
    gd = dict(zip(got["node"], got["scc_id"]))
    assert gd == _scc_oracle(pairs)
    assert gd["a"] == gd["b"] == gd["c"] == "a"
    assert gd["d"] == gd["e"] == "d"
    assert gd["f"] == "f" and gd["g"] == "g"
    assert gd["x"] == "x" and gd["y"] == "y" and gd["z"] == "z"


def test_scc_random_digraphs_match_tarjan():
    import numpy as np

    from dygiepp_ray.stages.graph import strongly_connected_components

    for seed, nn, ne in [(3, 12, 30), (4, 20, 45), (5, 25, 100)]:
        rng = np.random.RandomState(seed)
        names = [f"n{i:02d}" for i in range(nn)]
        pairs = sorted({(names[rng.randint(nn)], names[rng.randint(nn)])
                        for _ in range(ne)})
        got = strongly_connected_components(
            _edge_ds(pairs).repartition(3)).to_pandas()
        assert dict(zip(got["node"], got["scc_id"])) == _scc_oracle(pairs)


def test_scc_streaming_path_matches_local(monkeypatch):
    import numpy as np

    import dygiepp_ray.stages.graph as g

    rng = np.random.RandomState(9)
    names = [f"n{i:02d}" for i in range(15)]
    pairs = sorted({(names[rng.randint(15)], names[rng.randint(15)])
                    for _ in range(40)})
    local = g.strongly_connected_components(_edge_ds(pairs)).to_pandas()
    monkeypatch.setattr(g, "LOCAL_MAX_EDGES", 0)
    streamed = g.strongly_connected_components(
        _edge_ds(pairs).repartition(4)).to_pandas()
    pd.testing.assert_frame_equal(
        local.sort_values("node").reset_index(drop=True),
        streamed.sort_values("node").reset_index(drop=True))


def test_scc_admission_guard():
    # explicit broadcast mode above the node cap still errors (no silent
    # driver-state blowup) — but auto now FALLS BACK to the shuffle peel
    import pytest

    from dygiepp_ray.stages.graph import strongly_connected_components

    with pytest.raises(ValueError, match="broadcast admission"):
        strongly_connected_components(
            _edge_ds([("a", "b"), ("b", "a")]),
            broadcast_max_nodes=1, mode="broadcast").to_pandas()


def test_scc_shuffle_fallback_matches_broadcast():
    """VERDICT r4 #3: the huge-|V| Dataset-frontier peel. Pin the shuffle
    path bit-equal to the broadcast/driver path on shapes that exercise
    every peel phase (trim chains, nested cycles, self-loops), both via
    mode='shuffle' and via the auto-mode admission falling back."""
    import numpy as np

    from dygiepp_ray.stages.graph import strongly_connected_components

    pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"),
             ("e", "d"), ("e", "f"), ("f", "g"), ("z", "z"), ("x", "y")]
    want = _scc_oracle(pairs)
    got = strongly_connected_components(
        _edge_ds(pairs).repartition(3), mode="shuffle",
        n_buckets=4).to_pandas()
    assert dict(zip(got["node"], got["scc_id"])) == want
    # auto-mode fallback: node cap of 1 admits nothing -> shuffle path
    got2 = strongly_connected_components(
        _edge_ds(pairs), broadcast_max_nodes=1).to_pandas()
    assert dict(zip(got2["node"], got2["scc_id"])) == want

    for seed, nn, ne in [(11, 14, 35), (12, 22, 60)]:
        rng = np.random.RandomState(seed)
        names = [f"n{i:02d}" for i in range(nn)]
        rpairs = sorted({(names[rng.randint(nn)], names[rng.randint(nn)])
                         for _ in range(ne)})
        b = strongly_connected_components(
            _edge_ds(rpairs), mode="broadcast").to_pandas()
        s = strongly_connected_components(
            _edge_ds(rpairs).repartition(4), mode="shuffle",
            n_buckets=4).to_pandas()
        pd.testing.assert_frame_equal(
            b.sort_values("node").reset_index(drop=True),
            s.sort_values("node").reset_index(drop=True))


def test_scc_shuffle_round_budget():
    import pytest

    from dygiepp_ray.stages.graph import strongly_connected_components

    with pytest.raises(RuntimeError, match="max_rounds"):
        strongly_connected_components(
            _edge_ds([("a", "b"), ("b", "c"), ("c", "a")]),
            mode="shuffle", max_rounds=1).to_pandas()


def _inverse_pred_oracle(tri_rows, scale=10_000):
    edges = set(tri_rows)
    inv: dict[tuple, int] = {}
    for s, p, o in edges:
        for s2, p2, o2 in edges:
            if s2 == o and o2 == s:
                inv[(p, p2)] = inv.get((p, p2), 0) + 1
    tot: dict[str, int] = {}
    for _, p, _ in edges:
        tot[p] = tot.get(p, 0) + 1
    return {(a, b): (n, tot[a], n * scale // tot[a])
            for (a, b), n in inv.items()}


def test_inverse_predicates_golden_and_invariance():
    from dygiepp_ray.pipelines.kg import inverse_predicates

    # P/Q are exact inverses on (a,b); R is symmetric on (c,d); the
    # self-loop (e,P,e) is its own reverse; (a,P,c) has no reverse
    rows = [("a", "P", "b"), ("b", "Q", "a"), ("c", "R", "d"),
            ("d", "R", "c"), ("e", "P", "e"), ("a", "P", "c"),
            ("a", "P", "b")]  # duplicate collapses
    want = _inverse_pred_oracle(set(rows))
    assert want[("P", "Q")] == (1, 3, 3333)
    assert want[("R", "R")] == (2, 2, 10_000)
    for nparts in (1, 3):
        ds = ray.data.from_pandas(pd.DataFrame(
            rows, columns=["subj_norm", "pred", "obj_norm"])
        ).repartition(nparts)
        got = inverse_predicates(ds, salt_buckets=2, n_buckets=4).to_pandas()
        got_d = {(a, b): (int(n), int(t), int(f)) for a, b, n, t, f in
                 zip(got["pred_a"], got["pred_b"], got["n_inv"],
                     got["n_a"], got["frac_scaled"])}
        assert got_d == want


def test_inverse_predicates_random_matches_bruteforce():
    import numpy as np

    from dygiepp_ray.pipelines.kg import inverse_predicates

    rng = np.random.RandomState(7)
    names = [f"n{i}" for i in range(8)]
    preds = ["P", "Q", "R"]
    rows = [(names[rng.randint(8)], preds[rng.randint(3)],
             names[rng.randint(8)]) for _ in range(120)]
    want = _inverse_pred_oracle(set(rows))
    ds = ray.data.from_pandas(pd.DataFrame(
        rows, columns=["subj_norm", "pred", "obj_norm"])).repartition(3)
    got = inverse_predicates(ds, salt_buckets=2, n_buckets=4).to_pandas()
    got_d = {(a, b): (int(n), int(t), int(f)) for a, b, n, t, f in
             zip(got["pred_a"], got["pred_b"], got["n_inv"],
                 got["n_a"], got["frac_scaled"])}
    assert got_d == want


def _rule_mining_oracle(tri_rows, cap=64, min_support=1, scale=10_000):
    edges = set(tri_rows)
    ind: dict[str, int] = {}
    outd: dict[str, int] = {}
    for s, p, o in edges:
        ind[o] = ind.get(o, 0) + 1
        outd[s] = outd.get(s, 0) + 1
    ok = {e for e in ind if e in outd and ind[e] <= cap and outd[e] <= cap}
    paths = {(pa, pb, x, z)
             for x, pa, y in edges if y in ok
             for y2, pb, z in edges if y2 == y}
    body: dict[tuple, int] = {}
    for pa, pb, _, _ in paths:
        body[(pa, pb)] = body.get((pa, pb), 0) + 1
    sup: dict[tuple, int] = {}
    for pa, pb, x, z in paths:
        for s, pc_, o in edges:
            if s == x and o == z:
                sup[(pa, pb, pc_)] = sup.get((pa, pb, pc_), 0) + 1
    return {(pa, pb, pc_): (n, body[(pa, pb)],
                            n * scale // body[(pa, pb)])
            for (pa, pb, pc_), n in sup.items() if n >= min_support}


def _rule_df_to_dict(got):
    return {(a, b, c): (int(s), int(nb), int(f)) for a, b, c, s, nb, f in
            zip(got["pred_a"], got["pred_b"], got["pred_c"],
                got["n_support"], got["n_body"], got["conf_scaled"])}


def test_rule_mining_golden_and_invariance():
    from dygiepp_ray.pipelines.kg import rule_mining

    # transitive P: a-P->b-P->c closed by a-P->c => rule (P,P,P) conf 1/2
    # (the other body pair (b,d) from b-P->c-P->d is open); Q(x,z) closed
    # by the 2-hop P-path too
    rows = [("a", "P", "b"), ("b", "P", "c"), ("c", "P", "d"),
            ("a", "P", "c"), ("a", "Q", "c")]
    want = _rule_mining_oracle(set(rows))
    assert want[("P", "P", "P")] == (1, 3, 3333)
    assert want[("P", "P", "Q")] == (1, 3, 3333)
    for nparts in (1, 3):
        ds = ray.data.from_pandas(pd.DataFrame(
            rows, columns=["subj_norm", "pred", "obj_norm"])
        ).repartition(nparts)
        got = rule_mining(ds, salt_buckets=2, n_buckets=4).to_pandas()
        assert _rule_df_to_dict(got) == want


def test_rule_mining_random_matches_bruteforce_with_cap():
    import numpy as np

    from dygiepp_ray.pipelines.kg import rule_mining

    rng = np.random.RandomState(11)
    names = [f"n{i}" for i in range(40)]
    preds = ["P", "Q", "R"]
    rows = [(names[rng.randint(40)], preds[rng.randint(3)],
             names[rng.randint(40)]) for _ in range(150)]
    # sanity: the tight cap must actually drop at least one mid
    from collections import Counter
    ind = Counter(o for _, _, o in set(rows))
    outd = Counter(s for s, _, _ in set(rows))
    assert any(ind[e] > 6 or outd[e] > 6 for e in set(ind) & set(outd))
    # a tight cap exercises the mid-degree filter (part of the contract)
    want = _rule_mining_oracle(set(rows), cap=6)
    assert want  # non-degenerate
    ds = ray.data.from_pandas(pd.DataFrame(
        rows, columns=["subj_norm", "pred", "obj_norm"])).repartition(3)
    got = rule_mining(ds, max_mid_degree=6, salt_buckets=2,
                      n_buckets=4).to_pandas()
    assert _rule_df_to_dict(got) == want


def _domain_range_oracle(tri_rows, type_map, scale=10_000):
    edges = set(tri_rows)
    sig: dict[tuple, int] = {}
    tot: dict[str, int] = {}
    for s, p, o in edges:
        st = type_map.get(s, "UNKNOWN")
        ot = type_map.get(o, "UNKNOWN")
        sig[(p, st, ot)] = sig.get((p, st, ot), 0) + 1
        tot[p] = tot.get(p, 0) + 1
    return {(p, st, ot): (n, tot[p], n * scale // tot[p])
            for (p, st, ot), n in sig.items()}


def test_domain_range_signatures_golden_and_invariance():
    from dygiepp_ray.pipelines.kg import domain_range_signatures

    rows = [("a", "P", "b"), ("a", "P", "c"), ("d", "P", "b"),
            ("b", "Q", "e"), ("a", "P", "b")]  # duplicate collapses
    tmap = {"a": "Method", "b": "Task", "c": "Task", "d": "Metric"}
    # e is untyped -> UNKNOWN
    want = _domain_range_oracle(rows, tmap)
    assert want[("P", "Method", "Task")] == (2, 3, 6666)
    assert want[("Q", "Task", "UNKNOWN")] == (1, 1, 10_000)
    types_df = pd.DataFrame({"entity": list(tmap), "etype": list(tmap.values()),
                             "n_mentions": [1] * len(tmap)})
    for nparts in (1, 3):
        tri = ray.data.from_pandas(pd.DataFrame(
            rows, columns=["subj_norm", "pred", "obj_norm"])
        ).repartition(nparts)
        types = ray.data.from_pandas(types_df).repartition(nparts)
        got = domain_range_signatures(tri, types, salt_buckets=2,
                                      n_buckets=4).to_pandas()
        got_d = {(p, s, o): (int(n), int(t), int(f)) for p, s, o, n, t, f in
                 zip(got["pred"], got["subj_type"], got["obj_type"],
                     got["n_edges"], got["n_pred"], got["frac_scaled"])}
        assert got_d == want


def test_domain_range_signatures_random_matches_bruteforce():
    import numpy as np

    from dygiepp_ray.pipelines.kg import domain_range_signatures

    rng = np.random.RandomState(13)
    names = [f"n{i}" for i in range(20)]
    preds = ["P", "Q", "R"]
    etypes = ["A", "B", "C"]
    rows = [(names[rng.randint(20)], preds[rng.randint(3)],
             names[rng.randint(20)]) for _ in range(120)]
    tmap = {n: etypes[rng.randint(3)] for n in names[:15]}  # 5 untyped
    want = _domain_range_oracle(rows, tmap)
    tri = ray.data.from_pandas(pd.DataFrame(
        rows, columns=["subj_norm", "pred", "obj_norm"])).repartition(3)
    types = ray.data.from_pandas(pd.DataFrame(
        {"entity": list(tmap), "etype": list(tmap.values()),
         "n_mentions": [1] * len(tmap)})).repartition(2)
    got = domain_range_signatures(tri, types, salt_buckets=2,
                                  n_buckets=4).to_pandas()
    got_d = {(p, s, o): (int(n), int(t), int(f)) for p, s, o, n, t, f in
             zip(got["pred"], got["subj_type"], got["obj_type"],
                 got["n_edges"], got["n_pred"], got["frac_scaled"])}
    assert got_d == want


def _redundant_oracle(tri_rows, cap=64):
    edges = set(tri_rows)
    nl = {(s, p, o) for s, p, o in edges if s != o}
    ind: dict[tuple, int] = {}
    outd: dict[tuple, int] = {}
    for s, p, o in nl:
        ind[(p, o)] = ind.get((p, o), 0) + 1
        outd[(p, s)] = outd.get((p, s), 0) + 1
    ok = {k for k in ind
          if k in outd and ind[k] <= cap and outd[k] <= cap}
    paths = {(p, x, z)
             for x, p, y in nl if (p, y) in ok
             for y2, p2, z in nl if p2 == p and y2 == y}
    return {(s, p, o) for s, p, o in edges if (p, s, o) in paths}


def test_redundant_edges_golden_and_invariance():
    from dygiepp_ray.pipelines.kg import redundant_edges

    # chain a-P->b-P->c plus shortcut a-P->c => shortcut is redundant;
    # cycle x-P->y-P->x => both edges redundant? (x,P,x) not an edge, so
    # no; Q edge not redundant; self-loop leg (s,P,s) never counts
    rows = [("a", "P", "b"), ("b", "P", "c"), ("a", "P", "c"),
            ("x", "Q", "y"), ("s", "P", "s"), ("s", "P", "t"),
            ("a", "P", "b")]  # duplicate collapses
    want = _redundant_oracle(set(rows))
    assert want == {("a", "P", "c")}
    for nparts in (1, 3):
        ds = ray.data.from_pandas(pd.DataFrame(
            rows, columns=["subj_norm", "pred", "obj_norm"])
        ).repartition(nparts)
        got = redundant_edges(ds, salt_buckets=2, n_buckets=4).to_pandas()
        got_s = {(s, p, o) for s, p, o in
                 zip(got["subj_norm"], got["pred"], got["obj_norm"])}
        assert got_s == want


def test_redundant_edges_random_matches_bruteforce_with_cap():
    import numpy as np

    from dygiepp_ray.pipelines.kg import redundant_edges

    rng = np.random.RandomState(17)
    names = [f"n{i}" for i in range(25)]
    preds = ["P", "Q"]
    rows = [(names[rng.randint(25)], preds[rng.randint(2)],
             names[rng.randint(25)]) for _ in range(160)]
    want = _redundant_oracle(set(rows), cap=4)
    assert want  # non-degenerate
    ds = ray.data.from_pandas(pd.DataFrame(
        rows, columns=["subj_norm", "pred", "obj_norm"])).repartition(3)
    got = redundant_edges(ds, max_mid_degree=4, salt_buckets=2,
                          n_buckets=4).to_pandas()
    got_s = {(s, p, o) for s, p, o in
             zip(got["subj_norm"], got["pred"], got["obj_norm"])}
    assert got_s == want


def test_functional_repair_golden_and_invariance():
    from dygiepp_ray.pipelines.kg import functional_repair

    tri = pd.DataFrame({
        "subj_norm": ["a", "a", "a", "a", "b", "b", "c"],
        "pred":      ["R", "R", "R", "R", "R", "R", "S"],
        # a-R: b asserted 3x, c once -> winner b (support 3, contested 2);
        # b-R: tie c/d support 1 -> lexicographic winner c;
        # c-S: uncontested
        "obj_norm":  ["b", "b", "b", "c", "c", "d", "x"],
    })
    for nparts in (1, 3):
        got = functional_repair(
            ray.data.from_pandas(tri).repartition(nparts),
            salt_buckets=2, n_buckets=4).to_pandas()
        d = {(r.subj_norm, r.pred): (r.obj_norm, int(r.support),
                                     int(r.n_objs))
             for r in got.itertuples()}
        assert d == {("a", "R"): ("b", 3, 2),
                     ("b", "R"): ("c", 1, 2),
                     ("c", "S"): ("x", 1, 1)}


# ---------------------------------------------------------------- LPA


def test_label_propagation_disjoint_triangles_golden():
    from dygiepp_ray.stages.graph import label_propagation

    # two disjoint triangles converge to min-member communities in 2 rounds
    pairs = [("a", "b"), ("a", "c"), ("b", "c"),
             ("p", "q"), ("p", "r"), ("q", "r")]
    got = label_propagation(_edge_ds(pairs)).to_pandas()
    comm = dict(zip(got["node"], got["community"]))
    assert comm == {"a": "a", "b": "a", "c": "a",
                    "p": "p", "q": "p", "r": "p"}


def test_label_propagation_matches_scalar_oracle_random():
    from dygiepp_ray.stages.graph import label_propagation

    # pseudo-random graphs incl. reciprocal edges and a self-loop; engine
    # must match the single-threaded dict re-walk bit-for-bit
    for salt in (1, 2, 3):
        pairs = sorted({("v%02d" % ((i * 7 + salt) % 23),
                         "v%02d" % ((i * 13 + 5 * salt) % 23))
                        for i in range(60)})
        got = label_propagation(_edge_ds(pairs)).to_pandas().sort_values(
            "node").reset_index(drop=True)
        exp = o.expected_label_propagation(_pairs_table(pairs)).to_pandas()
        pd.testing.assert_frame_equal(got, exp)


def test_label_propagation_streamed_rounds_match_local(monkeypatch):
    """Force the per-round streamed-partials path (LOCAL_MAX_EDGES=0) and
    pin it against the local fast path — the 100-TB rounds path stays
    bit-identical, not just reachable."""
    import dygiepp_ray.stages.graph as g
    from dygiepp_ray.stages.graph import label_propagation

    pairs = sorted({("u%02d" % ((i * 11) % 17), "u%02d" % ((i * 5 + 3) % 17))
                    for i in range(40)})
    local = label_propagation(_edge_ds(pairs)).to_pandas().sort_values(
        "node").reset_index(drop=True)
    monkeypatch.setattr(g, "LOCAL_MAX_EDGES", 0)
    streamed = label_propagation(_edge_ds(pairs).repartition(4)).to_pandas(
        ).sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(streamed, local)


def test_label_propagation_admission_guard():
    from dygiepp_ray.stages.graph import label_propagation

    with pytest.raises(ValueError, match="broadcast admission"):
        label_propagation(_edge_ds([("a", "b")]), broadcast_max_nodes=1)


def test_label_propagation_partitioning_invariant():
    from dygiepp_ray.stages.graph import label_propagation

    pairs = sorted({("w%02d" % ((i * 3) % 19), "w%02d" % ((i * 7 + 2) % 19))
                    for i in range(50)})
    one = label_propagation(_edge_ds(pairs).repartition(1)).to_pandas(
        ).sort_values("node").reset_index(drop=True)
    many = label_propagation(_edge_ds(pairs).repartition(7)).to_pandas(
        ).sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(one, many)


# ---------------------------------------------------------------- HITS


def test_hits_golden_hubs_and_authorities():
    from dygiepp_ray.stages.graph import HITS_UNITS, hits_scores

    # a and d point at b; a also points at c -> b is the top authority,
    # a the top hub; exact integer spec matches the dict re-walk
    pairs = [("a", "b"), ("a", "c"), ("d", "b")]
    got = hits_scores(_edge_ds(pairs)).to_pandas().set_index("node")
    exp = o.expected_hits(_pairs_table(pairs)).to_pandas().set_index("node")
    pd.testing.assert_frame_equal(got.sort_index(), exp.sort_index())
    assert got["auth_units"].idxmax() == "b"
    assert got["auth_units"].max() == HITS_UNITS  # max-rescaled
    assert got["hub_units"].idxmax() == "a"
    assert got.loc["a", "auth_units"] == 0  # nothing points at a


def test_hits_matches_oracle_random_and_streamed(monkeypatch):
    import dygiepp_ray.stages.graph as g
    from dygiepp_ray.stages.graph import hits_scores

    pairs = sorted({("h%02d" % ((i * 7 + 1) % 19),
                     "h%02d" % ((i * 11 + 4) % 19)) for i in range(45)})
    got = hits_scores(_edge_ds(pairs)).to_pandas().sort_values(
        "node").reset_index(drop=True)
    exp = o.expected_hits(_pairs_table(pairs)).to_pandas()
    pd.testing.assert_frame_equal(got, exp)
    # per-pass streamed path (the 100-TB rounds path) is bit-identical
    monkeypatch.setattr(g, "LOCAL_MAX_EDGES", 0)
    streamed = hits_scores(_edge_ds(pairs).repartition(5)).to_pandas(
        ).sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(streamed, exp)


def test_hits_admission_guard():
    from dygiepp_ray.stages.graph import hits_scores

    with pytest.raises(ValueError, match="broadcast admission"):
        hits_scores(_edge_ds([("a", "b")]), broadcast_max_nodes=1)


# --------------------------------------------------- clustering coefficient


def _tri_ds(pairs):
    return ray.data.from_pandas(pd.DataFrame(
        {"subj_norm": [p[0] for p in pairs],
         "obj_norm": [p[1] for p in pairs]}))


def test_clustering_coefficient_golden():
    from dygiepp_ray.pipelines.kg import clustering_coefficient

    # K3 {a,b,c} plus pendant edge c-d
    pairs = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]
    got = clustering_coefficient(_tri_ds(pairs)).to_pandas().set_index("node")
    assert got.loc["a", "cc_scaled"] == 10_000   # deg 2, 1 triangle
    assert got.loc["b", "cc_scaled"] == 10_000
    assert got.loc["c", "cc_scaled"] == 3_333    # 2*1*1e4 // (3*2)
    assert got.loc["c", "deg"] == 3
    assert got.loc["d", "cc_scaled"] == 0 and got.loc["d", "deg"] == 1
    assert got.loc["d", "n_triangles"] == 0


def test_clustering_coefficient_partitioning_invariant():
    from dygiepp_ray.pipelines.kg import clustering_coefficient

    pairs = sorted({("c%02d" % ((i * 5) % 13), "c%02d" % ((i * 7 + 2) % 13))
                    for i in range(30)})
    one = clustering_coefficient(_tri_ds(pairs).repartition(1)).to_pandas(
        ).sort_values("node").reset_index(drop=True)
    many = clustering_coefficient(_tri_ds(pairs).repartition(6)).to_pandas(
        ).sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(one, many)


def _neighbor_jaccard_oracle(pairs, cap=64, min_common=2, scale=1_000_000):
    # independent re-walk: full degrees, capped-center common counts,
    # floor-div Jaccard, is_edge flag
    und = {(min(u, v), max(u, v)) for u, v in pairs if u != v}
    adj: dict[str, set] = {}
    for u, v in und:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    import itertools

    counts: dict[tuple, int] = {}
    for c, ns in adj.items():
        if len(ns) > cap:
            continue
        for x, y in itertools.combinations(sorted(ns), 2):
            counts[(x, y)] = counts.get((x, y), 0) + 1
    out = {}
    for (x, y), c in counts.items():
        if c < min_common:
            continue
        dx, dy = len(adj[x]), len(adj[y])
        out[(x, y)] = (c, dx, dy, (c * scale) // (dx + dy - c),
                       int((x, y) in und))
    return out


def test_neighborhood_jaccard_golden_and_invariance():
    from dygiepp_ray.pipelines.kg import neighborhood_jaccard

    # a-c is an existing edge AND shares 2 neighbors (h, w): it must stay,
    # flagged is_edge=1 — the semantic difference from link_prediction
    pairs = [("h", "a"), ("h", "b"), ("h", "c"), ("h", "d"),
             ("z", "a"), ("z", "b"), ("w", "a"), ("w", "c"),
             ("a", "c"), ("a", "a"), ("h", "a")]
    want = _neighbor_jaccard_oracle(pairs)
    assert any(v[4] == 1 for v in want.values())  # an is_edge pair exists
    for nparts in (1, 3):
        ds = ray.data.from_pandas(_lp_triples(pairs)).repartition(nparts)
        got = neighborhood_jaccard(ds, salt_buckets=2,
                                   n_buckets=4).to_pandas()
        got_d = {(r.x, r.y): (int(r.common_neighbors), int(r.deg_x),
                              int(r.deg_y), int(r.jaccard_scaled),
                              int(r.is_edge))
                 for r in got.itertuples()}
        assert got_d == want


def test_neighborhood_jaccard_random_graph_matches_bruteforce():
    import numpy as np

    from dygiepp_ray.pipelines.kg import neighborhood_jaccard

    rng = np.random.RandomState(23)
    names = [f"n{i:02d}" for i in range(14)]
    pairs = [(names[rng.randint(14)], names[rng.randint(14)])
             for _ in range(60)]
    want = _neighbor_jaccard_oracle(pairs, cap=6, min_common=2)
    got = neighborhood_jaccard(
        ray.data.from_pandas(_lp_triples(pairs)).repartition(3),
        max_center_degree=6, min_common=2, salt_buckets=2,
        n_buckets=4).to_pandas()
    got_d = {(r.x, r.y): (int(r.common_neighbors), int(r.deg_x),
                          int(r.deg_y), int(r.jaccard_scaled),
                          int(r.is_edge))
             for r in got.itertuples()}
    assert got_d == want


def test_link_prediction_resource_allocation_weights():
    from dygiepp_ray.pipelines.kg import link_prediction

    # a-b share centers h (deg 4) and z (deg 2): ra = S//4 + S//2;
    # c-d share only h: below min_common=2 -> dropped
    pairs = [("h", "a"), ("h", "b"), ("h", "c"), ("h", "d"),
             ("z", "a"), ("z", "b")]
    S = 1_000_000_000_000
    for nparts in (1, 3):
        ds = ray.data.from_pandas(_lp_triples(pairs)).repartition(nparts)
        got = link_prediction(ds, min_common=2, n_buckets=4,
                              salt_buckets=2, ra_scale=S).to_pandas()
        got_d = {(x, y): (int(n), int(r)) for x, y, n, r in
                 zip(got["x"], got["y"], got["common_neighbors"],
                     got["ra_score"])}
        # brute force: every non-edge pair with >=2 shared centers
        assert got_d == {("a", "b"): (2, S // 4 + S // 2),
                         ("h", "z"): (2, S // 2 + S // 2)}


def test_pagerank_weighted_unit_weights_match_unweighted(monkeypatch):
    import numpy as np

    import dygiepp_ray.stages.graph as G

    rng = np.random.RandomState(11)
    names = [f"n{i:02d}" for i in range(10)]
    pairs = sorted({(names[rng.randint(10)], names[rng.randint(10)])
                    for _ in range(30)})
    edges = pd.DataFrame({"src": [p[0] for p in pairs],
                          "dst": [p[1] for p in pairs]})
    edges["w"] = 1
    want = G.pagerank_fixedpoint(ray.data.from_pandas(edges[["src", "dst"]]),
                                 mode="broadcast").to_pandas().sort_values(
        "node").reset_index(drop=True)
    got = G.pagerank_weighted(ray.data.from_pandas(edges)).to_pandas(
        ).sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    # streamed edge path (LOCAL_MAX_EDGES=0) is bit-identical
    monkeypatch.setattr(G, "LOCAL_MAX_EDGES", 0)
    got2 = G.pagerank_weighted(ray.data.from_pandas(edges).repartition(3)
                               ).to_pandas().sort_values("node").reset_index(
        drop=True)
    pd.testing.assert_frame_equal(got2, want)


def test_pagerank_weighted_matches_bigint_oracle(monkeypatch):
    import numpy as np
    import pyarrow as pa

    import dygiepp_ray.stages.graph as G
    from dygiepp_ray.oracle import expected_pagerank_weighted

    rng = np.random.RandomState(13)
    names = [f"e{i}" for i in range(8)]
    subs = [names[rng.randint(8)] for _ in range(60)]
    objs = [names[rng.randint(8)] for _ in range(60)]
    tri = pa.table({"subj_norm": pa.array(subs, pa.string()),
                    "obj_norm": pa.array(objs, pa.string())})
    want = expected_pagerank_weighted(tri).to_pandas().sort_values(
        "node").reset_index(drop=True)
    w_of = pd.DataFrame({"subj_norm": subs, "obj_norm": objs}).groupby(
        ["subj_norm", "obj_norm"], as_index=False).size().rename(
        columns={"size": "w"})
    for nparts in (1, 3):
        got = G.pagerank_weighted(
            ray.data.from_pandas(w_of).repartition(nparts),
            src="subj_norm", dst="obj_norm", weight="w").to_pandas(
            ).sort_values("node").reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)


def test_bfs_per_seed_folds_to_multisource():
    import numpy as np

    from dygiepp_ray.stages.graph import bfs_distances, bfs_distances_per_seed

    rng = np.random.RandomState(7)
    names = [f"n{i:02d}" for i in range(12)]
    pairs = sorted({(names[rng.randint(12)], names[rng.randint(12)])
                    for _ in range(28)})
    edges = pd.DataFrame({"src": [p[0] for p in pairs],
                          "dst": [p[1] for p in pairs]})
    seeds = pd.DataFrame({"node": [names[0], names[5]]})
    want = bfs_distances(ray.data.from_pandas(edges),
                         ray.data.from_pandas(seeds), max_rounds=3,
                         n_buckets=4).to_pandas().sort_values(
        "node").reset_index(drop=True)
    per = bfs_distances_per_seed(ray.data.from_pandas(edges),
                                 ray.data.from_pandas(seeds), max_rounds=3,
                                 n_buckets=4).to_pandas()
    folded = per.groupby("node", as_index=False)["dist"].min().sort_values(
        "node").reset_index(drop=True)
    pd.testing.assert_frame_equal(folded, want)
    # each seed reaches itself at distance 0
    self_rows = per[per["seed"] == per["node"]]
    assert set(self_rows["node"]) == {"n00", "n05"}
    assert (self_rows["dist"] == 0).all()


def test_seeded_type_propagation_golden_and_streamed(monkeypatch):
    import pyarrow as pa

    import dygiepp_ray.stages.graph as G

    # chain a-b-c-d with seed types at the ends: b adopts A (from a),
    # c adopts D (from d) in round 1; tie node x (neighbors typed A and D
    # equally) takes the lexicographically smaller type A
    edges = pd.DataFrame({"src": ["a", "b", "c", "a", "d"],
                          "dst": ["b", "c", "d", "x", "x"]})
    seeds = pd.DataFrame({"entity": ["a", "d", "zz_not_in_graph"],
                          "etype": ["A", "D", "Z"]})
    want = {("a", "A", 0), ("d", "D", 0), ("b", "A", 1), ("c", "D", 1),
            ("x", "A", 1)}
    got = G.seeded_type_propagation(
        ray.data.from_pandas(edges), ray.data.from_pandas(seeds),
        n_iter=2).to_pandas()
    assert {(r.node, r.etype, int(r.round_assigned))
            for r in got.itertuples()} == want
    # streamed vote path is bit-identical
    monkeypatch.setattr(G, "LOCAL_MAX_EDGES", 0)
    got2 = G.seeded_type_propagation(
        ray.data.from_pandas(edges).repartition(3),
        ray.data.from_pandas(seeds), n_iter=2).to_pandas()
    assert {(r.node, r.etype, int(r.round_assigned))
            for r in got2.itertuples()} == want
    # oracle twin agrees
    from dygiepp_ray.oracle import expected_type_propagation

    tri = pa.table({"subj_norm": pa.array(edges["src"], pa.string()),
                    "obj_norm": pa.array(edges["dst"], pa.string()),
                    "pred": pa.array(["P"] * len(edges), pa.string())})
    ty = pa.table({"entity": pa.array(seeds["entity"], pa.string()),
                   "etype": pa.array(seeds["etype"], pa.string())})
    exp = expected_type_propagation(tri, ty)
    assert {(n, t, int(r)) for n, t, r in zip(
        exp["node"].to_pylist(), exp["etype"].to_pylist(),
        exp["round_assigned"].to_pylist())} == want


# --------------------------------------------------------- edge support


def _edge_support_brute(pairs: list[tuple[str, str]]) -> dict[tuple, int]:
    und = {tuple(sorted(e)) for e in pairs if e[0] != e[1]}
    adj: dict[str, set] = {}
    for u, v in und:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return {(u, v): len(adj[u] & adj[v]) for u, v in und}


def test_edge_support_golden_and_invariance():
    from dygiepp_ray.pipelines.kg import edge_support

    # K4 (every edge support 2) + pendant edge d-e (support 0 → bridge)
    pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", "d"), ("d", "e"), ("e", "e"), ("b", "a")]
    tri = pd.DataFrame({
        "subj_norm": [p[0] for p in pairs],
        "pred": ["R"] * len(pairs),
        "obj_norm": [p[1] for p in pairs],
    })
    want = _edge_support_brute(pairs)
    for nparts in (1, 3):
        ds = ray.data.from_pandas(tri).repartition(nparts)
        got = edge_support(ds, salt_buckets=2).to_pandas()
        assert {(r.u, r.v): int(r.support)
                for r in got.itertuples()} == want
        assert all(int(r.is_bridge) == (int(r.support) == 0)
                   for r in got.itertuples())


def test_edge_support_random_graph_matches_bruteforce():
    import numpy as np

    from dygiepp_ray.pipelines.kg import edge_support

    rng = np.random.RandomState(11)
    names = [f"n{i:02d}" for i in range(16)]
    pairs = [(names[rng.randint(16)], names[rng.randint(16)])
             for _ in range(90)]
    tri = pd.DataFrame({
        "subj_norm": [p[0] for p in pairs],
        "pred": ["R"] * len(pairs),
        "obj_norm": [p[1] for p in pairs],
    })
    want = _edge_support_brute(pairs)
    got = edge_support(
        ray.data.from_pandas(tri).repartition(3), salt_buckets=2).to_pandas()
    assert {(r.u, r.v): int(r.support) for r in got.itertuples()} == want


# ----------------------------------------------------------- degree gini


def test_degree_gini_matches_bruteforce():
    import numpy as np

    from dygiepp_ray.pipelines.kg import degree_gini

    rng = np.random.RandomState(3)
    names = [f"n{i:02d}" for i in range(14)]
    pairs = [(names[rng.randint(14)], names[rng.randint(14)])
             for _ in range(60)]
    tri = pd.DataFrame({
        "subj_norm": [p[0] for p in pairs],
        "pred": ["R"] * len(pairs),
        "obj_norm": [p[1] for p in pairs],
    })
    und = {tuple(sorted(p)) for p in pairs if p[0] != p[1]}
    degs: dict[str, int] = {}
    for u, v in und:
        degs[u] = degs.get(u, 0) + 1
        degs[v] = degs.get(v, 0) + 1
    vals = sorted(degs.values())
    n, s0 = len(vals), sum(vals)
    s1 = sum((i + 1) * d for i, d in enumerate(vals))
    want = ((2 * s1 - (n + 1) * s0) * 1_000_000) // (n * s0)
    for n_bands in (2, 64):
        got = degree_gini(ray.data.from_pandas(tri).repartition(3),
                          salt_buckets=2, n_bands=n_bands).to_pandas()
        assert int(got["n_nodes"].iloc[0]) == n
        assert int(got["sum_deg"].iloc[0]) == s0
        assert int(got["gini_ppm"].iloc[0]) == want


# ---------------------------------------------------------------- truss


def _truss_brute(pairs: list[tuple[str, str]]) -> dict[tuple, int]:
    """Definition-based: k-truss by iterated full support recompute."""
    und = {tuple(sorted(e)) for e in pairs if e[0] != e[1]}
    truss = {e: 2 for e in und}
    cur, k = set(und), 3
    while cur:
        g = set(cur)
        while True:
            adj: dict[str, set] = {}
            for a, b in g:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
            bad = [e for e in g if len(adj[e[0]] & adj[e[1]]) < k - 2]
            if not bad:
                break
            g -= set(bad)
        for e in g:
            truss[e] = k
        cur = g
        k += 1
    return truss


def test_truss_golden_and_invariance():
    from dygiepp_ray.stages.graph import truss_decomposition

    # K4 (every edge trussness 4) + pendant d-e (trussness 2) + a
    # triangle hanging off e (trussness 3)
    pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", "d"), ("d", "e"), ("e", "f"), ("e", "g"), ("f", "g")]
    tri = pd.DataFrame({"subj_norm": [p[0] for p in pairs],
                        "obj_norm": [p[1] for p in pairs]})
    want = _truss_brute(pairs)
    for nparts in (1, 3):
        got = truss_decomposition(
            ray.data.from_pandas(tri).repartition(nparts),
            src="subj_norm", dst="obj_norm").to_pandas()
        assert {(r.u, r.v): int(r.trussness)
                for r in got.itertuples()} == want
    assert want[("a", "b")] == 4 and want[("d", "e")] == 2
    assert want[("e", "f")] == 3


def test_truss_random_graph_matches_bruteforce():
    import numpy as np

    from dygiepp_ray.stages.graph import truss_decomposition

    rng = np.random.RandomState(21)
    names = [f"n{i:02d}" for i in range(15)]
    pairs = [(names[rng.randint(15)], names[rng.randint(15)])
             for _ in range(110)]
    tri = pd.DataFrame({"subj_norm": [p[0] for p in pairs],
                        "obj_norm": [p[1] for p in pairs]})
    want = _truss_brute(pairs)
    got = truss_decomposition(
        ray.data.from_pandas(tri).repartition(3),
        src="subj_norm", dst="obj_norm").to_pandas()
    assert {(r.u, r.v): int(r.trussness) for r in got.itertuples()} == want


def test_truss_admission_guard(monkeypatch):
    import dygiepp_ray.stages.graph as G

    tri = pd.DataFrame({"subj_norm": ["a", "b", "c"],
                        "obj_norm": ["b", "c", "a"]})
    monkeypatch.setattr(G, "LOCAL_MAX_EDGES", 1)
    with pytest.raises(ValueError, match="admission"):
        G.truss_decomposition(ray.data.from_pandas(tri), src="subj_norm",
                              dst="obj_norm")


# ----------------------------------------------------- weighted min dist


def test_weighted_min_distances_vs_bellman_ford():
    import numpy as np

    from dygiepp_ray.stages.graph import weighted_min_distances

    rng = np.random.RandomState(17)
    names = [f"n{i:02d}" for i in range(12)]
    rows = []
    for _ in range(40):
        a, b = names[rng.randint(12)], names[rng.randint(12)]
        if a == b:
            continue
        rows.append((a, b, int(rng.randint(1, 5))))
    # dedup to (u,v) min weight like the operator's symmetrized min
    wmap: dict = {}
    for a, b, w in rows:
        e = (a, b) if a < b else (b, a)
        wmap[e] = min(wmap.get(e, 1 << 30), w)
    seeds = [names[0], names[3]]
    R = 3
    dist = {s: 0 for s in seeds}
    for _ in range(R):
        nxt = dict(dist)
        for (a, b), w in wmap.items():
            if a in dist and dist[a] + w < nxt.get(b, 1 << 60):
                nxt[b] = dist[a] + w
            if b in dist and dist[b] + w < nxt.get(a, 1 << 60):
                nxt[a] = dist[b] + w
        dist = nxt

    edges = pd.DataFrame({"src": [e[0] for e in wmap],
                          "dst": [e[1] for e in wmap],
                          "w": [wmap[e] for e in wmap]})
    sd = ray.data.from_arrow(pa.table({"node": pa.array(seeds, pa.string())}))
    for nparts in (1, 3):
        got = weighted_min_distances(
            ray.data.from_pandas(edges).repartition(nparts), sd,
            max_rounds=R).to_pandas()
        assert dict(zip(got["node"], got["dist"].astype(int))) == dist


# --------------------------------------------------- sampled betweenness


def test_betweenness_sampled_star_and_path_goldens():
    from dygiepp_ray.stages.graph import betweenness_sampled

    SCALE = 1_000_000
    # path a-b-c-d-e: hubs by (deg desc, name) = b, c, d (deg 2)
    pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]
    tri = pd.DataFrame({"subj_norm": [p[0] for p in pairs],
                        "obj_norm": [p[1] for p in pairs]})
    got = betweenness_sampled(
        ray.data.from_pandas(tri), src="subj_norm", dst="obj_norm",
        n_seeds=1, max_rounds=4).to_pandas()
    have = dict(zip(got["node"], got["bc_scaled"].astype(int)))
    # seed = b (deg 2, name first). BFS: levels b | a,c | d | e.
    # delta(d) = 1*(S+0)//1 = S; delta(c) = (S + delta(d)) = 2S;
    # delta(a) = 0 (leaf at level 1 has no successors).
    assert have["d"] == SCALE
    assert have["c"] == 2 * SCALE
    assert have["a"] == 0 and have["e"] == 0 and have["b"] == 0


def test_betweenness_sampled_matches_dict_oracle_random():
    import numpy as np
    import pyarrow as _pa

    from dygiepp_ray.oracle import expected_betweenness
    from dygiepp_ray.stages.graph import betweenness_sampled

    rng = np.random.RandomState(29)
    names = [f"n{i:02d}" for i in range(14)]
    pairs = [(names[rng.randint(14)], names[rng.randint(14)])
             for _ in range(55)]
    tri_t = _pa.table({
        "subj_norm": _pa.array([p[0] for p in pairs], _pa.string()),
        "pred": _pa.array(["R"] * len(pairs), _pa.string()),
        "obj_norm": _pa.array([p[1] for p in pairs], _pa.string())})
    want = expected_betweenness(tri_t)
    want_map = dict(zip(want["node"].to_pylist(),
                        want["bc_scaled"].to_pylist()))
    got = betweenness_sampled(
        ray.data.from_arrow(tri_t).repartition(3),
        src="subj_norm", dst="obj_norm").to_pandas()
    assert dict(zip(got["node"], got["bc_scaled"].astype(int))) == want_map


def test_betweenness_admission_guard(monkeypatch):
    import dygiepp_ray.stages.graph as G

    tri = pd.DataFrame({"subj_norm": ["a", "b", "c"],
                        "obj_norm": ["b", "c", "a"]})
    monkeypatch.setattr(G, "LOCAL_MAX_EDGES", 2)
    with pytest.raises(ValueError, match="admission"):
        G.betweenness_sampled(ray.data.from_pandas(tri), src="subj_norm",
                              dst="obj_norm")


def test_broadcast_edge_passes_go_through_one_helper():
    """Broadcast mode reads `LOCAL_MAX_EDGES` and `ray.put`s pass state in
    one edge-pass helper only; besides it, `_index_edges` puts its vocabulary
    map and truss/betweenness read the bound for their |E| admission. A
    new broadcast algorithm writes a pass kernel, not a second local-or-
    streamed branch."""
    import ast
    import inspect

    import dygiepp_ray.stages.graph as G

    readers: dict[str, set] = {"LOCAL_MAX_EDGES": set(), "ray.put": set()}
    for top in ast.parse(inspect.getsource(G)).body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id == "LOCAL_MAX_EDGES":
                readers["LOCAL_MAX_EDGES"].add(top.name)
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func) == "ray.put"):
                readers["ray.put"].add(top.name)
    assert readers == {"LOCAL_MAX_EDGES": {"_EdgePasses", "_local_undirected"},
                       "ray.put": {"_EdgePasses", "_index_edges"}}
