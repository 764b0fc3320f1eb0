"""Entity linking: broadcast alias table + deterministic candidate scoring."""

import pandas as pd

import ray
import ray.data

from dygiepp_ray.stages.linking import EntityLinker, build_alias_table

ALIASES = {
    "E001": ["hash join", "hash joins"],
    "E002": ["sort merge join"],
    "E003": ["bloom filter", "filter bloom"],
}


def _linker():
    return EntityLinker(build_alias_table(ALIASES))


def test_exact_alias_hit():
    eid, score = _linker().link_one("Hash Join")
    assert (eid, score) == ("E001", 1.0)


def test_canonical_hit():
    # "hash joins" lemmatizes to "hash join" → canonical map
    eid, score = _linker().link_one("the hash joins")
    assert eid == "E001" and score == 0.8


def test_jaccard_fallback_and_tie_break():
    eid, score = _linker().link_one("merge join sort")
    assert eid == "E002" and score == 1.0  # token-set equal → jaccard 1.0
    eid2, _ = _linker().link_one("zzz unknown thing")
    assert eid2 is None


def test_linker_stage_over_dataset():
    ds = ray.data.from_pandas(pd.DataFrame({"mention": ["hash join", "nope at all"]}))
    ref = ray.put(build_alias_table(ALIASES))
    out = ds.map_batches(EntityLinker(ref), batch_format="pandas").to_pandas()
    assert out.loc[out["mention"] == "hash join", "entity_id"].iloc[0] == "E001"
    assert out.loc[out["mention"] == "nope at all", "entity_id"].isna().all()


def test_alias_pairs_finds_article_variants():
    import pandas as pd

    import ray.data
    from dygiepp_ray.stages.linking import alias_pairs

    names = ray.data.from_pandas(pd.DataFrame({
        "name": ["system", "the system", "approach", "this approach",
                 "hash join", "latency"]}))
    got = (alias_pairs(names, threshold=0.5).to_pandas()
           .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    pairs = set(map(tuple, got[["id_a", "id_b"]].values.tolist()))
    assert ("approach", "this approach") in pairs
    assert ("system", "the system") in pairs
    assert not any("hash join" in p or "latency" in p for p in pairs)


def test_alias_merge_rekeys_edges():
    import pandas as pd

    import ray.data
    from dygiepp_ray.stages.linking import alias_merge_edges

    tri = ray.data.from_pandas(pd.DataFrame({
        "subj": ["the system", "system", "hash join"],
        "pred": ["USED-FOR"] * 3,
        "obj": ["latency", "latency", "latency"],
        "subj_norm": ["system", "system", "hash join"],
        "obj_norm": ["latency", "latency", "latency"],
    }))
    got = (alias_merge_edges(tri).to_pandas()
           .sort_values(["subj_canon"]).reset_index(drop=True))
    # "the system" and "system" collapse onto the min representative
    assert got["subj_canon"].tolist() == ["hash join", "system"]
    assert got["weight"].tolist() == [1, 2]


def test_alias_pairs_partitioning_invariant():
    """Same name vocabulary in 1 block vs many blocks → identical pairs
    (the LSH banding and bucket shuffle must not depend on block layout)."""
    import pandas as pd

    import ray.data
    from dygiepp_ray.stages.linking import alias_pairs

    names = ["system", "the system", "approach", "this approach",
             "hash join", "hash joins", "latency", "low latency",
             "merge sort", "sort merge join", "bloom filter", "scan time"]
    df = pd.DataFrame({"name": names})

    def run(ds):
        return (alias_pairs(ds, threshold=0.5).to_pandas()
                .sort_values(["id_a", "id_b"]).reset_index(drop=True))

    a = run(ray.data.from_pandas(df))
    b = run(ray.data.from_pandas(df).repartition(7))
    pd.testing.assert_frame_equal(a, b)
    assert len(a) >= 2


def test_alias_merge_shuffle_cc_fallback_matches_broadcast():
    """Above the CC broadcast admission cap the name-vocabulary components
    must come from the bucketed-shuffle fixpoint — the 100-TB path. Force
    it with cc_broadcast_max_nodes=0 and pin bit-equality with the
    broadcast path on a vocabulary with multi-hop alias chains."""
    import pandas as pd

    import ray.data
    from dygiepp_ray.stages.linking import alias_merge_edges

    subs = ["the system", "system", "systems", "this approach", "approach",
            "approaches", "hash join", "hash joins"]
    tri = ray.data.from_pandas(pd.DataFrame({
        "subj": subs,
        "pred": ["USED-FOR"] * len(subs),
        "obj": ["latency"] * len(subs),
        "subj_norm": [s.replace("the ", "").replace("this ", "")
                      for s in subs],
        "obj_norm": ["latency"] * len(subs),
    })).repartition(3)

    def run(**kw):
        return (alias_merge_edges(tri, **kw).to_pandas()
                .sort_values(["subj_canon", "pred", "obj_canon"])
                .reset_index(drop=True))

    shuffle = run(cc_broadcast_max_nodes=0)
    broadcast = run()
    pd.testing.assert_frame_equal(shuffle, broadcast)
    assert shuffle["weight"].sum() == len(subs)
    assert len(shuffle) < len(subs)  # something actually merged


def test_edit1_exact_check():
    from dygiepp_ray.stages.linking import _edit1

    assert _edit1("cold widget", "bold widget")       # substitution
    assert _edit1("widget", "widgets")                # insertion
    assert _edit1("widgets", "widget")                # deletion
    assert _edit1("ab", "b") and _edit1("b", "ab")    # edge position
    assert not _edit1("cold", "bolt")                 # 2 substitutions
    assert not _edit1("abc", "abcde")                 # length gap 2
    assert not _edit1("abcd", "badc")


def test_edit1_name_pairs_matches_bruteforce():
    import itertools

    import pandas as pd

    import ray.data

    from dygiepp_ray.stages.linking import _edit1, edit1_name_pairs

    names = ["cold widget", "bold widget", "cold widgets", "gold widget",
             "sprocket", "sprockets", "sprocket", "socket", "x",
             "rocket", "rocketx", "entirely different"]
    uniq = sorted({n for n in names if len(n) >= 2})
    want = {(a, b) for a, b in itertools.combinations(uniq, 2)
            if _edit1(a, b)}
    assert len(want) >= 5  # fixture exercises sub/ins/del shapes
    for nparts in (1, 3):
        ds = ray.data.from_pandas(
            pd.DataFrame({"name": names})).repartition(nparts)
        got = edit1_name_pairs(ds, name_col="name").to_pandas()
        got_pairs = set(zip(got["id_a"], got["id_b"]))
        assert got_pairs == want


def test_alias_type_conflicts_golden_and_invariance():
    import pandas as pd

    import ray.data
    from dygiepp_ray.stages.linking import alias_type_conflicts

    # "neural network" / "neural networks" cluster by char-trigram LSH;
    # typed Method vs Task => conflict. "kernel" stays a singleton.
    tri = pd.DataFrame({
        "subj": ["neural network", "neural networks", "kernel"],
        "pred": ["USED-FOR", "USED-FOR", "USED-FOR"],
        "obj": ["parsing", "tagging", "svm"],
        "subj_norm": ["neural network", "neural networks", "kernel"],
        "obj_norm": ["parsing", "tagging", "svm"],
    })
    types = pd.DataFrame({
        "entity": ["neural network", "neural networks", "parsing", "svm"],
        "etype": ["Method", "Task", "Task", "Method"],
    })
    for nparts in (1, 2):
        got = alias_type_conflicts(
            ray.data.from_pandas(tri).repartition(nparts),
            ray.data.from_pandas(types).repartition(nparts),
            n_buckets=4).to_pandas()
        assert len(got) == 1
        row = got.iloc[0]
        assert row["component"] == "neural network"
        assert int(row["n_members"]) == 2
        assert int(row["n_types"]) == 2
        assert row["types"] == "Method|Task"


def test_alias_type_conflicts_no_conflicts_empty_schema():
    import pandas as pd

    import ray.data
    from dygiepp_ray.stages.linking import alias_type_conflicts

    tri = pd.DataFrame({
        "subj": ["aaa"], "pred": ["P"], "obj": ["zzz"],
        "subj_norm": ["aaa"], "obj_norm": ["zzz"],
    })
    types = pd.DataFrame({"entity": ["aaa"], "etype": ["Method"]})
    got = alias_type_conflicts(ray.data.from_pandas(tri),
                               ray.data.from_pandas(types),
                               n_buckets=2).to_pandas()
    # all-empty Ray results drop their column schema through to_pandas
    # (documented engine quirk) — the contract here is just emptiness
    assert len(got) == 0


def test_expected_alias_mapping_consistent_with_merge():
    import pyarrow as pa

    from dygiepp_ray import oracle as o

    tri = pa.table({
        "subj": ["neural network", "neural networks", "kernel"],
        "pred": ["USED-FOR"] * 3,
        "obj": ["parsing", "parsing", "svm"],
        "subj_norm": ["neural network", "neural networks", "kernel"],
        "obj_norm": ["parsing", "parsing", "svm"],
    })
    mapping = o.expected_alias_mapping(tri)
    m = dict(zip(mapping.column("name").to_pylist(),
                 mapping.column("component").to_pylist()))
    # both neural-network surfaces share one representative; singletons self
    assert m["neural network"] == m["neural networks"] == "neural network"
    assert m["kernel"] == "kernel"
    # re-keying the edge table through the mapping reproduces
    # expected_alias_merge exactly
    merged = o.expected_alias_merge(tri)
    counts: dict = {}
    for s, p, ob in zip(tri.column("subj").to_pylist(),
                        tri.column("pred").to_pylist(),
                        tri.column("obj").to_pylist()):
        key = (m[s], p, m[ob])
        counts[key] = counts.get(key, 0) + 1
    got = {(a, b, c): w for a, b, c, w in zip(
        merged.column("subj_canon").to_pylist(),
        merged.column("pred").to_pylist(),
        merged.column("obj_canon").to_pylist(),
        merged.column("weight").to_pylist())}
    assert got == counts
