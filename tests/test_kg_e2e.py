"""End-to-end conformance gate (SURVEY.md §5, FIXTURES.md §5).

The pipeline's triples are compared against an INDEPENDENT pure-python oracle
that re-derives the expected output from the corpus semantics alone (lexicon
n-gram scan + connective patterns) — no kernel/beam machinery. Gate:
P/R ≥ 0.95 (deterministic kernel → expected 1.0). Also checks the per-row
content-sha256 invariant and manifest-based resume.
"""

import glob
import json
import os
import re

import pyarrow.parquet as pq
import pytest

from dygiepp_ray.corpus import (
    ENTITY_LEXICON,
    EVENT_TRIGGERS,
    RELATION_PATTERNS,
    write_corpus,
)
from dygiepp_ray.functions.strings import canonicalize, sentence_split, sha256_hex, tokenize
from dygiepp_ray.pipelines.evaluate import compute_f1
from dygiepp_ray.pipelines.kg import build_kg, kg_triples, pair_counts, span_counts
from dygiepp_ray.schema import TRIPLE_SCHEMA
from dygiepp_ray.stages.prep import extract_text
from dygiepp_ray.state.manifest import manifest_path, read_json

CORPUS_DIR = "/tmp/kg_e2e_corpus"
OUT_DIR = "/tmp/kg_e2e_out"


@pytest.fixture(scope="module")
def corpus_dir():
    import shutil

    shutil.rmtree(CORPUS_DIR, ignore_errors=True)
    write_corpus(CORPUS_DIR, n_files=80, seed=42)
    return CORPUS_DIR


def oracle_triples(corpus_dir: str) -> set:
    """Independent recomputation: scan every sentence for lexicon-entity
    n-grams; a triple exists when two entities are joined by an exact
    connective phrase. No beams, no logits."""
    lex = {k.lower() for k in ENTITY_LEXICON}
    patterns = {k.lower(): v for k, v in RELATION_PATTERNS.items()}
    expected = set()
    for f in sorted(glob.glob(os.path.join(corpus_dir, "*.parquet"))):
        t = pq.read_table(f)
        for repo, path, commit, lang, content in zip(*[t.column(c).to_pylist() for c in
                                                       ("repo", "path", "commit", "lang", "content")]):
            base_key = f"{repo}:{path}@{commit[:8]}"
            for sent_text in sentence_split(extract_text(content, lang)):
                toks = [w.lower() for w in tokenize(sent_text)]
                spans = []
                for s in range(len(toks)):
                    for e in range(s, min(s + 8, len(toks))):
                        if " ".join(toks[s : e + 1]) in lex:
                            spans.append((s, e))
                for (s1, e1) in spans:
                    for (s2, e2) in spans:
                        if e1 < s2:
                            between = " ".join(toks[e1 + 1 : s2])
                            if between in patterns:
                                subj = " ".join(toks[s1 : e1 + 1])
                                obj = " ".join(toks[s2 : e2 + 1])
                                expected.add(
                                    (base_key, canonicalize(subj), patterns[between],
                                     canonicalize(obj))
                                )
    return expected


def assert_matches_oracle(got_df, corpus_dir):
    strip = re.compile(r"_SPLIT_\d+$")
    got = {
        (strip.sub("", d), sn, p, on)
        for d, sn, p, on in zip(got_df["doc_id"], got_df["subj_norm"],
                                got_df["pred"], got_df["obj_norm"])
    }
    want = oracle_triples(corpus_dir)
    matched = len(got & want)
    precision, recall, f1 = compute_f1(len(got), len(want), matched)
    assert precision >= 0.95, f"precision {precision} ({len(got - want)} spurious)"
    assert recall >= 0.95, f"recall {recall} ({len(want - got)} missed)"


def test_triples_match_oracle(corpus_dir):
    assert_matches_oracle(kg_triples(corpus_dir, concurrency=2).to_pandas(),
                          corpus_dir)


def test_sha256_invariant(corpus_dir):
    got = kg_triples(corpus_dir, concurrency=2).to_pandas()
    # every triple's sha must equal sha256 of its source file's content
    contents = {}
    for f in glob.glob(os.path.join(corpus_dir, "*.parquet")):
        t = pq.read_table(f)
        for repo, path, commit, content in zip(*[t.column(c).to_pylist() for c in
                                                 ("repo", "path", "commit", "content")]):
            contents[f"{repo}:{path}@{commit[:8]}"] = sha256_hex(content)
    strip = re.compile(r"_SPLIT_\d+$")
    for doc_id, sha in zip(got["doc_id"], got["content_sha256"]):
        assert contents[strip.sub("", doc_id)] == sha


def test_counts_match_pandas_oracle(corpus_dir):
    tri = kg_triples(corpus_dir, concurrency=2).to_pandas()
    sc = span_counts(kg_triples(corpus_dir, concurrency=2), salt_buckets=4).to_pandas()
    import pandas as pd

    want = (
        pd.concat([tri["subj_norm"], tri["obj_norm"]])
        .value_counts()
        .rename_axis("span_norm")
        .rename("count")
        .reset_index()
    )
    m = sc.merge(want, on="span_norm")
    assert len(m) == len(want) == len(sc)
    assert (m["count_x"] == m["count_y"]).all()

    pcnt = pair_counts(kg_triples(corpus_dir, concurrency=2)).to_pandas()
    wantp = tri.groupby(["subj_norm", "obj_norm"]).size().rename("count").reset_index()
    mp = pcnt.merge(wantp, on=["subj_norm", "obj_norm"])
    assert len(mp) == len(wantp) == len(pcnt)
    assert (mp["count_x"] == mp["count_y"]).all()


def test_build_resume_and_manifests(corpus_dir):
    import shutil

    shutil.rmtree(OUT_DIR, ignore_errors=True)
    res1 = build_kg(corpus_dir, OUT_DIR, n_buckets=8, concurrency=2)
    assert sorted(res1["written_buckets"]) == list(range(8))
    manifests = sorted(glob.glob(os.path.join(OUT_DIR, "_manifests", "*.json")))
    assert len(manifests) == 8
    with open(manifests[0]) as fh:
        m = json.load(fh)
    assert {"bucket", "input_fingerprint", "row_count", "sha256_xor", "files"} <= set(m)

    # full skip on identical input
    res2 = build_kg(corpus_dir, OUT_DIR, n_buckets=8, concurrency=2)
    assert res2["written_buckets"] == [] and len(res2["skipped_buckets"]) == 8

    # invalidate one bucket → only that bucket recomputes
    total_before = sum(
        pq.read_metadata(f).num_rows
        for f in glob.glob(os.path.join(OUT_DIR, "bucket=*", "*.parquet"))
    )
    os.remove(manifests[3])
    res3 = build_kg(corpus_dir, OUT_DIR, n_buckets=8, concurrency=2)
    assert res3["written_buckets"] == [3] and len(res3["skipped_buckets"]) == 7
    total_after = sum(
        pq.read_metadata(f).num_rows
        for f in glob.glob(os.path.join(OUT_DIR, "bucket=*", "*.parquet"))
    )
    assert total_before == total_after  # stale partials were cleaned, no dupes


def _bucket_files(out_dir: str) -> dict[int, list[str]]:
    return {int(d.rsplit("=", 1)[1]): sorted(os.listdir(d))
            for d in glob.glob(os.path.join(out_dir, "bucket=*"))}


def test_build_writes_one_zstd_row_group_per_bucket(corpus_dir, tmp_path):
    """Small extraction batches still land as one file per bucket holding one
    zstd row group; a resumed bucket is rewritten as one file, and the
    stored triples are exactly the triples `kg_triples` extracts."""
    import pandas as pd
    import pyarrow.dataset as pads

    out = str(tmp_path / "kg")
    build_kg(corpus_dir, out, n_buckets=4, concurrency=2, batch_size=32)
    before = _bucket_files(out)
    assert sorted(before) == [0, 1, 2, 3]
    for b, names in before.items():
        assert len(names) == 1, (b, names)
        meta = pq.read_metadata(os.path.join(out, f"bucket={b}", names[0]))
        assert meta.num_row_groups == 1
        group = meta.row_group(0)
        assert {group.column(c).compression
                for c in range(group.num_columns)} == {"ZSTD"}

    os.remove(os.path.join(out, "_manifests", "bucket-2.json"))
    res = build_kg(corpus_dir, out, n_buckets=4, concurrency=2, batch_size=32)
    assert res["written_buckets"] == [2]
    after = _bucket_files(out)
    assert len(after[2]) == 1 and after[2] != before[2]
    assert {b: f for b, f in after.items() if b != 2} == {
        b: f for b, f in before.items() if b != 2}

    cols = TRIPLE_SCHEMA.names
    stored = (pads.dataset(out, format="parquet", partitioning="hive")
              .to_table(columns=cols).to_pandas())
    want = kg_triples(corpus_dir, concurrency=2).to_pandas()[cols]
    assert_matches_oracle(stored, corpus_dir)
    pd.testing.assert_frame_equal(
        stored.sort_values(cols).reset_index(drop=True),
        want.sort_values(cols).reset_index(drop=True))


def _write_operators(ds) -> dict:
    """Operator name → stats summary of the Dataset a build wrote."""
    ops, stack = {}, [ds._write_ds._get_stats_summary()]
    while stack:
        summary = stack.pop()
        ops.update((o.operator_name, o) for o in summary.operators_stats)
        stack.extend(summary.parents)
    return ops


def test_build_runs_one_fused_task_per_work_unit(tmp_path, monkeypatch):
    """An 8-shard corpus of 80 rows at `batch_size=40` reads as 2 work
    units, and the bucket stamp (and on resume the skip) runs fused with
    `ExtractToTriples` as one task per unit. The stored triples equal
    `kg_triples`, pass the oracle gate, and a resume rewrites equal
    manifests."""
    import pandas as pd
    import pyarrow.dataset as pads
    import ray

    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, n_files=80, seed=42, n_shards=8)
    written = []
    write_parquet = ray.data.Dataset.write_parquet

    def capture(ds, *args, **kwargs):
        written.append(ds)
        return write_parquet(ds, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "write_parquet", capture)
    out = str(tmp_path / "kg")
    build_kg(corpus, out, n_buckets=4, concurrency=2, batch_size=40)
    ops = _write_operators(written[-1])
    fused = ops["MapBatches(stamp_buckets)->MapBatches(ExtractToTriples)"]
    assert fused.task_rows["count"] == 2
    units = ops["ReadParquet"].output_num_rows
    assert units["min"] == units["max"] == 40

    def manifests():
        ms = [read_json(manifest_path(out, b)) for b in range(4)]
        return [(m["row_count"], m["sha256_xor"], m["input_fingerprint"])
                for m in ms]

    clean = manifests()
    for b in (1, 3):
        os.remove(manifest_path(out, b))
    assert build_kg(corpus, out, n_buckets=4, concurrency=2,
                    batch_size=40)["written_buckets"] == [1, 3]
    assert manifests() == clean
    assert ("MapBatches(stamp_buckets)->MapBatches(drop_done)"
            "->MapBatches(ExtractToTriples)") in _write_operators(written[-1])

    cols = TRIPLE_SCHEMA.names
    stored = (pads.dataset(out, format="parquet", partitioning="hive")
              .to_table(columns=cols).to_pandas())
    want = kg_triples(corpus, concurrency=2, batch_size=40).to_pandas()[cols]
    assert_matches_oracle(stored, corpus)
    pd.testing.assert_frame_equal(
        stored.sort_values(cols).reset_index(drop=True),
        want.sort_values(cols).reset_index(drop=True))


def test_concurrency_above_work_units_does_not_warn(tmp_path):
    """A 2-unit build and triples read at `concurrency=3` run their maps at
    2 concurrent tasks, so Ray Data's warning about a concurrency above
    the operator's inputs never fires."""
    import warnings

    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, n_files=80, seed=42, n_shards=8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        build_kg(corpus, str(tmp_path / "kg"), n_buckets=4, concurrency=3,
                 batch_size=40)
        kg_triples(corpus, concurrency=3, batch_size=40).materialize()
    assert not [w for w in caught
                if "maximum number of concurrent tasks" in str(w.message)]


@pytest.fixture
def frees_cpus_on_return():
    """Runs a query with the cyclic GC off and asserts every session CPU is
    free again within 5 s of its return. A finished actor pool can hold its
    CPUs until the GC runs; a task map frees them as its tasks end."""
    import gc
    import time

    import ray

    cpus = ray.cluster_resources()["CPU"]

    def wait_free(timeout_s: float) -> float:
        deadline = time.monotonic() + timeout_s
        while (ray.available_resources().get("CPU", 0) < cpus
               and time.monotonic() < deadline):
            time.sleep(0.05)
        return ray.available_resources().get("CPU", 0)

    def check(query) -> None:
        gc.collect()  # pools left by earlier tests
        assert wait_free(30) == cpus
        gc.disable()
        try:
            query()
            assert wait_free(5) == cpus
        finally:
            gc.enable()

    return check


def test_build_kg_extracts_on_tasks(corpus_dir, tmp_path, monkeypatch,
                                    frees_cpus_on_return):
    """build_kg runs the fused stage on Ray Data's task pool: the written
    dataset's operator that runs `ExtractToTriples` held no actors, and
    every session CPU is free again once build_kg returns."""
    import ray

    written = []
    write_parquet = ray.data.Dataset.write_parquet

    def capture(ds, *args, **kwargs):
        written.append(ds)
        return write_parquet(ds, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "write_parquet", capture)
    frees_cpus_on_return(lambda: build_kg(
        corpus_dir, str(tmp_path / "kg"), n_buckets=8, concurrency=2))

    metrics, stack = {}, [written[0]._write_ds._get_stats_summary()]
    while stack:
        summary = stack.pop()
        for op in summary.operators_stats:
            metrics[op.operator_name] = summary.extra_metrics
        stack.extend(summary.parents)
    stage = next(m for name, m in metrics.items() if "ExtractToTriples" in name)
    assert stage["num_alive_actors"] == 0
    assert "pending_actors" not in stage  # an actor-pool-only metric


def _documents(n: int, seed: int):
    """A small `documents` table over the documents-product vocabulary."""
    import random

    import pandas as pd

    from dygiepp_ray.pipelines.docs_adapter import DOC_LEXICON

    rng = random.Random(seed)
    vocab = sorted(DOC_LEXICON) + ["the", "a", "fast", "data", "of", "uses"]
    texts = [" ".join(rng.choice(vocab) for _ in range(rng.randint(8, 30)))
             for _ in range(n)]
    return pd.DataFrame({"doc_id": range(n), "text": texts,
                         "source": [f"src{i % 3}" for i in range(n)]})


def _minhash_query(tmp_path):
    import ray.data
    from dygiepp_ray.stages.dedup import minhash_lsh_pairs

    docs = ray.data.from_pandas(_documents(60, seed=1)[["doc_id", "text"]])
    minhash_lsh_pairs(docs, jaccard_threshold=0.5).materialize()


def _entity_links_query(tmp_path):
    import __ray_entry__ as entry

    sf_dir = tmp_path / "sf_links"
    sf_dir.mkdir()
    _documents(60, seed=2).to_parquet(sf_dir / "documents.parquet")
    entry.queries()["kg_entity_links"](str(sf_dir)).materialize()


@pytest.mark.parametrize("query", [_minhash_query, _entity_links_query],
                         ids=["minhash_lsh_pairs", "kg_entity_links"])
def test_query_frees_cpus_on_return(query, tmp_path, frees_cpus_on_return):
    """Every stateful stage runs on the task pool, so a query that used one
    (MinHash signatures; the extraction kernel and `EntityLinker` of the
    entity-link query) holds no CPU once it returns."""
    frees_cpus_on_return(lambda: query(tmp_path))


def test_subject_store_selective_lookup(tmp_path):
    """The subject-partitioned store answers point lookups by reading ONLY
    the partitions the probe subjects hash into."""
    import pandas as pd

    import ray.data
    from dygiepp_ray.pipelines.kg import (
        materialize_by_subject,
        subject_lookup,
        subject_probe_files,
    )
    from dygiepp_ray.stages.invindex import token_bucket

    tri = ray.data.from_pandas(pd.DataFrame({
        "subj_norm": ["hash join", "merge sort", "bloom filter", "hash join"],
        "pred": ["USED-FOR", "PART-OF", "USED-FOR", "HYPONYM-OF"],
        "obj_norm": ["latency", "sorting", "scan", "join"],
    }))
    store = str(tmp_path / "kgstore")
    materialize_by_subject(tri, store, n_buckets=8)

    files = subject_probe_files(store, ["hash join"], n_buckets=8)
    b = token_bucket("hash join", 8)
    assert files and all(f"sbucket={b}" in f for f in files)

    got = (subject_lookup(store, ["hash join"], n_buckets=8).to_pandas()
           .sort_values(["pred"]).reset_index(drop=True))
    assert got["pred"].tolist() == ["HYPONYM-OF", "USED-FOR"]
    assert set(got["subj_norm"]) == {"hash join"}

    # missing subject -> empty, no partitions beyond its own probed
    assert subject_lookup(store, ["zzz"], n_buckets=8).count() == 0


def test_edge_diff_statuses():
    import pandas as pd

    import ray.data
    from dygiepp_ray.pipelines.kg import edge_diff

    old = ray.data.from_pandas(pd.DataFrame({
        "subj_norm": ["a", "a", "b", "c"],
        "pred": ["P", "P", "P", "P"],
        "obj_norm": ["x", "x", "y", "z"],
    }))
    new = ray.data.from_pandas(pd.DataFrame({
        "subj_norm": ["a", "b", "d"],
        "pred": ["P", "P", "P"],
        "obj_norm": ["x", "y", "q"],
    }))
    got = (edge_diff(old, new).to_pandas()
           .sort_values(["subj_norm"]).reset_index(drop=True))
    # a-P-x: 2 -> 1 changed; b-P-y: 1 -> 1 unchanged (dropped);
    # c-P-z: removed; d-P-q: added
    assert got[["subj_norm", "w_old", "w_new", "status"]].values.tolist() == [
        ["a", 2, 1, "changed"], ["c", 1, 0, "removed"], ["d", 0, 1, "added"]]


def test_negative_samples_contract_and_invariance():
    import pandas as pd

    import ray.data

    from dygiepp_ray.oracle import expected_negative_samples
    from dygiepp_ray.pipelines.kg import negative_samples

    tri = pd.DataFrame({
        "subj_norm": ["a", "a", "b", "c", "d", "a"],
        "pred":      ["P", "P", "P", "Q", "Q", "Q"],  # a-P-b duplicated
        "obj_norm":  ["b", "b", "c", "a", "b", "d"],
    })
    import pyarrow as pa

    want = expected_negative_samples(
        pa.Table.from_pandas(tri), k=3).to_pandas()
    want = want.sort_values(list(want.columns)).reset_index(drop=True)
    true_set = set(zip(tri["subj_norm"], tri["pred"], tri["obj_norm"]))
    for nparts in (1, 3):
        got = negative_samples(
            ray.data.from_pandas(tri).repartition(nparts), k=3,
            n_buckets=4).to_pandas()
        got = got.sort_values(list(want.columns)).reset_index(drop=True)
        pd.testing.assert_frame_equal(got[want.columns.tolist()], want)
    # contract: no emitted negative reproduces a true edge or its own tail
    assert not any((s, p, o) in true_set for s, p, o in
                   zip(got["subj_norm"], got["pred"], got["obj_neg"]))
    # at most k negatives per distinct positive, labeled 1..k
    assert set(got["neg_ix"]).issubset({1, 2, 3})
    per_pos = got.groupby(["subj_norm", "pred"]).size()
    assert len(got) > 0 and per_pos.max() <= 3 * 2  # ≤ k per distinct edge


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hash_embeddings_match_scalar_splitmix():
    """TransE hash embeddings equal the pure-python splitmix64 walk and raise
    no numpy uint64 overflow warning (numpy scalars warn, arrays wrap)."""
    import numpy as np

    from dygiepp_ray.oracle import _splitmix64_scalar
    from dygiepp_ray.pipelines.kg import _hash_embeddings
    from dygiepp_ray.stages.sketch import hash64_values

    names = ["hash join", "merge sort", ""]
    got = _hash_embeddings(np.array(names, dtype=object), 8, 23, 1)
    for row, name in zip(got.tolist(), names):
        h = int(hash64_values(np.array([name], dtype=object))[0])
        assert row == [
            _splitmix64_scalar(h ^ _splitmix64_scalar((23 * 1_000_003 + 1) * 8 + d))
            % 2048 - 1024 for d in range(8)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_transe_eval_matches_oracle_and_invariance():
    import pandas as pd
    import pyarrow as pa

    import ray.data

    from dygiepp_ray.oracle import expected_transe_eval
    from dygiepp_ray.pipelines.kg import transe_eval

    tri = pd.DataFrame({
        "subj_norm": ["a", "a", "b", "c", "d", "a", "e", "b"],
        "pred":      ["P", "P", "P", "Q", "Q", "Q", "P", "Q"],
        "obj_norm":  ["b", "b", "c", "a", "b", "d", "a", "e"],
    })
    want = expected_transe_eval(
        pa.Table.from_pandas(tri), dim=8, k_neg=16).to_pandas()
    want = want.sort_values("pred").reset_index(drop=True)
    for nparts in (1, 3):
        got = (transe_eval(ray.data.from_pandas(tri).repartition(nparts),
                           dim=8, k_neg=16).to_pandas()
               .sort_values("pred").reset_index(drop=True))
        pd.testing.assert_frame_equal(got[want.columns.tolist()], want)
    # sanity: hits are nested and bounded, mrr within (0, 1e6]
    assert (got["hits1"] <= got["hits10"]).all()
    assert (got["hits10"] <= got["n_edges"]).all()
    assert (got["mrr_ppm"] > 0).all() and (got["mrr_ppm"] <= 1_000_000).all()
