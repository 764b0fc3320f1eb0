"""Shard-collect pipeline: failed-row skip + zip-join + cluster merge."""

from unittest import mock

import pyarrow as pa

import ray.data

from dygiepp_ray.pipelines.collect import collect_model_runs
from dygiepp_ray.stages.kernel import ExtractionKernel


def _doc_batch():
    sents = [
        ("d1", [["hash", "join", "beats", "hash", "join", "."]]),
        ("d2", [["bloom", "filter", "and", "bloom", "filter", "."]]),
        ("dboom", [["BOOM"]]),
    ]
    return pa.table({
        "doc_key": pa.array([k for k, _ in sents]),
        "sentences": pa.array([s for _, s in sents], pa.list_(pa.list_(pa.string()))),
    })


def _run_with_poison():
    """Run the kernel IN-PROCESS (mock can't cross Ray actor boundaries) so
    the BOOM doc gets its _failed_prediction marker."""
    kernel = ExtractionKernel()
    mod = __import__("dygiepp_ray.stages.kernel", fromlist=["extract_sentence_fast"])
    real = mod.extract_sentence_fast

    def exploding(tokens, scorer):
        if tokens == ["BOOM"]:
            raise RuntimeError("boom")
        return real(tokens, scorer)

    with mock.patch("dygiepp_ray.stages.kernel.extract_sentence_fast", exploding):
        out = kernel(_doc_batch())
    return ray.data.from_arrow(out)


def test_collect_runs_merges_and_skips_failed():
    run_a = _run_with_poison()
    run_b = _run_with_poison()
    assert run_a.to_pandas()["_failed_prediction"].sum() == 1  # BOOM marked

    merged = collect_model_runs(run_a, run_b).to_pandas()
    # the failed doc is dropped; the good docs survive
    assert set(merged["doc_key"]) == {"d1", "d2"}
    row = merged.set_index("doc_key").loc["d1"]
    # identical cluster sets → equality-skip in the worklist → no merge output
    assert list(row["merged_clusters"]) == []
    assert len(row["predicted_ner"][0]) > 0


def test_collect_merges_divergent_clusters():
    run_a = _run_with_poison()
    # model B: split each cluster in half → divergent-but-overlapping sets
    def split_clusters(t: pa.Table) -> pa.Table:
        typ = t.schema.field("predicted_clusters").type
        new = []
        for clusters in t.column("predicted_clusters").to_pylist():
            halves = []
            for c in clusters or []:
                h = max(1, len(c) // 2)
                halves.append(c[:h])
                if c[h:]:
                    halves.append(c[h:])
            new.append(halves)
        i = t.column_names.index("predicted_clusters")
        return t.set_column(i, "predicted_clusters", pa.array(new, typ))

    run_b = _run_with_poison().map_batches(split_clusters, batch_format="pyarrow")
    merged = collect_model_runs(run_a, run_b).to_pandas().set_index("doc_key")
    # d1 has a 2-mention "hash join" cluster; B splits it → merge re-unifies
    assert len(merged.loc["d1", "merged_clusters"]) >= 1


def test_collect_skips_doc_failed_in_one_run_only():
    run_a = _run_with_poison()

    def fail_d1(t: pa.Table) -> pa.Table:
        flags = [k == "d1" or bool(f) for k, f in zip(
            t.column("doc_key").to_pylist(),
            t.column("_failed_prediction").to_pylist())]
        i = t.column_names.index("_failed_prediction")
        return t.set_column(i, "_failed_prediction", pa.array(flags))

    run_b = _run_with_poison().map_batches(fail_d1, batch_format="pyarrow")
    merged = collect_model_runs(run_a, run_b).to_pandas()
    assert set(merged["doc_key"]) == {"d2"}
