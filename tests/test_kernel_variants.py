"""M4 pruner variants + poison-pill row containment."""

from unittest import mock

import numpy as np
import pyarrow as pa

from dygiepp_ray.stages.kernel import (
    ExtractionKernel,
    prune_spans_entity_beam,
    prune_spans_gold_beam,
)


def test_entity_beam_uses_class_scores():
    # 4 spans, 2 labels; class-score max ranks spans [3, 0, 2, 1]
    cs = np.array([[0.5, 3.0], [0.1, 0.2], [2.0, 1.0], [9.0, 0.0]])
    kept = prune_spans_entity_beam(cs, n_tokens=3)  # k = ceil(1.5) = 2
    assert kept.tolist() == [0, 3]  # top-2 by max score, textual order restored


def test_gold_beam_keeps_gold_spans():
    gold = np.array([0, 2, 0, 1, 0])
    assert prune_spans_gold_beam(gold).tolist() == [1, 3]
    assert prune_spans_gold_beam(np.zeros(4)).tolist() == []


def _doc_batch(keys_and_sents):
    return pa.table(
        {
            "doc_key": pa.array([k for k, _ in keys_and_sents]),
            "sentences": pa.array([s for _, s in keys_and_sents],
                                  pa.list_(pa.list_(pa.string()))),
        }
    )


def test_poison_pill_marks_row_not_batch():
    kernel = ExtractionKernel()
    batch = _doc_batch([
        ("good1", [["hash", "join", "wins", "."]]),
        ("bad", [["BOOM"]]),
        ("good2", [["bloom", "filter", "."]]),
    ])

    real = __import__("dygiepp_ray.stages.kernel", fromlist=["extract_sentence_fast"]).extract_sentence_fast

    def exploding(tokens, scorer):
        if tokens == ["BOOM"]:
            raise RuntimeError("kernel crash on this document")
        return real(tokens, scorer)

    with mock.patch("dygiepp_ray.stages.kernel.extract_sentence_fast", exploding):
        out = kernel(batch)
    flags = dict(zip(out.column("doc_key").to_pylist(),
                     out.column("_failed_prediction").to_pylist()))
    assert flags == {"good1": False, "bad": True, "good2": False}
    # failed row emits empty predictions, good rows keep theirs
    preds = dict(zip(out.column("doc_key").to_pylist(),
                     out.column("predicted_ner").to_pylist()))
    assert preds["bad"] == [[]]
    assert len(preds["good1"][0]) > 0


def test_weights_artifact_parity_in_actor_pool(tmp_path):
    # M1 pluggable-weights seam: an .npz artifact loaded from disk in each
    # actor's __init__ must decode identically to the same tables passed
    # inline (reference predictors load their model archive the same way,
    # dygie/predictors/dygie.py:42-55).
    import ray.data

    from dygiepp_ray.corpus import (
        ENTITY_LEXICON,
        EVENT_TRIGGERS,
        RELATION_PATTERNS,
    )
    from dygiepp_ray.stages.kernel import load_scorer_weights, save_scorer_weights

    path = str(tmp_path / "scorer_weights.npz")
    save_scorer_weights(path, ENTITY_LEXICON, RELATION_PATTERNS,
                        EVENT_TRIGGERS)
    ent, rel, trig = load_scorer_weights(path)
    assert ent == ENTITY_LEXICON and rel == RELATION_PATTERNS
    assert trig == EVENT_TRIGGERS

    docs = [
        ("d0", [["the", "hash", "join", "uses", "a", "bloom", "filter", "."]]),
        ("d1", [["merge", "sort", "beats", "quick", "sort", "here", "."],
                ["scan", "the", "index", "."]]),
    ]
    ds = ray.data.from_arrow(_doc_batch(docs))

    def run(**kw):
        out = ds.map_batches(ExtractionKernel(**kw),
                             batch_format="pyarrow").to_pandas()
        return out.sort_values("doc_key").reset_index(drop=True)

    inline = run()
    from_disk = run(weights_path=path)
    import pandas as pd

    pd.testing.assert_frame_equal(from_disk, inline)
