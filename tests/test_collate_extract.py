"""Collate → extract → uncollate equals direct extraction (the reference's
neural-stage workflow; per-sentence predictions are invariant to packing)."""

import pyarrow as pa

import ray.data

from dygiepp_ray.corpus import generate_corpus
from dygiepp_ray.pipelines.kg import documents_dataset, extract
from dygiepp_ray.stages.collate import collate, uncollate_predictions


def test_collate_extract_uncollate_matches_direct():
    corpus = ray.data.from_arrow(generate_corpus(25, seed=9))
    docs = documents_dataset(corpus).materialize()

    # direct path
    direct = extract(docs).to_pandas()
    direct_preds = {
        row["doc_key"]: [
            {(m["start"], m["end"], m["label"]) for m in sent}
            for sent in row["predicted_ner"]
        ]
        for _, row in direct.iterrows()
    }

    # collated path
    packed = collate(docs, max_spans=3000, max_sentences=8)
    packed_pred = extract(packed)
    back = uncollate_predictions(packed_pred).to_pandas()

    assert set(back["doc_key"]) == set(direct_preds)
    for _, row in back.iterrows():
        got = [
            {(m["start"], m["end"], m["label"]) for m in sent}
            for sent in row["predicted_ner"]
        ]
        assert got == direct_preds[row["doc_key"]], row["doc_key"]
        assert len(row["sentences"]) == len(row["predicted_ner"])
