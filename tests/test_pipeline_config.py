"""Declarative pipeline config registry + multi-dataset namespace routing."""

import pyarrow as pa
import pytest

import ray.data

from dygiepp_ray.corpus import generate_corpus
from dygiepp_ray.pipelines.config import NamespacedKernel, build_pipeline, register_stage


def test_full_config_pipeline():
    corpus = ray.data.from_arrow(generate_corpus(30, seed=2))
    pipeline = build_pipeline({
        "stages": [
            {"stage": "sha256"},
            {"stage": "prep"},
            {"stage": "extract", "batch_size": 16},
            {"stage": "flatten_triples"},
            {"stage": "span_counts", "salt_buckets": 4},
        ]
    })
    out = pipeline(corpus).to_pandas()
    assert len(out) > 0 and set(out.columns) == {"span_norm", "count"}


def test_unknown_stage_rejected():
    with pytest.raises(KeyError):
        build_pipeline({"stages": [{"stage": "nope"}]})


def test_custom_stage_registration():
    @register_stage("take3")
    def _take3(ds, params):
        return ds.limit(3)

    pipeline = build_pipeline({"stages": [{"stage": "take3"}]})
    assert pipeline(ray.data.range(100)).count() == 3


def test_namespace_routing_mixed_batch():
    ns = {
        "tech": {"entity_lexicon": {"hash join": "Method"},
                 "relation_patterns": {}, "event_triggers": {}},
        "bio": {"entity_lexicon": {"hash join": "Material"},
                "relation_patterns": {}, "event_triggers": {}},
    }
    kernel = NamespacedKernel(namespaces=ns)
    batch = pa.table({
        "doc_key": ["a", "b"],
        "dataset": ["tech", "bio"],
        "sentences": pa.array([[["hash", "join", "."]], [["hash", "join", "."]]],
                              pa.list_(pa.list_(pa.string()))),
    })
    out = kernel(batch)
    got = {
        k: v[0][0]["label"]
        for k, v in zip(out.column("doc_key").to_pylist(),
                        out.column("predicted_ner").to_pylist())
    }
    # same surface form, different label namespace per dataset
    assert got == {"b": "Material", "a": "Method"} or got == {"a": "Method", "b": "Material"}


def test_topk_decode_stage_env_knob(monkeypatch):
    import pyarrow as pa
    import ray.data

    from dygiepp_ray.pipelines.config import build_pipeline

    tri = ray.data.from_arrow(pa.table({
        "pred": ["A"] * 10,
        "conf": pa.array([0.9, 0.8, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1],
                         pa.float64()),
    }))
    # explicit count: keep top 3 by conf, ties extend
    run = build_pipeline({"stages": [{"stage": "topk_decode", "count": 3}]})
    assert run(tri).count() == 3
    # env knob (predict.py TOPK_DECODE semantics)
    monkeypatch.setenv("TOPK_DECODE", "5")
    run = build_pipeline({"stages": [{"stage": "topk_decode"}]})
    assert run(tri).count() == 5
