"""Declarative pipeline config + stage registry (SURVEY.md §2.10).

The reference's extension surface is AllenNLP registries + jsonnet configs
(template.libsonnet with required overrides). The engine twin is a plain dict
config compiled into a Dataset pipeline:

    config = {
        "stages": [
            {"stage": "bucket", "n_buckets": 32},
            {"stage": "sha256"},
            {"stage": "prep"},
            {"stage": "extract", "batch_size": 64,
             "namespaces": {"codekb": {...lexicons...}}},
            {"stage": "flatten_triples", "label_map": {"USED-FOR": "MECHANISM"}},
            {"stage": "span_counts", "salt_buckets": 8},
        ],
    }
    ds = build_pipeline(config)(ray.data.read_parquet(path))

Each stage entry carries its own physical knobs (`batch_size`, `num_cpus`),
the §2.10 "per-stage batch_size / resources". Stateful stages run as
callable instances on Ray Data's task pool, which sizes itself to the
session, so no stage takes a concurrency. New stages register with
`@register_stage("name")`.

Multi-dataset label namespaces (doc/multi-dataset.md): `extract` accepts
`namespaces = {dataset_name: {entity_lexicon, relation_patterns,
event_triggers}}`; each document routes to its own scorer by its `dataset`
column — the engine's `{dataset}__{task}_labels` equivalent.
"""

from __future__ import annotations

from typing import Any, Callable

import pyarrow as pa

import ray.data

from ..state.process_local import ProcessLocal

STAGE_REGISTRY: dict[str, Callable] = {}


def register_stage(name: str):
    def deco(fn):
        STAGE_REGISTRY[name] = fn
        return fn

    return deco


@register_stage("bucket")
def _bucket(ds, params):
    from ..state.manifest import assign_buckets

    return ds.map_batches(assign_buckets(params.get("n_buckets", 32)),
                          batch_format="pyarrow")


@register_stage("sha256")
def _sha256(ds, params):
    from ..stages.prep import stamp_sha256

    return ds.map_batches(stamp_sha256, batch_format="pyarrow")


@register_stage("prep")
def _prep(ds, params):
    from .kg import documents_dataset

    return documents_dataset(ds)


class NamespacedKernel(ProcessLocal):
    """Per-dataset scorer routing (multi-dataset.md twin): documents carry a
    `dataset` column; each worker process holds one scorer per namespace."""

    def __init__(self, namespaces: dict[str, dict] | None = None, default: dict | None = None,
                 **kernel_kwargs):
        from ..stages.kernel import ExtractionKernel

        self.kernels = {
            name: ExtractionKernel(**spec, **kernel_kwargs)
            for name, spec in (namespaces or {}).items()
        }
        self.default = ExtractionKernel(**(default or {}), **kernel_kwargs)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if "dataset" not in batch.column_names or not self.kernels:
            return self.default(batch)
        datasets = batch.column("dataset").to_pylist()
        if len(set(datasets)) == 1:
            return self.kernels.get(datasets[0], self.default)(batch)
        # mixed batch: process per-namespace slices, preserve row order
        import pyarrow.compute as pc

        pieces = []
        for name in sorted(set(datasets)):
            mask = pc.equal(batch.column("dataset"), name)
            part = batch.filter(mask)
            pieces.append(self.kernels.get(name, self.default)(part))
        return pa.concat_tables(pieces, promote_options="default")


@register_stage("extract")
def _extract(ds, params):
    return ds.map_batches(
        NamespacedKernel(namespaces=params.get("namespaces"),
                         default=params.get("default"),
                         coref_prop=params.get("coref_prop", 0)),
        batch_format="pyarrow", batch_size=params.get("batch_size"),
        num_cpus=params.get("num_cpus", 1))


@register_stage("flatten_triples")
def _flatten(ds, params):
    from ..stages.triples import FlattenTriples

    return ds.map_batches(
        FlattenTriples(label_map=params.get("label_map"),
                       use_coref_substitution=params.get("use_coref_substitution", True)),
        batch_format="pyarrow",
    )


@register_stage("span_counts")
def _span_counts(ds, params):
    from .kg import span_counts

    return span_counts(ds, salt_buckets=params.get("salt_buckets", 1))


@register_stage("pair_counts")
def _pair_counts(ds, params):
    from .kg import pair_counts

    return pair_counts(ds, salt_buckets=params.get("salt_buckets", 1))


@register_stage("topk_decode")
def _topk_decode(ds, params):
    """T3 wired into the predict path (predict.py:94-111's TOPK_DECODE env
    knob): adaptive threshold+count prune on the confidence column. `count`
    defaults to the TOPK_DECODE environment variable (the reference's
    user-facing switch), threshold to 0.0."""
    import os

    from ..stages.misc import adaptive_cutoff_filter

    count = params.get("count")
    if count is None:
        count = int(os.environ.get("TOPK_DECODE", "15"))
    return adaptive_cutoff_filter(
        ds, params.get("column", "conf"),
        threshold=float(params.get("threshold", 0.0)), count=count,
    )


@register_stage("filter_labels")
def _filter_labels(ds, params):
    import pyarrow.compute as pc

    keep = pa.array(params["keep"])
    col = params.get("column", "pred")
    return ds.map_batches(
        lambda t: t.filter(pc.is_in(t[col], value_set=keep)), batch_format="pyarrow"
    )


def build_pipeline(config: dict) -> Callable[["ray.data.Dataset"], "ray.data.Dataset"]:
    """Compile a config dict into a Dataset → Dataset function."""
    stages = config["stages"]
    for s in stages:
        if s["stage"] not in STAGE_REGISTRY:
            raise KeyError(
                f"unknown stage {s['stage']!r}; registered: {sorted(STAGE_REGISTRY)}"
            )

    def run(ds: "ray.data.Dataset") -> "ray.data.Dataset":
        for s in stages:
            ds = STAGE_REGISTRY[s["stage"]](ds, s)
        return ds

    return run
