"""Traced run: spans recorded from the benchmark's own files around the
calls into each layer's public functions.

A span is (id, name, start, end, parent id, op id). Spans live in memory
and are written out once, when the run ends. A span's self time is its
duration minus the time its direct children cover (children of one span
run one after another on the driver thread, so their durations add up).

Driver-side wrappers do not reach Ray workers, so the actor-side layers
(prep, kernel, flatten, actor) are traced by driving
`ExtractToTriples(do_prep=True)` in-process over the workload's own corpus,
in 1024-row batches. The executor layer comes from Ray Data's per-operator
stats of the flagship write. Lazy shuffle calls are materialized at their
span boundary; that happens in the traced run only.
"""

from __future__ import annotations

import glob
import inspect
import json
import os
import statistics
import time
from collections import Counter
from contextlib import contextmanager


# Per-layer metric → (unit, better). A traced run reports every one.
LAYER_METRICS = {
    "read.wall_s": ("s", "lower"),
    "read.bytes": ("B", "lower"),
    "bucket.self_s": ("s", "lower"),
    "bucket.rows_skipped": ("count", "higher"),
    "prep.extract_s": ("s", "lower"),
    "prep.sha256_s": ("s", "lower"),
    "prep.fast_sentences_s": ("s", "lower"),
    "prep.fallback_s": ("s", "lower"),
    "prep.fast_path_share": ("share", "higher"),
    "kernel.decode_s": ("s", "lower"),
    "kernel.sentences": ("count", "lower"),
    "kernel.find_hits_calls": ("count", "lower"),
    "kernel.memo_hit_rate": ("share", "higher"),
    "flatten.rows_s": ("s", "lower"),
    "flatten.table_s": ("s", "lower"),
    "flatten.triples": ("count", "higher"),
    "actor.docs_per_s": ("docs/s", "higher"),
    "actor.batch_s": ("s", "lower"),
    "actor.docs_in": ("count", "higher"),
    "actor.docs_without_triples": ("count", "lower"),
    "exec.read_op_s": ("s", "lower"),
    "exec.actor_op_s": ("s", "lower"),
    "exec.write_op_s": ("s", "lower"),
    "exec.actor_busy_share": ("share", "higher"),
    "exec.spilled_bytes": ("B", "lower"),
    "write.files": ("count", "lower"),
    "write.rows_per_file": ("rows", "higher"),
    "write.bucket_skew": ("ratio", "lower"),
    "manifest.write_s": ("s", "lower"),
    "manifest.rows_per_s": ("rows/s", "higher"),
    "manifest.check_s": ("s", "lower"),
    "kb.entity_kb_s": ("s", "lower"),
    "kb.graph_edges_s": ("s", "lower"),
    "kb.pair_pmi_s": ("s", "lower"),
    "shuffle.grouped_count_s": ("s", "lower"),
    "shuffle.partial_final_agg_s": ("s", "lower"),
    "shuffle.hash_join_s": ("s", "lower"),
    "shuffle.map_groups_s": ("s", "lower"),
    "trace.overhead_share": ("share", "lower"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = ""
        self._stack: list[int] = []
        self._restores: list = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([sid, name, time.perf_counter(), None, parent, self.op])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, owner, attr: str, name: str, materialize: bool = False,
             note=None) -> None:
        """Replace `owner.attr` with a spanned call until `unwrap_all`.
        `note(tracer, args, result)` records counts at the same boundary."""
        raw = inspect.getattr_static(owner, attr)
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else getattr(owner, attr)
        tracer = self

        def spanned(*args, **kwargs):
            sid = tracer._open(name)
            try:
                res = fn(*args, **kwargs)
                if materialize:
                    res = res.materialize()
                if note is not None:
                    note(tracer, args, res)
                return res
            finally:
                tracer._close(sid)

        setattr(owner, attr, staticmethod(spanned) if static else spanned)
        self._restores.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        while self._restores:
            owner, attr, raw = self._restores.pop()
            setattr(owner, attr, raw)

    def totals(self, op: str | None = None) -> dict[str, dict]:
        """name → {total_s, self_s, calls} over the spans of `op` (all ops
        when None)."""
        child = Counter()
        for sid, _n, t0, t1, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for sid, name, t0, t1, _p, sop in self.spans:
            if op is not None and sop != op:
                continue
            d = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            d["total_s"] += t1 - t0
            d["self_s"] += t1 - t0 - child[sid]
            d["calls"] += 1
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


# ----------------------------------------------------------- driver wrappers


def wrap_build_layers(tracer: Tracer, captured: list) -> None:
    """Spans around the driver-side calls `build_kg` makes, plus a hook
    that keeps the Dataset it writes, for the executor's operator stats."""
    import ray.data

    from dygiepp_ray.pipelines import kg

    def note_manifest(t, _args, res):
        t.counts["manifest.rows." + t.op] += res["row_count"]

    def note_write(_t, args, _res):
        captured.append(args[0])

    tracer.wrap(kg, "input_fingerprint", "manifest.fingerprint")
    tracer.wrap(kg, "completed_buckets", "manifest.completed")
    tracer.wrap(kg, "write_manifest", "manifest.write", note=note_manifest)
    tracer.wrap(kg, "read_corpus", "read.plan")
    tracer.wrap(ray.data.Dataset, "write_parquet", "write.execute",
                note=note_write)


def wrap_actor_layers(tracer: Tracer) -> None:
    """Spans around the prep, kernel, flatten and actor calls made inside
    `ExtractToTriples.__call__`."""
    from dygiepp_ray.functions import strings
    from dygiepp_ray.pipelines import kg
    from dygiepp_ray.stages import prep
    from dygiepp_ray.stages.kernel import ExtractionKernel, LexiconScorer
    from dygiepp_ray.stages.triples import FlattenTriples

    def note_fast(t, args, res):
        t.counts["prep.docs"] += len(res)
        t.counts["prep.fast_docs"] += sum(r is not None for r in res)

    def note_decode(t, args, _res):
        t.counts["kernel.sentences"] += len(args[1])

    def note_table(t, _args, res):
        t.counts["flatten.triples"] += res.num_rows

    def note_actor(t, args, res):
        t.counts["actor.docs_in"] += args[1].num_rows
        keys = {k.split("_SPLIT_")[0] for k in res.column("doc_id").to_pylist()}
        t.counts["actor.docs_with_triples"] += len(keys)

    tracer.wrap(prep, "extract_text", "prep.extract")
    tracer.wrap(strings, "sha256_hex", "prep.sha256")
    tracer.wrap(kg, "_arrow_fast_sentences", "prep.fast_sentences",
                note=note_fast)
    tracer.wrap(strings, "sentence_split", "prep.fallback")
    tracer.wrap(strings, "tokenize", "prep.fallback")
    tracer.wrap(ExtractionKernel, "decode_triples_document", "kernel.decode",
                note=note_decode)
    tracer.wrap(LexiconScorer, "find_hits", "kernel.find_hits")
    tracer.wrap(FlattenTriples, "rows_for_doc_flat", "flatten.rows")
    tracer.wrap(FlattenTriples, "to_table", "flatten.table", note=note_table)
    tracer.wrap(kg.ExtractToTriples, "__call__", "actor.batch",
                note=note_actor)


def wrap_shuffle_layers(tracer: Tracer) -> None:
    from ray.data.grouped_data import GroupedData

    from dygiepp_ray import aggregates, joins
    from dygiepp_ray.pipelines import kg

    tracer.wrap(kg, "grouped_count", "shuffle.grouped_count", materialize=True)
    tracer.wrap(aggregates, "partial_final_agg", "shuffle.partial_final_agg",
                materialize=True)
    tracer.wrap(joins, "hash_join", "shuffle.hash_join", materialize=True)
    tracer.wrap(GroupedData, "map_groups", "shuffle.map_groups",
                materialize=True)


# ------------------------------------------------------------ traced passes


def read_pass(tracer: Tracer, corpus: str) -> int:
    from dygiepp_ray.pipelines import kg

    with tracer.span("read"):
        ds = kg.read_corpus(corpus).materialize()
    return ds.size_bytes()


def actor_pass(tracer: Tracer, corpus: str, kernel_kwargs: dict,
               n_buckets: int, done: set[int], batch_size: int):
    """Bucket stamp + resume skip filter + the fused actor, in-process over
    the corpus shards. Returns the triples (with `bucket`)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from dygiepp_ray.pipelines import kg
    from dygiepp_ray.state.manifest import assign_buckets

    stamp = assign_buckets(n_buckets)
    skip = pa.array(sorted(done), pa.int32())
    actor = kg.ExtractToTriples(do_prep=True, **kernel_kwargs)
    outs = []
    for path in sorted(glob.glob(os.path.join(corpus, "*.parquet"))):
        t = pq.read_table(path)
        for off in range(0, t.num_rows, batch_size):
            batch = t.slice(off, batch_size)
            with tracer.span("bucket.stamp"):
                batch = stamp(batch)
            with tracer.span("bucket.skip"):
                kept = batch.filter(pc.invert(pc.is_in(batch.column("bucket"),
                                                       value_set=skip)))
            tracer.counts["bucket.rows_skipped"] += batch.num_rows - kept.num_rows
            outs.append(actor(batch))
    return pa.concat_tables(outs)


def kb_pass(tracer: Tracer, triples_file: str, out_dir: str) -> None:
    import ray.data

    for name, fn in kb_ops():
        with tracer.span(f"kb.{name}"):
            fn(ray.data.read_parquet(triples_file)).write_parquet(
                os.path.join(out_dir, name))


def kb_ops():
    """The three KB ops, called as the registry's queries call them."""
    from dygiepp_ray.pipelines import kg

    return [("entity_kb", lambda ds: kg.entity_kb(ds, salt_buckets=4)),
            ("graph_edges", kg.graph_edges),
            ("pair_pmi", lambda ds: kg.pair_pmi(ds, scale=1000, salt_buckets=4))]


# ------------------------------------------------------------ layer metrics


def executor_stats(ds, build_wall_s: float, n_actors: int) -> dict:
    """Per-operator wall of the flagship chain from Ray Data's stats."""
    summary = ds._write_ds._get_stats_summary()
    ops = []
    stack = [summary]
    while stack:
        s = stack.pop()
        ops.extend(s.operators_stats)
        stack.extend(s.parents)

    def op_of(key: str):
        for o in ops:
            if key in o.operator_name:
                return o
        raise KeyError(f"no operator matching {key!r} in "
                       f"{[o.operator_name for o in ops]}")

    def wall(o) -> float:
        return o.latest_end_time - o.earliest_start_time

    actor = op_of("ExtractToTriples")
    busy = (actor.wall_time or {}).get("sum", 0.0)
    return {
        "exec.read_op_s": wall(op_of("ReadParquet")),
        "exec.actor_op_s": wall(actor),
        "exec.write_op_s": wall(op_of("Write")),
        "exec.actor_busy_share": busy / (n_actors * build_wall_s),
        "exec.spilled_bytes": summary.dataset_bytes_spilled,
    }


def write_stats(out_dir: str, manifests: dict[int, dict]) -> dict:
    files = glob.glob(os.path.join(out_dir, "bucket=*", "*.parquet"))
    rows = [m["row_count"] for m in manifests.values()]
    return {
        "write.files": len(files),
        "write.rows_per_file": sum(rows) / max(1, len(files)),
        "write.bucket_skew": max(rows) / max(1, statistics.median(rows)),
    }


def layer_metrics(tracer: Tracer) -> dict:
    tot = tracer.totals()
    c = tracer.counts

    def total(name: str) -> float:
        return tot.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> int:
        return tot.get(name, {}).get("calls", 0)

    actor_s = total("actor.batch")
    clean = tracer.totals("clean")
    manifest_s = clean.get("manifest.write", {}).get("total_s", 0.0)
    return {
        "bucket.self_s": tot["bucket.stamp"]["self_s"] + tot["bucket.skip"]["self_s"],
        "bucket.rows_skipped": c["bucket.rows_skipped"],
        "prep.extract_s": total("prep.extract"),
        "prep.sha256_s": total("prep.sha256"),
        "prep.fast_sentences_s": total("prep.fast_sentences"),
        "prep.fallback_s": total("prep.fallback"),
        "prep.fast_path_share": c["prep.fast_docs"] / max(1, c["prep.docs"]),
        "kernel.decode_s": total("kernel.decode"),
        "kernel.sentences": c["kernel.sentences"],
        "kernel.find_hits_calls": calls("kernel.find_hits"),
        "kernel.memo_hit_rate":
            1 - calls("kernel.find_hits") / max(1, c["kernel.sentences"]),
        "flatten.rows_s": total("flatten.rows"),
        "flatten.table_s": total("flatten.table"),
        "flatten.triples": c["flatten.triples"],
        "actor.docs_per_s": c["actor.docs_in"] / actor_s,
        "actor.batch_s": statistics.median(
            s[3] - s[2] for s in tracer.spans if s[1] == "actor.batch"),
        "actor.docs_in": c["actor.docs_in"],
        "actor.docs_without_triples":
            c["actor.docs_in"] - c["actor.docs_with_triples"],
        "manifest.write_s": manifest_s,
        "manifest.rows_per_s": c["manifest.rows.clean"] / manifest_s,
        "manifest.check_s": total("manifest.fingerprint") + total("manifest.completed"),
        "kb.entity_kb_s": total("kb.entity_kb"),
        "kb.graph_edges_s": total("kb.graph_edges"),
        "kb.pair_pmi_s": total("kb.pair_pmi"),
        "shuffle.grouped_count_s": total("shuffle.grouped_count"),
        "shuffle.partial_final_agg_s": total("shuffle.partial_final_agg"),
        "shuffle.hash_join_s": total("shuffle.hash_join"),
        "shuffle.map_groups_s": total("shuffle.map_groups"),
    }
