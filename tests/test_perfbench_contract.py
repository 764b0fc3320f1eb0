"""The calls the benchmark's traced run hooks into `build_kg` (see
`perfbench/layers.py`): the build writes through `Dataset.write_parquet`
once, Ray Data's stats of that write name the read, fused-stage and write
operators, `write_manifest` runs once per bucket, and the fused stage still
takes `do_prep=True`. `perfbench/layers.py` is loaded from its file and
used as it is."""

import importlib.util
import os
import time

from dygiepp_ray.corpus import write_corpus
from dygiepp_ray.pipelines import kg

LAYERS_PY = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "layers.py")


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_build_hooks_hold(tmp_path):
    layers = _layers()
    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, n_files=40, seed=5)
    tracer, captured = layers.Tracer(), []
    tracer.op = "clean"
    layers.wrap_build_layers(tracer, captured)
    try:
        t0 = time.perf_counter()
        res = kg.build_kg(corpus, str(tmp_path / "kg"), n_buckets=4,
                          concurrency=2)
        wall = time.perf_counter() - t0
    finally:
        tracer.unwrap_all()

    assert res["written_buckets"] == [0, 1, 2, 3]
    assert len(captured) == 1  # one Dataset.write_parquet call
    # raises KeyError when ReadParquet, ExtractToTriples or Write is missing
    stats = layers.executor_stats(captured[0], wall, 1)
    assert stats["exec.write_op_s"] >= 0
    spans = [s for s in tracer.spans if s[1] == "manifest.write"]
    assert len(spans) == len(res["written_buckets"])
    assert tracer.counts["manifest.rows.clean"] > 0
    assert isinstance(kg.ExtractToTriples(do_prep=True), kg.ExtractToTriples)
