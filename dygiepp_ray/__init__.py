"""dygiepp_ray — a from-scratch Ray-Data-native KG-construction engine.

Re-expresses the query/data-processing capabilities of tomhoper/dygiepp
(reference at /root/reference) as idiomatic Ray Data pipelines: Dataset →
map_batches over zero-copy Arrow batches on the task pool (stateful kernels
built once per worker process), partial+final aggregation for the wide
shuffles, partitioned Parquet with per-partition lineage manifests for
resumable output.

Layout:
  schema.py       Arrow schemas + reference decode constants
  corpus.py       deterministic synthetic source-code corpus (north-rule shape)
  functions/      string/scalar kernels (F1-F13)
  stages/         map_batches stages: prep, kernel, triples, linking, text,
                  dedup, similarity, multimodal, coref
  pipelines/      end-to-end pipelines: kg (flagship), evaluate
  state/          broadcast helpers, lineage manifests
  aggregates.py   salted partial+final grouped counts, distinct, top-k
"""

__version__ = "0.1.0"

# Install the (narrow) Ray log filters on import — every entrypoint that
# uses the engine gets a clean shuffle log (see context.py).
from . import context as _context  # noqa: E402,F401
