"""One-shot sf1 stress run (VERDICT r4 #8): the flagship build_kg
end-to-end plus exact dedup and MinHash-LSH near-dup at 10x the bench-tier
corpus (20,000 files, scale-graded vocabulary), recording walls, output
sizes, resume behavior, and object-store / spill stats. Prints ONE JSON
line; paste the result into BASELINE.md.

Usage: python scripts/stress_sf1.py [n_files]
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

N_FILES = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
# GRAFT_STRESS_CORPUS: reuse a prebuilt corpus dir (e.g. the 2.3M-file
# scaling corpus) instead of generating one — the REAL stress tier; the
# default 20k tier is 10x the sf0.1 kg corpus per the literal criterion
# but finishes in seconds on this box.
CORPUS_OVERRIDE = os.environ.get("GRAFT_STRESS_CORPUS")
CORPUS = CORPUS_OVERRIDE or f"/tmp/dygiepp_ray_stress/corpus_{N_FILES}"
OUT = f"/tmp/dygiepp_ray_stress/kg_{os.path.basename(os.path.normpath(CORPUS))}"


def _spill_bytes() -> int:
    total = 0
    for d in glob.glob("/tmp/ray/session_*/ray_spilled_objects*"):
        for root, _dirs, files in os.walk(d):
            total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def main() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from dygiepp_ray.context import configure_for_scale

    configure_for_scale()

    from dygiepp_ray.corpus import scaled_entity_lexicon, write_corpus_sharded
    from dygiepp_ray.pipelines.kg import build_kg, read_corpus
    from dygiepp_ray.stages.dedup import exact_duplicates, minhash_lsh_pairs

    res: dict = {"n_files": N_FILES,
                 "loadavg_preflight": [round(x, 2) for x in os.getloadavg()]}

    t0 = time.time()
    if CORPUS_OVERRIDE is None:
        write_corpus_sharded(CORPUS, n_files=N_FILES, seed=42, n_shards=64,
                             vocab_n=N_FILES)
    res["corpus"] = CORPUS
    res["corpus_gen_sec"] = round(time.time() - t0, 1)
    res["corpus_bytes"] = sum(
        os.path.getsize(p)
        for p in glob.glob(f"{CORPUS}/**/*.parquet", recursive=True))

    # prebuilt corpora (the scaling corpus) use the legacy base lexicon
    lex = (scaled_entity_lexicon(N_FILES) if CORPUS_OVERRIDE is None
           else None)
    res["lexicon_size"] = len(lex) if lex is not None else "base"

    shutil.rmtree(OUT, ignore_errors=True)
    t0 = time.time()
    first = build_kg(CORPUS, OUT, n_buckets=32, concurrency=30,
                     batch_size=256, entity_lexicon=lex)
    res["build_kg_sec"] = round(time.time() - t0, 1)
    res["build_written_buckets"] = len(first["written_buckets"])
    res["spill_bytes_after_build"] = _spill_bytes()
    # lineage row counts straight from the manifests (no re-scan)
    rows = 0
    for mf in glob.glob(f"{OUT}/_manifests/bucket-*.json"):
        with open(mf) as fh:
            rows += json.load(fh)["row_count"]
    res["triples"] = rows
    res["triples_per_sec"] = round(rows / res["build_kg_sec"], 1)

    t0 = time.time()
    second = build_kg(CORPUS, OUT, n_buckets=32, concurrency=30,
                      batch_size=256, entity_lexicon=lex)
    res["resume_sec"] = round(time.time() - t0, 1)
    res["resume_written"] = len(second["written_buckets"])  # must be 0

    import pyarrow as pa
    import pyarrow.compute as pc

    def to_docs(t: "pa.Table") -> "pa.Table":
        did = pc.binary_join_element_wise(
            t.column("repo"), t.column("path"), t.column("commit"), ":")
        return pa.table({"doc_id": did, "text": t.column("content")})

    docs = read_corpus(CORPUS).map_batches(to_docs, batch_format="pyarrow")
    t0 = time.time()
    res["exact_dup_groups"] = exact_duplicates(docs).count()
    res["exact_dedup_sec"] = round(time.time() - t0, 1)

    t0 = time.time()
    res["minhash_pairs"] = minhash_lsh_pairs(docs).count()
    res["minhash_sec"] = round(time.time() - t0, 1)

    res["spill_bytes_final"] = _spill_bytes()
    res["loadavg_post"] = [round(x, 2) for x in os.getloadavg()]
    print(json.dumps(res))
    ray.shutdown()


if __name__ == "__main__":
    main()
