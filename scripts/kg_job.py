"""KG-construction job entrypoint — the script you'd hand to `ray job submit`
on a multi-node cluster (north rule), runnable standalone on a single node:

    ray job submit --working-dir /root/repo -- \
        python scripts/kg_job.py --input /data/corpus --output /data/kg \
        --buckets 256 --concurrency 30

Single-node test drive:

    python scripts/kg_job.py --input /tmp/corpus --output /tmp/kg_out

The job is idempotent: re-submission after any failure resumes from the
per-bucket lineage manifests (completed buckets are skipped at the read).
Emits one JSON line with row counts, per-bucket manifests and timing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", required=True, help="corpus parquet dir (repo,path,commit,lang,content)")
    ap.add_argument("--output", required=True, help="triple-table output dir")
    ap.add_argument("--buckets", type=int, default=64)
    ap.add_argument("--concurrency", type=int, default=0,
                    help="concurrent extraction tasks (0 = cpus-2)")
    ap.add_argument("--batch-size", type=int, default=256)
    ap.add_argument("--no-resume", action="store_true")
    ap.add_argument("--counts", action="store_true",
                    help="also write span/pair count tables")
    args = ap.parse_args()

    import ray

    # under `ray job submit` the cluster already exists and RAY_ADDRESS is
    # set; standalone we bring up a local session
    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR",
                 ignore_reinit_error=True)
    from dygiepp_ray.context import configure_for_scale

    configure_for_scale()

    from dygiepp_ray.pipelines.kg import build_kg, kg_triples, pair_counts, span_counts

    cpus = int(ray.cluster_resources().get("CPU", 4))
    conc = args.concurrency or max(2, cpus - 2)

    t0 = time.time()
    res = build_kg(args.input, args.output, n_buckets=args.buckets,
                   resume=not args.no_resume, concurrency=conc,
                   batch_size=args.batch_size)
    out = {
        "written_buckets": len(res["written_buckets"]),
        "skipped_buckets": len(res["skipped_buckets"]),
        "fingerprint": res["fingerprint"],
        "sec": round(time.time() - t0, 2),
    }
    if args.counts:
        # count tables read the ALREADY-WRITTEN triple partitions — no kernel
        # re-run, and the count shuffle sees only the small triple columns
        tri = ray.data.read_parquet(args.output,
                                    columns=["subj_norm", "obj_norm"])
        span_counts(tri, salt_buckets=16).write_parquet(os.path.join(args.output, "_span_counts"))
        tri2 = ray.data.read_parquet(args.output,
                                     columns=["subj_norm", "obj_norm"])
        pair_counts(tri2, salt_buckets=16).write_parquet(os.path.join(args.output, "_pair_counts"))
        out["counts"] = "written"
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
