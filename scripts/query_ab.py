"""Per-query wall time and peak RSS of registry queries, for A/B tables.

Usage:
    python scripts/query_ab.py [--repo CHECKOUT] [--sf SF_DIR] [--cpus N]
                               [--reps R] QUERY [QUERY ...]

Imports `__ray_entry__` from CHECKOUT (default: this script's checkout),
working in that directory so that Ray's workers import it too, starts one
local Ray session with N CPUs and that checkout's `configure_for_scale()`
DataContext, and runs every QUERY R times in turn,
consuming each result with `materialize()`. Before each run it collects
garbage and waits until every session CPU is free, so no run inherits
another's held CPUs. Peak RSS is sampled every 50 ms over the driver and
its `ray::` worker processes, as the perfbench sampler does, so it covers
the whole session, not one query's own allocations. After the wall is
read, each run also records what the query returned, from the already
materialized result: its pandas dtypes and the sha256 of its rows sorted
by all columns (`_digest`), so two checkouts' outputs compare directly.
Prints one JSON object with the git head, CPU count, loadavg and every
run; each run also goes to stderr as it ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import threading
import time


def _tree_rss(me: int, page: int) -> int:
    """RSS bytes of `me` plus every `ray::` process descended from it."""
    parent, worker = {}, set()
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat", "rb") as fh:
                stat = fh.read()
            with open(f"/proc/{d}/cmdline", "rb") as fh:
                if fh.read(5).startswith(b"ray::"):
                    worker.add(int(d))
        except OSError:
            continue
        parent[int(d)] = int(stat.rsplit(b")", 1)[1].split()[1])
    total = 0
    for pid in worker | {me}:
        p, hops = pid, 0
        while p != me and p in parent and hops < 16:
            p, hops = parent[p], hops + 1
        if p != me:
            continue
        try:
            with open(f"/proc/{pid}/statm") as fh:
                total += int(fh.read().split()[1]) * page
        except OSError:
            pass
    return total


class PeakRss(threading.Thread):
    def __init__(self):
        super().__init__(daemon=True)
        self.peak = 0
        self.stop = threading.Event()

    def run(self):
        me, page = os.getpid(), os.sysconf("SC_PAGE_SIZE")
        while not self.stop.wait(0.05):
            self.peak = max(self.peak, _tree_rss(me, page))


def _digest(df) -> str:
    """sha256 of `df`'s rows, sorted by all columns: each row is taken as
    the repr of its Arrow `to_pylist()` dict (plain Python values, no
    truncated numpy repr) and rows sort by that text, so list and null
    cells sort too and the digest ignores row order."""
    import hashlib

    import pyarrow as pa

    rows = sorted(map(repr, pa.Table.from_pandas(
        df, preserve_index=False).to_pylist()))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def main() -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser()
    ap.add_argument("queries", nargs="+")
    ap.add_argument("--repo", default=here)
    ap.add_argument("--sf", required=True)
    ap.add_argument("--cpus", type=int, default=4)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()
    # Ray workers import the engine from the driver's working directory
    os.chdir(args.repo)
    sys.path.insert(0, os.getcwd())

    import ray

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             logging_level="ERROR")
    from dygiepp_ray.context import configure_for_scale

    configure_for_scale()
    import __ray_entry__ as entry

    qs = entry.queries()
    ray.data.range(64, override_num_blocks=args.cpus).map_batches(
        lambda b: b).materialize()  # start the workers

    def all_free():
        deadline = time.monotonic() + 60
        while (ray.available_resources().get("CPU", 0) < args.cpus
               and time.monotonic() < deadline):
            time.sleep(0.05)

    runs = []
    for rep in range(args.reps):
        for name in args.queries:
            gc.collect()
            all_free()
            sampler = PeakRss()
            sampler.start()
            t0 = time.perf_counter()
            res = qs[name](args.sf)
            if isinstance(res, ray.data.Dataset):
                res = res.materialize()
                rows = res.count()
            else:
                rows = len(res)
            wall = time.perf_counter() - t0
            sampler.stop.set()
            sampler.join()
            df = res.to_pandas() if isinstance(res, ray.data.Dataset) else res
            runs.append({"query": name, "rep": rep, "wall_s": round(wall, 3),
                         "peak_rss_mb": round(sampler.peak / 1e6, 1),
                         "rows": rows,
                         "dtypes": {str(c): str(t)
                                    for c, t in df.dtypes.items()},
                         "sha256": _digest(df)})
            print(json.dumps(runs[-1]), file=sys.stderr)
    head = subprocess.run(["git", "-C", args.repo, "rev-parse", "HEAD"],
                          capture_output=True, text=True).stdout.strip()
    print(json.dumps({"repo": args.repo, "git_head": head, "sf": args.sf,
                      "cpus": args.cpus, "loadavg": os.getloadavg(),
                      "runs": runs}))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
