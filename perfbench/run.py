"""KG-build benchmark: closed-loop `build_kg` + resume over seeded corpora,
every timed op checked against an independent oracle.

    python3 perfbench/run.py --workload build_dup --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout. It generates its inputs under
`.perfbench/` there. It then sets up two local Ray sessions in turn, each
sized to 4 CPUs (a fixed 3-actor kernel pool, batch_size=1024), and in each
loops for half of `--seconds`: clean `build_kg`, then a resume after 4 of
the 16 bucket manifests are removed. One job at a time; the next starts
when the previous returns and its actor pool has released its CPUs. Every
process the run starts, Ray's included, has ended before it exits.

The last stdout line is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`). The line before it is the full report: stamps, sample counts,
percentiles, pool-release waits and negative-control outcomes; it is also
written to `.perfbench/results/`. See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = {
    # the legacy sharded stream: boilerplate-heavy, ~5% duplicate files,
    # 25-entity base lexicon, so the per-actor sentence memo mostly hits
    "build_dup": {"n_files": 2000, "vocab": False, "unique": False},
    # the Heaps-law lexicon plus one unique token per sentence: memo ≈ 0
    "build_unique": {"n_files": 2000, "vocab": True, "unique": True},
}
NUM_CPUS = 4
ACTORS = 3
BATCH_SIZE = 1024
N_BUCKETS = 16
# Manifests removed before each resume. Fixed, not drawn from the seed:
# resume walls differ by which buckets are pending, and that difference
# would read as run-to-run spread.
RESUME_DROP = [0, 4, 8, 12]
SETUP_CYCLES = 2
OBJECT_STORE_BYTES = 512 << 20
# Ray puts unix sockets under its temp dir; their paths must stay < 108
# bytes, so a deep checkout falls back to Ray's default temp dir.
MAX_RAY_TEMP_LEN = 40
POOL_RELEASE_GRACE_S = 0.1
POOL_RELEASE_TIMEOUT_S = 30.0
PR_SET_CHILD_SUBREAPER = 36
CHILD_EXIT_GRACE_S = 5.0


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with ≥10 samples beyond it (max when
    there are too few samples for any), and the sample count."""
    v = sorted(values)
    out = {"n": len(v), "median": statistics.median(v), "max": v[-1]}
    if len(v) >= 20:
        q = 1 - 10 / len(v)
        out[f"p{int(q * 100)}"] = v[min(len(v) - 1, int(q * len(v)))]
    return out


class RssSampler(threading.Thread):
    """Peak summed RSS of the driver plus its Ray worker processes
    (`ray::*` descendants), sampled while `active` is set."""

    PERIOD_S = 0.2
    RESCAN_S = 1.0

    def __init__(self):
        super().__init__(daemon=True)
        self.active = threading.Event()
        self.stop = threading.Event()
        self.peak = 0
        self._page = os.sysconf("SC_PAGE_SIZE")

    def _workers(self) -> list[int]:
        me = os.getpid()
        parent, is_worker = {}, {}
        for d in os.listdir("/proc"):
            if not d.isdigit():
                continue
            try:
                with open(f"/proc/{d}/stat", "rb") as fh:
                    stat = fh.read()
                with open(f"/proc/{d}/cmdline", "rb") as fh:
                    cmd = fh.read(5)
            except OSError:
                continue
            pid = int(d)
            parent[pid] = int(stat.rsplit(b")", 1)[1].split()[1])
            is_worker[pid] = cmd.startswith(b"ray::")
        out = []
        for pid, w in is_worker.items():
            p, hops = pid, 0
            while w and p in parent and p != me and hops < 16:
                p, hops = parent[p], hops + 1
            if w and p == me:
                out.append(pid)
        return out

    def _rss(self, pid: int) -> int:
        try:
            with open(f"/proc/{pid}/statm") as fh:
                return int(fh.read().split()[1]) * self._page
        except OSError:
            return 0

    def run(self):
        workers, scanned = [], 0.0
        while not self.stop.wait(self.PERIOD_S):
            if not self.active.is_set():
                continue
            now = time.monotonic()
            if now - scanned > self.RESCAN_S:
                workers, scanned = self._workers(), now
            total = self._rss(os.getpid()) + sum(self._rss(p) for p in workers)
            self.peak = max(self.peak, total)


class Session:
    """The Ray session, its pool-release hygiene and the ops under test."""

    def __init__(self, work: str, spec: dict, inputs_meta: dict):
        import inputs

        self.work = work
        self.meta = inputs_meta
        self.kw = inputs.kernel_kwargs(spec)
        self.out = os.path.join(work, "out")
        self.release = {"waits_s": [], "free_at_return": 0,
                        "freed_in_grace": 0, "freed_after_gc": 0,
                        "stuck": 0, "held_cpus_seen": []}
        self.ray_temp = None

    def start(self) -> None:
        import ray

        from dygiepp_ray.context import configure_for_scale

        kwargs = dict(address="local", num_cpus=NUM_CPUS,
                      object_store_memory=OBJECT_STORE_BYTES,
                      include_dashboard=False, log_to_driver=False,
                      logging_level="ERROR")
        tmp = os.path.join(self.work, "ray")
        if len(tmp) <= MAX_RAY_TEMP_LEN:
            os.makedirs(tmp, exist_ok=True)
            kwargs["_temp_dir"] = tmp
            self.ray_temp = tmp
        ray.init(**kwargs)
        configure_for_scale()

    def _free_cpus(self) -> float:
        import ray

        return ray.available_resources().get("CPU", 0.0)

    def wait_pool_released(self) -> None:
        """Block until every CPU is free again. A finished Dataset releases
        its actor pool by dropping the actor handles; when a handle is held
        in a reference cycle on the driver, the actor (and its CPU) lives
        until the cyclic collector runs. The next dataset then starts with
        fewer CPUs than it asked for. Wait briefly, then collect."""
        t0 = time.perf_counter()
        st = self.release
        if self._free_cpus() >= NUM_CPUS:
            st["free_at_return"] += 1
        else:
            st["held_cpus_seen"].append(NUM_CPUS - self._free_cpus())
            while (self._free_cpus() < NUM_CPUS
                   and time.perf_counter() - t0 < POOL_RELEASE_GRACE_S):
                time.sleep(0.01)
            if self._free_cpus() >= NUM_CPUS:
                st["freed_in_grace"] += 1
            else:
                gc.collect()
                while (self._free_cpus() < NUM_CPUS
                       and time.perf_counter() - t0 < POOL_RELEASE_TIMEOUT_S):
                    time.sleep(0.01)
                st["freed_after_gc" if self._free_cpus() >= NUM_CPUS
                   else "stuck"] += 1
        st["waits_s"].append(time.perf_counter() - t0)

    def build(self, corpus: str, out: str, resume: bool = True) -> dict:
        from dygiepp_ray.pipelines import kg

        return kg.build_kg(corpus, out, n_buckets=N_BUCKETS, resume=resume,
                           concurrency=ACTORS, batch_size=BATCH_SIZE, **self.kw)

    def warm_up(self) -> None:
        out = os.path.join(self.work, "warm_out")
        shutil.rmtree(out, ignore_errors=True)
        self.build(self.meta["warmup"], out, resume=False)
        self.wait_pool_released()


class Loop:
    """Closed-loop iterations with their samples, checks and failures."""

    def __init__(self, sess: Session, drop: list[int], sampler: RssSampler):
        self.s = sess
        self.drop = drop
        self.sampler = sampler
        self.samples = {"build_s": [], "resume_s": [], "triples_per_s": [],
                        "out_bytes_per_triple": []}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_clean = None  # (table, clean manifests) of iteration 0
        self.controls: dict[str, bool] = {}  # negative control → caught
        self.loop_s = 0.0

    def _timed(self, fn):
        self.sampler.active.set()
        t0 = time.perf_counter()
        try:
            return fn(), time.perf_counter() - t0
        finally:
            self.sampler.active.clear()

    def _fail(self, op: str, errs: list[str]) -> None:
        self.failed += 1
        self.errors.extend(f"{op}: {e}" for e in errs[:3])

    def iteration(self, tracer=None) -> dict:
        """Clean build, then resume. Returns this iteration's walls."""
        import checks

        s, out, meta = self.s, self.s.out, self.s.meta
        shutil.rmtree(out, ignore_errors=True)
        walls = {}
        if tracer is not None:
            tracer.op = "clean"
        self.attempted += 1
        try:
            _, wall = self._timed(lambda: s.build(meta["corpus"], out))
        except Exception as e:  # noqa: BLE001 — a raise is a failed op
            self._fail("build", [repr(e)])
            s.wait_pool_released()
            return walls
        s.wait_pool_released()
        table = checks.read_triples(out)
        errs = checks.check_build(out, table, meta, N_BUCKETS)
        clean = checks.read_manifests(out, N_BUCKETS)
        if errs:
            self._fail("build", errs)
            return walls
        walls["build_s"] = wall
        nbytes = sum(os.path.getsize(f) for f in checks.part_files(out))
        if tracer is None:
            self.samples["build_s"].append(wall)
            self.samples["triples_per_s"].append(table.num_rows / wall)
            self.samples["out_bytes_per_triple"].append(nbytes / table.num_rows)
        if self.first_clean is None:
            self.first_clean = (table, clean)

        for b in self.drop:
            os.remove(os.path.join(out, "_manifests", f"bucket-{b}.json"))
        if tracer is not None:
            tracer.op = "resume"
        self.attempted += 1
        try:
            res, wall = self._timed(lambda: s.build(meta["corpus"], out))
        except Exception as e:  # noqa: BLE001
            self._fail("resume", [repr(e)])
            s.wait_pool_released()
            return walls
        s.wait_pool_released()
        if tracer is not None:
            tracer.op = "rerun"
        errs = [] if sorted(res["written_buckets"]) == self.drop else [
            f"resume wrote {res['written_buckets']}, expected {self.drop}"]
        table = checks.read_triples(out)
        errs += checks.check_resume(out, table, meta, clean, N_BUCKETS,
                                    s.build(meta["corpus"], out))
        if errs:
            self._fail("resume", errs)
            return walls
        walls["resume_s"] = wall
        if tracer is None:
            self.samples["resume_s"].append(wall)
        if not self.controls:
            table, clean = self.first_clean
            self.controls = checks.build_controls(table, meta)
            self.controls["duplicate_part_file"] = checks.resume_control(
                out, table, meta, clean, N_BUCKETS)
        return walls

    def run(self, seconds: float) -> bool:
        """Iterate for `seconds` (at least once); False after a failure."""
        t0 = time.perf_counter()
        ok = True
        while ok and (not self.attempted or time.perf_counter() - t0 < seconds):
            before = self.failed
            self.iteration()
            ok = self.failed == before
        self.loop_s += time.perf_counter() - t0
        return ok


def adopt_descendants() -> None:
    """Make this process the subreaper of everything it starts. Ray's
    workers are children of its raylet, and `ray.shutdown` signals the
    raylet without waiting for it; orphans are then re-parented here, not
    to init, so `stop_children` can wait for every one of them."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"prctl(PR_SET_CHILD_SUBREAPER): {os.strerror(err)}")


def _children() -> list[int]:
    me = os.getpid()
    out = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat", "rb") as fh:
                ppid = int(fh.read().rsplit(b")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            out.append(int(d))
    return out


def _reap() -> int:
    n = 0
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return n
        if not pid:
            return n
        n += 1


def stop_children() -> dict:
    """Wait until every process this one started, or adopted as an orphan,
    has ended: up to `CHILD_EXIT_GRACE_S` for each to exit on its own, as
    long again after SIGTERM, then SIGKILL. Returns how many ended at each
    stage; raises if any outlives SIGKILL."""
    from multiprocessing import resource_tracker

    # a spawn pool starts this tracker; it ends only when its pipe closes
    resource_tracker._resource_tracker._stop()
    stats = {}
    kids: list[int] = []
    for stage, sig in (("exited", None), ("terminated", signal.SIGTERM),
                       ("killed", signal.SIGKILL)):
        stats[stage] = 0
        signalled: set[int] = set()
        deadline = time.monotonic() + CHILD_EXIT_GRACE_S
        while True:
            stats[stage] += _reap()
            kids = _children()
            if not kids:
                return stats
            if time.monotonic() > deadline:
                break
            for pid in kids:
                if sig is not None and pid not in signalled:
                    signalled.add(pid)
                    try:
                        os.kill(pid, sig)
                    except ProcessLookupError:
                        pass
            time.sleep(0.02)
    raise RuntimeError(f"child processes outlived SIGKILL: {kids}")


def cpu_ticks() -> tuple[int, int]:
    """(all, steal) jiffies of the host's aggregate CPU line."""
    with open("/proc/stat") as fh:
        v = [int(x) for x in fh.readline().split()[1:]]
    return sum(v), v[7]


def code_identity() -> dict:
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        git_head = head.stdout.strip() if head.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_head = None
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "dygiepp_ray")
    for d, _dirs, files in sorted(os.walk(pkg)):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    h.update(f.encode() + b"\0" + fh.read())
    return {"git_head": git_head, "engine_source_sha256": h.hexdigest()}


def traced_run(loop: Loop, sess: Session, report: dict) -> dict:
    """One traced build+resume, the in-process actor pass, a materialized
    read and the three KB ops over the build's triples, all checked."""
    import pyarrow.parquet as pq

    import checks
    import layers

    tracer = layers.Tracer()
    captured: list = []
    layers.wrap_build_layers(tracer, captured)
    try:
        walls = loop.iteration(tracer=tracer)
    finally:
        tracer.unwrap_all()
    if "build_s" not in walls:
        raise RuntimeError("traced build failed: " + "; ".join(loop.errors))
    metrics = layers.executor_stats(captured[0], walls["build_s"], ACTORS)
    table, clean = loop.first_clean
    metrics.update(layers.write_stats(sess.out, clean))

    tracer.op = "read"
    metrics["read.bytes"] = layers.read_pass(tracer, sess.meta["corpus"])
    tracer.op = "actor"
    layers.wrap_actor_layers(tracer)
    try:
        in_proc = layers.actor_pass(tracer, sess.meta["corpus"], sess.kw,
                                   N_BUCKETS, set(range(N_BUCKETS)) - set(loop.drop),
                                   BATCH_SIZE)
    finally:
        tracer.unwrap_all()
    loop.attempted += 1
    errs = checks.check_triples(in_proc, sess.meta)
    if errs:
        loop._fail("in-process actor", errs)

    kb_dir = os.path.join(sess.work, "kb")
    shutil.rmtree(kb_dir, ignore_errors=True)
    os.makedirs(kb_dir)
    triples_file = os.path.join(kb_dir, "triples.parquet")
    pq.write_table(table, triples_file)
    tracer.op = "kb"
    layers.wrap_shuffle_layers(tracer)
    try:
        layers.kb_pass(tracer, triples_file, kb_dir)
    finally:
        tracer.unwrap_all()
    sess.wait_pool_released()
    theirs = checks.kb_oracle(triples_file)
    controls = {}
    for (name, _fn), q in zip(layers.kb_ops(), checks.KB_QUERIES):
        loop.attempted += 1
        ours = pq.read_table(os.path.join(kb_dir, name)).to_pandas()
        errs = checks.check_kb(ours, theirs[q])
        if errs:
            loop._fail(f"kb.{name}", errs)
        if name == "entity_kb":
            controls["perturbed_kb_count"] = checks.kb_control(ours, theirs[q])

    tot = tracer.totals()
    metrics["read.wall_s"] = tot["read"]["total_s"]
    metrics.update(layers.layer_metrics(tracer))
    metrics["trace.overhead_share"] = (
        walls["build_s"] / statistics.median(loop.samples["build_s"]) - 1)
    spans_path = os.path.join(sess.work, "results",
                              f"spans-{report['workload']}-s{report['seed']}.json")
    tracer.dump(spans_path)
    report["trace"] = {"spans_file": spans_path, "n_spans": len(tracer.spans),
                       "span_totals": tot, "traced_walls_s": walls}
    report["negative_controls"].update(controls)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "dygiepp_ray", "pipelines", "kg.py")):
        print(f"perfbench: no dygiepp_ray package under {ROOT}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, ROOT]
    # Ray workers import the engine from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    work = os.path.join(ROOT, ".perfbench")
    os.makedirs(os.path.join(work, "results"), exist_ok=True)

    import inputs

    spec = WORKLOADS[args.workload]
    report: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    **code_identity(),
                    "os_cpu_count": os.cpu_count(), "ray_num_cpus": NUM_CPUS,
                    "actors": ACTORS, "batch_size": BATCH_SIZE,
                    "n_buckets": N_BUCKETS, "loadavg_before": os.getloadavg()}
    t = time.perf_counter()
    meta = inputs.prepare(work, args.workload, spec, args.seed)
    report["inputs"] = {**meta, "prepare_s": time.perf_counter() - t}
    import bench  # the repository's Ray-free fork probe

    report["host_probe"] = bench.host_ceiling_probe(1, NUM_CPUS, loops=1_000_000)
    report["resume_dropped_buckets"] = RESUME_DROP

    report["children_stopped"] = []
    sampler = RssSampler()
    sampler.start()
    sess = layer = None
    try:
        t = time.perf_counter()
        import ray
        import ray.data  # noqa: F401

        import dygiepp_ray.pipelines.kg  # noqa: F401
        import_s = time.perf_counter() - t
        sess = Session(work, spec, meta)
        # session logs of earlier runs; no Ray session of ours is alive here
        shutil.rmtree(os.path.join(work, "ray"), ignore_errors=True)
        # Each Ray session is set up, then timed for its share of
        # `--seconds`. Walls differ more between sessions than within one,
        # so the medians are taken over several sessions per run.
        loop = Loop(sess, RESUME_DROP, sampler)
        setup, parts = [], []
        ticks0 = cpu_ticks()
        for k in range(SETUP_CYCLES):
            t = time.perf_counter()
            sess.start()
            t_init = time.perf_counter()
            sess.warm_up()
            t_warm = time.perf_counter()
            setup.append(import_s + t_warm - t)
            ok = loop.run(args.seconds / SETUP_CYCLES)
            t_loop = time.perf_counter()
            if k < SETUP_CYCLES - 1 and ok:
                ray.shutdown()
                # the next session starts without the last one's workers
                report["children_stopped"].append(stop_children())
            parts.append({"init_s": t_init - t, "warm_up_s": t_warm - t_init,
                          "loop_s": t_loop - t_warm,
                          "shutdown_s": time.perf_counter() - t_loop})
            if not ok:
                break
        report["setup"] = {"import_s": import_s, "samples_s": setup,
                           "sessions": parts,
                           "ray_temp_dir": sess.ray_temp or "ray default"}
        report["loop_s"] = loop.loop_s
        ticks1 = cpu_ticks()
        # CPU time the hypervisor gave to other guests while this run was
        # set up and timed; high steal slows every metric at once
        report["host_steal_share"] = (
            (ticks1[1] - ticks0[1]) / max(1, ticks1[0] - ticks0[0]))
        report["negative_controls"] = loop.controls
        if args.trace and ok and loop.samples["build_s"]:
            layer = traced_run(loop, sess, report)
    finally:
        sampler.stop.set()
        sampler.join()
        if sess is not None:
            ray.shutdown()
        report["children_stopped"].append(stop_children())

    report["loadavg_after"] = os.getloadavg()
    report["pool_release"] = {**sess.release,
                              "waits_s": summarize(sess.release["waits_s"])}
    report["samples"] = {k: summarize(v) for k, v in loop.samples.items() if v}
    report["samples_raw"] = loop.samples
    report["errors"] = loop.errors
    controls_ok = bool(report["negative_controls"]) and all(
        report["negative_controls"].values())
    correct = loop.failed == 0 and bool(loop.samples["build_s"]) and controls_ok
    if (not loop.samples["build_s"] or not loop.samples["resume_s"]
            or (args.trace and layer is None)):
        metrics = {}
    elif args.trace:
        import layers

        metrics = {k: {"value": layer[k], "unit": u}
                   for k, (u, _better) in layers.LAYER_METRICS.items()}
    else:
        med = statistics.median
        metrics = {
            "setup_s": {"value": med(setup), "unit": "s"},
            "build_triples_per_s": {"value": med(loop.samples["triples_per_s"]),
                                    "unit": "triples/s"},
            "resume_s": {"value": med(loop.samples["resume_s"]), "unit": "s"},
            "peak_rss_mb": {"value": sampler.peak / 1e6, "unit": "MB"},
            "out_bytes_per_triple": {
                "value": med(loop.samples["out_bytes_per_triple"]), "unit": "B"},
        }
    report["metrics"] = metrics
    path = os.path.join(work, "results",
                        f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(json.dumps(report, default=str))
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    adopt_descendants()
    # a SIGTERM unwinds through the `finally` blocks that stop the children
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        rc = main()
    finally:
        stop_children()
    sys.exit(rc)
