"""Kill-and-resume: SIGKILL a build_kg run mid-flight, resume, and verify the
final output equals a clean run's (SURVEY.md §7.2-6)."""

import glob
import os
import signal
import subprocess
import sys
import time

import pyarrow.parquet as pq
import pytest

CORPUS = "/tmp/kill_resume_corpus"
OUT_KILLED = "/tmp/kill_resume_out"
OUT_CLEAN = "/tmp/kill_resume_clean"

BUILD_SNIPPET = """
import sys, ray
sys.path.insert(0, "/root/repo")
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from dygiepp_ray.pipelines.kg import build_kg
res = build_kg({corpus!r}, {out!r}, n_buckets=8, concurrency=2)
print("DONE", res["written_buckets"], res["skipped_buckets"])
ray.shutdown()
"""


def _run_build(out_dir: str, kill_after: float | None = None) -> bool:
    """Run build_kg in a subprocess; optionally SIGKILL it. Returns True if
    the process completed."""
    code = BUILD_SNIPPET.format(corpus=CORPUS, out=out_dir)
    proc = subprocess.Popen([sys.executable, "-c", code],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True)
    if kill_after is None:
        proc.wait(timeout=300)
        return proc.returncode == 0
    time.sleep(kill_after)
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
        return False
    return proc.returncode == 0


def _rows(out_dir: str) -> int:
    return sum(
        pq.read_metadata(f).num_rows
        for f in glob.glob(os.path.join(out_dir, "bucket=*", "*.parquet"))
    )


def test_kill_mid_build_then_resume_matches_clean():
    import shutil

    from dygiepp_ray.corpus import write_corpus

    for d in (CORPUS, OUT_KILLED, OUT_CLEAN):
        shutil.rmtree(d, ignore_errors=True)
    write_corpus(CORPUS, n_files=400, seed=11, n_shards=8)

    # clean reference run
    assert _run_build(OUT_CLEAN)
    clean_rows = _rows(OUT_CLEAN)
    assert clean_rows > 0

    # killed run: SIGKILL while the pipeline is (very likely) mid-flight
    completed = _run_build(OUT_KILLED, kill_after=6.0)
    # resume (possibly several times — idempotent either way) until done
    for _ in range(3):
        if _run_build(OUT_KILLED):
            break
    else:
        pytest.fail("resume never completed")

    assert _rows(OUT_KILLED) == clean_rows
    # manifests cover all buckets exactly once
    manifests = glob.glob(os.path.join(OUT_KILLED, "_manifests", "bucket-*.json"))
    assert len(manifests) == 8
    # a second resume is a full no-op
    assert _run_build(OUT_KILLED)
    assert _rows(OUT_KILLED) == clean_rows


KILL_WORKER_SNIPPET = """
import sys, ray
sys.path.insert(0, {repo!r})
ray.init(address="local", num_cpus=4, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from dygiepp_ray.pipelines.kg import build_kg
build_kg({corpus!r}, {out!r}, n_buckets=8, concurrency=2, batch_size=32)
print("DONE", flush=True)
ray.shutdown()
"""


def _descendants(pid: int) -> set[int]:
    """Every live process below `pid`, from /proc's parent links."""
    children: dict[int, list[int]] = {}
    for stat in glob.glob("/proc/[0-9]*/stat"):
        try:
            with open(stat) as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(stat.split("/")[2]))
    out, todo = set(), [pid]
    while todo:
        kids = children.get(todo.pop(), [])
        out.update(kids)
        todo.extend(kids)
    return out


def _title(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _build_outputs(out_dir: str):
    """(sorted triples, manifests without file names, part files per bucket
    vs its manifest's)."""
    import json

    import pyarrow as pa

    tables = [pq.read_table(f) for f in sorted(
        glob.glob(os.path.join(out_dir, "bucket=*", "*.parquet")))]
    triples = pa.concat_tables(tables)
    triples = triples.sort_by([(c, "ascending") for c in triples.column_names])
    manifests, files = {}, {}
    for f in glob.glob(os.path.join(out_dir, "_manifests", "bucket-*.json")):
        with open(f) as fh:
            m = json.load(fh)
        b = m["bucket"]
        files[b] = (sorted(m.pop("files")), sorted(
            os.path.basename(p) for p in
            glob.glob(os.path.join(out_dir, f"bucket={b}", "*.parquet"))))
        manifests[b] = m
    return triples, manifests, files


def test_killed_extraction_worker_is_retried(tmp_path):
    """SIGKILL a Ray worker while it runs the fused extraction stage: Ray
    retries the task, build_kg returns, and the triples and manifests equal
    a clean run's with no bucket holding an extra part file."""
    from dygiepp_ray.corpus import write_corpus

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, n_files=3000, seed=13, n_shards=8)
    outs = {}
    killed = []
    for name in ("clean", "killed"):
        out = str(tmp_path / name)
        proc = subprocess.Popen(
            [sys.executable, "-c",
             KILL_WORKER_SNIPPET.format(repo=repo, corpus=corpus, out=out)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            while name == "killed" and not killed and proc.poll() is None:
                for pid in _descendants(proc.pid):
                    if "ExtractToTriples" in _title(pid):
                        try:
                            os.kill(pid, signal.SIGKILL)
                        except ProcessLookupError:  # exited meanwhile
                            continue
                        killed.append(pid)
                        break
                time.sleep(0.005)
            stdout, _ = proc.communicate(timeout=300)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=60)
        assert proc.returncode == 0 and "DONE" in stdout, (name, stdout)
        outs[name] = _build_outputs(out)

    assert killed, "no extraction worker was seen to kill"
    clean, got = outs["clean"], outs["killed"]
    assert clean[0].num_rows > 0 and got[0].equals(clean[0])
    assert got[1] == clean[1] and len(got[1]) == 8
    for listed, on_disk in got[2].values():
        assert listed == on_disk
