"""One compute strategy for stateful `map_batches` stages.

Every stateful stage runs as a callable instance on Ray Data's task pool.
`state/process_local.py` keeps one instance per worker process for the
stages whose construction is expensive; these tests pin that contract, and
that no actor-pool constructor plumbing or per-stage concurrency knob comes
back.
"""

import inspect
import os
import pathlib
import pickle
import sys

import pandas as pd
import pytest

import ray
import ray.data

from dygiepp_ray.state import process_local
from dygiepp_ray.state.broadcast import BroadcastSetFilter
from dygiepp_ray.state.process_local import ProcessLocal

ROOT = pathlib.Path(__file__).resolve().parent.parent

# workers cannot import this test module: ship its stage classes by value
ray.cloudpickle.register_pickle_by_value(sys.modules[__name__])


class _Stage(ProcessLocal):
    builds = 0

    def __init__(self, scale: int, offset: int = 0):
        type(self).builds += 1
        self.scale, self.offset = scale, offset
        self.memo: dict = {}

    def __call__(self, x):
        return self.memo.setdefault(x, x * self.scale + self.offset)


class _LoggingFilter(BroadcastSetFilter):
    """A ref-holding stage that logs the process id of each construction
    (each `ray.get` of its key set) and of each batch it filters."""

    def __init__(self, keys_ref, column: str, log: str):
        super().__init__(keys_ref, column)
        self.log = log
        self._write("init")

    def _write(self, what: str) -> None:
        with open(self.log, "a") as fh:
            fh.write(f"{what} {os.getpid()}\n")

    def __call__(self, batch):
        self._write("call")
        return super().__call__(batch)


@pytest.fixture
def no_instances(monkeypatch):
    monkeypatch.setattr(process_local, "_INSTANCES", {})
    monkeypatch.setattr(_Stage, "builds", 0)


def test_unpickling_twice_gives_one_instance(no_instances):
    stage = _Stage(3, offset=1)
    blob = pickle.dumps(stage)
    held = pickle.loads(blob)
    assert held is not stage and pickle.loads(blob) is held
    assert pickle.loads(pickle.dumps(held)) is held
    assert (held.scale, held.offset, held(2)) == (3, 1, 7)
    assert _Stage.builds == 2  # the driver's instance and the process's


def test_new_token_replaces_held_instance(no_instances):
    first_blob = pickle.dumps(_Stage(2))
    first = pickle.loads(first_blob)
    first(5)
    second = pickle.loads(pickle.dumps(_Stage(2)))
    assert second is not first and second.memo == {}
    assert process_local._INSTANCES[_Stage] == (second._token, second)
    rebuilt = pickle.loads(first_blob)
    assert rebuilt is not first and rebuilt.memo == {}


def test_ref_holding_stage_resolves_once_per_process(tmp_path):
    """16 single-block tasks on the session's workers: each worker process
    constructs the stage, and so `ray.get`s its key set, exactly once."""
    log = tmp_path / "log.txt"
    ds = ray.data.from_pandas(
        [pd.DataFrame({"id": range(i * 4, i * 4 + 4)}) for i in range(16)])
    keys_ref = ray.put(list(range(0, 64, 2)))
    out = ds.map_batches(_LoggingFilter(keys_ref, "id", str(log)),
                         batch_format="pyarrow", batch_size=4).to_pandas()
    assert sorted(out["id"]) == list(range(0, 64, 2))

    lines = [ln.split() for ln in log.read_text().splitlines()]
    calls = [pid for what, pid in lines if what == "call"]
    inits = [pid for what, pid in lines
             if what == "init" and pid != str(os.getpid())]
    assert len(calls) == 16
    assert sorted(inits) == sorted(set(calls))
    assert len(inits) < len(calls)


def _package_sources():
    return sorted(ROOT.joinpath("dygiepp_ray").rglob("*.py")) + [
        ROOT / "__ray_entry__.py"]


def test_no_actor_pool_constructor_plumbing():
    """Stateful stages are passed as instances: no `map_batches` call in the
    engine builds an actor pool from a class and its constructor args."""
    offenders = [
        f"{path.relative_to(ROOT)}:{i}"
        for path in _package_sources()
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if "fn_constructor_kwargs" in line or "fn_constructor_args" in line]
    assert offenders == []


def _concurrency_free_functions():
    from dygiepp_ray.pipelines.curation import curate_corpus
    from dygiepp_ray.pipelines.kg import extract
    from dygiepp_ray.stages.bpe import encode_token_counts
    from dygiepp_ray.stages.curate import (decontaminate, fuzzy_decontaminate,
                                           neardup_clusters)
    from dygiepp_ray.stages.dedup import minhash_lsh_pairs, simhash_near_dups
    from dygiepp_ray.stages.linking import alias_pairs

    return [extract, minhash_lsh_pairs, simhash_near_dups, decontaminate,
            neardup_clusters, fuzzy_decontaminate, alias_pairs,
            encode_token_counts, curate_corpus]


@pytest.mark.parametrize("fn", _concurrency_free_functions(),
                         ids=lambda f: f.__name__)
def test_stage_functions_take_no_concurrency(fn):
    assert "concurrency" not in inspect.signature(fn).parameters
