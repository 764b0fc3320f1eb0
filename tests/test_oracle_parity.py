"""The pure-python oracle module (dygiepp_ray/oracle.py) must reproduce the
engine's outputs bit-for-bit — it backs the driver's value-hash checks for
the non-SQL queries, so any drift here IS a correctness failure.

These tests pin the equivalence on a small deterministic corpus and on the
sf0.001 testdata documents table.
"""

import hashlib
import shutil

import pandas as pd
import pytest

from dygiepp_ray import oracle
from dygiepp_ray.corpus import write_corpus
from dygiepp_ray.pipelines import kg as kgp

SF = "/root/testdata/sf0.001"
CORPUS = "/tmp/oracle_parity_corpus"


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    rows = sorted(tuple(str(v) for v in row)
                  for row in df.itertuples(index=False, name=None))
    h = hashlib.sha256()
    for r in rows:
        h.update("\x1f".join(r).encode())
        h.update(b"\x1e")
    return h.hexdigest()


@pytest.fixture(scope="module")
def corpus_dir():
    shutil.rmtree(CORPUS, ignore_errors=True)
    write_corpus(CORPUS, n_files=60, seed=7, n_shards=4)
    return CORPUS


def test_triples_oracle_parity(corpus_dir):
    got = kgp.kg_triples(corpus_dir, concurrency=2).to_pandas()
    want = oracle.expected_triples(corpus_dir).to_pandas()
    assert len(got) == len(want) > 0
    assert value_hash(got) == value_hash(want)


def test_closure_oracle_parity(corpus_dir):
    from dygiepp_ray.pipelines.evaluate import transitive_closure

    tri = kgp.kg_triples(corpus_dir, concurrency=2)
    got = transitive_closure(
        tri.select_columns(["doc_id", "subj", "obj", "pred", "conf"])
    ).to_pandas()
    want = oracle.expected_closure(oracle.expected_triples(corpus_dir)).to_pandas()
    assert value_hash(got) == value_hash(want)


def test_simhash_oracle_parity():
    # regression: signatures must survive the explode/shuffle as uint64 —
    # an object/float64 column silently destroys the low bits
    import ray.data

    from dygiepp_ray.stages.dedup import simhash_near_dups

    docs = ray.data.read_parquet(f"{SF}/documents.parquet",
                                 columns=["doc_id", "text"])
    got = simhash_near_dups(docs).to_pandas()
    want = oracle.expected_simhash_pairs(SF).to_pandas()
    assert len(got) == len(want) > 0
    assert value_hash(got) == value_hash(want)


def test_fingerprint_oracle_parity():
    import ray.data

    from dygiepp_ray.stages.text import fingerprint

    docs = ray.data.read_parquet(f"{SF}/documents.parquet",
                                 columns=["doc_id", "text"])
    got = docs.map_batches(fingerprint, batch_format="pandas").to_pandas()
    want = oracle.expected_fingerprint(SF).to_pandas()
    assert value_hash(got) == value_hash(want)
