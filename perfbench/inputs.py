"""Seeded benchmark inputs and their oracle digests.

Each workload's corpus is a function of (workload, seed, size) only. The
engine sees nothing but the generated Parquet directory. The expected triple
digest comes from `dygiepp_ray.oracle.expected_triples`, a single-process
re-walk that shares no decode code with the engine; it is computed once per
(workload, seed, size), one shard per worker process, and cached next to the
corpus under the work directory.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import shutil

# Bump when the generated bytes or the digest definition change, so stale
# caches are never reused.
INPUTS_VERSION = 3
N_SHARDS = 8
WARMUP_FILES = 16


def kernel_kwargs(spec: dict) -> dict:
    """Kernel arguments the engine is built with for this workload; the
    oracle is handed the same lexicon."""
    if not spec["vocab"]:
        return {}
    from dygiepp_ray.corpus import scaled_entity_lexicon

    return {"entity_lexicon": scaled_entity_lexicon(spec["n_files"])}


_SENT_END = re.compile(r" \.")


def _make_unique(shard_path: str, seed: int, shard: int) -> None:
    """Insert one seeded token, unique across the corpus, before every
    sentence-final " .". Relation patterns close before the object span and
    the token is no lexicon entry, so the extracted (subj, pred, obj) rows
    keep their shape while almost no sentence repeats, which defeats the
    kernel's per-actor sentence memo."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pq.read_table(shard_path)
    counter = [0]

    def token(_m) -> str:
        counter[0] += 1
        return f" zq{seed:x}s{shard}n{counter[0]:x} ."

    contents = [_SENT_END.sub(token, c) for c in t.column("content").to_pylist()]
    i = t.schema.get_field_index("content")
    t = t.set_column(i, t.schema.field(i), pa.array(contents, pa.string()))
    tmp = shard_path + ".tmp"
    pq.write_table(t, tmp)
    os.replace(tmp, shard_path)


def _oracle_shard(args: tuple) -> tuple[str, int]:
    """Worker: oracle triples of one shard → (digest hex, rows)."""
    shard_path, lexicon_n = args
    from checks import triple_digest
    from dygiepp_ray import oracle
    from dygiepp_ray.corpus import scaled_entity_lexicon

    one = shard_path + ".d"
    os.makedirs(one, exist_ok=True)
    link = os.path.join(one, os.path.basename(shard_path))
    if not os.path.exists(link):
        os.link(shard_path, link)
    lex = scaled_entity_lexicon(lexicon_n) if lexicon_n else None
    exp = oracle.expected_triples(one, entity_lexicon=lex)
    shutil.rmtree(one)
    digest, rows = triple_digest(exp)
    return format(digest, "064x"), rows


def prepare(work: str, workload: str, spec: dict, seed: int) -> dict:
    """Corpus dir + warm-up corpus + oracle digest for (workload, seed),
    generated on first use and reused after."""
    from dygiepp_ray.corpus import write_corpus, write_corpus_sharded

    n = spec["n_files"]
    base = os.path.join(work, "inputs",
                        f"v{INPUTS_VERSION}-{workload}-s{seed}-n{n}")
    meta_path = os.path.join(base, "oracle.json")
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            meta = json.load(fh)
        meta["cached"] = True
        return meta
    shutil.rmtree(base, ignore_errors=True)
    corpus = os.path.join(base, "corpus")
    vocab_n = n if spec["vocab"] else None
    write_corpus_sharded(corpus, n, seed=seed, n_shards=N_SHARDS,
                         workers=min(4, os.cpu_count() or 1), vocab_n=vocab_n)
    shards = sorted(os.path.join(corpus, f) for f in os.listdir(corpus)
                    if f.endswith(".parquet"))
    if spec["unique"]:
        for k, path in enumerate(shards):
            _make_unique(path, seed, k)
    warm = write_corpus(os.path.join(base, "warmup"), n_files=WARMUP_FILES,
                        seed=seed + 1, n_shards=1, vocab_n=vocab_n)
    ctx = multiprocessing.get_context("spawn")
    pool = ctx.Pool(min(4, len(shards)))
    try:
        parts = pool.map(_oracle_shard, [(p, vocab_n) for p in shards])
        pool.close()
    finally:
        pool.terminate()
        pool.join()
    digest = sum(int(d, 16) for d, _ in parts) % (1 << 256)
    meta = {
        "corpus": corpus,
        "warmup": warm,
        "n_files": n,
        "n_shards": len(shards),
        "corpus_bytes": sum(os.path.getsize(p) for p in shards),
        "oracle_digest": format(digest, "064x"),
        "oracle_rows": sum(r for _, r in parts),
    }
    tmp = meta_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(meta, fh)
    os.replace(tmp, meta_path)
    meta["cached"] = False
    return meta
