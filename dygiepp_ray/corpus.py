"""Deterministic synthetic source-code corpus (north-rule input shape).

Emits a Parquet-able table `(repo, path, commit, lang, content)` per
BASELINE.json's `input_hint`. Content is code-shaped with text-bearing regions
(comments / docstrings / markdown prose) containing planted entity mentions,
relation patterns, and event triggers, per FIXTURES.md §1:

- (a) plantable entities + relation patterns in comments/docstrings,
- (b) Zipfian repetition of entity surface forms (skewed canonicalization keys),
- (c) a few files whose extracted text exceeds 500 tokens (exercises P3 doc
      splitter),
- (d) duplicate mentions/files across repos (exercises dedup/counting).

Everything is seeded; the same (seed, n_files) always yields byte-identical
content, so sha256(content) is a stable end-to-end invariant.
"""

from __future__ import annotations

import hashlib
import random

import pyarrow as pa

from .schema import CORPUS_SCHEMA

# Entity lexicon: surface form → NER type. Multi-token forms exercise span
# enumeration (width ≤ 8); shared head nouns exercise canonicalization.
ENTITY_LEXICON: dict[str, str] = {
    "hash join": "Method",
    "sort merge join": "Method",
    "merge sort": "Method",
    "bloom filter": "Method",
    "b tree index": "Method",
    "cost model": "Method",
    "query planner": "Method",
    "vectorized scan": "Method",
    "predicate pushdown": "Method",
    "query optimization": "Task",
    "data skipping": "Task",
    "cardinality estimation": "Task",
    "duplicate elimination": "Task",
    "spill management": "Task",
    "parquet file": "Material",
    "arrow buffer": "Material",
    "column chunk": "Material",
    "row group": "Material",
    "object store": "Material",
    "latency": "Metric",
    "throughput": "Metric",
    "memory footprint": "Metric",
    "scan time": "Metric",
    "the system": "Generic",
    "this approach": "Generic",
}

# Relation patterns: connective phrase → relation label. Planted as
# "<subj> <connective> <obj>" inside one sentence.
RELATION_PATTERNS: dict[str, str] = {
    "is used for": "USED-FOR",
    "is part of": "PART-OF",
    "is compared with": "COMPARE",
    "is a feature of": "FEATURE-OF",
    "is evaluated by": "EVALUATE-FOR",
    "is a kind of": "HYPONYM-OF",
}

# Event triggers: single-token verb → event type (single-token triggers per
# reference doc/data.md:59); argument roles assigned by position.
EVENT_TRIGGERS: dict[str, str] = {
    "shipped": "movement_transport",
    "transferred": "transaction_transfer",
    "merged": "contact_meet",
}

_FILLER = (
    "the runtime keeps every block compressed until the scan needs it . "
    "workers exchange partitions over the shared store . "
).split()

LANGS = ["python", "java", "go", "markdown"]


def _zipf_choice(rng: random.Random, items: list[str]) -> str:
    # Zipfian pick: rank r with weight 1/(r+1); deterministic under rng.
    weights = [1.0 / (i + 1) for i in range(len(items))]
    return rng.choices(items, weights=weights, k=1)[0]


def _make_sentence(rng: random.Random, entities: list[str]) -> str:
    kind = rng.random()
    if kind < 0.55:
        subj = _zipf_choice(rng, entities)
        obj = _zipf_choice(rng, entities)
        conn = rng.choice(list(RELATION_PATTERNS))
        return f"{subj} {conn} {obj} ."
    if kind < 0.70:
        trig = rng.choice(list(EVENT_TRIGGERS))
        a0 = _zipf_choice(rng, entities)
        a1 = _zipf_choice(rng, entities)
        return f"{a0} {trig} {a1} ."
    if kind < 0.85:
        ent = _zipf_choice(rng, entities)
        n = rng.randint(3, 8)
        filler = " ".join(rng.choice(_FILLER) for _ in range(n))
        return f"{ent} {filler} ."
    n = rng.randint(4, 10)
    return " ".join(rng.choice(_FILLER) for _ in range(n)) + " ."


def _comment_prefix(lang: str) -> str:
    return {"python": "# ", "java": "// ", "go": "// ", "markdown": ""}[lang]


def _make_content(rng: random.Random, lang: str, n_sents: int,
                  entities: list[str] | None = None) -> str:
    if entities is None:
        entities = list(ENTITY_LEXICON)
    prefix = _comment_prefix(lang)
    lines: list[str] = []
    if lang == "python":
        lines.append("def run_pipeline(ctx):")
        lines.append('    """' + _make_sentence(rng, entities) + '"""')
    elif lang in ("java", "go"):
        lines.append("func main() {" if lang == "go" else "class Pipeline {")
    for _ in range(n_sents):
        lines.append(prefix + _make_sentence(rng, entities))
        if rng.random() < 0.3 and lang != "markdown":
            lines.append("    x = scan(t%d)" % rng.randint(0, 99))
    if lang in ("java", "go"):
        lines.append("}")
    return "\n".join(lines) + "\n"


# Scale-graded vocabulary (VERDICT r4 #6): a FIXED 25-entity lexicon makes
# entity degree grow linearly with corpus size, so degree-capped operators
# (rule mining's mid-degree contract, alias/type ops) go degenerate at bench
# scale. Real corpora follow Heaps' law (V ∝ n^β, β≈0.5) — the scaled
# lexicon adds deterministic two-token entities on a sqrt(n) schedule.
_EXTRA_ADJ = [
    "adaptive", "parallel", "lazy", "sparse", "hybrid", "dynamic",
    "streaming", "columnar", "buffered", "partial", "recursive",
    "incremental", "batched", "pipelined", "concurrent", "hashed",
]
_EXTRA_NOUN = [
    "index", "cache", "scheduler", "codec", "planner", "executor",
    "allocator", "compactor", "iterator", "encoder", "sampler",
    "router", "prefetcher", "balancer", "profiler", "catalog",
]
_EXTRA_TYPES = ["Method", "Task", "Material", "Metric"]


def scaled_entity_lexicon(n_files: int) -> dict[str, str]:
    """Base lexicon + ~12·(sqrt(n/100)−1) deterministic two-token entities
    (Heaps-law growth, capped at 256 extras). `n_files` ≤ 100 — the
    smallest correctness tier — yields the base lexicon unchanged, so
    existing fixtures and golden tests are unaffected; larger corpora get
    a vocabulary whose per-entity degree stays sub-linear in corpus size."""
    import math

    extra = min(len(_EXTRA_ADJ) * len(_EXTRA_NOUN),
                max(0, int(12 * math.sqrt(n_files / 100.0)) - 12))
    lex = dict(ENTITY_LEXICON)
    for k in range(extra):
        phrase = (f"{_EXTRA_ADJ[k % len(_EXTRA_ADJ)]} "
                  f"{_EXTRA_NOUN[k // len(_EXTRA_ADJ)]}")
        lex[phrase] = _EXTRA_TYPES[k % 4]
    return lex


def make_sentences(n: int, seed: int,
                   entity_order_seed: int | None = None) -> list[list[str]]:
    """Standalone tokenized sentences from the corpus sentence grammar.

    `entity_order_seed` permutes the entity-frequency RANKS (the Zipf
    weights in `_zipf_choice` follow list order), yielding a held-out
    DISTRIBUTION — same lexicon, different vocabulary mix — for the
    learned-scorer conformance gates (tests/test_learned.py): entities
    that were rare at training time become frequent at eval time."""
    rng = random.Random(seed)
    entities = list(ENTITY_LEXICON)
    if entity_order_seed is not None:
        random.Random(entity_order_seed).shuffle(entities)
    return [_make_sentence(rng, entities).split() for _ in range(n)]


def generate_corpus(n_files: int = 200, seed: int = 42,
                    vocab_n: int | None = None) -> pa.Table:
    """Build the deterministic corpus table. ~5% of files are long (>500
    extracted tokens); ~5% are exact duplicates of an earlier file.

    `vocab_n`: when set, sentences draw entities from
    `scaled_entity_lexicon(vocab_n)` (Heaps-law vocabulary for that corpus
    size); None keeps the base lexicon — the byte-stable legacy stream the
    scaling corpora and golden fixtures were generated from."""
    rng = random.Random(seed)
    entities = list(scaled_entity_lexicon(vocab_n)) if vocab_n else None
    repos, paths, commits, langs, contents = [], [], [], [], []
    for i in range(n_files):
        lang = rng.choice(LANGS)
        repo = f"org{i % 7}/proj{i % 13}"
        ext = {"python": "py", "java": "java", "go": "go", "markdown": "md"}[lang]
        path = f"src/mod{i % 17}/file_{i}.{ext}"
        commit = hashlib.sha1(f"{seed}:{i}".encode()).hexdigest()
        if i > 10 and rng.random() < 0.05:
            # exact duplicate content under a different (repo, path)
            contents.append(contents[rng.randint(0, i - 1)])
            langs.append(langs[-1])
        else:
            n_sents = 120 if rng.random() < 0.05 else rng.randint(3, 20)
            contents.append(_make_content(rng, lang, n_sents, entities))
            langs.append(lang)
        repos.append(repo)
        paths.append(path)
        commits.append(commit)
    return pa.table(
        {"repo": repos, "path": paths, "commit": commits, "lang": langs, "content": contents},
        schema=CORPUS_SCHEMA,
    )


def write_corpus(path: str, n_files: int = 200, seed: int = 42,
                 n_shards: int = 4, vocab_n: int | None = None) -> str:
    """Write the corpus as a sharded Parquet directory (resumable layout)."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    t = generate_corpus(n_files, seed, vocab_n=vocab_n)
    per = max(1, (t.num_rows + n_shards - 1) // n_shards)
    for s in range(0, t.num_rows, per):
        pq.write_table(t.slice(s, per), f"{path}/part-{s // per:05d}.parquet")
    return path


def _write_shard(args: tuple) -> str:
    path, shard, n_in_shard, seed, vocab_n = args
    import os

    import pyarrow.parquet as pq

    out = f"{path}/part-{shard:05d}.parquet"
    if os.path.exists(out):  # resumable: finished shards are skipped
        return out
    t = generate_corpus(n_in_shard, seed=seed * 10_007 + shard,
                        vocab_n=vocab_n)
    tmp = out + ".tmp"
    pq.write_table(t, tmp)
    os.replace(tmp, out)  # atomic publish
    return out


def write_corpus_sharded(path: str, n_files: int, seed: int = 42,
                         n_shards: int = 256, workers: int | None = None,
                         vocab_n: int | None = None) -> str:
    """Parallel, RESUMABLE generator for the big scaling corpora: each shard
    is generated independently from a derived seed (duplicate files reference
    earlier files of the SAME shard) and published atomically, so a killed
    run skips completed shards on restart. `write_corpus` (single global rng
    stream) stays the generator for the small correctness corpora — the two
    streams differ and are not interchangeable."""
    import os
    from concurrent.futures import ProcessPoolExecutor

    os.makedirs(path, exist_ok=True)
    per = (n_files + n_shards - 1) // n_shards
    sizes = [min(per, n_files - s * per) for s in range(n_shards)]
    jobs = [(path, s, sizes[s], seed, vocab_n)
            for s in range(n_shards) if sizes[s] > 0]
    workers = workers or max(1, (os.cpu_count() or 4) - 2)
    with ProcessPoolExecutor(max_workers=workers) as ex:
        list(ex.map(_write_shard, jobs, chunksize=4))
    return path
