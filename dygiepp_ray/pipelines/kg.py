"""Flagship KG-construction pipeline (SURVEY.md §7.1; reference lifecycle §3.2).

read_parquet(corpus) → bucket stamp → [resume filter] → `extract_triples`, a
task map: doc-prep (P1-P4, content sha256) → relation decode (M1-M8) →
flatten triples (S5/P12-P14), fused in one `__call__` → write partitioned
Parquet + per-bucket lineage manifests.

`build_kg` and `kg_triples` run one plan of work units: `read_corpus`
asks Ray Data for `ceil(rows / batch_size)` read blocks (`rows` from the
Parquet footers), and the stamp, the resume filter and `ExtractToTriples`
are task maps with one shared `concurrency` and no batch size of their
own, which Ray Data fuses into one operator running one task per block.
Ray groups whole shards into the read tasks or, when blocks outnumber
shards, splits each shard's rows evenly into `ceil(blocks / shards)`
blocks, so the units are as balanced as the shards: `perfbench`'s 2,000
rows in 8 equal shards at `batch_size=1024` run as 2 tasks of 1,000 rows.
Every partitioned store here
(`build_kg`, `build_kg_incremental`, `materialize_by_subject`) is written by
`state/manifest.py:write_partitioned`: one zstd file holding one row group
per partition per write unit of `ROWS_PER_WRITE` rows. Count tables (A1)
stream through partial+final grouped counts.

The documents product (`documents_dataset` → `extract`, a task map:
documents with `predicted_*` columns) runs the same prep, `_prep_docs`, and
its triples come from the same flatten (`FlattenTriples`). Both stages run
on Ray Data's task pool, one stage instance per worker process per build
(`state/process_local.py`).

Everything is lazy/streaming until the sink; no driver-side materialization of
document or triple data.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..aggregates import grouped_count
from ..functions.arrow import pylist
from ..stages.kernel import ExtractionKernel
from ..stages.triples import FlattenTriples
from ..state.manifest import (
    ENGINE_VERSION,
    assign_buckets,
    completed_buckets,
    file_fingerprint,
    input_files,
    input_fingerprint,
    input_rows,
    read_json,
    write_json_atomic,
    write_manifest,
    write_partitioned,
)
from ..state.process_local import ProcessLocal

# Bound on the concurrent tasks of the `extract_triples` task map.
DEFAULT_KERNEL_CONCURRENCY = 8
# Rows per batch of `extract` and of `extract_triples` over any Dataset.
DEFAULT_KERNEL_BATCH_SIZE = 64
# Corpus rows per work unit of `read_corpus`, so per extraction task of
# `build_kg` and `kg_triples`. 64-row units (about 20 ms of extraction
# each on the perfbench corpora) are no bigger than a task's own cost:
# the 20k-file build ran them as 508 tasks and took 1.6-1.9x the wall of
# the plan before work units; 1,024-row units ran as 20 tasks and beat
# that plan (BASELINE.md).
DEFAULT_UNIT_ROWS = 1024


def read_corpus(input_dir: str,
                batch_size: int = DEFAULT_UNIT_ROWS) -> "ray.data.Dataset":
    """Corpus dir → a Dataset read as `ceil(rows / batch_size)` blocks,
    the build's work units; `rows` comes from the Parquet footers. All five
    corpus columns are read: content for prep and sha, repo/path/commit for
    keys and buckets, lang for extraction."""
    units = max(1, -(-input_rows(input_dir) // batch_size))
    return ray.data.read_parquet(input_dir, override_num_blocks=units)


def documents_dataset(corpus: "ray.data.Dataset") -> "ray.data.Dataset":
    """corpus rows → prepped document rows (no kernel yet)."""
    return corpus.map_batches(documents_batch, batch_format="pyarrow")


def extract(documents: "ray.data.Dataset",
            batch_size: int = DEFAULT_KERNEL_BATCH_SIZE,
            **kernel_kwargs) -> "ray.data.Dataset":
    """Document rows → documents with `predicted_*` columns:
    `ExtractionKernel(**kernel_kwargs)` as a task map."""
    return documents.map_batches(ExtractionKernel(**kernel_kwargs),
                                 batch_format="pyarrow",
                                 batch_size=batch_size, num_cpus=1)


# Arrow-native tokenize/sentence-split fast path (VERDICT r4 #5): the fused
# kernel stage used to round-trip every document through Python regex
# tokenization (two regex passes + one str allocation per token + a second
# .lower() copy per token) — the measured DRAM-bandwidth term behind the
# 16-worker throughput ceiling (BASELINE.md). For documents whose extracted
# text satisfies the FAST preconditions, tokenization runs as ONE vectorized
# `pc.ascii_split_whitespace` over the batch's Arrow buffer and sentence
# boundaries come from terminal-punctuation token positions; the Python
# regex path remains the per-doc fallback and the two are byte-equality
# pinned (tests/test_kernel_decode.py::test_arrow_fast_prep_equivalence).
#
# Preconditions (all checked with vectorized Arrow kernels, one pass each):
#   * pure ASCII (Python's re `\w` is Unicode; RE2's is ASCII — the shape
#     check below is only meaningful when the two agree),
#   * already lowercase (token .lower() becomes the identity, so the decode
#     can reuse the token list — no per-token copy),
#   * no blank lines (the `\n{2,}` sentence-split rule needs the raw text),
#   * whitespace-chunk structure: every whitespace-delimited chunk is a
#     single `\w+('\w+)?` word or ONE punctuation char — exactly the
#     condition under which `tokenize(s) == s.split()` and the P2
#     word-normalizer ("/." → ".") is the identity.
_FAST_TEXT_RE = (
    r"^\s*(?:(?:\w+(?:'\w+)?|[^\w\s])(?:\s+(?:\w+(?:'\w+)?|[^\w\s]))*)?\s*$"
)
_TERMINALS = pa.array([".", "!", "?"], pa.string())


def _arrow_fast_sentences(texts: list[str]) -> list:
    """Per-doc tokenized sentences via Arrow kernels where the fast
    preconditions hold, else None (caller falls back to the Python regex
    path for that doc). Returns a list aligned with `texts`."""
    import numpy as np

    out: list = [None] * len(texts)
    if not texts:
        return out
    arr = pa.array(texts, pa.string())
    ok = pc.and_(
        pc.and_(pc.string_is_ascii(arr), pc.equal(arr, pc.ascii_lower(arr))),
        pc.and_(pc.invert(pc.match_substring(arr, "\n\n")),
                pc.match_substring_regex(arr, _FAST_TEXT_RE)))
    idx_np = np.flatnonzero(ok.to_numpy(zero_copy_only=False))
    if idx_np.size == 0:
        return out
    # trim first: ascii_split_whitespace emits empty leading/trailing
    # tokens for untrimmed input (internal runs collapse correctly)
    trimmed = pc.utf8_trim_whitespace(arr.take(pa.array(idx_np)))
    toklists = pc.ascii_split_whitespace(trimmed)
    offsets_np = toklists.offsets.to_numpy()
    flat = toklists.values
    # the whole batch's tokens become Python strs in one bulk leaf
    # conversion; everything the per-doc loop indexes is a Python list,
    # so it never touches a NumPy scalar
    values = pylist(flat)
    term_np = np.flatnonzero(
        pc.is_in(flat, value_set=_TERMINALS).to_numpy(zero_copy_only=False))
    lo = np.searchsorted(term_np, offsets_np[:-1]).tolist()
    hi = np.searchsorted(term_np, offsets_np[1:]).tolist()
    idx, offsets, term_idx = idx_np.tolist(), offsets_np.tolist(), term_np.tolist()
    empty = pc.equal(trimmed, "").to_numpy(zero_copy_only=False).tolist()
    for j, doc_i in enumerate(idx):
        if empty[j]:
            out[doc_i] = []
            continue
        start, b = offsets[j], offsets[j + 1]
        sents = []
        for t in term_idx[lo[j]:hi[j]]:
            sents.append(values[start:t + 1])
            start = t + 1
        if start < b:
            sents.append(values[start:b])
        out[doc_i] = sents
    return out


def _prep_docs(batch: pa.Table):
    """The one doc-prep (P1-P4, P15) of both products: corpus rows
    `(repo, path, commit, lang, content)` → extract_text → Arrow fast
    sentences, with the regex tokenize fallback per doc → P15 drop → P3
    split. Yields `(row, doc_key, sentences, pre_lowered, content_sha256)`
    per document chunk; `row` indexes `batch`. `pre_lowered` marks
    fast-path sentences, which are lowercase already.

    A row whose `content` is null extracts to no text and is dropped like
    any document without sentences, so one malformed row cannot fail a
    build. The helpers are looked up at call time (function-local imports,
    module globals) so that tracers and tests can patch them."""
    from ..functions.strings import sentence_split, sha256_hex, tokenize
    from ..schema import MAX_TOKENS_PER_DOC
    from ..stages.prep import extract_text, split_document

    word_norm = {"/.": ".", "/?": "?"}.get  # word_normalize, inlined
    contents = pylist(batch.column("content"))
    texts = ["" if c is None else extract_text(c, lg)
             for c, lg in zip(contents, pylist(batch.column("lang")))]
    fast_sents = _arrow_fast_sentences(texts)
    for i, (repo, path, commit) in enumerate(zip(
        pylist(batch.column("repo")), pylist(batch.column("path")),
        pylist(batch.column("commit")),
    )):
        sents = fast_sents[i]
        pre_lowered = sents is not None
        if not pre_lowered:
            sents = [[word_norm(t, t) for t in toks]
                     for s in sentence_split(texts[i])
                     if (toks := tokenize(s))]
        if not sents or any("" in s for s in sents):  # P15 drop
            continue
        sha = sha256_hex(contents[i])
        key = f"{repo}:{path}@{commit[:8]}"
        if sum(len(s) for s in sents) <= MAX_TOKENS_PER_DOC:
            yield i, key, sents, pre_lowered, sha
            continue
        for child_key, chunk in split_document(key, sents):
            yield i, child_key, chunk, pre_lowered, sha


def documents_batch(batch: pa.Table) -> pa.Table:
    """corpus rows → document rows, one per document chunk (flat-map
    shaped `map_batches`): `doc_key`, `dataset`, `sentences`,
    `sentence_starts`, `content_sha256`, `repo`, `path` (+ `bucket` when
    the input has it). doc_key = `{repo}:{path}@{commit[:8]}`, unique per
    FIXTURES.md §2; split children get `{doc_key}_SPLIT_{i}`."""
    from ..functions.strings import cumsum_shifted

    docs = list(_prep_docs(batch))
    out = {
        "doc_key": pa.array([d[1] for d in docs], pa.string()),
        "dataset": pa.array(["codekb"] * len(docs), pa.string()),
        "sentences": pa.array([d[2] for d in docs],
                              pa.list_(pa.list_(pa.string()))),
        "sentence_starts": pa.array(
            [cumsum_shifted([len(s) for s in d[2]]) for d in docs],
            pa.list_(pa.int32())),
        "content_sha256": pa.array([d[4] for d in docs], pa.string()),
    }
    rows = pa.array([d[0] for d in docs], pa.int64())
    for name, typ in (("repo", pa.string()), ("path", pa.string()),
                      ("bucket", pa.int32())):
        if name in batch.column_names:
            out[name] = batch.column(name).take(rows).cast(typ)
    return pa.table(out)


class ExtractToTriples(ProcessLocal):
    """Fused stage of build_kg / kg_triples: raw corpus rows
    `(repo, path, commit, lang, content[, bucket])` in, triple rows out —
    prep (`_prep_docs`) → `ExtractionKernel.decode_triples_document` →
    `FlattenTriples.rows_for_doc_flat` in one `__call__`, so neither the
    tokenized document rows nor the wide nested `predicted_*` columns ever
    enter the object store; only the (much smaller) triple rows do. The
    staged chain round-tripped them through pyarrow twice per hop, which
    profiled at ~45% of the stage's wall time. The triples equal
    `documents_dataset` → `extract` → `FlattenTriples` (pinned by
    tests/test_kernel_decode.py::test_fused_stage_equals_documents_product).

    `extract_triples` runs an instance on Ray Data's task pool; as a
    `ProcessLocal` a worker's tasks share one kernel and sentence memo per
    build.

    `do_prep` must be True. It stays in the signature because the
    benchmark's traced run (`perfbench/layers.py`) constructs the stage
    with `do_prep=True`."""

    def __init__(self, label_map=None, use_coref_substitution=True,
                 do_prep: bool = True, **kernel_kwargs):
        if do_prep is not True:
            raise ValueError("ExtractToTriples takes raw corpus rows: "
                             "do_prep must be True")
        self.kernel = ExtractionKernel(**kernel_kwargs)
        self.flatten = FlattenTriples(label_map, use_coref_substitution)

    def __call__(self, batch):
        out = self.flatten.empty_out()
        has_bucket = "bucket" in batch.column_names
        buckets = pylist(batch.column("bucket")) if has_bucket else None
        for i, key, sents, pre_lowered, sha in _prep_docs(batch):
            rel_rows, clusters, _failed = self.kernel.decode_triples_document(
                sents, pre_lowered=pre_lowered)
            self.flatten.rows_for_doc_flat(
                out, key, sents, rel_rows, clusters, sha,
                buckets[i] if has_bucket else None)
        return self.flatten.to_table(out, has_bucket)


def extract_triples(corpus: "ray.data.Dataset",
                    concurrency: int = DEFAULT_KERNEL_CONCURRENCY,
                    batch_size: int | None = DEFAULT_KERNEL_BATCH_SIZE,
                    **kernel_kwargs) -> "ray.data.Dataset":
    """Corpus rows → triple rows: `ExtractToTriples(**kernel_kwargs)` as
    a task map of at most `concurrency` concurrent tasks, over batches of
    `batch_size` rows (None: one task per input block)."""
    return _unit_map(corpus, ExtractToTriples(**kernel_kwargs), concurrency,
                     batch_size)


def _unit_map(ds: "ray.data.Dataset", fn, concurrency: int,
              batch_size: int | None = None) -> "ray.data.Dataset":
    """`fn` as a task map over `ds`. Maps given the same `concurrency` and
    no `batch_size` fuse into one task per input block."""
    return ds.map_batches(fn, batch_format="pyarrow", batch_size=batch_size,
                          concurrency=concurrency, num_cpus=1)


def kg_triples(input_dir: str, concurrency: int = DEFAULT_KERNEL_CONCURRENCY,
               batch_size: int = DEFAULT_UNIT_ROWS,
               **kernel_kwargs) -> "ray.data.Dataset":
    """Corpus dir → streaming triples Dataset (no sink): one extraction
    task per `read_corpus` work unit of about `batch_size` rows."""
    return extract_triples(read_corpus(input_dir, batch_size), concurrency,
                           batch_size=None, **kernel_kwargs)


def span_counts(triples: "ray.data.Dataset", salt_buckets: int = 1) -> "ray.data.Dataset":
    """A1 — occurrences per canonicalized span, counting BOTH argument slots
    (make_kb.py:198-212). Single pass: each batch emits subj_norm ++ obj_norm
    as one `span_norm` column. (A two-branch `union` of the same upstream
    would re-run the whole kernel pipeline twice.)"""

    def both_slots(t: pa.Table) -> pa.Table:
        chunks = list(t.column("subj_norm").chunks) + list(t.column("obj_norm").chunks)
        return pa.table({"span_norm": pa.chunked_array(chunks, pa.string())})

    spans = triples.select_columns(["subj_norm", "obj_norm"]).map_batches(
        both_slots, batch_format="pyarrow"
    )
    return grouped_count(spans, ["span_norm"], out_name="count",
                         salt_buckets=salt_buckets)


def pair_counts(triples: "ray.data.Dataset", salt_buckets: int = 1) -> "ray.data.Dataset":
    """A1 — count per (subj_norm, obj_norm) edge (make_kb.py:213-220)."""
    return grouped_count(triples.select_columns(["subj_norm", "obj_norm"]),
                         ["subj_norm", "obj_norm"], out_name="count",
                         salt_buckets=salt_buckets)


def graph_edges(triples: "ray.data.Dataset", salt_buckets: int = 1) -> "ray.data.Dataset":
    """Graph materialization (make_kb.py:97-103's MultiDiGraph, as a table):
    one edge row per (subj_norm, pred, obj_norm) with weight = occurrence
    count, conf_max / conf_mean aggregates. Partial+final — no all-rows
    shuffle.

    conf_mean is computed from INTEGER-scaled confidences (conf is rounded to
    4 decimals upstream, so conf*10000 is an exact integer): the integer sum
    is order-independent, making the mean bit-deterministic across block
    orders — a float64 sum would drift in the last ulp and flip the
    6-decimal rounding against the DuckDB oracle."""
    from ..aggregates import partial_final_agg
    from ..functions.strings import round_half_up

    def prep(t: pa.Table) -> pa.Table:
        conf64 = pc.cast(t.column("conf"), pa.float64())
        conf_i = pc.cast(pc.round(pc.multiply(conf64, 10000.0)), pa.int64())
        return pa.table({
            "subj_norm": t.column("subj_norm"), "pred": t.column("pred"),
            "obj_norm": t.column("obj_norm"), "conf": conf64, "conf_i": conf_i,
        })

    base = triples.select_columns(["subj_norm", "pred", "obj_norm", "conf"]).map_batches(
        prep, batch_format="pyarrow"
    )
    edges = partial_final_agg(
        base,
        ["subj_norm", "pred", "obj_norm"],
        [("weight", None, "count"), ("conf_max", "conf", "max"),
         ("conf_isum", "conf_i", "sum")],
    )

    def finish(df):
        df["conf_max"] = round_half_up(df["conf_max"].astype("float64"), 6)
        df["conf_mean"] = round_half_up(
            (df["conf_isum"] / 10000.0) / df["weight"], 6
        )
        return df.drop(columns=["conf_isum"])

    return edges.map_batches(finish, batch_format="pandas")


def graph_nodes(triples: "ray.data.Dataset", salt_buckets: int = 1) -> "ray.data.Dataset":
    """Node table: (span_norm, mention_count) — the KB node-weight table
    (kb_spans.txt twin), both argument slots counted."""
    return span_counts(triples, salt_buckets=salt_buckets).map_batches(
        lambda t: t.rename_columns(
            ["mention_count" if n == "count" else n for n in t.column_names]
        ),
        batch_format="pyarrow",
    )


def build_kg(input_dir: str, out_dir: str, n_buckets: int = 16, resume: bool = True,
             concurrency: int = DEFAULT_KERNEL_CONCURRENCY,
             batch_size: int = DEFAULT_UNIT_ROWS,
             **kernel_kwargs) -> dict:
    """Full materializing run: triples → `out_dir/bucket=<b>/*.parquet` +
    per-bucket lineage manifests; valid buckets are skipped on re-run.
    `kernel_kwargs` (entity_lexicon, weights_path, ...) flow to the fused
    kernel stage — the scale-graded vocabulary path passes the corpus
    tier's lexicon here."""
    import os
    import shutil

    fp = input_fingerprint(input_dir)
    done = completed_buckets(out_dir, fp) if resume else set()
    pending = [b for b in range(n_buckets) if b not in done]
    if not pending:
        return {"written_buckets": [], "skipped_buckets": sorted(done), "fingerprint": fp}
    # drop stale partials from interrupted runs: a pending bucket's dir is
    # rewritten from scratch (manifest is the only commit marker)
    for b in pending:
        part_dir = os.path.join(out_dir, f"bucket={b}")
        if os.path.isdir(part_dir):
            shutil.rmtree(part_dir)
        stale_manifest = os.path.join(out_dir, "_manifests", f"bucket-{b}.json")
        if os.path.exists(stale_manifest):
            os.remove(stale_manifest)

    # stamp, resume skip and extraction fuse into one task per work unit
    corpus = _unit_map(read_corpus(input_dir, batch_size),
                       assign_buckets(n_buckets), concurrency)
    if done:
        skip = pa.array(sorted(done), pa.int32())

        def drop_done(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.invert(pc.is_in(batch.column("bucket"), value_set=skip)))

        corpus = _unit_map(corpus, drop_done, concurrency)
    triples = extract_triples(corpus, concurrency, batch_size=None,
                              **kernel_kwargs)
    write_partitioned(triples, out_dir, "bucket")
    written = []
    for b in pending:
        write_manifest(out_dir, b, fp)
        written.append(b)
    return {"written_buckets": written, "skipped_buckets": sorted(done), "fingerprint": fp}


def build_kg_incremental(input_dir: str, out_dir: str,
                         concurrency: int = DEFAULT_KERNEL_CONCURRENCY,
                         batch_size: int = DEFAULT_KERNEL_BATCH_SIZE) -> dict:
    """Append-friendly KB build: per-INPUT-SHARD lineage manifests.

    `build_kg`'s bucket manifests validate against a GLOBAL input
    fingerprint, so appending one shard invalidates every bucket (hash
    partitioning spreads new rows everywhere). Extraction is per-document —
    no cross-doc state — so shard-level incrementality is exact: each input
    parquet shard's triples land in their own `out_dir/shard=<stem>/`
    partition (stem = shard filename, a stable key under appends, unlike a
    position index) with a manifest recording the shard's
    `file_fingerprint` (name, size and Parquet footer), taken before the
    read, and the `ENGINE_VERSION`. A re-run after appending shards processes ONLY the new/changed
    shards; untouched shards are never re-read. Count/graph tables
    re-derive from the (much smaller) triple table downstream."""
    import os as _os
    import shutil as _shutil

    shards = input_files(input_dir)
    mdir = _os.path.join(out_dir, "_shard_manifests")
    _os.makedirs(mdir, exist_ok=True)

    def stem_of(f: str) -> str:
        return _os.path.splitext(_os.path.basename(f))[0]

    pending, skipped = [], []
    for f in shards:
        stem = stem_of(f)
        mpath = _os.path.join(mdir, f"{stem}.json")
        rec = read_json(mpath)
        fp = file_fingerprint(f)
        if (rec is not None and rec.get("fingerprint") == fp
                and rec.get("engine") == ENGINE_VERSION):
            skipped.append(stem)
            continue
        pending.append((stem, f, fp))
    for stem, _f, _fp in pending:
        part = _os.path.join(out_dir, f"shard={stem}")
        if _os.path.isdir(part):
            _shutil.rmtree(part)
        mpath = _os.path.join(mdir, f"{stem}.json")
        if _os.path.exists(mpath):
            _os.remove(mpath)
    if not pending:
        return {"written_shards": [], "skipped_shards": sorted(skipped)}

    # one lazy read per pending shard, stamped with its shard ordinal
    # through the fused stage's int passthrough column, then ONE union
    # pipeline; ordinals map back to stems after extraction
    stems = [stem for stem, _f, _fp in pending]
    parts = []
    for i, (_stem, f, _fp) in enumerate(pending):
        ds = ray.data.read_parquet(f).map_batches(
            lambda t, _i=i: t.append_column(
                "bucket", pa.array([_i] * t.num_rows, pa.int32())),
            batch_format="pyarrow")
        parts.append(ds)
    corpus = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]

    def ord_to_stem(t: pa.Table) -> pa.Table:
        shard = pa.array([stems[i] for i in t.column("bucket").to_pylist()],
                         pa.string())
        return t.drop_columns(["bucket"]).append_column("shard", shard)

    triples = extract_triples(corpus, concurrency, batch_size).map_batches(
        ord_to_stem, batch_format="pyarrow")
    write_partitioned(triples, out_dir, "shard")
    written = []
    for stem, _f, fp in pending:
        write_json_atomic(_os.path.join(mdir, f"{stem}.json"),
                          {"fingerprint": fp, "engine": ENGINE_VERSION})
        written.append(stem)
    return {"written_shards": sorted(written), "skipped_shards": sorted(skipped)}


def degree_histogram(triples: "ray.data.Dataset",
                     salt_buckets: int = 1) -> "ray.data.Dataset":
    """(degree, n_nodes) — out-degree distribution of the KB graph over
    DISTINCT (subj, obj) edges. Three grouped counts, each over the (strictly
    smaller) output of the previous — aggregates shrink monotonically, so
    only the first shuffle sees the triple table."""
    edges = grouped_count(
        triples.select_columns(["subj_norm", "obj_norm"]),
        ["subj_norm", "obj_norm"], out_name="_c", salt_buckets=salt_buckets)
    deg = grouped_count(edges.select_columns(["subj_norm"]),
                        ["subj_norm"], out_name="degree")
    return grouped_count(deg.select_columns(["degree"]),
                         ["degree"], out_name="n_nodes")


def pair_pmi(triples: "ray.data.Dataset", scale: int = 1000,
             salt_buckets: int = 1, n_buckets: int = 32) -> "ray.data.Dataset":
    """Integer-scaled pointwise mutual information per (subj, obj) pair:

        pmi_scaled = n_pair × total × scale // (n_subj × n_obj)

    (the PMI ratio without the log — order-preserving, and EXACT in int64,
    so a SQL oracle matches bit for bit; no float log nondeterminism).
    Marginals are re-aggregated from the pair-count table — never a second
    pass over the triples — and attached back with two bucketed
    `hash_join`s. Nothing lands on the driver: distinct (subj, obj) pairs
    at web scale have Zipfian tails far wider than driver heap, so the
    round-2 to_pandas + broadcast-dict version was a scale-killer. The only
    driver-side value is the scalar grand total."""
    import pyarrow as pa

    from ..aggregates import partial_final_agg
    from ..joins import hash_join

    s_t, i_t = pa.string(), pa.int64()
    pairs = pair_counts(triples, salt_buckets=salt_buckets).materialize()
    subj_m = partial_final_agg(pairs.select_columns(["subj_norm", "count"]),
                               ["subj_norm"], [("n_subj", "count", "sum")])
    obj_m = partial_final_agg(pairs.select_columns(["obj_norm", "count"]),
                              ["obj_norm"], [("n_obj", "count", "sum")])
    total = int(pairs.sum("count") or 0)

    j1 = hash_join(
        pairs, subj_m, on="subj_norm", n_buckets=n_buckets,
        left_types={"subj_norm": s_t, "obj_norm": s_t, "count": i_t},
        right_types={"subj_norm": s_t, "n_subj": i_t},
        bucket_post=lambda m: m[["subj_norm", "obj_norm", "count", "n_subj"]])

    def add_pmi(m):
        import pandas as pd

        n = m["count"].astype("int64")
        s = m["n_subj"].astype("int64")
        o = m["n_obj"].astype("int64")
        return pd.DataFrame({
            "subj_norm": m["subj_norm"], "obj_norm": m["obj_norm"],
            "n_pair": n, "pmi_scaled": (n * total * scale) // (s * o),
        })

    return hash_join(
        j1, obj_m, on="obj_norm", n_buckets=n_buckets,
        left_types={"subj_norm": s_t, "obj_norm": s_t, "count": i_t,
                    "n_subj": i_t},
        right_types={"obj_norm": s_t, "n_obj": i_t},
        bucket_post=add_pmi)


# ------------------------------------------------- subject-partitioned store


def materialize_by_subject(triples: "ray.data.Dataset", out_dir: str,
                           n_buckets: int = 64) -> str:
    """Serving-side triple store: `out_dir/sbucket=<b>/*.parquet`
    partitioned by hash(subj_norm) (SURVEY §7.1's output partitioning —
    the lineage-bucketed layout `build_kg` writes is keyed on INPUT shards
    for resume; this one is keyed on the subject so entity point-lookups
    touch one partition instead of scanning the store)."""
    from ..stages.invindex import _bucket_series

    def stamp(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.copy()
        df["sbucket"] = _bucket_series(df["subj_norm"], n_buckets)
        return df

    write_partitioned(triples.map_batches(stamp, batch_format="pandas"),
                      out_dir, "sbucket")
    return out_dir


def subject_probe_files(store_dir: str, subjects: list[str],
                        n_buckets: int = 64) -> list[str]:
    """Parquet files of ONLY the partitions the probe subjects hash into."""
    import glob as _glob
    import os as _os

    from ..stages.invindex import token_bucket

    probe = sorted({token_bucket(s, n_buckets) for s in subjects})
    return [f for b in probe
            for f in sorted(_glob.glob(_os.path.join(
                store_dir, f"sbucket={b}", "*.parquet")))]


def subject_lookup(store_dir: str, subjects: list[str],
                   n_buckets: int = 64,
                   columns: list[str] | None = None) -> "ray.data.Dataset":
    """Triples whose subj_norm is in `subjects`, reading only the hashed
    partitions (`subject_probe_files`) — the KG twin of
    `invindex.term_lookup`."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray.data

    cols = columns or ["subj_norm", "pred", "obj_norm"]
    files = subject_probe_files(store_dir, subjects, n_buckets)
    if not files:
        return ray.data.from_pandas(
            pd.DataFrame({c: pd.Series([], dtype=object) for c in cols}))
    subj_set = pa.array(sorted(set(subjects)))
    return ray.data.read_parquet(files, columns=cols).map_batches(
        lambda t: t.filter(pc.is_in(t["subj_norm"], value_set=subj_set)),
        batch_format="pyarrow")


def edge_diff(old: "ray.data.Dataset", new: "ray.data.Dataset",
              keys: tuple = ("subj_norm", "pred", "obj_norm")
              ) -> "ray.data.Dataset":
    """KG-maintenance diff between two builds: per edge key, weights in the
    old and new graph plus a status (`removed` — only in old, `added` —
    only in new, `changed` — weight moved); `unchanged` edges are dropped
    (the diff IS the product — at web scale almost everything is
    unchanged, so emitting it would make the diff as big as the graph).

    Shape: a partial+final grouped count per side (each shuffle moves ≤
    one row per (edge, block)), zero-padded union, ONE combining grouped
    sum, then a vectorized status filter — no driver materialization, no
    join (the union+sum IS the full-outer join on the edge key)."""
    import numpy as np

    from ..aggregates import grouped_count, partial_final_agg, strip_schema_metadata

    ks = list(keys)

    def pad(w_self: str, w_other: str):
        def fn(t: pa.Table) -> pa.Table:
            t = strip_schema_metadata(t)
            zero = pa.array(np.zeros(t.num_rows, dtype=np.int64))
            t = t.append_column(w_other, zero)
            return t.select(ks + ["w_old", "w_new"])

        return fn

    wo = grouped_count(old.select_columns(ks), ks, out_name="w_old"
                       ).map_batches(pad("w_old", "w_new"),
                                     batch_format="pyarrow")
    wn = grouped_count(new.select_columns(ks), ks, out_name="w_new"
                       ).map_batches(pad("w_new", "w_old"),
                                     batch_format="pyarrow")
    both = partial_final_agg(wo.union(wn), ks,
                             [("w_old", "w_old", "sum"),
                              ("w_new", "w_new", "sum")])

    def status(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        o = t.column("w_old").to_numpy(zero_copy_only=False)
        n = t.column("w_new").to_numpy(zero_copy_only=False)
        st = np.select([o == 0, n == 0], ["added", "removed"], "changed")
        keep = o != n
        return t.append_column(
            "status", pa.array(st, pa.string())).filter(pa.array(keep))

    return both.map_batches(status, batch_format="pyarrow")


def functional_conflicts(triples: "ray.data.Dataset",
                         salt_buckets: int = 1) -> "ray.data.Dataset":
    """(subj_norm, pred, n_objs, obj_min, obj_max) for every (subject,
    predicate) asserting MORE THAN ONE distinct object — functional-property
    violation detection, the consistency-QA step a KB build runs after
    canonicalization (reference analogue: the per-entity KB rows collected
    by `scripts/eval/make_kb.py:90-95` assume one canonical value per slot;
    this surfaces where extraction disagrees).

    Shape: two monotonically-shrinking aggregates — distinct
    (subj, pred, obj) edges first (salted grouped count: the only shuffle
    that sees the triple table), then a partial+final count/min/max keyed
    on (subj, pred) — and a vectorized `n_objs > 1` filter. Nothing lands
    on the driver."""
    from ..aggregates import partial_final_agg

    edges = grouped_count(
        triples.select_columns(["subj_norm", "pred", "obj_norm"]),
        ["subj_norm", "pred", "obj_norm"], out_name="_c",
        salt_buckets=salt_buckets)
    agg = partial_final_agg(
        edges.select_columns(["subj_norm", "pred", "obj_norm"]),
        ["subj_norm", "pred"],
        [("n_objs", None, "count"),
         ("obj_min", "obj_norm", "min"),
         ("obj_max", "obj_norm", "max")])

    def keep_conflicts(t: pa.Table) -> pa.Table:
        from ..aggregates import strip_schema_metadata

        t = strip_schema_metadata(t)
        return t.filter(pc.greater(t.column("n_objs"), 1)).select(
            ["subj_norm", "pred", "n_objs", "obj_min", "obj_max"])

    return agg.map_batches(keep_conflicts, batch_format="pyarrow")


_TRI_SEP = "\x1f"


def _distinct_edges(triples: "ray.data.Dataset",
                    salt_buckets: int = 1) -> "ray.data.Dataset":
    """DISTINCT directed edge set (subj_norm, pred, obj_norm) of the triples
    table, materialized — every consumer reads it more than once."""
    cols = ["subj_norm", "pred", "obj_norm"]
    return grouped_count(triples.select_columns(cols), cols, out_name="_c",
                         salt_buckets=salt_buckets
                         ).select_columns(cols).materialize()


def _undirected_edges(triples: "ray.data.Dataset",
                      salt_buckets: int) -> "ray.data.Dataset":
    """DISTINCT undirected non-loop edge set (u, v) with u < v, from the
    triples table. Materialized — triangle machinery consumes it twice
    (degree attach + closing-edge side)."""
    from ..aggregates import strip_schema_metadata

    def canon(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        s = t.column("subj_norm").combine_chunks().cast(pa.string())
        o = t.column("obj_norm").combine_chunks().cast(pa.string())
        u = pc.min_element_wise(s, o)
        v = pc.max_element_wise(s, o)
        keep = pc.invert(pc.equal(s, o))
        return pa.table({"u": u, "v": v}).filter(keep)

    return grouped_count(
        triples.select_columns(["subj_norm", "obj_norm"]).map_batches(
            canon, batch_format="pyarrow"),
        ["u", "v"], out_name="_c", salt_buckets=salt_buckets
    ).select_columns(["u", "v"]).materialize()


def _node_degrees(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """(node, deg) over a distinct undirected edge set (u, v). Materialized
    — the wedge closure joins it twice and callers reuse it."""

    def endpoints(t: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays(
            [t.column("u").combine_chunks(), t.column("v").combine_chunks()])})

    return grouped_count(edges.map_batches(endpoints, batch_format="pyarrow"),
                         ["node"], out_name="deg").materialize()


def _neighbor_pairs(df: "pd.DataFrame", center: str,
                    nbr: str) -> "pd.DataFrame":
    """(center, x, y): every pair x < y of the distinct `nbr` values of each
    `center` in `df` — the wedge kernel of the triangle and common-neighbour
    operators. A center with k distinct neighbours emits k(k-1)/2 rows."""
    import numpy as np
    import pandas as pd

    parts = []
    for c, g in df.groupby(center, sort=False):
        ns = sorted(set(g[nbr]))
        if len(ns) < 2:
            continue
        ii, jj = np.triu_indices(len(ns), 1)
        a = np.array(ns, dtype=object)
        parts.append(pd.DataFrame({center: c, "x": a[ii], "y": a[jj]}))
    if not parts:
        return pd.DataFrame({col: pd.Series(dtype="string")
                             for col in (center, "x", "y")})
    return pd.concat(parts, ignore_index=True)


def _closed_wedges(edges: "ray.data.Dataset", deg: "ray.data.Dataset",
                   n_buckets: int, bucket_post) -> "ray.data.Dataset":
    """Degree-ordered wedge generation + closing-edge semi join over a
    distinct undirected edge set: every edge orients from its lower-
    (degree, name) endpoint to the higher one, wedges are unordered
    out-neighbor pairs of each source, and a wedge closes iff the
    undirected edge between its endpoints exists. Each triangle surfaces
    exactly once — as the merged row (src, x, y) with x < y — at its
    minimum-(degree, name) vertex, and a degree-d hub emits O(sqrt(m))
    wedges instead of O(d²) (the standard MapReduce triangle bound).
    `deg` is `_node_degrees(edges)`. `bucket_post` receives the closed-wedge
    rows INSIDE the final join task (aggregate pushdown — full triangle
    rows never leave it)."""
    import numpy as np
    import pandas as pd

    from ..aggregates import strip_schema_metadata
    from ..joins import bucket_groups, hash_join

    s_t, i_t = pa.string(), pa.int64()
    SEP = _TRI_SEP

    d_u = deg.map_batches(
        lambda t: strip_schema_metadata(t).rename_columns(["u", "deg_u"]),
        batch_format="pyarrow")
    j1 = hash_join(edges, d_u, on="u", n_buckets=n_buckets,
                   left_types={"u": s_t, "v": s_t},
                   right_types={"u": s_t, "deg_u": i_t})
    d_v = deg.map_batches(
        lambda t: strip_schema_metadata(t).rename_columns(["v", "deg_v"]),
        batch_format="pyarrow")

    def orient(m: "pd.DataFrame") -> "pd.DataFrame":
        du = m["deg_u"].to_numpy(np.int64)
        dv = m["deg_v"].to_numpy(np.int64)
        u = m["u"].to_numpy(object)
        v = m["v"].to_numpy(object)
        u_first = (du < dv) | ((du == dv) & (u < v))
        return pd.DataFrame({"src": np.where(u_first, u, v),
                             "dst": np.where(u_first, v, u)})

    oriented = hash_join(j1, d_v, on="v", n_buckets=n_buckets,
                         left_types={"u": s_t, "v": s_t, "deg_u": i_t},
                         right_types={"v": s_t, "deg_v": i_t},
                         bucket_post=orient)

    def wedges_of_bucket(df: "pd.DataFrame") -> "pd.DataFrame":
        w = _neighbor_pairs(df, "src", "dst")
        w["pair"] = w["x"] + SEP + w["y"]
        return w

    wedges = bucket_groups(oriented, "src", n_buckets, wedges_of_bucket)

    def edge_pairs(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        return pa.table({"pair": pc.binary_join_element_wise(
            t.column("u").cast(pa.string()),
            t.column("v").cast(pa.string()), SEP)})

    closing = edges.map_batches(edge_pairs, batch_format="pyarrow")

    return hash_join(
        wedges, closing, on="pair", n_buckets=n_buckets,
        left_types={"src": s_t, "x": s_t, "y": s_t, "pair": s_t},
        right_types={"pair": s_t},
        bucket_post=bucket_post)


def _triangles_per_node(edges: "ray.data.Dataset", deg: "ray.data.Dataset",
                        n_buckets: int) -> "ray.data.Dataset":
    """(node, n_triangles) from a distinct undirected edge set and its
    `_node_degrees`: a partial+final sum over in-join per-node partials."""
    import numpy as np
    import pandas as pd

    from ..aggregates import partial_final_agg

    def node_partials(m: "pd.DataFrame") -> "pd.DataFrame":
        # merged rows = closed wedges = triangles; emit per-node partial
        # counts so full triangle rows never leave the join task
        nodes = pd.concat([m["src"], m["x"], m["y"]], ignore_index=True)
        vc = nodes.value_counts()
        return pd.DataFrame({"node": vc.index.astype(object),
                             "n_part": vc.to_numpy(np.int64)})

    return partial_final_agg(_closed_wedges(edges, deg, n_buckets, node_partials),
                             ["node"], [("n_triangles", "n_part", "sum")])


def triangle_counts(triples: "ray.data.Dataset", salt_buckets: int = 1,
                    n_buckets: int = 32) -> "ray.data.Dataset":
    """(node, n_triangles) — per-node triangle participation over the
    DISTINCT undirected KG edge set (graph-quality analytics: clustering
    structure of the extracted graph). The wedge-closure machinery is
    `_closed_wedges` (degree-ordered generation, bucketed joins, O(sqrt(m))
    hub bound); the per-node count is a partial+final sum over in-join
    per-node partials. The result is orientation-invariant, so the SQL
    oracle may use plain lexicographic self-joins."""
    edges = _undirected_edges(triples, salt_buckets)
    return _triangles_per_node(edges, _node_degrees(edges), n_buckets)


def edge_support(triples: "ray.data.Dataset", salt_buckets: int = 1,
                 n_buckets: int = 32) -> "ray.data.Dataset":
    """(u, v, support, is_bridge) — per-undirected-edge triangle support
    (the count of triangles containing the edge) plus the LOCAL-BRIDGE
    flag (support == 0: removing the edge disconnects its endpoints'
    direct neighborhoods — the classic weak-tie signal, and the k-truss
    peel's input). Exact at hubs: the closed-wedge enumeration is
    EXHAUSTIVE (each triangle once, O(sqrt(m)) wedges per hub), and each
    closed wedge (src, x, y) credits its three canonical edges. One
    partial+final sum at edge cardinality, then one bucketed LEFT join
    back onto the edge set to fill support-0 rows."""
    import numpy as np
    import pandas as pd

    from ..aggregates import partial_final_agg, strip_schema_metadata
    from ..joins import hash_join

    s_t, i_t = pa.string(), pa.int64()
    SEP = _TRI_SEP

    def edge_partials(m: "pd.DataFrame") -> "pd.DataFrame":
        src = m["src"].to_numpy(object)
        x = m["x"].to_numpy(object)
        y = m["y"].to_numpy(object)
        # (x, y) is canonical already (x < y by wedge construction); the
        # src legs canonicalize with elementwise min/max
        u = np.concatenate([np.minimum(src, x), np.minimum(src, y), x])
        v = np.concatenate([np.maximum(src, x), np.maximum(src, y), y])
        g = pd.DataFrame({"u": u, "v": v, "one": np.ones(len(u), np.int64)})
        return g.groupby(["u", "v"], as_index=False)["one"].sum().rename(
            columns={"one": "n_part"})

    edges = _undirected_edges(triples, salt_buckets)
    sup = partial_final_agg(_closed_wedges(edges, _node_degrees(edges),
                                           n_buckets, edge_partials),
                            ["u", "v"], [("support", "n_part", "sum")])

    def pair_key(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        return t.append_column("pair", pc.binary_join_element_wise(
            t.column("u").cast(pa.string()),
            t.column("v").cast(pa.string()), SEP))

    def fill(m: "pd.DataFrame") -> "pd.DataFrame":
        s = m["support"].fillna(0).astype("int64")
        return pd.DataFrame({"u": m["u"], "v": m["v"],
                             "support": s,
                             "is_bridge": (s == 0).astype("int64")})

    sup_k = sup.map_batches(pair_key, batch_format="pyarrow").map_batches(
        lambda t: strip_schema_metadata(t).select(["pair", "support"]),
        batch_format="pyarrow")
    edges_k = edges.map_batches(pair_key, batch_format="pyarrow")
    return hash_join(edges_k, sup_k, on="pair", how="left",
                     n_buckets=n_buckets,
                     left_types={"u": s_t, "v": s_t, "pair": s_t},
                     right_types={"pair": s_t, "support": i_t},
                     bucket_post=fill)


def degree_gini(triples: "ray.data.Dataset", salt_buckets: int = 1,
                n_bands: int = 64) -> "ray.data.Dataset":
    """(n_nodes, sum_deg, gini_ppm) — Gini coefficient of the undirected
    degree distribution (hub-concentration audit: 0 = perfectly even
    graph, →1 = star; the scale-free-ness summary next to
    `kg_assortativity`'s mixing summary). EXACT integer arithmetic end to
    end: gini_ppm = ((2·S1 − (n+1)·S0) · 1e6) // (n·S0) with S1 =
    Σ rank·deg over ranks 1..n ascending by (deg, node) — Chebyshev gives
    a non-negative numerator, so floor-div mirrors SQL `//`.

    Scale shape: degrees reduce at node cardinality; the rank sum needs a
    GLOBAL ordering, so degrees tie-group to the DISTINCT degree-value
    table (bounded by max-degree, tiny) and `ordered_prefix_sum`'s banded
    global scan ranks it — Σ rank·deg over a tie group of count c
    starting at rank s is (s + e)·c // 2 · deg (e = s+c−1; the sum of
    consecutive ints, exactly even product). Overflow headroom: S1 ≤
    n²·max_deg — fine under the |V| ≤ 2M vocabulary admission documented
    for the degree-broadcast family."""
    import numpy as np
    import pandas as pd

    from ..aggregates import partial_final_agg
    from ..windows import ordered_prefix_sum

    deg = _node_degrees(_undirected_edges(triples, salt_buckets))

    # tie-group to the distinct-degree table so ordered_prefix_sum's
    # unique-order contract holds
    dd = partial_final_agg(
        deg.map_batches(
            lambda df: pd.DataFrame({
                "k": np.zeros(len(df), "int64"),
                "deg": df["deg"].to_numpy("int64"),
                "one": np.ones(len(df), "int64")}),
            batch_format="pandas"),
        ["k", "deg"], [("cnt", "one", "sum")])
    ranked = ordered_prefix_sum(dd, "k", "deg", "cnt", out_col="cum",
                                n_bands=n_bands)

    def contrib(df: pd.DataFrame) -> pd.DataFrame:
        cnt = df["cnt"].to_numpy("int64")
        end = df["cum"].to_numpy("int64")
        start = end - cnt + 1
        rank_sum = (start + end) * cnt // 2
        d = df["deg"].to_numpy("int64")
        return pd.DataFrame({"k": np.zeros(len(df), "int64"),
                             "n": cnt, "s0": cnt * d, "s1": rank_sum * d})

    tot = partial_final_agg(
        ranked.map_batches(contrib, batch_format="pandas"), ["k"],
        [("n", "n", "sum"), ("s0", "s0", "sum"), ("s1", "s1", "sum")])

    def gini(df: pd.DataFrame) -> pd.DataFrame:
        n = int(df["n"].iloc[0])
        s0 = int(df["s0"].iloc[0])
        s1 = int(df["s1"].iloc[0])
        g = ((2 * s1 - (n + 1) * s0) * 1_000_000) // (n * s0) if n and s0 else 0
        return pd.DataFrame({"n_nodes": np.array([n], "int64"),
                             "sum_deg": np.array([s0], "int64"),
                             "gini_ppm": np.array([g], "int64")})

    return tot.map_batches(gini, batch_format="pandas")


def clustering_coefficient(triples: "ray.data.Dataset", scale: int = 10_000,
                           salt_buckets: int = 1,
                           n_buckets: int = 32) -> "ray.data.Dataset":
    """(node, deg, n_triangles, cc_scaled) — LOCAL clustering coefficient
    over the DISTINCT undirected non-loop edge set: cc = 2T / (deg·(deg−1))
    as the exact scaled integer `2·T·scale // (deg·(deg−1))` (0 for
    deg < 2). Graph-quality analytics: ONE distinct edge set and ONE
    per-node degree table feed both the wedge closure (which bounds hub
    wedges at O(sqrt(m))) and a bucketed LEFT join of degrees onto the
    triangle counts; all arithmetic integer, so the value-hash oracle
    holds bit-for-bit."""
    import numpy as np
    import pandas as pd

    from ..joins import hash_join

    s_t, i_t = pa.string(), pa.int64()
    edges = _undirected_edges(triples, salt_buckets)
    deg = _node_degrees(edges)
    tri = _triangles_per_node(edges, deg, n_buckets)

    def cc_post(m: "pd.DataFrame") -> "pd.DataFrame":
        d = m["deg"].to_numpy("int64")
        t3 = m["n_triangles"].fillna(0).to_numpy("int64")
        cc = np.where(d >= 2,
                      (2 * t3 * scale) // np.maximum(d * (d - 1), 1),
                      np.int64(0))
        return pd.DataFrame({"node": m["node"].to_numpy(object),
                             "deg": d, "n_triangles": t3, "cc_scaled": cc})

    return hash_join(deg, tri, on="node", how="left", n_buckets=n_buckets,
                     left_types={"node": s_t, "deg": i_t},
                     right_types={"node": s_t, "n_triangles": i_t},
                     bucket_post=cc_post)


def predicate_stats(triples: "ray.data.Dataset",
                    salt_buckets: int = 1) -> "ray.data.Dataset":
    """(pred, n_edges, n_subj, n_obj, fanout_scaled) — per-predicate schema
    statistics over DISTINCT (subj, pred, obj) edges: edge count, distinct
    subject/object cardinalities, and the integer-scaled mean out-fanout
    (n_edges * 1000 // n_subj; 1000 = perfectly functional predicate). The
    schema-induction companion to `functional_conflicts`.

    Shape: distinct edges (one salted grouped count — the only shuffle that
    sees the triple table), then three shrinking partial+final aggregates
    off the edge table, combined with two bucketed joins on `pred` (tiny:
    one row per predicate)."""
    import pandas as pd

    from ..aggregates import partial_final_agg
    from ..joins import hash_join

    s_t, i_t = pa.string(), pa.int64()
    edges = _distinct_edges(triples, salt_buckets)

    n_edges = partial_final_agg(edges, ["pred"],
                                [("n_edges", None, "count")])
    subj = grouped_count(edges.select_columns(["pred", "subj_norm"]),
                         ["pred", "subj_norm"], out_name="_c")
    n_subj = partial_final_agg(subj.select_columns(["pred"]), ["pred"],
                               [("n_subj", None, "count")])
    obj = grouped_count(edges.select_columns(["pred", "obj_norm"]),
                        ["pred", "obj_norm"], out_name="_c")
    n_obj = partial_final_agg(obj.select_columns(["pred"]), ["pred"],
                              [("n_obj", None, "count")])

    j1 = hash_join(n_edges, n_subj, on="pred", n_buckets=8,
                   left_types={"pred": s_t, "n_edges": i_t},
                   right_types={"pred": s_t, "n_subj": i_t})

    def finish(m: "pd.DataFrame") -> "pd.DataFrame":
        m = m.copy()
        m["fanout_scaled"] = (m["n_edges"].astype("int64") * 1000
                              // m["n_subj"].astype("int64"))
        return m[["pred", "n_edges", "n_subj", "n_obj", "fanout_scaled"]]

    return hash_join(j1, n_obj, on="pred", n_buckets=8,
                     left_types={"pred": s_t, "n_edges": i_t,
                                 "n_subj": i_t},
                     right_types={"pred": s_t, "n_obj": i_t},
                     bucket_post=finish)


def entity_kb(triples: "ray.data.Dataset", salt_buckets: int = 1,
              n_buckets: int = 16) -> "ray.data.Dataset":
    """(entity, n_mentions, out_edges, in_edges, top_pred, aliases) — the
    per-entity KB table (reference lifecycle: the entity-centric rows
    `scripts/eval/make_kb.py:90-103` assembles from flattened triples):
    mention count over both slots, in/out degree over DISTINCT edges, the
    most-asserted outgoing predicate (ties: lexicographic), and the
    '|'-joined sorted distinct surface forms.

    Shape: every per-entity table is a (salted) grouped count off the
    triple table or the distinct-edge table — all vocabulary-scale — then
    the five partial tables are UNIONED under one wide nullable schema and
    assembled in a SINGLE coarse-entity-bucket shuffle whose per-bucket
    kernel does the degree fills, the top-pred argmax and the alias join in
    vectorized pandas (was: two per-reduce shuffles + four bucketed LEFT
    joins — 6 assembly shuffles → 1)."""
    from ..aggregates import partial_final_agg, strip_schema_metadata
    from ..joins import bucket_groups

    s_t, i_t = pa.string(), pa.int64()
    WIDE = pa.schema([("entity", s_t), ("n_mentions", i_t),
                      ("out_edges", i_t), ("in_edges", i_t),
                      ("pred", s_t), ("c", i_t), ("surface", s_t)])

    def widen(cols_of):
        """Lift a narrow partial table into the shared wide schema with
        typed nulls for the columns the source doesn't carry."""

        def fn(t: pa.Table) -> pa.Table:
            t = strip_schema_metadata(t)
            have = cols_of(t)
            n = t.num_rows
            out = {}
            for f in WIDE:
                out[f.name] = (have[f.name].cast(f.type)
                               if f.name in have
                               else pa.nulls(n, f.type))
            return pa.Table.from_pydict(out, schema=WIDE)

        return fn

    def both_slots(norm_only: bool):
        def fn(t: pa.Table) -> pa.Table:
            t = strip_schema_metadata(t)
            cols = {}
            ent = []
            for c in ("subj_norm", "obj_norm"):
                arr = t.column(c).combine_chunks().cast(pa.string())
                ent.extend(arr.chunks if isinstance(arr, pa.ChunkedArray)
                           else [arr])
            cols["entity"] = pa.concat_arrays(ent)
            if not norm_only:
                srf = []
                for c in ("subj", "obj"):
                    arr = t.column(c).combine_chunks().cast(pa.string())
                    srf.extend(arr.chunks
                               if isinstance(arr, pa.ChunkedArray)
                               else [arr])
                cols["surface"] = pa.concat_arrays(srf)
            return pa.table(cols)

        return fn

    tri = triples.select_columns(
        ["subj", "pred", "obj", "subj_norm", "obj_norm"]).materialize()

    mentions = grouped_count(
        tri.map_batches(both_slots(True), batch_format="pyarrow"),
        ["entity"], out_name="n_mentions", salt_buckets=salt_buckets
    ).map_batches(
        widen(lambda t: {"entity": t.column("entity"),
                         "n_mentions": t.column("n_mentions")}),
        batch_format="pyarrow")

    edges = _distinct_edges(tri, salt_buckets)
    deg_out = partial_final_agg(
        edges.map_batches(
            lambda t: pa.table(
                {"entity": strip_schema_metadata(t).column("subj_norm")}),
            batch_format="pyarrow"),
        ["entity"], [("out_edges", None, "count")]).map_batches(
        widen(lambda t: {"entity": t.column("entity"),
                         "out_edges": t.column("out_edges")}),
        batch_format="pyarrow")
    deg_in = partial_final_agg(
        edges.map_batches(
            lambda t: pa.table(
                {"entity": strip_schema_metadata(t).column("obj_norm")}),
            batch_format="pyarrow"),
        ["entity"], [("in_edges", None, "count")]).map_batches(
        widen(lambda t: {"entity": t.column("entity"),
                         "in_edges": t.column("in_edges")}),
        batch_format="pyarrow")

    pred_counts = grouped_count(
        tri.select_columns(["subj_norm", "pred"]),
        ["subj_norm", "pred"], out_name="c", salt_buckets=salt_buckets
    ).map_batches(
        widen(lambda t: {"entity": t.column("subj_norm"),
                         "pred": t.column("pred"), "c": t.column("c")}),
        batch_format="pyarrow")

    alias_rows = grouped_count(
        tri.map_batches(both_slots(False), batch_format="pyarrow"),
        ["entity", "surface"], out_name="_c", salt_buckets=salt_buckets
    ).map_batches(
        widen(lambda t: {"entity": t.column("entity"),
                         "surface": t.column("surface")}),
        batch_format="pyarrow")

    union = mentions.union(deg_out).union(deg_in).union(
        pred_counts).union(alias_rows)

    # per-entity reduces run on COARSE buckets (pandas groupby inside the
    # task), never one Ray group per entity — the entity vocabulary is
    # unbounded at web scale. Every row of one entity lands in one bucket,
    # so the argmax / alias join / degree fills are bucket-local.
    def assemble(df: "pd.DataFrame") -> "pd.DataFrame":
        base = df.loc[df["n_mentions"].notna(), ["entity", "n_mentions"]]
        base = base.copy()
        base["n_mentions"] = base["n_mentions"].astype("int64")

        def int_col(col: str) -> "pd.DataFrame":
            sub = df.loc[df[col].notna(), ["entity", col]]
            return sub

        out = base.merge(int_col("out_edges"), on="entity", how="left")
        out = out.merge(int_col("in_edges"), on="entity", how="left")
        for col in ("out_edges", "in_edges"):
            out[col] = out[col].fillna(0).astype("int64")

        pc_rows = df.loc[df["pred"].notna(), ["entity", "pred", "c"]]
        if len(pc_rows):
            pc_rows = pc_rows.sort_values(
                ["entity", "c", "pred"], ascending=[True, False, True])
            tp = pc_rows.groupby("entity", sort=False).head(1)[
                ["entity", "pred"]].rename(columns={"pred": "top_pred"})
            out = out.merge(tp, on="entity", how="left")
            out["top_pred"] = out["top_pred"].fillna("")
        else:
            out["top_pred"] = ""

        al_rows = df.loc[df["surface"].notna(), ["entity", "surface"]]
        al = al_rows.groupby("entity", sort=False)["surface"].apply(
            lambda s: "|".join(sorted(s)))
        out = out.merge(al.rename("aliases").reset_index(), on="entity",
                        how="inner")
        return out[["entity", "n_mentions", "out_edges", "in_edges",
                    "top_pred", "aliases"]]

    return bucket_groups(union, "entity", n_buckets, assemble)


def pred_path_counts(triples: "ray.data.Dataset", salt_buckets: int = 1,
                     n_buckets: int = 32) -> "ray.data.Dataset":
    """(pred_a, pred_b, n_paths) — 2-hop predicate path statistics over the
    DISTINCT directed edge set: how often an edge labeled `pred_a` arrives at
    an entity that an edge labeled `pred_b` leaves. The path-pattern
    companion to `predicate_stats` (schema induction / ontology mining over
    the extracted KG; reference consumers walk the same 2-hop patterns over
    the networkx graph built at make_kb.py:97-103).

    Scale shape: ONE salted grouped count distincts the triple table, then a
    single bucketed self-join on the shared mid entity whose `bucket_post`
    collapses each bucket to per-(pred_a, pred_b) PARTIAL counts — the 2-hop
    path rows themselves never leave the join task, and the final combine
    sees ≤ |preds|² rows per bucket. Hub entities fan out quadratically in
    any exact path count (the SQL oracle included); the distinct-edge input
    and per-bucket collapse keep the blowup inside one task's arrays."""
    import pandas as pd

    from ..aggregates import partial_final_agg, strip_schema_metadata
    from ..joins import hash_join

    s_t = pa.string()
    edges = _distinct_edges(triples, salt_buckets)

    into = edges.map_batches(
        lambda t: strip_schema_metadata(t).select(
            ["pred", "obj_norm"]).rename_columns(["pred_a", "mid"]),
        batch_format="pyarrow")
    outof = edges.map_batches(
        lambda t: strip_schema_metadata(t).select(
            ["subj_norm", "pred"]).rename_columns(["mid", "pred_b"]),
        batch_format="pyarrow")

    def pair_partials(m: "pd.DataFrame") -> "pd.DataFrame":
        vc = m.groupby(["pred_a", "pred_b"], sort=False).size()
        idx = vc.index.to_frame(index=False)
        return pd.DataFrame({"pred_a": idx["pred_a"].to_numpy(object),
                             "pred_b": idx["pred_b"].to_numpy(object),
                             "n_part": vc.to_numpy("int64")})

    paths = hash_join(into, outof, on="mid", n_buckets=n_buckets,
                      left_types={"pred_a": s_t, "mid": s_t},
                      right_types={"mid": s_t, "pred_b": s_t},
                      bucket_post=pair_partials)
    return partial_final_agg(paths, ["pred_a", "pred_b"],
                             [("n_paths", "n_part", "sum")])


def _common_neighbor_counts(edges: "ray.data.Dataset",
                            max_center_degree: int, n_buckets: int,
                            ra_scale: int | None = None):
    """Wedge counts over a distinct undirected edge set (u, v): returns
    ((x, y, common_neighbors[, ra_score]) for every pair x < y sharing a
    neighbour center of degree <= `max_center_degree`, and the materialized
    (c, deg) table of full degrees). Centers attach their degree through a
    bucketed join; `bucket_groups` on the center then puts each center's
    whole neighbourhood in one task, whose pair partials collapse before the
    partial+final sum. With `ra_scale`, each shared center z also adds
    floor(ra_scale / deg(z)) to `ra_score`."""
    from ..aggregates import partial_final_agg, strip_schema_metadata
    from ..joins import bucket_groups, hash_join

    s_t, i_t = pa.string(), pa.int64()

    def sym(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        u = t.column("u")
        v = t.column("v")
        typ = u.type
        c = pa.chunked_array(list(u.chunks) + list(v.chunks), typ)
        n = pa.chunked_array(list(v.chunks) + list(u.chunks), typ)
        return pa.table({"c": c, "n": n})

    adj = edges.map_batches(sym, batch_format="pyarrow")
    deg = grouped_count(adj.select_columns(["c"]), ["c"],
                        out_name="deg").materialize()

    keep_cols = ["c", "n", "deg"] if ra_scale else ["c", "n"]

    def keep_small(m: "pd.DataFrame") -> "pd.DataFrame":
        return m.loc[m["deg"].to_numpy("int64") <= max_center_degree,
                     keep_cols]

    ok = hash_join(adj, deg, on="c", n_buckets=n_buckets,
                   left_types={"c": s_t, "n": s_t},
                   right_types={"c": s_t, "deg": i_t},
                   bucket_post=keep_small)

    def pair_partials(df: "pd.DataFrame") -> "pd.DataFrame":
        w = _neighbor_pairs(df, "c", "n")
        if ra_scale:
            deg_of = df.groupby("c", sort=False)["deg"].first()
            w["w"] = ra_scale // w["c"].map(deg_of).astype("int64")
        g = w.groupby(["x", "y"], sort=False)
        out = g.size().rename("n_part").reset_index()
        if ra_scale:
            out["w_part"] = g["w"].sum().to_numpy("int64")
        return out

    aggs = [("common_neighbors", "n_part", "sum")]
    if ra_scale:
        aggs.append(("ra_score", "w_part", "sum"))
    cand = partial_final_agg(bucket_groups(ok, "c", n_buckets, pair_partials),
                             ["x", "y"], aggs)
    return cand, deg


def _edge_marks(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """(pair, _edge=1.0) per distinct undirected edge, `pair` joined like
    the candidate pairs: the right side of an existing-edge LEFT join."""
    import numpy as np

    from ..aggregates import strip_schema_metadata

    def marks(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        pair = pc.binary_join_element_wise(
            t.column("u").cast(pa.string()),
            t.column("v").cast(pa.string()), _TRI_SEP)
        return pa.table({
            "pair": pair,
            "_edge": pa.array(np.ones(t.num_rows), pa.float64())})

    return edges.map_batches(marks, batch_format="pyarrow")


def link_prediction(triples: "ray.data.Dataset", max_center_degree: int = 64,
                    min_common: int = 2, salt_buckets: int = 1,
                    n_buckets: int = 32,
                    ra_scale: int | None = None) -> "ray.data.Dataset":
    """(x, y, common_neighbors[, ra_score]) — common-neighbor link
    prediction over the DISTINCT undirected KG edge set: candidate
    NON-edges (x < y) scored by
    how many shared neighbors generate them, keeping scores ≥ `min_common`.
    Standard KG-completion baseline (common-neighbors; Liben-Nowell &
    Kleinberg 2003) over the graph the reference materializes at
    make_kb.py:97-103.

    Scale shape: same canonical distinct-edge pass as `triangle_counts`,
    then wedge generation at every CENTER whose degree passes
    `max_center_degree` — the cap bounds the per-center O(d²) pair fanout
    exactly like `substring_dup_pairs.max_df` bounds bucket size (a
    boilerplate hub with millions of neighbors would otherwise emit
    trillions of wedges; the SQL oracle applies the identical degree
    filter, so the approximation is part of the operator's contract, not
    drift). Centers are hash-bucketed so each center's full neighborhood
    lands in one task; per-bucket pair counts collapse before the
    partial+final sum, and existing edges are removed with a bucketed LEFT
    join marker pass (no driver-side edge set).

    With `ra_scale` set, each candidate additionally carries the
    Resource-Allocation index (Zhou, Lu & Zhang 2009) in exact scaled
    ints: ra_score = sum over shared centers z of floor(ra_scale /
    deg(z)) — the log-free cousin of Adamic-Adar, exactly mirrorable in
    integer SQL (no libm in the hash path). Degrees are the UNCAPPED
    distinct-graph degrees; only centers passing `max_center_degree`
    generate wedges (identical contract to common_neighbors)."""
    from ..aggregates import strip_schema_metadata
    from ..joins import hash_join

    s_t, i_t = pa.string(), pa.int64()

    edges = _undirected_edges(triples, salt_buckets)
    cand, _ = _common_neighbor_counts(edges, max_center_degree, n_buckets,
                                      ra_scale)

    def keep_min(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        t = t.filter(pc.greater_equal(t.column("common_neighbors"),
                                      min_common))
        pair = pc.binary_join_element_wise(
            t.column("x").cast(pa.string()),
            t.column("y").cast(pa.string()), _TRI_SEP)
        return t.append_column("pair", pair)

    cand = cand.map_batches(keep_min, batch_format="pyarrow")

    marks = _edge_marks(edges)

    out_cols = ["x", "y", "common_neighbors"] + (
        ["ra_score"] if ra_scale else [])

    def anti_post(df: "pd.DataFrame") -> "pd.DataFrame":
        out = df.loc[df["_edge"].isna(), out_cols].copy()
        out["common_neighbors"] = out["common_neighbors"].astype("int64")
        if ra_scale:
            out["ra_score"] = out["ra_score"].astype("int64")
        return out

    left_types = {"x": s_t, "y": s_t, "common_neighbors": i_t, "pair": s_t}
    if ra_scale:
        left_types["ra_score"] = i_t
    return hash_join(cand, marks, on="pair", how="left",
                     n_buckets=n_buckets,
                     left_types=left_types,
                     right_types={"pair": s_t, "_edge": pa.float64()},
                     bucket_post=anti_post)


def neighborhood_jaccard(triples: "ray.data.Dataset",
                         max_center_degree: int = 64, min_common: int = 2,
                         scale: int = 1_000_000, salt_buckets: int = 1,
                         n_buckets: int = 32) -> "ray.data.Dataset":
    """(x, y, common_neighbors, deg_x, deg_y, jaccard_scaled, is_edge) —
    neighborhood-overlap similarity over the DISTINCT undirected KG edge
    set: every pair (x < y) sharing ≥ `min_common` neighbors, scored by the
    integer-scaled Jaccard of their neighborhoods
    floor(common · scale / (deg_x + deg_y − common)). The classic
    entity-resolution / sameAs-candidate signal (two surface forms naming
    the same real entity connect to the same things) — the QA complement of
    `link_prediction`, which keeps only NON-edges; here existing edges stay
    and are flagged `is_edge` instead.

    Scale shape: identical wedge generation to `link_prediction` — centers
    whose degree exceeds `max_center_degree` are excluded, which bounds the
    per-center O(d²) fanout; the SQL oracle applies the same filter, so the
    cap is part of the operator contract (common_neighbors counts only
    commons that pass it, while deg_x / deg_y are the FULL degrees — the
    score is therefore a lower bound around hub neighbors, the standard
    trade at web scale). Degrees and the edge flag attach via three
    bucketed hash joins; the Jaccard arithmetic is exact int64 so any
    partitioning hash-matches the oracle."""
    import pandas as pd

    from ..aggregates import strip_schema_metadata
    from ..joins import hash_join

    s_t, i_t = pa.string(), pa.int64()

    edges = _undirected_edges(triples, salt_buckets)
    cand, deg = _common_neighbor_counts(edges, max_center_degree, n_buckets)

    def keep_min(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        return t.filter(pc.greater_equal(t.column("common_neighbors"),
                                         min_common))

    cand = cand.map_batches(keep_min, batch_format="pyarrow")

    def renamed_deg(col: str, out: str):
        def fn(t: pa.Table) -> pa.Table:
            t = strip_schema_metadata(t)
            return pa.table({col: t.column("c"),
                             out: t.column("deg").cast(pa.int64())})

        return fn

    with_dx = hash_join(
        cand, deg.map_batches(renamed_deg("x", "deg_x"),
                              batch_format="pyarrow"),
        on="x", n_buckets=n_buckets,
        left_types={"x": s_t, "y": s_t, "common_neighbors": i_t},
        right_types={"x": s_t, "deg_x": i_t})
    with_dy = hash_join(
        with_dx, deg.map_batches(renamed_deg("y", "deg_y"),
                                 batch_format="pyarrow"),
        on="y", n_buckets=n_buckets,
        left_types={"x": s_t, "y": s_t, "common_neighbors": i_t,
                    "deg_x": i_t},
        right_types={"y": s_t, "deg_y": i_t})

    def stamp_pair(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        pair = pc.binary_join_element_wise(
            t.column("x").cast(pa.string()),
            t.column("y").cast(pa.string()), _TRI_SEP)
        return t.append_column("pair", pair)

    marks = _edge_marks(edges)

    def score_post(df: "pd.DataFrame") -> "pd.DataFrame":
        c = df["common_neighbors"].to_numpy("int64")
        dx = df["deg_x"].to_numpy("int64")
        dy = df["deg_y"].to_numpy("int64")
        return pd.DataFrame({
            "x": df["x"].to_numpy(object),
            "y": df["y"].to_numpy(object),
            "common_neighbors": c,
            "deg_x": dx, "deg_y": dy,
            "jaccard_scaled": (c * scale) // (dx + dy - c),
            "is_edge": df["_edge"].notna().to_numpy().astype("int64")})

    return hash_join(
        with_dy.map_batches(stamp_pair, batch_format="pyarrow"), marks,
        on="pair", how="left", n_buckets=n_buckets,
        left_types={"x": s_t, "y": s_t, "common_neighbors": i_t,
                    "deg_x": i_t, "deg_y": i_t, "pair": s_t},
        right_types={"pair": s_t, "_edge": pa.float64()},
        bucket_post=score_post)


def negative_samples(triples: "ray.data.Dataset", k: int = 2,
                     seed: int = 17, n_buckets: int = 32,
                     max_vocab: int = 50_000_000) -> "ray.data.Dataset":
    """(subj_norm, pred, obj_neg, neg_ix) — deterministic corrupt-tail
    negative sampling over the DISTINCT edge set (training data for KG
    link-prediction / embedding models: k filtered negatives per positive,
    the standard corruption protocol of TransE-family pipelines).

    Replacement tails are drawn by hashing (edge, neg_ix) with the
    engine's shared splitmix64 family into the SORTED entity vocabulary —
    no RNG state, so any partitioning draws identical negatives and a
    single-threaded oracle re-walk hash-matches exactly. Draws that hit
    the original tail are dropped inline; draws that collide with a TRUE
    edge are removed by one bucketed anti-join marker pass (filtered—not
    re-drawn: at web scale re-drawing would need an iterated join loop for
    a ~|E_sp|/|V| collision rate; the drop is part of the operator
    contract and the oracle applies it identically).

    The vocabulary is broadcast once via `ray.put` (entity vocabularies
    are lexicon-bounded — same admission contract as the graph broadcast
    modes, guarded by `max_vocab`); the edge set streams."""
    import numpy as np
    import pandas as pd

    import ray

    from ..aggregates import strip_schema_metadata
    from ..joins import hash_join
    from ..stages.dedup import _splitmix64
    from ..stages.sketch import hash64_values

    s_t, i_t = pa.string(), pa.int64()
    SEP = "\x1f"

    edges = _distinct_edges(triples)

    def ents(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        u, v = t.column("subj_norm"), t.column("obj_norm")
        arr = pa.chunked_array(list(u.chunks) + list(v.chunks), u.type)
        return pa.table({"entity": arr})

    vocab_rows = grouped_count(
        edges.map_batches(ents, batch_format="pyarrow"), ["entity"],
        out_name="_n").select_columns(["entity"]).take_all()
    if len(vocab_rows) > max_vocab:
        raise ValueError(
            f"negative_samples: |V|={len(vocab_rows)} exceeds the "
            f"broadcast admission ({max_vocab})")
    vocab = np.array(sorted(r["entity"] for r in vocab_rows), dtype=object)
    vocab_ref = ray.put(vocab)
    nv = np.uint64(len(vocab))

    def draw(df: "pd.DataFrame") -> "pd.DataFrame":
        V = ray.get(vocab_ref)
        key = (df["subj_norm"].astype(str) + SEP + df["pred"].astype(str)
               + SEP + df["obj_norm"].astype(str))
        h = hash64_values(key.to_numpy(object))
        parts = []
        for j in range(1, k + 1):
            hj = _splitmix64(h ^ np.uint64(seed + j))
            cand = V[(hj % nv).astype(np.int64)]
            keep = cand != df["obj_norm"].to_numpy(object)
            parts.append(pd.DataFrame({
                "subj_norm": df["subj_norm"].to_numpy(object)[keep],
                "pred": df["pred"].to_numpy(object)[keep],
                "obj_neg": cand[keep],
                "neg_ix": np.full(int(keep.sum()), j, dtype="int64")}))
        out = pd.concat(parts, ignore_index=True) if parts else pd.DataFrame(
            {"subj_norm": [], "pred": [], "obj_neg": [], "neg_ix": []})
        out["tkey"] = (out["subj_norm"].astype(str) + SEP
                       + out["pred"].astype(str) + SEP
                       + out["obj_neg"].astype(str))
        return out

    cands = edges.map_batches(draw, batch_format="pandas")

    def true_marks(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        tkey = pc.binary_join_element_wise(
            t.column("subj_norm").cast(pa.string()),
            t.column("pred").cast(pa.string()),
            t.column("obj_norm").cast(pa.string()), SEP)
        import numpy as _np

        return pa.table({"tkey": tkey,
                         "_true": pa.array(_np.ones(t.num_rows),
                                           pa.float64())})

    marks = edges.map_batches(true_marks, batch_format="pyarrow")

    def anti_post(df: "pd.DataFrame") -> "pd.DataFrame":
        out = df.loc[df["_true"].isna(),
                     ["subj_norm", "pred", "obj_neg", "neg_ix"]]
        out["neg_ix"] = out["neg_ix"].astype("int64")
        return out

    return hash_join(cands, marks, on="tkey", how="left",
                     n_buckets=n_buckets,
                     left_types={"subj_norm": s_t, "pred": s_t,
                                 "obj_neg": s_t, "neg_ix": i_t,
                                 "tkey": s_t},
                     right_types={"tkey": s_t, "_true": pa.float64()},
                     bucket_post=anti_post)


def inverse_predicates(triples: "ray.data.Dataset", scale: int = 10_000,
                       salt_buckets: int = 1,
                       n_buckets: int = 32) -> "ray.data.Dataset":
    """(pred_a, pred_b, n_inv, n_a, frac_scaled) — inverse/symmetric
    predicate detection over the DISTINCT directed edge set: for every
    ordered predicate pair, how many `pred_a` edges (s, o) have the exact
    reverse edge (o, pred_b, s), plus `pred_a`'s total edge count and the
    integer-scaled overlap fraction n_inv * scale // n_a. pred_a == pred_b
    rows measure predicate symmetry. This is the standard KG schema-QA /
    train-test-leakage probe (reverse-relation leakage, Toutanova & Chen
    2015; the reference's consumers would walk the same reversed pairs over
    the networkx graph built at scripts/data/shared/make_kb.py:97-103).

    Scale shape: one salted grouped count distincts the triple table, then
    ONE bucketed self-join on the (s, o) pair key against the reversed
    copy, whose `bucket_post` collapses each bucket to per-(pred_a, pred_b)
    PARTIAL counts — matched edge rows never leave the join task and the
    final combine sees ≤ |preds|² rows per bucket. Per-predicate totals are
    a second shrinking grouped count (|preds| rows), attached with a tiny
    bucketed join; `frac_scaled` stays in exact nonneg-int arithmetic
    (floor division) so the SQL oracle's `//` mirrors it bit-for-bit."""
    import pandas as pd

    from ..aggregates import partial_final_agg, strip_schema_metadata
    from ..joins import hash_join

    s_t, i_t = pa.string(), pa.int64()
    SEP = "\x1f"

    edges = _distinct_edges(triples, salt_buckets)

    def fwd(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        key = pc.binary_join_element_wise(
            t.column("subj_norm").cast(pa.string()),
            t.column("obj_norm").cast(pa.string()), SEP)
        return pa.table({"pkey": key, "pred_a": t.column("pred")})

    def rev(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        key = pc.binary_join_element_wise(
            t.column("obj_norm").cast(pa.string()),
            t.column("subj_norm").cast(pa.string()), SEP)
        return pa.table({"pkey": key, "pred_b": t.column("pred")})

    def pair_partials(m: "pd.DataFrame") -> "pd.DataFrame":
        vc = m.groupby(["pred_a", "pred_b"], sort=False).size()
        idx = vc.index.to_frame(index=False)
        return pd.DataFrame({"pred_a": idx["pred_a"].to_numpy(object),
                             "pred_b": idx["pred_b"].to_numpy(object),
                             "n_part": vc.to_numpy("int64")})

    matched = hash_join(
        edges.map_batches(fwd, batch_format="pyarrow"),
        edges.map_batches(rev, batch_format="pyarrow"),
        on="pkey", n_buckets=n_buckets,
        left_types={"pkey": s_t, "pred_a": s_t},
        right_types={"pkey": s_t, "pred_b": s_t},
        bucket_post=pair_partials)
    inv = partial_final_agg(matched, ["pred_a", "pred_b"],
                            [("n_inv", "n_part", "sum")])

    totals = grouped_count(
        edges.select_columns(["pred"]), ["pred"], out_name="n_a",
        salt_buckets=salt_buckets,
    ).map_batches(
        lambda t: strip_schema_metadata(t).rename_columns(
            ["pred_a", "n_a"]),
        batch_format="pyarrow")

    def attach_frac(m: "pd.DataFrame") -> "pd.DataFrame":
        n_inv = m["n_inv"].to_numpy("int64")
        n_a = m["n_a"].to_numpy("int64")
        return pd.DataFrame({
            "pred_a": m["pred_a"].to_numpy(object),
            "pred_b": m["pred_b"].to_numpy(object),
            "n_inv": n_inv,
            "n_a": n_a,
            "frac_scaled": (n_inv * scale) // n_a,
        })

    return hash_join(inv, totals, on="pred_a", n_buckets=4,
                     left_types={"pred_a": s_t, "pred_b": s_t, "n_inv": i_t},
                     right_types={"pred_a": s_t, "n_a": i_t},
                     bucket_post=attach_frac)


def rule_mining(triples: "ray.data.Dataset", max_mid_degree: int = 64,
                min_support: int = 1, scale: int = 10_000,
                salt_buckets: int = 1,
                n_buckets: int = 32) -> "ray.data.Dataset":
    """(pred_a, pred_b, pred_c, n_support, n_body, conf_scaled) — AMIE-lite
    2-hop Horn-rule mining over the DISTINCT directed edge set: for every
    rule `pred_c(x, z) <= pred_a(x, y) AND pred_b(y, z)`, `n_body` counts the
    DISTINCT (x, z) pairs connected by the body path, `n_support` how many of
    those are also closed by a `pred_c` head edge, and `conf_scaled` the
    integer-scaled standard confidence n_support * scale // n_body (Galárraga
    et al. 2013, AMIE). Schema/ontology induction over the KG the reference's
    consumers materialize at scripts/data/shared/make_kb.py:97-103.

    Scale shape: mid entities whose in- OR out-degree exceeds
    `max_mid_degree` are dropped BEFORE the path join — the cap bounds the
    per-mid O(d_in * d_out) fanout exactly like `link_prediction`'s center
    cap, and the SQL oracle applies the identical filter, so the
    approximation is part of the operator's contract. The path self-join is
    ONE bucketed join on the mid whose `bucket_post` dedups path rows before
    they leave the task; global body dedup is a salted grouped count over
    (pred_a, pred_b, x, z); head closure is ONE more bucketed join on the
    (x, z) key collapsing to per-rule PARTIAL counts inside the task."""
    import pandas as pd

    from ..aggregates import partial_final_agg, strip_schema_metadata
    from ..joins import hash_join

    s_t, i_t = pa.string(), pa.int64()
    SEP = "\x1f"

    edges = _distinct_edges(triples, salt_buckets)

    import numpy as np

    def deg_partials(t: pa.Table) -> "pd.DataFrame":
        # both degree roles in ONE pass over the edge blocks (r4 rework:
        # was two grouped_counts + a bucketed join, re-executed per
        # consumer) — per-block compacted (mid, ind_p, outd_p) partials
        t = strip_schema_metadata(t)
        df = t.select(["subj_norm", "obj_norm"]).to_pandas()
        o = df.groupby("subj_norm", sort=False).size()
        i = df.groupby("obj_norm", sort=False).size()
        return pd.concat([
            pd.DataFrame({"mid": o.index.to_numpy(object),
                          "ind_p": np.zeros(len(o), dtype=np.int64),
                          "outd_p": o.to_numpy("int64")}),
            pd.DataFrame({"mid": i.index.to_numpy(object),
                          "ind_p": i.to_numpy("int64"),
                          "outd_p": np.zeros(len(i), dtype=np.int64)}),
        ], ignore_index=True)

    deg = partial_final_agg(
        edges.map_batches(deg_partials, batch_format="pyarrow"),
        ["mid"], [("ind", "ind_p", "sum"), ("outd", "outd_p", "sum")])

    def keep_small(m: "pd.DataFrame") -> "pd.DataFrame":
        ind = m["ind"].to_numpy("int64")
        outd = m["outd"].to_numpy("int64")
        # ind/outd > 0 == the old inner join: only entities with BOTH in-
        # and out-edges can be a mid
        ok = (ind > 0) & (outd > 0) & (ind <= max_mid_degree) \
            & (outd <= max_mid_degree)
        return m.loc[ok, ["mid"]]

    # small by the cap's purpose (vocabulary-bounded) and consumed by TWO
    # joins below — pin it so the degree pass runs once
    mid_ok = deg.map_batches(keep_small, batch_format="pandas").materialize()

    into = edges.map_batches(
        lambda t: strip_schema_metadata(t).select(
            ["subj_norm", "pred", "obj_norm"]).rename_columns(
            ["x", "pred_a", "mid"]),
        batch_format="pyarrow")
    outof = edges.map_batches(
        lambda t: strip_schema_metadata(t).select(
            ["subj_norm", "pred", "obj_norm"]).rename_columns(
            ["mid", "pred_b", "z"]),
        batch_format="pyarrow")

    into_ok = hash_join(into, mid_ok, on="mid", n_buckets=n_buckets,
                        left_types={"x": s_t, "pred_a": s_t, "mid": s_t},
                        right_types={"mid": s_t})
    outof_ok = hash_join(outof, mid_ok, on="mid", n_buckets=n_buckets,
                         left_types={"mid": s_t, "pred_b": s_t, "z": s_t},
                         right_types={"mid": s_t})

    def path_dedup(m: "pd.DataFrame") -> "pd.DataFrame":
        # per-bucket dedup only (same (pa,pb,x,z) can arise via mids in
        # other buckets) — the global grouped_count below finishes the job
        return m.drop_duplicates(["pred_a", "pred_b", "x", "z"])[
            ["pred_a", "pred_b", "x", "z"]]

    paths = grouped_count(
        hash_join(into_ok, outof_ok, on="mid", n_buckets=n_buckets,
                  left_types={"x": s_t, "pred_a": s_t, "mid": s_t},
                  right_types={"mid": s_t, "pred_b": s_t, "z": s_t},
                  bucket_post=path_dedup),
        ["pred_a", "pred_b", "x", "z"], out_name="_c",
        salt_buckets=salt_buckets,
    ).select_columns(["pred_a", "pred_b", "x", "z"]).materialize()

    body = grouped_count(paths.select_columns(["pred_a", "pred_b"]),
                         ["pred_a", "pred_b"], out_name="n_body",
                         salt_buckets=salt_buckets)

    def path_key(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        key = pc.binary_join_element_wise(
            t.column("x").cast(pa.string()),
            t.column("z").cast(pa.string()), SEP)
        return pa.table({"hkey": key, "pred_a": t.column("pred_a"),
                         "pred_b": t.column("pred_b")})

    def head_key(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        key = pc.binary_join_element_wise(
            t.column("subj_norm").cast(pa.string()),
            t.column("obj_norm").cast(pa.string()), SEP)
        return pa.table({"hkey": key, "pred_c": t.column("pred")})

    def rule_partials(m: "pd.DataFrame") -> "pd.DataFrame":
        vc = m.groupby(["pred_a", "pred_b", "pred_c"], sort=False).size()
        idx = vc.index.to_frame(index=False)
        return pd.DataFrame({"pred_a": idx["pred_a"].to_numpy(object),
                             "pred_b": idx["pred_b"].to_numpy(object),
                             "pred_c": idx["pred_c"].to_numpy(object),
                             "n_part": vc.to_numpy("int64")})

    closed = hash_join(
        paths.map_batches(path_key, batch_format="pyarrow"),
        edges.map_batches(head_key, batch_format="pyarrow"),
        on="hkey", n_buckets=n_buckets,
        left_types={"hkey": s_t, "pred_a": s_t, "pred_b": s_t},
        right_types={"hkey": s_t, "pred_c": s_t},
        bucket_post=rule_partials)
    sup = partial_final_agg(closed, ["pred_a", "pred_b", "pred_c"],
                            [("n_support", "n_part", "sum")])

    def body_key(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        key = pc.binary_join_element_wise(
            t.column("pred_a").cast(pa.string()),
            t.column("pred_b").cast(pa.string()), SEP)
        return t.append_column("bkey", key)

    def attach_conf(m: "pd.DataFrame") -> "pd.DataFrame":
        keep = m["n_support"].to_numpy("int64") >= min_support
        m = m.loc[keep]
        n_sup = m["n_support"].to_numpy("int64")
        n_body = m["n_body"].to_numpy("int64")
        return pd.DataFrame({
            "pred_a": m["pred_a"].to_numpy(object),
            "pred_b": m["pred_b"].to_numpy(object),
            "pred_c": m["pred_c"].to_numpy(object),
            "n_support": n_sup,
            "n_body": n_body,
            "conf_scaled": (n_sup * scale) // n_body,
        })

    return hash_join(
        sup.map_batches(body_key, batch_format="pyarrow"),
        body.map_batches(body_key, batch_format="pyarrow").select_columns(
            ["bkey", "n_body"]),
        on="bkey", n_buckets=4,
        left_types={"bkey": s_t, "pred_a": s_t, "pred_b": s_t,
                    "pred_c": s_t, "n_support": i_t},
        right_types={"bkey": s_t, "n_body": i_t},
        bucket_post=attach_conf)


def domain_range_signatures(triples: "ray.data.Dataset",
                            types: "ray.data.Dataset",
                            scale: int = 10_000, salt_buckets: int = 1,
                            n_buckets: int = 32) -> "ray.data.Dataset":
    """(pred, subj_type, obj_type, n_edges, n_pred, frac_scaled) — predicate
    domain/range signature induction over the DISTINCT edge set: each edge
    is typed by looking up its subject and object in the `types` table
    ((entity, etype); untyped entities fall back to 'UNKNOWN'), then the
    (pred, subj_type, obj_type) histogram is attached to per-predicate
    totals with the integer-scaled signature share n_edges * scale //
    n_pred. Standard ontology/schema induction over the KG the reference's
    consumers materialize at scripts/data/shared/make_kb.py:90-103 (the
    per-entity label there is the same modal mention label).

    Scale shape: TWO bucketed left joins re-key the edge table through the
    types lookup (subject side then object side — same shape as
    `alias_merge_edges`' re-keying), the second collapsing to per-signature
    PARTIAL counts inside the join task; per-predicate totals are a
    shrinking grouped count attached with a tiny final join. No driver-side
    type dict — the types side streams through the same buckets."""
    import pandas as pd

    from ..aggregates import partial_final_agg, strip_schema_metadata
    from ..joins import hash_join

    s_t, i_t = pa.string(), pa.int64()

    edges = _distinct_edges(triples, salt_buckets)

    t_subj = types.map_batches(
        lambda t: strip_schema_metadata(t).select(
            ["entity", "etype"]).rename_columns(["subj_norm", "subj_type"]),
        batch_format="pyarrow")
    t_obj = types.map_batches(
        lambda t: strip_schema_metadata(t).select(
            ["entity", "etype"]).rename_columns(["obj_norm", "obj_type"]),
        batch_format="pyarrow")

    def fill_subj(m: "pd.DataFrame") -> "pd.DataFrame":
        m = m.copy()
        m["subj_type"] = m["subj_type"].fillna("UNKNOWN")
        return m[["pred", "obj_norm", "subj_type"]]

    typed_s = hash_join(edges, t_subj, on="subj_norm", how="left",
                        n_buckets=n_buckets,
                        left_types={"subj_norm": s_t, "pred": s_t,
                                    "obj_norm": s_t},
                        right_types={"subj_norm": s_t, "subj_type": s_t},
                        bucket_post=fill_subj)

    def sig_partials(m: "pd.DataFrame") -> "pd.DataFrame":
        m = m.copy()
        m["obj_type"] = m["obj_type"].fillna("UNKNOWN")
        vc = m.groupby(["pred", "subj_type", "obj_type"], sort=False).size()
        idx = vc.index.to_frame(index=False)
        return pd.DataFrame({
            "pred": idx["pred"].to_numpy(object),
            "subj_type": idx["subj_type"].to_numpy(object),
            "obj_type": idx["obj_type"].to_numpy(object),
            "n_part": vc.to_numpy("int64")})

    sigs = partial_final_agg(
        hash_join(typed_s, t_obj, on="obj_norm", how="left",
                  n_buckets=n_buckets,
                  left_types={"pred": s_t, "obj_norm": s_t,
                              "subj_type": s_t},
                  right_types={"obj_norm": s_t, "obj_type": s_t},
                  bucket_post=sig_partials),
        ["pred", "subj_type", "obj_type"], [("n_edges", "n_part", "sum")])

    totals = grouped_count(
        edges.select_columns(["pred"]), ["pred"], out_name="n_pred",
        salt_buckets=salt_buckets)

    def attach_frac(m: "pd.DataFrame") -> "pd.DataFrame":
        n_e = m["n_edges"].to_numpy("int64")
        n_p = m["n_pred"].to_numpy("int64")
        return pd.DataFrame({
            "pred": m["pred"].to_numpy(object),
            "subj_type": m["subj_type"].to_numpy(object),
            "obj_type": m["obj_type"].to_numpy(object),
            "n_edges": n_e,
            "n_pred": n_p,
            "frac_scaled": (n_e * scale) // n_p,
        })

    return hash_join(sigs, totals, on="pred", n_buckets=4,
                     left_types={"pred": s_t, "subj_type": s_t,
                                 "obj_type": s_t, "n_edges": i_t},
                     right_types={"pred": s_t, "n_pred": i_t},
                     bucket_post=attach_frac)


def redundant_edges(triples: "ray.data.Dataset", max_mid_degree: int = 64,
                    salt_buckets: int = 1,
                    n_buckets: int = 32) -> "ray.data.Dataset":
    """(subj_norm, pred, obj_norm) — transitive-redundancy QA over the
    DISTINCT edge set: edges (x, p, z) for which a same-predicate 2-hop
    path x -p-> y -p-> z exists through a third entity (path legs must be
    non-loop edges, so y != x and y != z). For a transitively-closed
    predicate these are the transitive-reduction candidates a KB curator
    reviews before materializing (the closure companion of
    `transitive_closure` in pipelines/evaluate.py; consumers walk the same
    graph built at scripts/data/shared/make_kb.py:97-103).

    Scale shape: the same mid-degree admission cap as `rule_mining`, but
    per (pred, mid) — a hub entity only blocks paths of the predicates it
    is actually hot in; the cap is part of the operator contract (the SQL
    oracle filters identically). ONE bucketed self-join on the (pred, mid)
    key emits per-bucket-deduped path rows, a salted grouped count
    finishes the global dedup, and redundancy is ONE more bucketed
    semi-join of the edge table against the path table."""
    import pandas as pd

    from ..aggregates import strip_schema_metadata
    from ..joins import hash_join

    s_t = pa.string()
    SEP = "\x1f"

    edges = _distinct_edges(triples, salt_buckets)

    def legs(t: pa.Table) -> pa.Table:
        # non-loop edges only — a self-loop leg would make every incident
        # edge trivially "redundant"
        t = strip_schema_metadata(t)
        keep = pc.invert(pc.equal(t.column("subj_norm"),
                                  t.column("obj_norm")))
        return t.filter(keep)

    nl = edges.map_batches(legs, batch_format="pyarrow")

    def pm_key(sub: str, mid: str):
        def fn(t: pa.Table) -> pa.Table:
            t = strip_schema_metadata(t)
            key = pc.binary_join_element_wise(
                t.column("pred").cast(pa.string()),
                t.column(mid).cast(pa.string()), SEP)
            return pa.table({"pmkey": key, "pred": t.column("pred"),
                             "other": t.column(sub)})
        return fn

    import numpy as np

    from ..aggregates import partial_final_agg

    def deg_partials(t: pa.Table) -> "pd.DataFrame":
        # both (pred, mid) degree roles in ONE pass (r4 rework: was two
        # grouped_counts + a bucketed join, re-executed per consumer)
        t = strip_schema_metadata(t)
        pred = t.column("pred").cast(pa.string())
        k_in = pc.binary_join_element_wise(
            pred, t.column("obj_norm").cast(pa.string()), SEP)
        k_out = pc.binary_join_element_wise(
            pred, t.column("subj_norm").cast(pa.string()), SEP)
        vin = pd.Series(k_in.to_pandas()).value_counts(sort=False)
        vout = pd.Series(k_out.to_pandas()).value_counts(sort=False)
        return pd.concat([
            pd.DataFrame({"pmkey": vin.index.to_numpy(object),
                          "ind_p": vin.to_numpy("int64"),
                          "outd_p": np.zeros(len(vin), dtype=np.int64)}),
            pd.DataFrame({"pmkey": vout.index.to_numpy(object),
                          "ind_p": np.zeros(len(vout), dtype=np.int64),
                          "outd_p": vout.to_numpy("int64")}),
        ], ignore_index=True)

    deg = partial_final_agg(
        nl.map_batches(deg_partials, batch_format="pyarrow"),
        ["pmkey"], [("ind", "ind_p", "sum"), ("outd", "outd_p", "sum")])

    def keep_small(m: "pd.DataFrame") -> "pd.DataFrame":
        ind = m["ind"].to_numpy("int64")
        outd = m["outd"].to_numpy("int64")
        # > 0 on both == the old inner join (mid needs both leg directions)
        ok = (ind > 0) & (outd > 0) & (ind <= max_mid_degree) \
            & (outd <= max_mid_degree)
        return m.loc[ok, ["pmkey"]]

    # consumed by two joins below — pin so the degree pass runs once
    mid_ok = deg.map_batches(keep_small, batch_format="pandas").materialize()

    into = hash_join(
        nl.map_batches(pm_key("subj_norm", "obj_norm"),
                       batch_format="pyarrow"),
        mid_ok, on="pmkey", n_buckets=n_buckets,
        left_types={"pmkey": s_t, "pred": s_t, "other": s_t},
        right_types={"pmkey": s_t},
        bucket_post=lambda m: m.rename(columns={"other": "x"})[
            ["pmkey", "pred", "x"]])
    outof = hash_join(
        nl.map_batches(pm_key("obj_norm", "subj_norm"),
                       batch_format="pyarrow"),
        mid_ok, on="pmkey", n_buckets=n_buckets,
        left_types={"pmkey": s_t, "pred": s_t, "other": s_t},
        right_types={"pmkey": s_t},
        bucket_post=lambda m: m.rename(columns={"other": "z"})[["pmkey", "z"]])

    def path_dedup(m: "pd.DataFrame") -> "pd.DataFrame":
        return m.drop_duplicates(["pred", "x", "z"])[["pred", "x", "z"]]

    paths = grouped_count(
        hash_join(into, outof, on="pmkey", n_buckets=n_buckets,
                  left_types={"pmkey": s_t, "pred": s_t, "x": s_t},
                  right_types={"pmkey": s_t, "z": s_t},
                  bucket_post=path_dedup),
        ["pred", "x", "z"], out_name="_c", salt_buckets=salt_buckets,
    ).select_columns(["pred", "x", "z"])

    def edge_key(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        key = pc.binary_join_element_wise(
            t.column("pred").cast(pa.string()),
            t.column("subj_norm").cast(pa.string()),
            t.column("obj_norm").cast(pa.string()), SEP)
        return pa.table({"ekey": key, "subj_norm": t.column("subj_norm"),
                         "pred": t.column("pred"),
                         "obj_norm": t.column("obj_norm")})

    def path_edge_key(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        key = pc.binary_join_element_wise(
            t.column("pred").cast(pa.string()),
            t.column("x").cast(pa.string()),
            t.column("z").cast(pa.string()), SEP)
        return pa.table({"ekey": key})

    def semi_post(m: "pd.DataFrame") -> "pd.DataFrame":
        return m[["subj_norm", "pred", "obj_norm"]]

    return hash_join(
        edges.map_batches(edge_key, batch_format="pyarrow"),
        paths.map_batches(path_edge_key, batch_format="pyarrow"),
        on="ekey", n_buckets=n_buckets,
        left_types={"ekey": s_t, "subj_norm": s_t, "pred": s_t,
                    "obj_norm": s_t},
        right_types={"ekey": s_t},
        bucket_post=semi_post)


def functional_repair(triples: "ray.data.Dataset",
                      salt_buckets: int = 1,
                      n_buckets: int = 16) -> "ray.data.Dataset":
    """(subj_norm, pred, obj_norm, support, n_objs) — conflict RESOLUTION
    for functional slots: for every (subject, predicate), keep the single
    winning object by (support DESC, obj_norm ASC), where support counts
    the raw assertions behind each object. The repair companion of
    `functional_conflicts` (the KB build's make_kb.py:90-95 one-value-per-
    slot assumption, enforced by majority vote instead of just reported);
    `n_objs` carries how contested the slot was.

    Shape: one salted grouped count over the raw triple table (support per
    (subj, pred, obj)), one shrinking per-(subj, pred) count attached via
    the same coarse-bucket reduce that picks the argmax row — the
    `argmax_per_key` pattern with the contest size computed in-bucket."""
    from ..joins import bucket_groups

    support = grouped_count(
        triples.select_columns(["subj_norm", "pred", "obj_norm"]),
        ["subj_norm", "pred", "obj_norm"], out_name="support",
        salt_buckets=salt_buckets)

    def per_bucket(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(
            ["subj_norm", "pred", "support", "obj_norm"],
            ascending=[True, True, False, True], kind="mergesort")
        g = df.groupby(["subj_norm", "pred"], sort=False)
        win = g.head(1).copy()
        n_objs = g.size().to_numpy("int64")
        win["n_objs"] = n_objs
        win["support"] = win["support"].astype("int64")
        return win[["subj_norm", "pred", "obj_norm", "support", "n_objs"]]

    return bucket_groups(support, ["subj_norm", "pred"], n_buckets,
                         per_bucket)


def _hash_embeddings(names, dim: int, seed: int, salt: int):
    """(n, dim) int64 embedding matrix in [-1024, 1024) derived purely from
    splitmix64 draws on the name hash — the deterministic stand-in for a
    trained KG-embedding table (no model files in this environment; the
    hash family IS the spec, mirrored by the oracle re-walk)."""
    import numpy as np

    from ..stages.dedup import _splitmix64
    from ..stages.sketch import hash64_values

    h = hash64_values(np.asarray(names, dtype=object))
    out = np.empty((len(h), dim), dtype=np.int64)
    for d in range(dim):
        # a one-element array: numpy scalar uint64 arithmetic warns on the
        # overflow that the mixer relies on, arrays wrap silently
        salt_d = _splitmix64(np.array([(seed * 1_000_003 + salt) * dim + d],
                                      dtype=np.uint64))[0]
        hd = _splitmix64(h ^ salt_d)
        out[:, d] = (hd % np.uint64(2048)).astype(np.int64) - 1024
    return out


def transe_eval(triples: "ray.data.Dataset", dim: int = 16, k_neg: int = 32,
                seed: int = 23, max_vocab: int = 50_000_000) -> "ray.data.Dataset":
    """(pred, n_edges, hits1, hits10, mrr_ppm) — TransE-style link-ranking
    evaluation of the KG under deterministic hash embeddings: every
    distinct edge's true tail is ranked against `k_neg` corrupted tails
    drawn with the SAME splitmix64 corruption protocol as
    `negative_samples` (raw setting: corrupted tails that happen to be
    true edges elsewhere still count — the standard unfiltered MRR; draws
    hitting the edge's own tail are skipped). Score = -L1(h + r - t) in
    exact int64 (per-dim values in [-1024, 1024), so |sum| <= 3072*dim —
    no overflow); rank = 1 + #negatives scoring STRICTLY higher (ties
    favor the true tail, documented). mrr_ppm = (sum of floor(1e6/rank))
    // n_edges, hits@k exact counts.

    Scale shape: the entity vocabulary is broadcast once via `ray.put`
    (lexicon-bounded, `max_vocab` admission guard — same contract as
    `negative_samples`); the edge set streams through ONE map_batches that
    emits per-(block, pred) partials, then a predicate-sized partial+final
    sum. No joins, no all-pairs."""
    import numpy as np
    import pandas as pd

    import ray

    from ..aggregates import partial_final_agg, strip_schema_metadata
    from ..stages.dedup import _splitmix64
    from ..stages.sketch import hash64_values

    SEP = "\x1f"

    edges = _distinct_edges(triples)

    def ents(t: pa.Table) -> pa.Table:
        t = strip_schema_metadata(t)
        u, v = t.column("subj_norm"), t.column("obj_norm")
        arr = pa.chunked_array(list(u.chunks) + list(v.chunks), u.type)
        return pa.table({"entity": arr})

    vocab_rows = grouped_count(
        edges.map_batches(ents, batch_format="pyarrow"), ["entity"],
        out_name="_n").select_columns(["entity"]).take_all()
    if len(vocab_rows) > max_vocab:
        raise ValueError(
            f"transe_eval: |V|={len(vocab_rows)} exceeds the broadcast "
            f"admission ({max_vocab})")
    vocab = np.array(sorted(r["entity"] for r in vocab_rows), dtype=object)
    vocab_ref = ray.put(vocab)
    nv = np.uint64(len(vocab))

    def rank_partials(df: "pd.DataFrame") -> "pd.DataFrame":
        V = ray.get(vocab_ref)
        n = len(df)
        if n == 0:
            return pd.DataFrame({"pred": pd.Series(dtype=object),
                                 "n_e": pd.Series(dtype="int64"),
                                 "h1": pd.Series(dtype="int64"),
                                 "h10": pd.Series(dtype="int64"),
                                 "rr": pd.Series(dtype="int64")})
        s = df["subj_norm"].to_numpy(object)
        p = df["pred"].to_numpy(object)
        o = df["obj_norm"].to_numpy(object)
        hr = (_hash_embeddings(s, dim, seed, salt=0)
              + _hash_embeddings(p, dim, seed, salt=1))
        true_sc = -np.abs(hr - _hash_embeddings(o, dim, seed, salt=0)
                          ).sum(axis=1)
        key = np.array([a + SEP + b + SEP + c
                        for a, b, c in zip(s, p, o)], dtype=object)
        h = hash64_values(key)
        rank = np.ones(n, dtype=np.int64)
        for j in range(1, k_neg + 1):
            hj = _splitmix64(h ^ np.uint64(seed + j))
            cand = V[(hj % nv).astype(np.int64)]
            neg_sc = -np.abs(hr - _hash_embeddings(cand, dim, seed, salt=0)
                             ).sum(axis=1)
            rank += ((cand != o) & (neg_sc > true_sc)).astype(np.int64)
        out = pd.DataFrame({"pred": p,
                            "n_e": np.ones(n, dtype="int64"),
                            "h1": (rank == 1).astype("int64"),
                            "h10": (rank <= 10).astype("int64"),
                            "rr": 1_000_000 // rank})
        return out.groupby("pred", as_index=False)[
            ["n_e", "h1", "h10", "rr"]].sum()

    agg = partial_final_agg(
        edges.map_batches(rank_partials, batch_format="pandas"),
        ["pred"], [("n_e", "n_e", "sum"), ("h1", "h1", "sum"),
                   ("h10", "h10", "sum"), ("rr", "rr", "sum")])

    def finish(df: "pd.DataFrame") -> "pd.DataFrame":
        ne = df["n_e"].to_numpy("int64")
        return pd.DataFrame({
            "pred": df["pred"], "n_edges": ne,
            "hits1": df["h1"].to_numpy("int64"),
            "hits10": df["h10"].to_numpy("int64"),
            "mrr_ppm": df["rr"].to_numpy("int64") // np.maximum(ne, 1)})

    return agg.map_batches(finish, batch_format="pandas")
