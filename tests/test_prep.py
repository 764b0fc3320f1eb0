"""Document-prep stages (P1-P4, P15) without Ray — pure batch functions."""

import hashlib

import pyarrow as pa

from dygiepp_ray.corpus import generate_corpus
from dygiepp_ray.pipelines.kg import documents_batch
from dygiepp_ray.schema import MAX_TOKENS_PER_DOC
from dygiepp_ray.stages.prep import extract_text, split_document, stamp_sha256


def test_extract_text_python():
    src = 'def f():\n    """Doc line one."""\n# a comment\nx = 1\n'
    text = extract_text(src, "python")
    assert "Doc line one." in text and "a comment" in text and "x = 1" not in text


def test_extract_text_slash_and_markdown():
    assert extract_text("// note here\ncode();\n", "java") == "note here"
    assert extract_text("plain prose\n", "markdown") == "plain prose\n"


def test_documents_batch_keys_and_offsets():
    t = generate_corpus(20, seed=1)
    docs = documents_batch(t)
    assert docs.num_rows > 0
    keys = docs.column("doc_key").to_pylist()
    assert len(set(keys)) == len(keys)
    for sents, starts in zip(docs.column("sentences").to_pylist(),
                             docs.column("sentence_starts").to_pylist()):
        assert starts[0] == 0
        acc = 0
        for s, st in zip(sents, starts):
            assert st == acc
            acc += len(s)
    by_key = {f"{r}:{p}@{c[:8]}": hashlib.sha256(x.encode()).hexdigest()
              for r, p, c, x in zip(*(t.column(n).to_pylist() for n in
                                      ("repo", "path", "commit", "content")))}
    for key, sha in zip(keys, docs.column("content_sha256").to_pylist()):
        assert sha == by_key[key.split("_SPLIT_")[0]]
    assert set(docs.column("dataset").to_pylist()) == {"codekb"}


def test_split_document_greedy():
    sentences = [["w"] * 200, ["w"] * 200, ["w"] * 200, ["w"] * 50]
    chunks = split_document("doc", sentences, max_tokens=500)
    assert [k for k, _ in chunks] == ["doc_SPLIT_0", "doc_SPLIT_1"]
    assert [sum(len(s) for s in c) for _, c in chunks] == [400, 250]
    # under the cap → key unchanged, single chunk
    assert split_document("d2", [["w"] * 10]) == [("d2", [["w"] * 10])]


def test_documents_batch_splits_long_documents():
    out = documents_batch(generate_corpus(60, seed=42))
    keys = out.column("doc_key").to_pylist()
    assert any("_SPLIT_" in k for k in keys)  # the P3 split is exercised
    for key, sents, starts in zip(keys, out.column("sentences").to_pylist(),
                                  out.column("sentence_starts").to_pylist()):
        assert sum(len(s) for s in sents) <= MAX_TOKENS_PER_DOC
        assert starts[-1] + len(sents[-1]) == sum(len(s) for s in sents)
    # split children stay in sentence order under their parent's key
    parents = [k.split("_SPLIT_")[0] for k in keys if "_SPLIT_" in k]
    for parent in set(parents):
        kids = [k for k in keys if k.startswith(parent + "_SPLIT_")]
        assert kids == [f"{parent}_SPLIT_{i}" for i in range(len(kids))]


def test_sha256_column_matches_content():
    t = stamp_sha256(generate_corpus(5, seed=3))
    for content, sha in zip(t.column("content").to_pylist(),
                            t.column("content_sha256").to_pylist()):
        assert sha == hashlib.sha256(content.encode()).hexdigest()


def test_empty_doc_dropped():
    t = pa.table(
        {
            "repo": ["r"], "path": ["p"], "commit": ["c" * 40],
            "lang": ["python"], "content": ["x = 1\n"],  # no prose at all
        }
    )
    docs = documents_batch(t)
    assert docs.num_rows == 0
