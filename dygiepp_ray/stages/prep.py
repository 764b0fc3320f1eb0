"""Document preparation steps (SURVEY.md §2.2 P1-P4, P15; §7.1 doc-prep).

The per-document pieces of the one prep that `pipelines/kg.py:_prep_docs`
runs for both the fused triples stage and the documents product: extract
text-bearing regions from code, and split over-long documents at sentence
boundaries. Sentence-split / tokenize / normalize are the Arrow fast path in
`pipelines/kg.py` with `functions/strings.py` as its per-document fallback.
`stamp_sha256` is a standalone `map_batches` column stamp.

Reference semantics reproduced:
- P1 tokenize/sentence-split (scripts/new-dataset/format_new_dataset.py:12-31),
  here a deterministic regex pipeline instead of spaCy.
- P2 word normalizer `/.`→`.`, `/?`→`?` (dygie.py:205-210).
- P3 greedy doc splitter ≤ MAX_TOKENS_PER_DOC at sentence boundaries, child
  keys `{key}_SPLIT_{i}`, error on over-long single sentences
  (document.py:184-236).
- P15 empty-token validation: docs with empty-string tokens are dropped, as
  the reference's load-time validation drops them (document.py:158-165,
  65-86; its drop report is not reproduced).
"""

from __future__ import annotations

import re

import pyarrow as pa

from ..functions.arrow import pylist
from ..functions.strings import sha256_hex
from ..schema import MAX_TOKENS_PER_DOC

_PY_DOCSTRING_RE = re.compile(r'"""(.*?)"""|\'\'\'(.*?)\'\'\'', re.S)
_HASH_COMMENT_RE = re.compile(r"(?:^|\n)\s*#+ ?(.*)")
_SLASH_COMMENT_RE = re.compile(r"(?:^|\n)\s*// ?(.*)")


def extract_text(content: str, lang: str) -> str:
    """Pull prose out of a source file: docstrings + comments, or the whole
    body for markdown. Deterministic; the engine twin of S4's txt→doc step."""
    if lang == "markdown":
        return content
    parts: list[str] = []
    if lang == "python":
        for m in _PY_DOCSTRING_RE.finditer(content):
            parts.append(m.group(1) or m.group(2) or "")
        parts.extend(_HASH_COMMENT_RE.findall(content))
    else:
        parts.extend(_SLASH_COMMENT_RE.findall(content))
    return "\n".join(p.strip() for p in parts if p.strip())


def stamp_sha256(batch: pa.Table) -> pa.Table:
    """Per-row `content` sha256 — the end-to-end invariant column."""
    shas = [sha256_hex(c) for c in pylist(batch.column("content"))]
    return batch.append_column("content_sha256", pa.array(shas, pa.string()))


def split_document(doc_key: str, sentences: list[list[str]], max_tokens: int = MAX_TOKENS_PER_DOC):
    """P3 greedy splitter (document.py:184-236): pack sentences into chunks of
    ≤ max_tokens; a single over-long sentence is an error (here: truncated to
    max_tokens rather than raising, so one bad row can't kill a batch —
    poison-pill policy per SURVEY §4)."""
    chunks: list[list[list[str]]] = []
    cur: list[list[str]] = []
    cur_tokens = 0
    for sent in sentences:
        if len(sent) > max_tokens:
            sent = sent[:max_tokens]
        if cur and cur_tokens + len(sent) > max_tokens:
            chunks.append(cur)
            cur, cur_tokens = [], 0
        cur.append(sent)
        cur_tokens += len(sent)
    if cur:
        chunks.append(cur)
    if len(chunks) == 1:
        return [(doc_key, chunks[0])]
    return [(f"{doc_key}_SPLIT_{i}", c) for i, c in enumerate(chunks)]
