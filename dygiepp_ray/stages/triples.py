"""Triple flattening + canonicalization + coref substitution (S5, P12-P14).

documents+predictions → one row per (doc, subj, pred, obj) triple, mirroring
the reference's KB TSV construction:
  - flatten: predict rows → TSV-shaped rows (dygie_pred_to_tsv.py:23-34,
    make_kb.py:175-197)
  - canonicalize: `get_representation_string` per argument (make_kb.py:90-95,
    193-194) → `subj_norm` / `obj_norm` (the groupby/shuffle key)
  - coref substitution: arguments containing a referring word are rewritten to
    their cluster representative (make_kb.py:105-172) — here using the
    document's own predicted_clusters (first mention = representative)
  - relation-label projection (P14): optional keep/rename map
    (dygie_pred_to_tsv.py:28-32, e.g. USED-FOR→MECHANISM)

One flatten (`FlattenTriples.rows_for_doc_flat`) serves both products: the
fused `ExtractToTriples` stage feeds it the kernel's tuple decode directly,
and `FlattenTriples.__call__` (a `map_batches` callable, flat-map shape,
Arrow in / Arrow out) feeds it a documents table's `predicted_*` columns
through `kernel.flat_predictions`.
"""

from __future__ import annotations

import pyarrow as pa

from ..functions.arrow import pylist
from ..functions.strings import canonicalize, contains_reference
from ..schema import TRIPLE_SCHEMA
from .kernel import flat_predictions


def _span_text(sentences: list[list[str]], sent_ix: int, start: int, end: int) -> str:
    return " ".join(sentences[sent_ix][start : end + 1])


class FlattenTriples:
    """documents → triples. `label_map`: optional {src_label: dst_label};
    when given, relations with labels outside the map are DROPPED (P14)."""

    def __init__(self, label_map: dict[str, str] | None = None,
                 use_coref_substitution: bool = True):
        self.label_map = label_map
        self.use_coref = use_coref_substitution
        self._canon_cache: dict[str, str] = {}

    def _canon(self, text: str) -> str:
        # argument surfaces repeat heavily (Zipfian keys): cache per stage instance
        v = self._canon_cache.get(text)
        if v is None:
            v = canonicalize(text)
            if len(self._canon_cache) < 500_000:
                self._canon_cache[text] = v
        return v

    def rows_for_doc_flat(self, out: dict, doc_key: str,
                          sentences: list[list[str]], rel_rows: list[tuple],
                          clusters: list[list[tuple[int, int]]], sha: str,
                          bucket=None) -> None:
        """Append one document's triple rows to the `out` column dict — the
        one flatten, shared by the Arrow `__call__` stage and the fused
        `ExtractToTriples` path. Takes the tuple shape of
        `ExtractionKernel.decode_triples_document` / `flat_predictions`
        (`rel_rows` = (sent_ix, s1, e1, s2, e2, label_ix, conf) tuples,
        `clusters` = (start, end) tuple lists); a referring mention of a
        cluster is rewritten to the cluster's first mention
        (make_kb.py:148-172)."""
        from ..schema import RELATION_LABELS

        rep_of: dict[str, str] = {}
        if self.use_coref and clusters:
            flat = [t for s in sentences for t in s]
            for cluster in clusters:
                if not cluster:
                    continue
                s0, e0 = cluster[0]
                rep = " ".join(flat[s0 : e0 + 1])
                for (ms, me) in cluster[1:]:
                    mention = " ".join(flat[ms : me + 1])
                    if contains_reference(mention):
                        rep_of[mention] = rep
        label_map = self.label_map
        rep_get = rep_of.get
        canon = self._canon
        o_doc, o_sent = out["doc_id"], out["sentence"]
        o_subj, o_obj, o_pred = out["subj"], out["obj"], out["pred"]
        o_sn, o_on = out["subj_norm"], out["obj_norm"]
        o_conf, o_sha, o_bkt = out["conf"], out["content_sha256"], out["bucket"]
        last_ix, sent_text, sent_toks = -1, "", []
        for (sent_ix, s1, e1, s2, e2, lab_ix, conf) in rel_rows:
            label = RELATION_LABELS[lab_ix]
            if label_map is not None:
                label = label_map.get(label)
                if label is None:
                    continue
            if sent_ix != last_ix:
                sent_toks = sentences[sent_ix]
                sent_text = " ".join(sent_toks)
                last_ix = sent_ix
            subj = " ".join(sent_toks[s1 : e1 + 1])
            obj = " ".join(sent_toks[s2 : e2 + 1])
            subj = rep_get(subj, subj)
            obj = rep_get(obj, obj)
            o_doc.append(doc_key)
            o_sent.append(sent_text)
            o_subj.append(subj)
            o_obj.append(obj)
            o_pred.append(label)
            o_sn.append(canon(subj))
            o_on.append(canon(obj))
            o_conf.append(conf)
            o_sha.append(sha)
            o_bkt.append(bucket)

    @staticmethod
    def empty_out() -> dict:
        out = {name: [] for name in TRIPLE_SCHEMA.names}
        out["bucket"] = []
        return out

    @staticmethod
    def to_table(out: dict, has_bucket: bool) -> pa.Table:
        cols = {n: pa.array(out[n], TRIPLE_SCHEMA.field(n).type) for n in TRIPLE_SCHEMA.names}
        if has_bucket:
            cols["bucket"] = pa.array(out["bucket"], pa.int32())
        return pa.table(cols)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_keys = pylist(batch.column("doc_key"))
        sentences_col = pylist(batch.column("sentences"))
        shas = pylist(batch.column("content_sha256"))
        rels_col = pylist(batch.column("predicted_relations"))
        clusters_col = (
            pylist(batch.column("predicted_clusters"))
            if self.use_coref and "predicted_clusters" in batch.column_names
            else [None] * len(doc_keys)
        )

        has_bucket = "bucket" in batch.column_names
        buckets = pylist(batch.column("bucket")) if has_bucket else [None] * len(doc_keys)

        out = self.empty_out()
        for doc_key, sentences, sha, doc_rels, clusters, bucket in zip(
            doc_keys, sentences_col, shas, rels_col, clusters_col, buckets
        ):
            rel_rows, tclusters = flat_predictions(doc_rels, clusters)
            self.rows_for_doc_flat(out, doc_key, sentences, rel_rows,
                                   tclusters, sha, bucket)
        return self.to_table(out, has_bucket)


def flatten_ner_mentions(batch: pa.Table) -> pa.Table:
    """documents → one row per predicted entity mention (for counting /
    linking): (doc_id, mention, mention_norm, label, conf, content_sha256)."""
    doc_keys = pylist(batch.column("doc_key"))
    sentences_col = pylist(batch.column("sentences"))
    shas = pylist(batch.column("content_sha256"))
    ner_col = pylist(batch.column("predicted_ner"))
    out = {"doc_id": [], "mention": [], "mention_norm": [], "label": [], "conf": [],
           "content_sha256": []}
    for doc_key, sentences, sha, doc_ner in zip(doc_keys, sentences_col, shas, ner_col):
        for sent_ix, ner in enumerate(doc_ner):
            for m in ner:
                text = _span_text(sentences, sent_ix, m["start"], m["end"])
                out["doc_id"].append(doc_key)
                out["mention"].append(text)
                out["mention_norm"].append(canonicalize(text))
                out["label"].append(m["label"])
                out["conf"].append(m["softmax_score"])
                out["content_sha256"].append(sha)
    return pa.table(
        {
            "doc_id": pa.array(out["doc_id"], pa.string()),
            "mention": pa.array(out["mention"], pa.string()),
            "mention_norm": pa.array(out["mention_norm"], pa.string()),
            "label": pa.array(out["label"], pa.string()),
            "conf": pa.array(out["conf"], pa.float32()),
            "content_sha256": pa.array(out["content_sha256"], pa.string()),
        }
    )
