"""SRL/OpenIE baseline extractor (M11) and the eval-metric sweep driver
(reference eval_metric.py:60-209, eval_utils.py:39-46, 55-172).

The reference's baseline rows come from AllenNLP SRL/OpenIE predictors
(eval_utils.py:39-46) whose frames are mapped to {MECHANISM, EFFECT} via the
~90-stem `srlmap` (eval_utils.py:55-145) — the map itself is pure data and is
reproduced here; the neural predicate/argument tagger is NOT available in
this container, so the frame extraction is a deterministic positional
stand-in (documented like the F4/M10 stand-ins): any token containing a
srlmap stem is a predicate, ARG0 = the tokens before it, ARG1 = the tokens
after it (trailing sentence punctuation stripped), first-stem-in-map-order
wins (mirroring `triggermatch[0][1]` at eval_utils.py:158-170).

`eval_sweep` is the match-metric x collapse x topK grid of
eval_metric.py:102-209: each model's triples are scored against gold with
the J3 greedy matcher under each span metric, plus precision@K on the
confidence ranking, emitted as one stats row per combination (the
`stats.tsv` table shape at eval_metric.py:195-200).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray.data

# Verb-stem -> relation label (reference eval_utils.py:55-145, verbatim data;
# later duplicate keys overwrite earlier ones exactly as the Python dict
# literal in the reference resolves them).
SRLMAP: dict[str, str] = {
    "treat": "MECHANISM", "effect": "EFFECT", "affect": "EFFECT",
    "caus": "EFFECT", "interact": "EFFECT", "us": "MECHANISM",
    "administ": "MECHANISM", "diagnos": "MECHANISM", "stimulat": "EFFECT",
    "inhibit": "EFFECT", "prevent": "MECHANISM", "augment": "MECHANISM",
    "accompan": "EFFECT", "act": "MECHANISM", "activate": "MECHANISM",
    "alter": "MECHANISM", "associat": "EFFECT", "bind": "MECHANISM",
    "abolish": "EFFECT", "abrogate": "MECHANISM", "block": "MECHANISM",
    "carry": "MECHANISM", "catalys": "MECHANISM", "clon": "MECHANISM",
    "begin": "MECHANISM", "confer": "EFFECT", "contain": "MECHANISM",
    "conserve": "MECHANISM", "control": "MECHANISM", "cultu": "MECHANISM",
    "decreas": "MECHANISM", "delet": "MECHANISM", "depend": "MECHANISM",
    "deriv": "MECHANISM", "develop": "MECHANISM", "differentiat": "MECHANISM",
    "disrupt": "MECHANISM", "regulat": "MECHANISM", "eliminat": "MECHANISM",
    "encod": "MECHANISM", "enhanc": "MECHANISM", "exert": "MECHANISM",
    "express": "EFFECT", "function": "MECHANISM", "generat": "MECHANISM",
    "includ": "MECHANISM", "increas": "MECHANISM", "induc": "EFFECT",
    "influenc": "EFFECT", "initiat": "MECHANISM", "interfer": "EFFECT",
    "involv": "EFFECT", "isolat": "MECHANISM", "lack": "EFFECT",
    "lead": "EFFECT", "link": "EFFECT", "lose": "EFFECT",
    "mediat": "EFFECT", "modify": "MECHANISM", "modulat": "EFFECT",
    "mutat": "MECHANISM", "participat": "MECHANISM",
    "phosphrylat": "MECHANISM", "play": "EFFECT", "produc": "MECHANISM",
    "proliferat": "EFFECT", "promot": "MECHANISM", "purif": "MECHANISM",
    "recogniz": "MECHANISM", "reduc": "MECHANISM", "repress": "MECHANISM",
    "requir": "MECHANISM", "result": "EFFECT", "reveal": "EFFECT",
    "signal": "EFFECT", "skip": "MECHANISM", "splic": "MECHANISM",
    "suppress": "MECHANISM", "target": "MECHANISM",
    "transactivat": "MECHANISM", "transcrib": "MECHANISM",
    "transfect": "MECHANISM", "transform": "MECHANISM", "trigger": "EFFECT",
    "truncat": "MECHANISM",
}

_PUNCT_TAIL = {".", "!", "?", ",", ";"}


def srl_sentence_relations(tokens: list[str]) -> list[dict]:
    """Deterministic frame stand-in for one sentence: every token containing
    a srlmap stem is a predicate; ARG0/ARG1 are the flanking token spans.
    One relation per predicate token (the reference emits one per SRL verb
    frame)."""
    out = []
    clean = [t for t in tokens if t not in _PUNCT_TAIL]
    for i, tok in enumerate(clean):
        low = tok.lower()
        label = None
        for stem, lab in SRLMAP.items():  # first match in map order wins
            if stem in low:
                label = lab
                break
        if label is None:
            continue
        arg0 = " ".join(clean[:i]).strip()
        arg1 = " ".join(clean[i + 1 :]).strip()
        if arg0 and arg1:
            out.append({"arg0": arg0, "arg1": arg1, "rel": label,
                        "verb": tok, "conf": 1.0})
    return out


def srl_baseline(documents: "ray.data.Dataset") -> "ray.data.Dataset":
    """M11 — baseline relation rows over prepped document rows
    (doc_key, sentences): one row per extracted frame, columns
    (doc_id, arg0, arg1, rel, conf) like `allenlp_base_relations`'s
    non-collapse output (eval_utils.py:163-171)."""

    def extract(batch: pa.Table) -> pa.Table:
        keys = batch.column("doc_key").to_pylist()
        sents_col = batch.column("sentences").to_pylist()
        out = {"doc_id": [], "arg0": [], "arg1": [], "rel": [], "conf": []}
        for key, sentences in zip(keys, sents_col):
            for sent in sentences:
                for r in srl_sentence_relations(sent):
                    out["doc_id"].append(key)
                    out["arg0"].append(r["arg0"])
                    out["arg1"].append(r["arg1"])
                    out["rel"].append(r["rel"])
                    out["conf"].append(r["conf"])
        return pa.table({
            "doc_id": pa.array(out["doc_id"], pa.string()),
            "arg0": pa.array(out["arg0"], pa.string()),
            "arg1": pa.array(out["arg1"], pa.string()),
            "rel": pa.array(out["rel"], pa.string()),
            "conf": pa.array(out["conf"], pa.float32()),
        })

    return documents.map_batches(extract, batch_format="pyarrow")


# ------------------------------------------------------------------- sweep


def _shape(ds: "ray.data.Dataset", collapse: bool) -> "ray.data.Dataset":
    """Project to (doc_id, arg0, arg1, rel); collapse blanks the label so the
    matcher ignores it (eval_metric.py's collapse mode)."""

    def fn(t: pa.Table) -> pa.Table:
        rel = (pa.array([""] * t.num_rows, pa.string()) if collapse
               else t.column("rel"))
        return pa.table({"doc_id": t.column("doc_id"), "arg0": t.column("arg0"),
                         "arg1": t.column("arg1"), "rel": rel})

    return ds.map_batches(fn, batch_format="pyarrow")


def eval_sweep(gold: "ray.data.Dataset",
               models: dict[str, "ray.data.Dataset"],
               metrics=("exact", "substring", "jaccard"),
               collapse_modes=(False, True),
               jaccard_thresh: float = 0.5,
               topks=(50, 100, 150, 200)) -> pd.DataFrame:
    """The composed sweep: for every (model, match_metric, collapse) cell run
    the corpus-level greedy P/R/F1 (J3/A2), plus P@K over the confidence
    ranking for non-collapse cells; one stats row per cell
    (eval_metric.py:186-200). Inputs must have columns
    (doc_id, arg0, arg1, rel, conf).

    The per-cell work streams (partial counters inside map_batches /
    map_groups); only the tiny stats rows reach the driver."""
    from .evaluate import compute_f1, doc_match_counts, relation_matching

    keys = [f"matched_{m}_{int(c)}" for m in metrics for c in collapse_modes]

    def match_doc(gs: list[dict], ps: list[dict]) -> dict:
        """The greedy matcher once per (metric, collapse) cell on one doc:
        ONE shuffle serves the whole grid, and the expensive upstream
        gold/pred pipelines execute once per model instead of once per
        collapse mode."""
        counts = {}
        for collapse in collapse_modes:
            gv, pv = gs, ps
            if collapse:
                # blank the label (eval_metric.py's collapse mode); re-sort
                # so the greedy order matches the shaped two-pass pipeline
                gv, pv = (sorted(({**r, "rel": ""} for r in rows_),
                                 key=lambda r: (r["arg0"], r["arg1"]))
                          for rows_ in (gs, ps))
            for m in metrics:
                counts[f"matched_{m}_{int(collapse)}"] = relation_matching(
                    gv, pv, metric=m, threshold=jaccard_thresh)
        return counts

    rows = []
    for name, pred in models.items():
        counts = doc_match_counts(_shape(gold, False), _shape(pred, False),
                                  keys, match_doc)
        for collapse in collapse_modes:
            for metric in metrics:
                prec, rec, f1 = compute_f1(
                    counts["n_pred"], counts["n_gold"],
                    counts[f"matched_{metric}_{int(collapse)}"])
                row = {
                    "model": name, "match_metric": metric,
                    "collapse": collapse, "threshold": jaccard_thresh,
                    "precision": round(prec, 6),
                    "recall": round(rec, 6),
                    "f1": round(f1, 6),
                }
                for k in topks:
                    row[f"p_at_{k}"] = None
                rows.append(row)
        # P@K on the exact normalized ranking (non-collapse, one per model:
        # eval_metric.py:155-162 computes it per topK outside the metric
        # loop). Ties broken on the full row so the ranking is deterministic
        # even when every conf is identical (the SRL baseline emits 1.0).
        gold_set_ds = gold
        K = max(topks)
        sort_cols = ["conf", "doc_id", "arg0", "arg1", "rel"]

        def prune(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            sub = pa.table({
                "conf": pc.cast(t.column("conf"), pa.float64()),
                "doc_id": t.column("doc_id"), "arg0": t.column("arg0"),
                "arg1": t.column("arg1"), "rel": t.column("rel"),
            })
            if sub.num_rows > K:
                idx = pc.select_k_unstable(
                    sub, k=K,
                    sort_keys=[("conf", "descending")] +
                              [(c, "ascending") for c in sort_cols[1:]],
                )
                sub = sub.take(idx)
            return sub

        ranked = (
            pred.map_batches(prune, batch_format="pyarrow")
            .sort(sort_cols, descending=[True, False, False, False, False])
            .limit(K)
            .to_pandas()
        )
        gold_keys = set()
        for t in gold_set_ds.map_batches(
            lambda t: pa.table({
                "k": pa.compute.binary_join_element_wise(
                    t.column("doc_id"), t.column("arg0"), t.column("arg1"),
                    t.column("rel"), "\x1f")
            }),
            batch_format="pyarrow",
        ).iter_batches(batch_format="pyarrow"):
            gold_keys.update(t.column("k").to_pylist())
        hits = [
            "\x1f".join((d, a0, a1, r)) in gold_keys
            for d, a0, a1, r in zip(ranked["doc_id"], ranked["arg0"],
                                    ranked["arg1"], ranked["rel"])
        ]
        for row in rows:
            if row["model"] == name and not row["collapse"]:
                for k in topks:
                    top = hits[:k]
                    row[f"p_at_{k}"] = round(sum(top) / max(1, len(top)), 6)
    return pd.DataFrame(rows)
