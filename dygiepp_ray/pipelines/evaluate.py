"""Evaluation harness (SURVEY.md §2.4 J1/J3, §2.5 A2-A7).

- `join_gold_pred`: gold⋈pred on doc_key with 1:1 assertion
  (data_structures.py:26-42 positional zip → here a real key join via
  per-doc-key map_groups).
- `micro_f1_*`: TP/FP/FN counters computed PARTIALLY inside map_batches and
  summed globally (ner_metrics.py:22-57, relation_metrics.py:19-37,
  f1.py:13-17) — the partial+final pattern, no driver-side loops.
- `relation_matching`: per-doc cross-product pred×gold matching under a
  pluggable span metric with greedy seen-set dedup (eval_utils.py:283-335).
- `transitive_closure`: per-doc fixpoint (a→b, b→c ⇒ a→c, conf product)
  (eval_utils.py:466-496) via groupby(doc).map_groups — bounded per doc.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray.data
from ray.data.aggregate import Sum

from ..functions.strings import (
    exact_match,
    head_match,
    jaccard,
    partial_span_score,
    rouge_l_f,
    substring_match,
)


def compute_f1(n_pred: int, n_gold: int, n_matched: int) -> tuple[float, float, float]:
    """f1.py:13-17."""
    precision = n_matched / n_pred if n_pred else 0.0
    recall = n_matched / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


# ---------------------------------------------------------------- micro F1


def _count_ner_batch(batch: pa.Table) -> pa.Table:
    """Per-batch partial TP/FP/FN for NER: exact (span, label) match
    (ner_metrics.py:22-57), nulls excluded by construction."""
    gold_col = batch.column("ner").to_pylist()
    pred_col = batch.column("predicted_ner").to_pylist()
    tp = fp = fn = 0
    for gold_doc, pred_doc in zip(gold_col, pred_col):
        for gold_sent, pred_sent in zip(gold_doc or [], pred_doc or []):
            gold_set = {(m["start"], m["end"], m["label"]) for m in gold_sent}
            pred_set = {(m["start"], m["end"], m["label"]) for m in pred_sent}
            tp += len(gold_set & pred_set)
            fp += len(pred_set - gold_set)
            fn += len(gold_set - pred_set)
    return pa.table({"tp": [tp], "fp": [fp], "fn": [fn]})


def _count_rel_batch(batch: pa.Table) -> pa.Table:
    """Partial counts for relations: exact span-pair + label
    (relation_metrics.py:19-37)."""
    gold_col = batch.column("relations").to_pylist()
    pred_col = batch.column("predicted_relations").to_pylist()
    tp = fp = fn = 0
    for gold_doc, pred_doc in zip(gold_col, pred_col):
        for gold_sent, pred_sent in zip(gold_doc or [], pred_doc or []):
            gold_set = {(r["s1"], r["e1"], r["s2"], r["e2"], r["label"]) for r in gold_sent}
            pred_set = {(r["s1"], r["e1"], r["s2"], r["e2"], r["label"]) for r in pred_sent}
            tp += len(gold_set & pred_set)
            fp += len(pred_set - gold_set)
            fn += len(gold_set - pred_set)
    return pa.table({"tp": [tp], "fp": [fp], "fn": [fn]})


def micro_f1(ds: "ray.data.Dataset", task: str = "ner") -> dict:
    """Global micro P/R/F1 from partial batch counters + one tiny reduce."""
    counter = {"ner": _count_ner_batch, "relations": _count_rel_batch}[task]
    sums = (
        ds.map_batches(counter, batch_format="pyarrow")
        .aggregate(Sum("tp", alias_name="tp"), Sum("fp", alias_name="fp"),
                   Sum("fn", alias_name="fn"))
    )
    tp, fp, fn = sums["tp"] or 0, sums["fp"] or 0, sums["fn"] or 0
    p, r, f1 = compute_f1(tp + fp, tp + fn, tp)
    return {"precision": p, "recall": r, "f1": f1, "tp": tp, "fp": fp, "fn": fn}


# ----------------------------------------------------------- gold ⋈ pred


def join_gold_pred(gold: "ray.data.Dataset", pred: "ray.data.Dataset",
                   pred_cols: list[str]) -> "ray.data.Dataset":
    """J1 — hash join on doc_key; asserts 1:1 multiplicity per key
    (data_structures.py:26-42's zip+assert). Delegates to the bucketed
    `zip_join_assert`, so each shuffle group is a bucket of keys merged
    vectorized — not one pandas frame per document."""
    from ..joins import zip_join_assert

    return zip_join_assert(gold, pred, "doc_key", pred_cols)


# ------------------------------------------------------ pred×gold matching


def span_match(a: str, b: str, metric: str = "exact", threshold: float = 0.5) -> bool:
    """F6 dispatcher over F1-F3 (eval_utils.py:236-262; head/rouge need
    models that aren't in this container and are gated out)."""
    if metric == "exact":
        return exact_match(a, b)
    if metric == "substring":
        return substring_match(a, b)
    if metric == "jaccard":
        return jaccard(a, b) >= threshold
    if metric == "partial":
        # F10 — partial_match_score threshold 0.3 (eval_metrics.py:59-76)
        return partial_span_score(a, b) >= 0.3
    if metric == "head":
        # F4 — rule-based head (reference: spaCy ROOT, eval_utils.py:220-226)
        return head_match(a, b)
    if metric == "rouge":
        # F5 — ROUGE-L F vs threshold (eval_utils.py:227-231)
        return rouge_l_f(a, b) >= threshold
    raise ValueError(f"unknown metric {metric!r}")


def relation_matching(gold_rows: list[dict], pred_rows: list[dict], metric: str = "exact",
                      threshold: float = 0.5, match_reversed: bool = True) -> int:
    """J3 per-doc matcher (eval_utils.py:283-335): cross-product, a pair
    matches if both args match under the metric and labels agree; optional
    reversed-direction; greedy dedup via seen-sets. Returns matched count."""
    seen_gold: set[int] = set()
    seen_pred: set[int] = set()
    matched = 0
    for gi, g in enumerate(gold_rows):
        for pi, p in enumerate(pred_rows):
            if gi in seen_gold or pi in seen_pred:
                continue
            if g.get("rel") != p.get("rel"):
                continue
            fwd = span_match(g["arg0"], p["arg0"], metric, threshold) and span_match(
                g["arg1"], p["arg1"], metric, threshold
            )
            rev = match_reversed and span_match(g["arg0"], p["arg1"], metric, threshold) and span_match(
                g["arg1"], p["arg0"], metric, threshold
            )
            if fwd or rev:
                matched += 1
                seen_gold.add(gi)
                seen_pred.add(pi)
    return matched


def doc_match_counts(gold: "ray.data.Dataset", pred: "ray.data.Dataset",
                     keys: list[str], match_doc, n_buckets: int = 64) -> dict:
    """Corpus totals of per-document match counters of gold vs predicted
    (doc_id, arg0, arg1, rel) rows: {n_gold, n_pred, *keys}.

    ONE `joins._cogroup` over coarse doc_id buckets (`n_buckets` groups, not
    one Ray group per document, which is millions of tiny frames at corpus
    scale). Inside each bucket, `match_doc(gs, ps) -> {key: count}` runs once
    per doc_id on that doc's gold and predicted record lists, each sorted by
    (arg0, arg1, rel) so the greedy matcher sees a deterministic order
    regardless of block arrival order (greedy outcomes are order-dependent
    when fwd/rev matches overlap). Counters are summed partial+final."""
    from ..joins import _bucketed, _cogroup

    cols = ["doc_id", "arg0", "arg1", "rel"]
    order = ["arg0", "arg1", "rel"]

    def records(df: pd.DataFrame | None) -> list[dict]:
        return [] if df is None else df.sort_values(order).to_dict("records")

    def per_bucket(gdf: pd.DataFrame, pdf: pd.DataFrame) -> pd.DataFrame:
        acc = dict.fromkeys(["n_gold", "n_pred", *keys], 0)
        golds = dict(tuple(gdf.groupby("doc_id", sort=False)))
        preds = dict(tuple(pdf.groupby("doc_id", sort=False)))
        for doc in golds.keys() | preds.keys():
            gs, ps = records(golds.get(doc)), records(preds.get(doc))
            acc["n_gold"] += len(gs)
            acc["n_pred"] += len(ps)
            for k, v in match_doc(gs, ps).items():
                acc[k] += v
        return pd.DataFrame([acc])

    counts = _cogroup(_bucketed(gold, cols, "doc_id", n_buckets), cols, {},
                      _bucketed(pred, cols, "doc_id", n_buckets), cols, {},
                      per_bucket)
    sums = counts.aggregate(*[Sum(k, alias_name=k)
                              for k in ["n_gold", "n_pred", *keys]])
    return {k: (v or 0) for k, v in sums.items()}


def triple_prf(gold: "ray.data.Dataset", pred: "ray.data.Dataset",
               metric: str = "exact", n_buckets: int = 64) -> dict:
    """Corpus-level P/R/F1 of predicted triples vs gold triples, joined per
    doc_id, matched with J3 semantics, counters partial+final
    (`doc_match_counts`)."""
    counts = doc_match_counts(
        gold, pred, ["n_matched"],
        lambda gs, ps: {"n_matched": relation_matching(gs, ps, metric=metric)},
        n_buckets)
    n_gold, n_pred, n_matched = (counts[k] for k in ("n_gold", "n_pred", "n_matched"))
    prec, rec, f1 = compute_f1(n_pred, n_gold, n_matched)
    return {"precision": prec, "recall": rec, "f1": f1,
            "n_gold": n_gold, "n_pred": n_pred, "n_matched": n_matched}


# ------------------------------------------------------------- event F1 (A4)


def _event_sets(doc_events, variant: str) -> set:
    """A4 — event_metrics.py:33-106. Four variants:
    trig_id    : trigger token index only
    trig_class : (token index, event type)
    arg_id     : (arg span, trigger TYPE)      — trigger offset need NOT match
    arg_class  : (arg span, trigger TYPE, role)  (invariant event_metrics.py:56-58)
    """
    out = set()
    doc_events = [] if doc_events is None else doc_events
    for sent_ix, sent in enumerate(doc_events):
        for ev in sent:
            trig = (sent_ix, ev["trigger_tok"])
            etype = ev["event_type"]
            if variant == "trig_id":
                out.add(trig)
            elif variant == "trig_class":
                out.add((*trig, etype))
            else:
                args = ev.get("args")
                args = [] if args is None else args
                for a in args:
                    key = (sent_ix, a["start"], a["end"], etype)
                    if variant == "arg_id":
                        out.add(key)
                    elif variant == "arg_class":
                        out.add((*key, a["role"]))
    return out


def _count_event_batch(variant: str, gold_col: str = "events",
                       pred_col: str = "predicted_events"):
    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        # pandas batch format: tolerant of nested object columns from
        # upstream map_groups joins
        tp = fp = fn_ = 0
        for g, p in zip(batch[gold_col], batch[pred_col]):
            g = [list(s) for s in g] if g is not None else []
            p = [list(s) for s in p] if p is not None else []
            gs, ps = _event_sets(g, variant), _event_sets(p, variant)
            tp += len(gs & ps)
            fp += len(ps - gs)
            fn_ += len(gs - ps)
        return pd.DataFrame({"tp": [tp], "fp": [fp], "fn": [fn_]})

    return fn


def event_f1(ds: "ray.data.Dataset", variant: str = "trig_class",
             gold_col: str = "events", pred_col: str = "predicted_events") -> dict:
    """A4 — micro P/R/F1 for one of the four event-match variants."""
    assert variant in ("trig_id", "trig_class", "arg_id", "arg_class")
    sums = ds.map_batches(_count_event_batch(variant, gold_col, pred_col),
                          batch_format="pandas").aggregate(
        Sum("tp", alias_name="tp"), Sum("fp", alias_name="fp"), Sum("fn", alias_name="fn")
    )
    tp, fp, fn_ = sums["tp"] or 0, sums["fp"] or 0, sums["fn"] or 0
    p, r, f1 = compute_f1(tp + fp, tp + fn_, tp)
    return {"variant": variant, "precision": p, "recall": r, "f1": f1,
            "tp": tp, "fp": fp, "fn": fn_}


# ------------------------------------------------------- transitive closure


def closure_rows(rows: list[dict]) -> list[dict]:
    """A7 per-doc fixpoint (eval_utils.py:466-496): while new, add (a→c) for
    (a→b),(b→c) with conf product; label from the FIRST hop; dedup on
    (arg0, arg1)."""
    edges = {(r["arg0"], r["arg1"]): dict(r) for r in rows}
    changed = True
    while changed:
        changed = False
        current = list(edges.values())
        by_src: dict[str, list[dict]] = {}
        for e in current:
            by_src.setdefault(e["arg0"], []).append(e)
        for e in current:
            for nxt in by_src.get(e["arg1"], []):
                key = (e["arg0"], nxt["arg1"])
                if e["arg0"] != nxt["arg1"] and key not in edges:
                    new = dict(e)
                    new["arg1"] = nxt["arg1"]
                    new["conf"] = round(float(e["conf"]) * float(nxt["conf"]), 6)
                    edges[key] = new
                    changed = True
    return list(edges.values())


def transitive_closure(triples: "ray.data.Dataset") -> "ray.data.Dataset":
    """groupby(doc_id) → per-doc closure; no global iteration."""

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        # deterministic worklist: base-edge overwrite on duplicate (arg0,
        # arg1) pairs and new-edge conf both depend on row order, so sort
        # before building the edge dict (block arrival order is arbitrary)
        df = df.rename(columns={"subj": "arg0", "obj": "arg1", "pred": "rel"})
        df = df.sort_values(["arg0", "arg1", "rel", "conf"])
        rows = df.to_dict("records")
        out = closure_rows(rows)
        res = pd.DataFrame(out)
        return res.rename(columns={"arg0": "subj", "arg1": "obj", "rel": "pred"})

    return triples.groupby("doc_id").map_groups(per_doc, batch_format="pandas")


def calibration_bins(preds: "ray.data.Dataset", gold: "ray.data.Dataset",
                     n_bins: int = 10, scale: int = 10_000,
                     salt_buckets: int = 1,
                     n_buckets: int = 32) -> "ray.data.Dataset":
    """(bin, n_pred, n_correct, prec_scaled) — confidence calibration of an
    extractor: DISTINCT predicted triple instances (doc_id, subj_norm, pred,
    obj_norm, conf) are split into `n_bins` equal-width confidence bins over
    the observed [min, max] range and each bin's precision against the gold
    triple set is reported as the exact scaled integer n_correct * scale //
    n_pred. The reliability-diagram companion to `triple_prf` / `p_at_k`
    (reference sweep semantics eval_utils.py:763-783); a well-calibrated
    extractor's precision rises with the bin index.

    Scale shape: the min/max confidence envelope is ONE tiny global
    aggregate (two scalars broadcast into the binning closure — never the
    rows); bin stamping is a vectorized map; gold membership is ONE
    bucketed LEFT-join marker pass on the four triple columns whose
    bucket_post collapses to per-bin PARTIAL (n, n_correct) pairs, so
    joined rows never leave the task. Bin arithmetic is float64 with the identical expression
    tree on both engines; when the envelope is degenerate (cmax == cmin)
    every row lands in bin 0 by contract."""
    import numpy as np

    from ..aggregates import grouped_count, partial_final_agg
    from ..joins import hash_join
    from ray.data.aggregate import Max, Min

    s_t, i_t = pa.string(), pa.int64()
    tri = ["doc_id", "subj_norm", "pred", "obj_norm"]
    tri_types = dict.fromkeys(tri, s_t)

    p = grouped_count(
        preds.select_columns([*tri, "conf"]), [*tri, "conf"], out_name="_c",
        salt_buckets=salt_buckets,
    ).select_columns([*tri, "conf"]).materialize()

    mm = p.aggregate(Min("conf"), Max("conf"))
    cmin = float(mm["min(conf)"])
    cmax = float(mm["max(conf)"])

    def stamp_bin(t: pa.Table) -> pa.Table:
        conf = t.column("conf").combine_chunks().cast(pa.float64()).to_numpy(
            zero_copy_only=False)
        if cmax == cmin:
            b = np.zeros(len(conf), dtype=np.int64)
        else:
            b = np.minimum(
                n_bins - 1,
                np.floor(((conf - cmin) * float(n_bins)) / (cmax - cmin)
                         ).astype(np.int64))
        return t.select(tri).append_column("bin", pa.array(b, pa.int64()))

    g = grouped_count(
        gold.select_columns(tri), tri, out_name="_c",
        salt_buckets=salt_buckets,
    ).map_batches(
        lambda t: t.select(tri).append_column(
            "_gold", pa.array(np.ones(t.num_rows), pa.float64())),
        batch_format="pyarrow")

    def bin_partials(m: "pd.DataFrame") -> "pd.DataFrame":
        ok = m["_gold"].notna().to_numpy()
        gb = m.groupby("bin", sort=False)
        n = gb.size()
        c = pd.Series(ok, index=m.index).groupby(m["bin"], sort=False).sum()
        return pd.DataFrame({"bin": n.index.to_numpy("int64"),
                             "n_part": n.to_numpy("int64"),
                             "c_part": c.reindex(n.index).to_numpy("int64")})

    marked = hash_join(
        p.map_batches(stamp_bin, batch_format="pyarrow"), g,
        on=tri, how="left", n_buckets=n_buckets,
        left_types={**tri_types, "bin": i_t},
        right_types={**tri_types, "_gold": pa.float64()},
        bucket_post=bin_partials)

    agg = partial_final_agg(marked, ["bin"],
                            [("n_pred", "n_part", "sum"),
                             ("n_correct", "c_part", "sum")])

    def finish(t: pa.Table) -> pa.Table:
        n = t.column("n_pred").to_numpy(zero_copy_only=False).astype(np.int64)
        c = t.column("n_correct").to_numpy(zero_copy_only=False).astype(
            np.int64)
        return pa.table({"bin": t.column("bin"),
                         "n_pred": pa.array(n, pa.int64()),
                         "n_correct": pa.array(c, pa.int64()),
                         "prec_scaled": pa.array((c * scale) // n,
                                                 pa.int64())})

    return agg.map_batches(finish, batch_format="pyarrow")
