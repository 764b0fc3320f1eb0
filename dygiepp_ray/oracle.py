"""Independent pure-python oracles for driver-side value-hash verification.

These re-derive the EXPECTED outputs of the flagship KG queries from the
corpus semantics alone — straight single-threaded scans over the parquet
files, no Ray, no kernel/beam machinery, no batching — and are written to
parquet so the DuckDB oracle can `read_parquet` them (`oracle_sql()` in
`__ray_entry__.py`). This converts the kg_* family from rows-only checks to
full row-count + schema + value-hash checks against an implementation that
shares only the leaf string helpers (tokenize / canonicalize / sha256) with
the engine.

Decode semantics mirrored here (reference file:line cited for parity):
  - span enumeration width <= 8      (template.libsonnet:35)
  - pruner k = ceil(0.5 * n_tokens), ties to lower index, textual re-sort
                                     (relation.py:112-131, entity_beam_pruner.py:168-171)
  - relation = forward pattern pair among pruned lexicon spans
  - trigger beam floor(0.3*n) in [1,15]; argument beam floor(0.8*n) in [1,30]
                                     (events.py:133-152)
  - scores rounded to 4 decimals     (document.py:10-11)
  - canonicalization / coref substitution per make_kb.py:90-172
  - doc splitter <= 500 tokens at sentence boundaries (document.py:184-236)
"""

from __future__ import annotations

import glob
import math
import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .corpus import ENTITY_LEXICON, EVENT_TRIGGERS, RELATION_PATTERNS
from .functions.strings import (
    canonicalize,
    contains_reference,
    sentence_split,
    sha256_hex,
    stable_hash64,
    tokenize,
    word_normalize,
)
from .schema import (
    ARG_BEAM_MAX,
    ARG_BEAM_MIN,
    ARG_BEAM_RATIO,
    ARG_ROLES,
    EVENT_TYPES,
    MAX_SPAN_WIDTH,
    MAX_TOKENS_PER_DOC,
    NER_LABELS,
    RELATION_LABELS,
    TRIGGER_BEAM_MAX,
    TRIGGER_BEAM_MIN,
    TRIGGER_BEAM_RATIO,
    TRIPLE_SCHEMA,
)
from .stages.prep import extract_text


def _jitter(text: str) -> float:
    # deterministic stand-in noise on mention scores (kernel.py:_jitter)
    return (stable_hash64(text) % 1000) / 10000.0


def _softmax_at(raw: float, vec: np.ndarray, idx: int) -> float:
    # softmax over [0 (null), vec...] at position idx+1 — same numpy
    # evaluation order as the engine so the float64 bits agree exactly
    full = np.concatenate([[0.0], vec])
    m = full.max()
    exp = np.exp(full - m)
    return float(exp[idx + 1] / exp.sum())


def _rel_conf(m12: float, lab: int) -> float:
    raw = 6.0 + m12
    vec = np.full(len(RELATION_LABELS), -10.0 + m12)
    vec[lab] = raw
    return round(_softmax_at(raw, vec, lab), 4)


# --------------------------------------------------------------- corpus prep


def corpus_rows(corpus_dir: str):
    """Yield (repo, path, commit, lang, content) over sorted parquet shards."""
    for f in sorted(glob.glob(os.path.join(corpus_dir, "*.parquet"))):
        t = pq.read_table(f)
        yield from zip(*[t.column(c).to_pylist()
                         for c in ("repo", "path", "commit", "lang", "content")])


def prep_documents(corpus_dir: str):
    """Corpus rows -> (doc_key, sentences, sha) after P1-P4 prep + P3 split.
    Independent re-walk of the prep semantics (shares only leaf helpers)."""
    out = []
    for repo, path, commit, lang, content in corpus_rows(corpus_dir):
        sha = sha256_hex(content)
        text = extract_text(content, lang)
        sents = [[word_normalize(t) for t in tokenize(s)] for s in sentence_split(text)]
        sents = [s for s in sents if s]
        if not sents or any(t == "" for s in sents for t in s):
            continue
        key = f"{repo}:{path}@{commit[:8]}"
        total = sum(len(s) for s in sents)
        if total <= MAX_TOKENS_PER_DOC:
            out.append((key, sents, sha))
            continue
        # greedy sentence-boundary splitter, over-long sentences truncated
        chunks, cur, cur_n = [], [], 0
        for s in sents:
            if len(s) > MAX_TOKENS_PER_DOC:
                s = s[:MAX_TOKENS_PER_DOC]
            if cur and cur_n + len(s) > MAX_TOKENS_PER_DOC:
                chunks.append(cur)
                cur, cur_n = [], 0
            cur.append(s)
            cur_n += len(s)
        if cur:
            chunks.append(cur)
        if len(chunks) == 1:
            out.append((key, chunks[0], sha))
        else:
            for i, c in enumerate(chunks):
                out.append((f"{key}_SPLIT_{i}", c, sha))
    return out


# ------------------------------------------------------------------- decode


def find_hits(lower: list[str], lexicon: dict[str, int]) -> list[tuple[int, int, int]]:
    """All lexicon occurrences as (start, end_inclusive, label_idx), in
    (start, end) order — derived by direct width-scan, not the engine's
    first-token index."""
    n = len(lower)
    hits = []
    for s in range(n):
        for w in range(1, MAX_SPAN_WIDTH + 1):
            e = s + w - 1
            if e >= n:
                break
            lab = lexicon.get(" ".join(lower[s : e + 1]))
            if lab is not None:
                hits.append((s, e, lab))
    return hits


def decode_doc(sentences: list[list[str]],
               entity_lexicon: dict[str, str] | None = None,
               relation_patterns: dict[str, str] | None = None,
               event_triggers: dict[str, str] | None = None):
    """Full per-document decode: returns (ner, rels, events, clusters) in the
    engine's JSON shapes. ner/rels/events are per-sentence lists; clusters are
    doc-level {start, end} mention groups (canonical-equality registry)."""
    entity_lexicon = ENTITY_LEXICON if entity_lexicon is None else entity_lexicon
    relation_patterns = RELATION_PATTERNS if relation_patterns is None else relation_patterns
    event_triggers = EVENT_TRIGGERS if event_triggers is None else event_triggers
    lex = {k.lower(): NER_LABELS.index(v) for k, v in entity_lexicon.items()}
    patterns = {k.lower(): RELATION_LABELS.index(v) for k, v in relation_patterns.items()}
    trig_tab = {k.lower(): EVENT_TYPES.index(v) for k, v in event_triggers.items()}
    max_pat = max((len(k.split()) for k in relation_patterns), default=0)

    doc_ner, doc_rel, doc_evt = [], [], []
    registry: dict[str, list[tuple[int, int]]] = {}
    offset = 0
    for sent in sentences:
        n = len(sent)
        lower = [t.lower() for t in sent]
        hits = find_hits(lower, lex)
        mentions = [2.0 + _jitter(" ".join(lower[s : e + 1])) for (s, e, _) in hits]

        def top(beam: int) -> list[int]:
            if len(hits) <= beam:
                return list(range(len(hits)))
            order = sorted(range(len(hits)), key=lambda i: (-mentions[i], i))[:beam]
            return sorted(order)

        ner = [{"start": s, "end": e, "label": NER_LABELS[lab]} for (s, e, lab) in hits]
        kept = top(max(1, math.ceil(0.5 * n)))
        rels = []
        for ai in kept:
            s1, e1, _ = hits[ai]
            for bi in kept:
                if ai == bi:
                    continue
                s2, e2, _ = hits[bi]
                if e1 < s2 and (s2 - e1 - 1) <= max_pat:
                    lab = patterns.get(" ".join(lower[e1 + 1 : s2]))
                    if lab is not None:
                        rels.append({
                            "s1": s1, "e1": e1, "s2": s2, "e2": e2,
                            "label": RELATION_LABELS[lab],
                            "conf": _rel_conf(mentions[ai] + mentions[bi], lab),
                        })
        trig_beam = int(min(TRIGGER_BEAM_MAX, max(TRIGGER_BEAM_MIN,
                                                  math.floor(TRIGGER_BEAM_RATIO * n))))
        arg_beam = int(min(ARG_BEAM_MAX, max(ARG_BEAM_MIN,
                                             math.floor(ARG_BEAM_RATIO * n))))
        triggers = [(i, trig_tab[t]) for i, t in enumerate(lower) if t in trig_tab][:trig_beam]
        arg_hits = top(arg_beam)
        evts = []
        for trig_ix, lab in triggers:
            args = []
            for hi in arg_hits:
                s, e, _ = hits[hi]
                if e < trig_ix:
                    role = ARG_ROLES[0]
                elif s == trig_ix + 1:
                    role = ARG_ROLES[1]
                elif s > trig_ix + 1:
                    role = ARG_ROLES[2]
                else:
                    continue  # overlaps the trigger -> null
                args.append({"start": s, "end": e, "role": role})
            evts.append({"trigger_tok": trig_ix, "event_type": EVENT_TYPES[lab],
                         "args": args})
        doc_ner.append(ner)
        doc_rel.append(rels)
        doc_evt.append(evts)
        for m in ner:  # doc-level canonical registry for coref
            key = canonicalize(" ".join(sent[m["start"] : m["end"] + 1]))
            if key:
                registry.setdefault(key, []).append((offset + m["start"], offset + m["end"]))
        offset += n
    clusters = [v for v in registry.values() if len(v) >= 2]
    return doc_ner, doc_rel, doc_evt, clusters


# ------------------------------------------------------------------ triples


def expected_triples(corpus_dir: str,
                     entity_lexicon: dict[str, str] | None = None,
                     relation_patterns: dict[str, str] | None = None,
                     event_triggers: dict[str, str] | None = None,
                     documents=None) -> pa.Table:
    """Expected kg_triples output (TRIPLE_SCHEMA) for a corpus dir."""
    docs = prep_documents(corpus_dir) if documents is None else documents
    cols = {n: [] for n in TRIPLE_SCHEMA.names}
    for key, sentences, sha in docs:
        _, doc_rel, _, clusters = decode_doc(
            sentences, entity_lexicon, relation_patterns, event_triggers)
        flat = [t for s in sentences for t in s]
        rep_of: dict[str, str] = {}
        for cluster in clusters:
            rep = " ".join(flat[cluster[0][0] : cluster[0][1] + 1])
            for (ms, me) in cluster[1:]:
                mention = " ".join(flat[ms : me + 1])
                if contains_reference(mention):
                    rep_of[mention] = rep
        for sent, rels in zip(sentences, doc_rel):
            sent_text = " ".join(sent)
            for r in rels:
                subj = " ".join(sent[r["s1"] : r["e1"] + 1])
                obj = " ".join(sent[r["s2"] : r["e2"] + 1])
                subj = rep_of.get(subj, subj)
                obj = rep_of.get(obj, obj)
                cols["doc_id"].append(key)
                cols["sentence"].append(sent_text)
                cols["subj"].append(subj)
                cols["obj"].append(obj)
                cols["pred"].append(r["label"])
                cols["subj_norm"].append(canonicalize(subj))
                cols["obj_norm"].append(canonicalize(obj))
                cols["conf"].append(r["conf"])
                cols["content_sha256"].append(sha)
    return pa.table({n: pa.array(cols[n], TRIPLE_SCHEMA.field(n).type)
                     for n in TRIPLE_SCHEMA.names})


def expected_mention_counts(documents,
                            entity_lexicon: dict[str, str]) -> pa.Table:
    """Expected (mention_norm, label, n) counts over prepped documents."""
    lex = {k.lower(): NER_LABELS.index(v) for k, v in entity_lexicon.items()}
    counts: Counter = Counter()
    for _key, sentences, _sha in documents:
        for sent in sentences:
            lower = [t.lower() for t in sent]
            for (s, e, lab) in find_hits(lower, lex):
                mention = " ".join(sent[s : e + 1])
                counts[(canonicalize(mention), NER_LABELS[lab])] += 1
    keys = sorted(counts)
    return pa.table({
        "mention_norm": pa.array([k[0] for k in keys], pa.string()),
        "label": pa.array([k[1] for k in keys], pa.string()),
        "n": pa.array([counts[k] for k in keys], pa.int64()),
    })


def expected_entity_link_counts(documents, entity_lexicon: dict[str, str],
                                alias_entities: dict[str, list[str]],
                                min_score: float = 0.5) -> pa.Table:
    """Expected (entity_id, n) counts: every mention linked by the alias
    rules (exact -> canonical -> token-Jaccard >= min_score, ties by id)."""
    lex = {k.lower(): NER_LABELS.index(v) for k, v in entity_lexicon.items()}
    exact: dict[str, str] = {}
    canon: dict[str, str] = {}
    for eid in sorted(alias_entities):
        for alias in alias_entities[eid]:
            exact.setdefault(alias.lower(), eid)
            canon.setdefault(canonicalize(alias), eid)

    def link(mention: str):
        m = mention.lower()
        if m in exact:
            return exact[m]
        c = canonicalize(mention)
        if c in canon:
            return canon[c]
        best_id, best = None, 0.0
        toks_m = set(m.split())
        for eid in sorted(alias_entities):
            for alias in alias_entities[eid]:
                ta = set(alias.lower().split())
                if not toks_m and not ta:
                    continue
                j = len(toks_m & ta) / len(toks_m | ta)
                if j > best:
                    best_id, best = eid, j
        return best_id if best >= min_score else None

    counts: Counter = Counter()
    cache: dict[str, str | None] = {}
    for _key, sentences, _sha in documents:
        for sent in sentences:
            lower = [t.lower() for t in sent]
            for (s, e, _lab) in find_hits(lower, lex):
                mention = " ".join(sent[s : e + 1])
                if mention not in cache:
                    cache[mention] = link(mention)
                counts[cache[mention]] += 1
    keys = sorted(counts, key=lambda k: (k is None, k))
    return pa.table({
        "entity_id": pa.array([k for k in keys], pa.string()),
        "n": pa.array([counts[k] for k in keys], pa.int64()),
    })


def expected_closure(triples: pa.Table) -> pa.Table:
    """Expected transitive-closure output over the expected triples: per-doc
    fixpoint on rows sorted by (subj, obj, pred, conf) — the engine sorts
    each group identically before the worklist, so both sides are
    deterministic. Reuses the pure `closure_rows` worklist function."""
    from .pipelines.evaluate import closure_rows

    by_doc: dict[str, list[dict]] = {}
    for d, s, o, p, c in zip(triples.column("doc_id").to_pylist(),
                             triples.column("subj").to_pylist(),
                             triples.column("obj").to_pylist(),
                             triples.column("pred").to_pylist(),
                             triples.column("conf").to_pylist()):
        by_doc.setdefault(d, []).append(
            {"doc_id": d, "arg0": s, "arg1": o, "rel": p, "conf": np.float32(c)})
    cols = {"doc_id": [], "subj": [], "obj": [], "pred": [], "conf": []}
    for d in by_doc:
        rows = sorted(by_doc[d], key=lambda r: (r["arg0"], r["arg1"], r["rel"],
                                                float(r["conf"])))
        for r in closure_rows(rows):
            cols["doc_id"].append(r["doc_id"])
            cols["subj"].append(r["arg0"])
            cols["obj"].append(r["arg1"])
            cols["pred"].append(r["rel"])
            cols["conf"].append(float(r["conf"]))
    return pa.table({
        "doc_id": pa.array(cols["doc_id"], pa.string()),
        "subj": pa.array(cols["subj"], pa.string()),
        "obj": pa.array(cols["obj"], pa.string()),
        "pred": pa.array(cols["pred"], pa.string()),
        "conf": pa.array(cols["conf"], pa.float64()),
    })


# ----------------------------------------------------- documents-table prep


def _prep_one(key: str, lang: str, content: str):
    """One corpus row -> [(doc_key, sentences)] after P1-P3 (no sha here)."""
    text = extract_text(content, lang)
    sents = [[word_normalize(t) for t in tokenize(s)] for s in sentence_split(text)]
    sents = [s for s in sents if s]
    if not sents or any(t == "" for s in sents for t in s):
        return []
    total = sum(len(s) for s in sents)
    if total <= MAX_TOKENS_PER_DOC:
        return [(key, sents)]
    chunks, cur, cur_n = [], [], 0
    for s in sents:
        if len(s) > MAX_TOKENS_PER_DOC:
            s = s[:MAX_TOKENS_PER_DOC]
        if cur and cur_n + len(s) > MAX_TOKENS_PER_DOC:
            chunks.append(cur)
            cur, cur_n = [], 0
        cur.append(s)
        cur_n += len(s)
    if cur:
        chunks.append(cur)
    if len(chunks) == 1:
        return [(key, chunks[0])]
    return [(f"{key}_SPLIT_{i}", c) for i, c in enumerate(chunks)]


def prep_documents_from_docs_table(sf_dir: str, max_doc_id: int | None = None):
    """The docs_adapter twin: documents.parquet -> corpus rows -> prepped
    (doc_key, sentences, sha) list. Optional doc_id cutoff for the
    deterministic-subset queries."""
    import hashlib

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text", "source"])
    out = []
    for doc_id, text, source in zip(t.column("doc_id").to_pylist(),
                                    t.column("text").to_pylist(),
                                    t.column("source").to_pylist()):
        if max_doc_id is not None and doc_id >= max_doc_id:
            continue
        content = text if text.endswith(".") else text + " ."
        commit = hashlib.sha1(f"{doc_id}:{text}".encode()).hexdigest()
        key = f"docs/{source}:doc_{doc_id}.md@{commit[:8]}"
        sha = sha256_hex(content)
        for k, sents in _prep_one(key, "markdown", content):
            out.append((k, sents, sha))
    return out


# -------------------------------------------------- eval-family recomputes


def _exact(a: str, b: str) -> bool:
    return a.strip().lower() == b.strip().lower()


def expected_triple_prf(gold: pa.Table, pred: pa.Table) -> dict:
    """Greedy exact-match P/R/F1 twin of triple_prf: per-doc cross product
    with fwd/rev arg matching and seen-set dedup over rows sorted by
    (arg0, arg1, rel) — the same deterministic order the engine imposes."""
    def rows_by_doc(t: pa.Table):
        by: dict[str, list[tuple[str, str, str]]] = {}
        for d, a0, a1, r in zip(t.column("doc_id").to_pylist(),
                                t.column("subj").to_pylist(),
                                t.column("obj").to_pylist(),
                                t.column("pred").to_pylist()):
            by.setdefault(d, []).append((a0, a1, r))
        for d in by:
            by[d].sort()
        return by

    g_by, p_by = rows_by_doc(gold), rows_by_doc(pred)
    n_gold = sum(len(v) for v in g_by.values())
    n_pred = sum(len(v) for v in p_by.values())
    n_matched = 0
    for d, gs in g_by.items():
        ps = p_by.get(d, [])
        seen_g: set[int] = set()
        seen_p: set[int] = set()
        for gi, (ga0, ga1, gr) in enumerate(gs):
            for pi, (pa0, pa1, pr) in enumerate(ps):
                if gi in seen_g or pi in seen_p or gr != pr:
                    continue
                fwd = _exact(ga0, pa0) and _exact(ga1, pa1)
                rev = _exact(ga0, pa1) and _exact(ga1, pa0)
                if fwd or rev:
                    n_matched += 1
                    seen_g.add(gi)
                    seen_p.add(pi)
    precision = n_matched / n_pred if n_pred else 0.0
    recall = n_matched / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {"precision": round(precision, 6), "recall": round(recall, 6),
            "f1": round(f1, 6), "n_gold": n_gold, "n_pred": n_pred,
            "n_matched": n_matched}


def expected_p_at_k(gold: pa.Table, pred: pa.Table,
                    ks=(50, 100, 150, 200)) -> pa.Table:
    """Precision@K of pred triples ranked by (conf desc, doc_id, subj_norm,
    obj_norm, pred asc) against the gold normalized-triple set."""
    gold_set = set(zip(gold.column("doc_id").to_pylist(),
                       gold.column("subj_norm").to_pylist(),
                       gold.column("pred").to_pylist(),
                       gold.column("obj_norm").to_pylist()))
    rows = list(zip(pred.column("conf").to_pylist(),
                    pred.column("doc_id").to_pylist(),
                    pred.column("subj_norm").to_pylist(),
                    pred.column("obj_norm").to_pylist(),
                    pred.column("pred").to_pylist()))
    rows.sort(key=lambda r: (-r[0], r[1], r[2], r[3], r[4]))
    out_k, out_p = [], []
    for k in ks:
        top = rows[:k]
        hits = sum((d, sn, p, on) in gold_set for (_c, d, sn, on, p) in top)
        out_k.append(k)
        out_p.append(round(hits / max(1, len(top)), 6))
    return pa.table({"k": pa.array(out_k, pa.int64()),
                     "precision_at_k": pa.array(out_p, pa.float64())})


def _event_sets(doc_events, variant: str) -> set:
    out = set()
    for sent_ix, sent in enumerate(doc_events):
        for ev in sent:
            if variant == "trig_id":
                out.add((sent_ix, ev["trigger_tok"]))
            elif variant == "trig_class":
                out.add((sent_ix, ev["trigger_tok"], ev["event_type"]))
            else:
                for a in ev["args"]:
                    key = (sent_ix, a["start"], a["end"], ev["event_type"])
                    out.add(key if variant == "arg_id" else (*key, a["role"]))
    return out


def expected_event_f1(documents, full_triggers: dict[str, str],
                      reduced_triggers: dict[str, str]) -> pa.Table:
    """Four-variant event P/R/F1 of a reduced-trigger decode vs the full
    decode over the same prepped documents."""
    per_doc = []
    for _key, sentences, _sha in documents:
        evts_full = decode_doc(sentences, event_triggers=full_triggers)[2]
        evts_red = decode_doc(sentences, event_triggers=reduced_triggers)[2]
        per_doc.append((evts_full, evts_red))
    rows = {"variant": [], "precision": [], "recall": [], "f1": []}
    for variant in ("trig_id", "trig_class", "arg_id", "arg_class"):
        tp = fp = fn = 0
        for evts_full, evts_red in per_doc:
            gs = _event_sets(evts_full, variant)
            ps = _event_sets(evts_red, variant)
            tp += len(gs & ps)
            fp += len(ps - gs)
            fn += len(gs - ps)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        rows["variant"].append(variant)
        rows["precision"].append(round(p, 6))
        rows["recall"].append(round(r, 6))
        rows["f1"].append(round(f1, 6))
    return pa.table({"variant": pa.array(rows["variant"], pa.string()),
                     "precision": pa.array(rows["precision"], pa.float64()),
                     "recall": pa.array(rows["recall"], pa.float64()),
                     "f1": pa.array(rows["f1"], pa.float64())})


def expected_coref_scores(documents, full_lexicon: dict[str, str],
                          reduced_lexicon: dict[str, str]) -> pa.Table:
    """MUC/B3/CEAF-phi4/CoNLL of the reduced-lexicon decode's clusters vs the
    full decode's, per-doc counters summed. Cluster derivation is this
    module's independent decode; the metric arithmetic reuses the pure
    per-document counter functions (unit-tested math, no Ray plumbing)."""
    from .pipelines.coref_metrics import _doc_counts, finalize

    sums = {k: 0.0 for k in _doc_counts([], [])}
    for _key, sentences, _sha in documents:
        full_cl = decode_doc(sentences, entity_lexicon=full_lexicon)[3]
        red_cl = decode_doc(sentences, entity_lexicon=reduced_lexicon)[3]
        g = [[{"start": s, "end": e} for (s, e) in c] for c in full_cl]
        p = [[{"start": s, "end": e} for (s, e) in c] for c in red_cl]
        for k, v in _doc_counts(g, p).items():
            sums[k] += v
    sc = finalize(sums)
    flat = {"muc_f1": sc["muc"]["f1"], "b3_f1": sc["b3"]["f1"],
            "ceaf_e_f1": sc["ceaf_e"]["f1"], "conll_f1": sc["conll_f1"],
            "mention_recall": sc["mention_recall"]}
    return pa.table({k: pa.array([round(v, 6)], pa.float64()) for k, v in flat.items()})


def expected_pca_project(sf_dir: str, n_components: int = 2,
                         scale: int = 4096, power_iters: int = 64) -> pa.Table:
    """Single-pass scalar recompute of the distributed PCA projection: the
    engine's integer Gram/sum partials are EXACT, so this whole-table numpy
    pass must match bit for bit. The power-iteration solver is re-derived
    here (fixed start, fixed iterations, deflation, sign fix) rather than
    imported."""
    from .functions.strings import round_half_up

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    ids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    m = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
    xs = np.rint(m * scale).astype(np.int64)
    n, d = xs.shape
    G = xs.T @ xs
    S = xs.sum(axis=0)
    C = (G.astype(np.float64) - np.outer(S, S).astype(np.float64) / n) \
        / (float(n) * float(scale) ** 2)
    basis = []
    for _ in range(n_components):
        v = np.full(d, 1.0 / np.sqrt(d))
        for _i in range(power_iters):
            w = C @ v
            nw = np.linalg.norm(w)
            if nw == 0:
                break
            v = w / nw
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        lam = float(v @ C @ v)
        C = C - lam * np.outer(v, v)
        basis.append(v)
    V = np.stack(basis, axis=1)
    mean = S.astype(np.float64) / (float(n) * scale)
    proj = (xs.astype(np.float64) / scale - mean) @ V
    cols = {"vec_id": pa.array(ids, pa.int64())}
    for k in range(n_components):
        cols[f"pc{k + 1}"] = pa.array(round_half_up(proj[:, k], 6),
                                      pa.float64())
    return pa.table(cols)


def expected_kg_build_manifest(corpus_dir: str, n_buckets: int = 16,
                               entity_lexicon: dict | None = None) -> pa.Table:
    """Independent per-bucket lineage expectation for `build_kg`:
    (bucket, row_count, sha256_xor) — bucket from the corpus row's
    (repo, path, commit) via the shared leaf hash `bucket_of`, row_count =
    triples landing in that bucket via this module's own decode, sha
    roll-up = XOR of each triple row's content_sha256 (order-independent,
    exactly what write_manifest persists at state/manifest.py:75). Empty
    buckets appear with count 0 and the zero digest."""
    from .state.manifest import bucket_of

    base_bucket: dict[str, int] = {}
    for repo, path, commit, _lang, _content in corpus_rows(corpus_dir):
        base_bucket[f"{repo}:{path}@{commit[:8]}"] = bucket_of(
            repo, path, commit, n_buckets)
    tri = expected_triples(corpus_dir, entity_lexicon=entity_lexicon)
    rows = {b: 0 for b in range(n_buckets)}
    acc = {b: 0 for b in range(n_buckets)}
    for doc_id, sha in zip(tri.column("doc_id").to_pylist(),
                           tri.column("content_sha256").to_pylist()):
        b = base_bucket[doc_id.split("_SPLIT_")[0]]
        rows[b] += 1
        acc[b] ^= int(sha, 16)
    return pa.table({
        "bucket": pa.array(list(range(n_buckets)), pa.int64()),
        "row_count": pa.array([rows[b] for b in range(n_buckets)], pa.int64()),
        "sha256_xor": pa.array([format(acc[b], "064x")
                                for b in range(n_buckets)], pa.string()),
        "second_written": pa.array([0] * n_buckets, pa.int64()),
        "second_skipped": pa.array([n_buckets] * n_buckets, pa.int64()),
    })


def expected_antecedent_clusters(documents, lexicon: dict[str, str],
                                 coref_prop: int = 2) -> pa.Table:
    """Independent recompute of the ANTECEDENT-mode coref decode plus the
    gated score propagation (kernel coref_mode='antecedent', coref_prop>0;
    reference decode coref.py:213-439, update rule coref.py:142-144): per
    doc (doc_key, n_clusters, n_clustered_mentions, mention_sig) where
    mention_sig hashes every post-propagation (sent_ix, start, end, label)
    NER mention. The scoring/propagation arithmetic below is re-derived
    from the spec, not imported from the kernel."""
    import hashlib

    out = {"doc_key": [], "n_clusters": [], "n_clustered_mentions": [],
           "mention_sig": []}
    for key, sentences, _sha in documents:
        doc_ner = decode_doc(sentences, entity_lexicon=lexicon)[0]
        seq: list[str] = []           # canonical form per mention
        refs: list[tuple[int, dict]] = []
        doc_tokens = 0
        for sent_ix, (sent, ner) in enumerate(zip(sentences, doc_ner)):
            for m in ner:
                seq.append(canonicalize(
                    " ".join(sent[m["start"]: m["end"] + 1])))
                refs.append((sent_ix, m))
            doc_tokens += len(sent)
        n = len(seq)
        kept = list(range(min(n, max(max(2, math.ceil(0.3 * doc_tokens)), 2)))) if n else []
        cap = min(100, len(kept))
        rows: list[list[tuple[int, float]]] = []
        for ip in range(len(kept)):
            r: list[tuple[int, float]] = []
            for jp in range(ip - 1, max(0, ip - cap) - 1, -1):
                ci, cj = seq[kept[ip]], seq[kept[jp]]
                if not ci or not cj:
                    continue
                if ci == cj:
                    sim = 4.0
                else:
                    ti, tj = set(ci.split()), set(cj.split())
                    jac = len(ti & tj) / len(ti | tj) if (ti or tj) else 0.0
                    if jac < 0.5:
                        continue
                    sim = 1.0 * jac
                d = ip - jp
                b = d if d <= 4 else min(9, int(math.floor(math.log2(d))) + 3)
                r.append((jp, sim - 0.1 * b))
            rows.append(r)
        best = []
        for r in rows:
            choice, bs = -1, 0.0
            for jp, s in r:
                if s > bs:
                    choice, bs = jp, s
            best.append(choice)
        cluster_of: dict[int, int] = {}
        clusters: list[list[int]] = []
        for i, ant in enumerate(best):
            if ant < 0:
                continue
            cid = cluster_of.get(ant)
            if cid is None:
                cid = len(clusters)
                clusters.append([ant])
                cluster_of[ant] = cid
            clusters[cid].append(i)
            cluster_of[i] = cid
        if coref_prop > 0 and kept:
            labels_sorted = sorted({refs[i][1]["label"] for i in kept})
            lab_ix = {lab: k for k, lab in enumerate(labels_sorted)}
            nl = len(labels_sorted)
            dist = [[1.0 if lab_ix[refs[i][1]["label"]] == k else 0.0
                     for k in range(nl)] for i in kept]
            for _ in range(coref_prop):
                new = [row[:] for row in dist]
                for i, r in enumerate(rows):
                    if not r:
                        continue
                    scores = [0.0] + [s for _, s in r]
                    mx = max(scores)
                    exps = [math.exp(s - mx) for s in scores]
                    z = sum(exps)
                    p = [e / z for e in exps]
                    a = [p[0] * dist[i][k] for k in range(nl)]
                    for (jp, _), pj in zip(r, p[1:]):
                        for k in range(nl):
                            a[k] += pj * dist[jp][k]
                    new[i] = [0.5 * a[k] + 0.5 * dist[i][k]
                              for k in range(nl)]
                dist = new
            for pos, i in enumerate(kept):
                row = dist[pos]
                bix = 0
                for k in range(1, nl):
                    if row[k] > row[bix]:
                        bix = k
                refs[i][1]["label"] = labels_sorted[bix]
        parts = [f"{si}:{m['start']}:{m['end']}:{m['label']}"
                 for si, m in refs]
        out["doc_key"].append(key)
        out["n_clusters"].append(len(clusters))
        out["n_clustered_mentions"].append(sum(len(c) for c in clusters))
        out["mention_sig"].append(
            hashlib.sha256("|".join(parts).encode()).hexdigest())
    return pa.table({
        "doc_key": pa.array(out["doc_key"], pa.string()),
        "n_clusters": pa.array(out["n_clusters"], pa.int64()),
        "n_clustered_mentions": pa.array(out["n_clustered_mentions"], pa.int64()),
        "mention_sig": pa.array(out["mention_sig"], pa.string()),
    })


def expected_srl_baseline(documents) -> pa.Table:
    """M11 twin: the pure per-sentence frame extractor applied in a plain
    loop over the prepped docs (the Ray map_batches plumbing is what the
    driver check verifies)."""
    from .pipelines.sweep import srl_sentence_relations

    cols = {"doc_id": [], "arg0": [], "arg1": [], "rel": [], "conf": []}
    for key, sentences, _sha in documents:
        for sent in sentences:
            for r in srl_sentence_relations(sent):
                cols["doc_id"].append(key)
                cols["arg0"].append(r["arg0"])
                cols["arg1"].append(r["arg1"])
                cols["rel"].append(r["rel"])
                cols["conf"].append(r["conf"])
    return pa.table({
        "doc_id": pa.array(cols["doc_id"], pa.string()),
        "arg0": pa.array(cols["arg0"], pa.string()),
        "arg1": pa.array(cols["arg1"], pa.string()),
        "rel": pa.array(cols["rel"], pa.string()),
        "conf": pa.array(cols["conf"], pa.float32()),
    })


def _span_match(a: str, b: str, metric: str, thresh: float) -> bool:
    a_, b_ = a.strip().lower(), b.strip().lower()
    if metric == "exact":
        return a_ == b_
    if metric == "substring":
        return a_ in b_ or b_ in a_
    if metric == "jaccard":
        sa, sb = set(a.lower().split()), set(b.lower().split())
        if not sa and not sb:
            return False
        return len(sa & sb) / len(sa | sb) >= thresh
    raise ValueError(metric)


def _greedy_prf(gold_rows: dict, pred_rows: dict, metric: str,
                thresh: float) -> tuple[float, float, float]:
    """Per-doc greedy matcher (fwd/rev, seen-set dedup) over rows sorted by
    (arg0, arg1, rel) — the engine's deterministic order."""
    n_gold = sum(len(v) for v in gold_rows.values())
    n_pred = sum(len(v) for v in pred_rows.values())
    matched = 0
    for d, gs in gold_rows.items():
        ps = pred_rows.get(d, [])
        seen_g: set[int] = set()
        seen_p: set[int] = set()
        for gi, (ga0, ga1, gr) in enumerate(gs):
            for pi, (pa0, pa1, pr) in enumerate(ps):
                if gi in seen_g or pi in seen_p or gr != pr:
                    continue
                fwd = _span_match(ga0, pa0, metric, thresh) and _span_match(
                    ga1, pa1, metric, thresh)
                rev = _span_match(ga0, pa1, metric, thresh) and _span_match(
                    ga1, pa0, metric, thresh)
                if fwd or rev:
                    matched += 1
                    seen_g.add(gi)
                    seen_p.add(pi)
    p = matched / n_pred if n_pred else 0.0
    r = matched / n_gold if n_gold else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def expected_eval_sweep(gold: pa.Table, models: dict[str, pa.Table],
                        metrics=("exact", "substring", "jaccard"),
                        collapse_modes=(False, True), thresh: float = 0.5,
                        topks=(50, 100, 150, 200)) -> pa.Table:
    """Twin of pipelines.sweep.eval_sweep over (doc_id, arg0, arg1, rel,
    conf) tables (gold/model tables come from this module's own
    recomputations)."""

    def rows_by_doc(t: pa.Table, collapse: bool):
        by: dict[str, list] = {}
        for d, a0, a1, r in zip(t.column("doc_id").to_pylist(),
                                t.column("arg0").to_pylist(),
                                t.column("arg1").to_pylist(),
                                t.column("rel").to_pylist()):
            by.setdefault(d, []).append((a0, a1, "" if collapse else r))
        for d in by:
            by[d].sort()
        return by

    out_rows = []
    for name, pred in models.items():
        model_rows = []
        for collapse in collapse_modes:
            g_by = rows_by_doc(gold, collapse)
            p_by = rows_by_doc(pred, collapse)
            for metric in metrics:
                p, r, f = _greedy_prf(g_by, p_by, metric, thresh)
                row = {"model": name, "match_metric": metric,
                       "collapse": collapse, "threshold": thresh,
                       "precision": round(p, 6), "recall": round(r, 6),
                       "f1": round(f, 6)}
                for k in topks:
                    row[f"p_at_{k}"] = None
                model_rows.append(row)
        gold_keys = set(zip(gold.column("doc_id").to_pylist(),
                            gold.column("arg0").to_pylist(),
                            gold.column("arg1").to_pylist(),
                            gold.column("rel").to_pylist()))
        ranked = list(zip(pred.column("conf").to_pylist(),
                          pred.column("doc_id").to_pylist(),
                          pred.column("arg0").to_pylist(),
                          pred.column("arg1").to_pylist(),
                          pred.column("rel").to_pylist()))
        ranked.sort(key=lambda r: (-r[0], r[1], r[2], r[3], r[4]))
        hits = [(d, a0, a1, r) in gold_keys for (_c, d, a0, a1, r) in ranked]
        for row in model_rows:
            if not row["collapse"]:
                for k in topks:
                    top = hits[:k]
                    row[f"p_at_{k}"] = round(sum(top) / max(1, len(top)), 6)
        out_rows.extend(model_rows)
    fields = ["model", "match_metric", "collapse", "threshold", "precision",
              "recall", "f1"] + [f"p_at_{k}" for k in topks]
    cols = {f: [r[f] for r in out_rows] for f in fields}
    types = {"model": pa.string(), "match_metric": pa.string(),
             "collapse": pa.bool_(), "threshold": pa.float64(),
             "precision": pa.float64(), "recall": pa.float64(),
             "f1": pa.float64()}
    return pa.table({f: pa.array(cols[f], types.get(f, pa.float64()))
                     for f in fields})


# ------------------------------------------- documents-table op recomputes


def _read_docs(sf_dir: str):
    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    return t.column("doc_id").to_pylist(), t.column("text").to_pylist()


def expected_fingerprint(sf_dir: str) -> pa.Table:
    """Per-byte Horner-loop twin of the vectorized engine fingerprint."""
    B, M = 1000003, 0xFFFFFFFFFFFFFFFF
    ids, texts = _read_docs(sf_dir)
    fps = []
    for text in texts:
        h = 1469598103934665603
        for tok in text.split():
            for b in tok.encode("utf-8"):
                h = (h * B + b) & M
            h = (h * B + 32) & M
        fps.append(h)
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "fp64": pa.array(fps, pa.uint64())})


def expected_minhash_pairs(sf_dir: str, n_perm: int = 64, n_bands: int = 16,
                           shingle_k: int = 3, threshold: float = 0.8) -> pa.Table:
    """All-pairs brute force twin of the LSH pipeline: a pair is emitted iff
    it shares >= 1 full band AND its signature-estimated Jaccard passes the
    threshold. Signatures reuse the same hash family (they define the
    operator); the banding/shuffle/dedup plumbing is what this verifies."""
    from .stages.dedup import MinHasher

    ids, texts = _read_docs(sf_dir)
    mh = MinHasher(n_perm=n_perm, shingle_k=shingle_k)
    sigs = [mh.signature(t) for t in texts]
    r = n_perm // n_bands
    out = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if ids[i] == ids[j]:
                continue
            eq = sigs[i] == sigs[j]
            if not any(eq[b * r : (b + 1) * r].all() for b in range(n_bands)):
                continue
            est = float(np.mean(eq))
            if est >= threshold:
                a, b = sorted((ids[i], ids[j]))
                out.append((a, b, round(est, 6)))
    out.sort()
    return pa.table({"id_a": pa.array([x[0] for x in out], pa.int64()),
                     "id_b": pa.array([x[1] for x in out], pa.int64()),
                     "est_jaccard": pa.array([x[2] for x in out], pa.float64())})


def expected_simhash_pairs(sf_dir: str, n_blocks: int = 4,
                           max_hamming: int = 3) -> pa.Table:
    from .stages.dedup import SimHasher

    ids, texts = _read_docs(sf_dir)
    sh = SimHasher()
    hs = [sh.simhash(t) for t in texts]
    width = 64 // n_blocks
    mask = (1 << width) - 1
    out = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if ids[i] == ids[j]:
                continue
            if not any(((hs[i] >> (b * width)) & mask) == ((hs[j] >> (b * width)) & mask)
                       for b in range(n_blocks)):
                continue
            d = bin(hs[i] ^ hs[j]).count("1")
            if d <= max_hamming:
                a, b = sorted((ids[i], ids[j]))
                out.append((a, b, d))
    out.sort()
    return pa.table({"id_a": pa.array([x[0] for x in out], pa.int64()),
                     "id_b": pa.array([x[1] for x in out], pa.int64()),
                     "hamming": pa.array([x[2] for x in out], pa.int64())})


def expected_ngram_pairs(sf_dir: str, shingle_k: int = 3,
                         threshold: float = 0.5) -> pa.Table:
    """Exact shingle-set Jaccard over the minhash candidate pairs (candidate
    recall stage mirrors the engine's lowered-threshold LSH)."""
    from .stages.dedup import _shingles

    cand = expected_minhash_pairs(sf_dir, n_perm=64, n_bands=32,
                                  shingle_k=shingle_k,
                                  threshold=max(0.0, threshold - 0.2))
    _ids, texts = _read_docs(sf_dir)
    text_of = dict(zip(_ids, texts))
    sh_cache: dict[int, set] = {}

    def sh(i):
        if i not in sh_cache:
            sh_cache[i] = _shingles(text_of[i], shingle_k)
        return sh_cache[i]

    out = []
    for a, b in zip(cand.column("id_a").to_pylist(), cand.column("id_b").to_pylist()):
        sa, sb = sh(a), sh(b)
        j = len(sa & sb) / max(1, len(sa | sb))
        if j >= threshold:
            out.append((a, b, round(j, 6)))
    out.sort()
    return pa.table({"id_a": pa.array([x[0] for x in out], pa.int64()),
                     "id_b": pa.array([x[1] for x in out], pa.int64()),
                     "jaccard": pa.array([x[2] for x in out], pa.float64())})


def expected_minhash_accuracy(sf_dir: str, shingle_k: int = 3,
                              est_threshold: float = 0.3) -> pa.Table:
    """Scalar twin of dedup.py:minhash_accuracy — candidate pairs from the
    all-pairs banding walk, estimate lifted to exact scaled ints in pure
    integer arithmetic, exact shingle Jaccard per pair."""
    from .stages.dedup import _shingles

    cand = expected_minhash_pairs(sf_dir, n_perm=64, n_bands=32,
                                  shingle_k=shingle_k,
                                  threshold=est_threshold)
    _ids, texts = _read_docs(sf_dir)
    text_of = dict(zip(_ids, texts))
    out_a, out_b, est_s, true_s = [], [], [], []
    for a, b, est in zip(cand.column("id_a").to_pylist(),
                         cand.column("id_b").to_pylist(),
                         cand.column("est_jaccard").to_pylist()):
        sa = _shingles(text_of[a], shingle_k)
        sb = _shingles(text_of[b], shingle_k)
        out_a.append(a)
        out_b.append(b)
        # est = matches/64 is dyadic: est*64 recovers the integer matches
        est_s.append(int(round(est * 64)) * 1_000_000 // 64)
        true_s.append(len(sa & sb) * 1_000_000 // max(1, len(sa | sb)))
    return pa.table({
        "id_a": pa.array(out_a, pa.int64()),
        "id_b": pa.array(out_b, pa.int64()),
        "est_scaled": pa.array(est_s, pa.int64()),
        "true_scaled": pa.array(true_s, pa.int64()),
        "err_scaled": pa.array([e - t for e, t in zip(est_s, true_s)],
                               pa.int64()),
    })


def expected_contrastive_pairs(sf_dir: str, est_threshold: float = 0.5,
                               seed: int = 29) -> pa.Table:
    """Scalar twin of dedup.py:contrastive_pairs — positives from the
    all-pairs banding walk, the same splitmix64 negative draws into the
    sorted positive-id vocabulary."""
    from .stages.dedup import _splitmix64
    from .stages.sketch import hash64_values

    SEP = "\x1f"
    cand = expected_minhash_pairs(sf_dir, n_perm=64, n_bands=32,
                                  shingle_k=3, threshold=est_threshold)
    pos = list(zip(cand.column("id_a").to_pylist(),
                   cand.column("id_b").to_pylist()))
    vocab = sorted({i for p in pos for i in p})
    V = np.array(vocab)
    nv = np.uint64(max(len(V), 1))
    out_a, out_b, lab = [], [], []
    for a, b in pos:
        out_a.append(a)
        out_b.append(b)
        lab.append(1)
    for a, b in pos:
        h = _splitmix64(hash64_values(
            np.array([str(a) + SEP + str(b)], dtype=object))
            ^ np.uint64(seed))
        c = V[int(h[0] % nv)] if len(V) else a
        if c == a or c == b:
            continue
        out_a.append(a)
        out_b.append(int(c))
        lab.append(0)
    return pa.table({
        "id_a": pa.array(out_a, pa.int64()),
        "id_b": pa.array(out_b, pa.int64()),
        "label": pa.array(lab, pa.int64()),
    })


def expected_embedding_neardups(sf_dir: str, threshold: float = 0.9,
                                n_bits: int = 10, n_tables: int = 8,
                                seed: int = 11) -> pa.Table:
    """Brute-force twin of the multi-table LSH near-dup pipeline over the
    planted-duplicate embedding set (vec_id < 20 duplicated at +1e6)."""
    from .stages.similarity import _hyperplanes, _lsh_sig, _normalize

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_pylist()
    embs = [np.asarray(v, dtype=np.float64) for v in t.column("embedding").to_pylist()]
    for i in range(len(ids)):
        if ids[i] < 20:
            ids.append(ids[i] + 1_000_000)
            embs.append(embs[i])
    m = _normalize(np.stack(embs))
    sig_tables = [
        _lsh_sig(m, _hyperplanes(m.shape[1], n_bits, seed + 101 * tt))
        for tt in range(n_tables)
    ]
    out = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if ids[i] == ids[j]:
                continue
            if not any(st[i] == st[j] for st in sig_tables):
                continue
            cos = float(np.dot(m[i], m[j]))
            if cos >= threshold:
                a, b = sorted((ids[i], ids[j]))
                out.append((a, b, round(cos, 6)))
    out.sort()
    return pa.table({"id_a": pa.array([x[0] for x in out], pa.int64()),
                     "id_b": pa.array([x[1] for x in out], pa.int64()),
                     "cosine": pa.array([x[2] for x in out], pa.float64())})


def expected_knn_lsh(sf_dir: str, k: int = 10, n_bits: int = 8,
                     seed: int = 11) -> pa.Table:
    """Single-threaded twin of the LSH ANN query: scan every vector, keep
    those whose sign-signature is within Hamming 1 of the query's, rank by
    float64 cosine (rounded 6), top-k with vec_id tie-break."""
    from .functions.strings import round_half_up
    from .stages.similarity import _hyperplanes, _lsh_sig, _normalize

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_pylist()
    embs = [np.asarray(v, dtype=np.float64) for v in t.column("embedding").to_pylist()]
    q32 = np.asarray(embs[ids.index(0)], dtype=np.float32)
    planes = _hyperplanes(q32.shape[0], n_bits, seed)
    qsig = int(_lsh_sig(_normalize(q32.reshape(1, -1)), planes)[0])
    near = {qsig} | {qsig ^ (1 << b) for b in range(n_bits)}
    m = _normalize(np.stack(embs))
    sigs = _lsh_sig(m, planes)
    # the engine normalizes the broadcast query in float32 (knn_lsh casts the
    # query vector to float32 before signing); match that bit-for-bit
    qv = _normalize(q32.reshape(1, -1))[0]
    rows = [
        (int(ids[i]), float(round_half_up(float(np.dot(m[i], qv)), 6)))
        for i in range(len(ids)) if int(sigs[i]) in near
    ]
    rows.sort(key=lambda r: (-r[1], r[0]))
    rows = rows[:k]
    return pa.table({"vec_id": pa.array([r[0] for r in rows], pa.int64()),
                     "cosine": pa.array([r[1] for r in rows], pa.float64())})


def expected_standoff_summary(sf_dir: str, doc_lexicon: dict[str, str]) -> pa.Table:
    """Twin of the standoff_convert query: synthesize the same char-offset
    annotations over each document, then count which align to token
    boundaries within one sentence (independent counting over the shared
    offset walk)."""
    from .sources.standoff import tokenize_with_offsets

    ids, texts = _read_docs(sf_dir)
    terms = sorted(doc_lexicon)
    keys, aligned, dropped = [], [], []
    for doc_id, text in zip(ids, texts):
        spans = []
        for term in terms:
            p = text.find(term)
            if p >= 0:
                spans.append((p, p + len(term)))
        if len(text) > 3:
            spans.append((1, 3))
        _sents, offsets = tokenize_with_offsets(text)
        starts = {s: si for si, offs in enumerate(offsets) for (s, _e) in offs}
        ends = {e: si for si, offs in enumerate(offsets) for (_s, e) in offs}
        n_ok = sum(
            1 for (s, e) in spans
            if s in starts and e in ends and starts[s] == ends[e]
        )
        keys.append(f"doc_{doc_id}")
        aligned.append(n_ok)
        dropped.append(len(spans) - n_ok)
    return pa.table({"doc_key": pa.array(keys, pa.string()),
                     "n_aligned": pa.array(aligned, pa.int64()),
                     "n_entities_dropped": pa.array(dropped, pa.int32())})


def synth_chemprot_fold(doc_ids: list, texts: list,
                        doc_lexicon: dict[str, str]) -> tuple[str, str, str]:
    """Deterministic ChemProt-format fold over documents: title 'Doc <id>.',
    abstract = the text; one entity per lexicon term's first occurrence
    (Method/Task terms -> CHEMICAL, others -> GENE-Y/GENE-N alternating) and
    a CPR:3 relation between the first two entities. Shared by the
    chemprot_convert query (per batch) and its oracle (whole table)."""
    terms = sorted(doc_lexicon)
    abstracts, entities, relations = [], [], []
    for doc_id, text in zip(doc_ids, texts):
        title = f"Doc {doc_id}."
        full = f"{title} {text}"
        abstracts.append(f"{doc_id}\t{title}\t{text}")
        tcount = 0
        for term in terms:
            p = full.find(term)
            if p < 0:
                continue
            if doc_lexicon[term] in ("Method", "Task"):
                label = "CHEMICAL"
            else:
                label = "GENE-Y" if tcount % 2 == 0 else "GENE-N"
            entities.append(
                f"{doc_id}\tT{tcount}\t{label}\t{p}\t{p + len(term)}\t{term}")
            tcount += 1
        if tcount >= 2:
            relations.append(f"{doc_id}\tCPR:3\tY\tCPR:3\tArg1:T0\tArg2:T1")
    return "\n".join(abstracts), "\n".join(entities), "\n".join(relations)


def expected_chemprot_summary(sf_dir: str, doc_lexicon: dict[str, str]) -> pa.Table:
    """Twin of the chemprot_convert query: re-derive the synth fold, then
    count aligned/dropped entities and surviving relations independently."""
    from .sources.standoff import tokenize_with_offsets

    ids, texts = _read_docs(sf_dir)
    a_tsv, e_tsv, r_tsv = synth_chemprot_fold(ids, texts, doc_lexicon)
    ents_by_doc: dict[str, list] = {}
    for line in e_tsv.splitlines():
        d, _tid, _lab, s, e, _txt = line.split("\t")
        ents_by_doc.setdefault(d, []).append((int(s), int(e)))
    rel_docs = {line.split("\t")[0] for line in r_tsv.splitlines() if line}
    keys, aligned, ent_drop, rel_drop = [], [], [], []
    for line in a_tsv.splitlines():
        d, title, abstract = line.split("\t")
        text = f"{title} {abstract}"
        _s, offsets = tokenize_with_offsets(text)
        starts = {s: si for si, offs in enumerate(offsets) for (s, _e) in offs}
        ends = {e: si for si, offs in enumerate(offsets) for (_s, e) in offs}
        spans = ents_by_doc.get(d, [])
        loc = {}
        for j, (s, e) in enumerate(spans):
            if s in starts and e in ends and starts[s] == ends[e]:
                loc[j] = starts[s]
        keys.append(d)
        aligned.append(len(loc))
        ent_drop.append(len(spans) - len(loc))
        ok_rel = int(d in rel_docs and 0 in loc and 1 in loc and loc[0] == loc[1])
        rel_drop.append(int(d in rel_docs) - ok_rel)
    return pa.table({
        "doc_key": pa.array([str(k) for k in keys], pa.string()),
        "n_aligned": pa.array(aligned, pa.int64()),
        "n_entities_dropped": pa.array(ent_drop, pa.int32()),
        "n_relations_dropped": pa.array(rel_drop, pa.int32()),
    })


def expected_media_features(n: int = 32, feature_dim: int = 16) -> pa.Table:
    kinds = ["image", "audio", "video"]
    return pa.table({
        "media_id": pa.array([f"m{i:04d}" for i in range(n)], pa.string()),
        "kind": pa.array([kinds[i % 3] for i in range(n)], pa.string()),
        "dim": pa.array([feature_dim] * n, pa.int64()),
    })


def expected_collate_total(documents) -> pa.Table:
    total = sum(len(sents) for (_k, sents, _sha) in documents)
    return pa.table({"total_sentences": pa.array([total], pa.int64())})


def expected_uncollate_counts(documents, entity_lexicon: dict[str, str]) -> pa.Table:
    """Roundtrip invariants: doc counts and total predicted mentions are
    identical between the direct and the collate->extract->uncollate paths."""
    lex = {k.lower(): NER_LABELS.index(v) for k, v in entity_lexicon.items()}
    n_docs = len(documents)
    n_mentions = 0
    for _k, sentences, _sha in documents:
        for sent in sentences:
            n_mentions += len(find_hits([t.lower() for t in sent], lex))
    return pa.table({
        "n_docs": pa.array([n_docs], pa.int64()),
        "n_docs_orig": pa.array([n_docs], pa.int64()),
        "n_mentions_direct": pa.array([n_mentions], pa.int64()),
        "n_mentions_roundtrip": pa.array([n_mentions], pa.int64()),
    })


def expected_cluster_merge(documents, full_lexicon: dict[str, str],
                           weak_lexicon: dict[str, str]) -> pa.Table:
    """Twin of coref_cluster_merge: full-model clusters merged with the
    half-split weak-model clusters via the pure worklist merge."""
    from .stages.coref import merge_clusters

    keys, counts = [], []
    for key, sentences, _sha in documents:
        a_cl = [list(c) for c in decode_doc(sentences, entity_lexicon=full_lexicon)[3]]
        b_raw = [list(c) for c in decode_doc(sentences, entity_lexicon=weak_lexicon)[3]]
        b_cl = []
        for c in b_raw:
            half = max(1, len(c) // 2)
            b_cl.append(c[:half])
            if c[half:]:
                b_cl.append(c[half:])
        keys.append(key)
        counts.append(len(merge_clusters(a_cl, b_cl)))
    return pa.table({"doc_key": pa.array(keys, pa.string()),
                     "n_merged_clusters": pa.array(counts, pa.int64())})


# ------------------------------------------------- k-means / IVF / semdedup


def _kmeans_single(mat: np.ndarray, ids: np.ndarray, k: int,
                   n_iter: int) -> np.ndarray:
    """Single-threaded Lloyd recompute: seeds = vectors of the k smallest
    ids; per-iteration sums on the same round(x*1e6) int64 grid the engine
    uses (exact, so the distributed block-partial sums agree bit-for-bit)."""
    order = np.argsort(ids, kind="stable")
    centroids = mat[order[:k]].astype(np.float64).copy()
    scaled = np.rint(mat * 1e6).astype(np.int64)
    for _ in range(n_iter):
        d = ((mat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
        labels = d.argmin(axis=1)
        for j in range(k):
            sel = labels == j
            if not sel.any():
                continue
            centroids[j] = scaled[sel].sum(axis=0).astype(np.float64) / (
                1e6 * int(sel.sum()))
    return centroids


def _read_embeddings(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    ids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    mat = np.stack([np.asarray(v, dtype=np.float64)
                    for v in t.column("embedding").to_pylist()])
    return ids, mat


def expected_embedding_clusters(sf_dir: str, k: int = 8,
                                n_iter: int = 4) -> pa.Table:
    from .functions.strings import round_half_up

    ids, mat = _read_embeddings(sf_dir)
    centroids = _kmeans_single(mat, ids, k, n_iter)
    d = ((mat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
    labels = d.argmin(axis=1)
    dist = np.sqrt(d[np.arange(len(ids)), labels])
    return pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "cluster": pa.array(labels.astype(np.int32), pa.int32()),
        "dist": pa.array(round_half_up(dist, 6), pa.float64()),
    })


def expected_embedding_outliers(sf_dir: str, k: int = 8, n_iter: int = 4,
                                k_out: int = 10) -> pa.Table:
    """Scalar re-walk of cluster.py:embedding_outliers — same single-thread
    k-means fit as expected_embedding_clusters, distances lifted to exact
    scaled ints, per-cluster top-k_out by (dist desc, vec_id asc)."""
    from .functions.strings import round_half_up

    ids, mat = _read_embeddings(sf_dir)
    centroids = _kmeans_single(mat, ids, k, n_iter)
    d = ((mat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
    labels = d.argmin(axis=1)
    dist = np.sqrt(d[np.arange(len(ids)), labels])
    dist_s = np.rint(round_half_up(dist, 6) * 1e6).astype(np.int64)
    n_by = np.zeros(k, dtype=np.int64)
    s_by = np.zeros(k, dtype=np.int64)
    for lab, dsv in zip(labels, dist_s):
        n_by[lab] += 1
        s_by[lab] += dsv
    out_id, out_lab, out_d, out_m = [], [], [], []
    for j in range(k):
        members = [(int(dist_s[i]), int(ids[i])) for i in range(len(ids))
                   if labels[i] == j]
        members.sort(key=lambda t: (-t[0], t[1]))
        for dsv, vid in members[:k_out]:
            out_id.append(vid)
            out_lab.append(j)
            out_d.append(dsv)
            out_m.append(int(s_by[j]) // max(int(n_by[j]), 1))
    return pa.table({
        "vec_id": pa.array(out_id, pa.int64()),
        "cluster": pa.array(np.array(out_lab, dtype=np.int32), pa.int32()),
        "dist_scaled": pa.array(out_d, pa.int64()),
        "cluster_mean_scaled": pa.array(out_m, pa.int64()),
    })


def expected_embedding_silhouette(sf_dir: str, k: int = 8,
                                  n_iter: int = 4) -> pa.Table:
    """Scalar re-walk of cluster.py:embedding_silhouette — same
    single-thread k-means fit, distances on the same 6-dp int grid,
    b = second-smallest order statistic (np.sort), all reduces in
    Python ints."""
    from .functions.strings import round_half_up

    ids, mat = _read_embeddings(sf_dir)
    centroids = _kmeans_single(mat, ids, k, n_iter)
    d = ((mat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
    labels = d.argmin(axis=1)
    two = np.sort(d, axis=1)[:, :2]
    a_s = np.rint(round_half_up(np.sqrt(two[:, 0]), 6) * 1e6).astype(np.int64)
    b_s = np.rint(round_half_up(np.sqrt(two[:, 1]), 6) * 1e6).astype(np.int64)
    s_ppm = (b_s - a_s) * 1_000_000 // np.maximum(b_s, 1)
    rows = []
    for j in sorted(set(labels.tolist())):
        sel = labels == j
        n = int(sel.sum())
        rows.append((j, n, int(s_ppm[sel].sum()) // n,
                     int(a_s[sel].sum()) // n))
    return pa.table({
        "cluster": pa.array([r[0] for r in rows], pa.int32()),
        "n": pa.array([r[1] for r in rows], pa.int64()),
        "mean_sil_ppm": pa.array([r[2] for r in rows], pa.int64()),
        "mean_dist_scaled": pa.array([r[3] for r in rows], pa.int64()),
    })


def expected_knn_ivf(sf_dir: str, k: int = 10, nprobe: int = 2,
                     n_clusters: int = 8, n_iter: int = 3) -> pa.Table:
    from .functions.strings import round_half_up

    ids, mat = _read_embeddings(sf_dir)
    centroids = _kmeans_single(mat, ids, n_clusters, n_iter)
    qv = mat[ids == 0][0]
    dq = ((qv[None, :] - centroids) ** 2).sum(axis=-1)
    probe = set(np.argsort(dq, kind="stable")[:nprobe].tolist())
    d = ((mat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
    labels = d.argmin(axis=1)
    qn = qv / (np.linalg.norm(qv) or 1.0)
    rows = []
    for i in range(len(ids)):
        if labels[i] not in probe:
            continue
        v = mat[i]
        n = np.linalg.norm(v) or 1.0
        rows.append((int(ids[i]),
                     float(round_half_up(float(np.dot(v / n, qn)), 6))))
    rows.sort(key=lambda r: (-r[1], r[0]))
    rows = rows[:k]
    return pa.table({"vec_id": pa.array([r[0] for r in rows], pa.int64()),
                     "cosine": pa.array([r[1] for r in rows], pa.float64())})


def expected_semantic_dedup(sf_dir: str, threshold: float = 0.9,
                            n_clusters: int = 8, n_iter: int = 3,
                            plant_first: int = 20) -> pa.Table:
    """Recompute over the SAME planted-duplicate table the query builds
    (vec_id < plant_first duplicated under id+1_000_000)."""
    from .functions.strings import round_half_up

    ids, mat = _read_embeddings(sf_dir)
    sel = ids < plant_first
    ids = np.concatenate([ids, ids[sel] + 1_000_000])
    mat = np.concatenate([mat, mat[sel]], axis=0)
    centroids = _kmeans_single(mat, ids, n_clusters, n_iter)
    d = ((mat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
    labels = d.argmin(axis=1)
    out = []
    for c in range(n_clusters):
        members = np.where(labels == c)[0]
        if len(members) < 2:
            continue
        members = members[np.argsort(ids[members], kind="stable")]
        m = mat[members]
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        cos = (m / norms) @ (m / norms).T
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                if cos[a, b] >= threshold:
                    out.append((int(ids[members[a]]), int(ids[members[b]]),
                                float(round_half_up(float(cos[a, b]), 6))))
    out.sort()
    return pa.table({"id_a": pa.array([x[0] for x in out], pa.int64()),
                     "id_b": pa.array([x[1] for x in out], pa.int64()),
                     "cosine": pa.array([x[2] for x in out], pa.float64())})


# --------------------------------------------------------- graph analytics

GRAPH_UNITS = 1_000_000_000  # mirrors stages/graph.py UNITS


def _distinct_edges(triples: pa.Table) -> list:
    """Distinct (subj_norm, obj_norm) pairs, sorted — the KG edge set the
    graph-analytics queries run over."""
    return sorted(set(zip(triples.column("subj_norm").to_pylist(),
                          triples.column("obj_norm").to_pylist())))


def expected_components(triples: pa.Table) -> pa.Table:
    """(node, component) via single-threaded union-find; component = the
    minimum member id — the fixpoint stages/graph.py's min-label propagation
    converges to, and `min` over a set is order-independent, so the two
    evaluations must agree exactly."""
    edges = _distinct_edges(triples)
    nodes = sorted({n for e in edges for n in e})
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    comp_min: dict = {}
    for n in nodes:
        r = find(n)
        comp_min[r] = min(comp_min.get(r, n), n)
    return pa.table({
        "node": pa.array(nodes, pa.string()),
        "component": pa.array([comp_min[find(n)] for n in nodes], pa.string()),
    })


def expected_negative_samples(triples: pa.Table, k: int = 2,
                              seed: int = 17) -> pa.Table:
    """Scalar re-walk of pipelines/kg.py:negative_samples — same distinct
    edge set, same sorted vocabulary, same splitmix64 draws (the hash
    family IS the operator's spec, reused like expected_alias_merge reuses
    CharNameMinHasher), same own-tail drop and true-edge filter."""
    import numpy as np

    from .stages.dedup import _splitmix64
    from .stages.sketch import hash64_values

    SEP = "\x1f"
    edges = sorted({(s, p, o) for s, p, o in zip(
        triples.column("subj_norm").to_pylist(),
        triples.column("pred").to_pylist(),
        triples.column("obj_norm").to_pylist())})
    true_set = set(edges)
    vocab = sorted({e for s, _p, o in edges for e in (s, o)})
    V = np.array(vocab, dtype=object)
    nv = np.uint64(len(V))
    keys = np.array([s + SEP + p + SEP + o for s, p, o in edges],
                    dtype=object)
    h = hash64_values(keys)
    out_s, out_p, out_o, out_j = [], [], [], []
    for j in range(1, k + 1):
        hj = _splitmix64(h ^ np.uint64(seed + j))
        cand = V[(hj % nv).astype(np.int64)]
        for (s, p, o), c in zip(edges, cand):
            if c == o or (s, p, c) in true_set:
                continue
            out_s.append(s)
            out_p.append(p)
            out_o.append(c)
            out_j.append(j)
    return pa.table({
        "subj_norm": pa.array(out_s, pa.string()),
        "pred": pa.array(out_p, pa.string()),
        "obj_neg": pa.array(out_o, pa.string()),
        "neg_ix": pa.array(out_j, pa.int64()),
    })


def expected_transe_eval(triples: pa.Table, dim: int = 16, k_neg: int = 32,
                         seed: int = 23) -> pa.Table:
    """Scalar re-walk of pipelines/kg.py:transe_eval — same distinct edge
    set, sorted vocabulary and splitmix64 corruption draws (the hash family
    IS the spec, like expected_negative_samples), but embeddings, scores
    and ranks recomputed per edge in plain python dict/loop arithmetic."""
    import numpy as np

    from .stages.sketch import hash64_values

    SEP = "\x1f"
    edges = sorted({(s, p, o) for s, p, o in zip(
        triples.column("subj_norm").to_pylist(),
        triples.column("pred").to_pylist(),
        triples.column("obj_norm").to_pylist())})
    vocab = sorted({e for s, _p, o in edges for e in (s, o)})
    V = np.array(vocab, dtype=object)
    nv = np.uint64(len(V))

    emb_cache: dict = {}

    def emb(name: str, salt: int) -> list:
        kk = (name, salt)
        if kk not in emb_cache:
            h = int(hash64_values(np.array([name], dtype=object))[0])
            vec = []
            for d in range(dim):
                salt_d = _splitmix64_scalar((seed * 1_000_003 + salt) * dim + d)
                hd = _splitmix64_scalar(h ^ salt_d)
                vec.append((hd % 2048) - 1024)
            emb_cache[kk] = vec
        return emb_cache[kk]

    stats: dict = {}
    for s, p, o in edges:
        es, ep, eo = emb(s, 0), emb(p, 1), emb(o, 0)
        true_sc = -sum(abs(es[d] + ep[d] - eo[d]) for d in range(dim))
        h = int(hash64_values(
            np.array([s + SEP + p + SEP + o], dtype=object))[0])
        rank = 1
        for j in range(1, k_neg + 1):
            hj = _splitmix64_scalar(h ^ (seed + j))
            c = V[hj % int(nv)]
            if c == o:
                continue
            ec = emb(c, 0)
            neg_sc = -sum(abs(es[d] + ep[d] - ec[d]) for d in range(dim))
            if neg_sc > true_sc:
                rank += 1
        st = stats.setdefault(p, [0, 0, 0, 0])
        st[0] += 1
        st[1] += 1 if rank == 1 else 0
        st[2] += 1 if rank <= 10 else 0
        st[3] += 1_000_000 // rank
    preds = sorted(stats)
    return pa.table({
        "pred": pa.array(preds, pa.string()),
        "n_edges": pa.array([stats[p][0] for p in preds], pa.int64()),
        "hits1": pa.array([stats[p][1] for p in preds], pa.int64()),
        "hits10": pa.array([stats[p][2] for p in preds], pa.int64()),
        "mrr_ppm": pa.array([stats[p][3] // stats[p][0] for p in preds],
                            pa.int64()),
    })


def expected_scc(triples: pa.Table, pred: str | None = None) -> pa.Table:
    """(node, scc_id) via single-threaded iterative Tarjan over the distinct
    directed edge set (optionally restricted to one predicate); scc_id =
    the lexicographically smallest member. Tarjan's grouping is unique, so
    it must match the distributed coloring algorithm exactly."""
    if pred is not None:
        keep = pa.compute.equal(triples.column("pred"), pred)
        triples = triples.filter(keep)
    edges = _distinct_edges(triples)
    nodes = sorted({n for e in edges for n in e})
    adj: dict = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
    index: dict = {}
    low: dict = {}
    on: set = set()
    stack: list = []
    sccs: list = []
    counter = [0]

    def strong(v0):
        work = [(v0, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on.add(v)
            recurse = False
            ns = adj.get(v, [])
            for i in range(pi, len(ns)):
                w = ns[i]
                if w not in index:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                elif w in on:
                    low[v] = min(low[v], index[w])
            if not recurse:
                if work and work[-1][1] > 0:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(comp)

    for nd in nodes:
        if nd not in index:
            strong(nd)
    rep: dict = {}
    for comp in sccs:
        m = min(comp)
        for w in comp:
            rep[w] = m
    return pa.table({
        "node": pa.array(nodes, pa.string()),
        "scc_id": pa.array([rep[nd] for nd in nodes], pa.string()),
    })


def expected_personalized_pagerank(triples: pa.Table,
                                    seeds: list[str],
                                    n_iter: int = 10) -> pa.Table:
    """Integer fixed-point PERSONALIZED PageRank recompute
    (stages/graph.py:personalized_pagerank spec): units start at
    GRAPH_UNITS on the seed set only, the teleport term
    GRAPH_UNITS*15//100 lands only on seeds, shares floor-divide exactly
    as the engine does — single-threaded dict arithmetic is exact int64,
    so it must hash-match both execution modes bit for bit."""
    from .functions.strings import round_half_up

    edges = _distinct_edges(triples)
    nodes = sorted({n for e in edges for n in e})
    # k counts the GIVEN seed set; a seed absent from the graph contributes
    # no mass but still scales rank (documented mass-loss discipline, same
    # as rounding/dangling loss — matches both engine modes)
    seed_set = set(seeds)
    k = len(seed_set)
    seed_set &= set(nodes)
    outdeg: dict = {}
    for u, _ in edges:
        outdeg[u] = outdeg.get(u, 0) + 1
    base_seed = GRAPH_UNITS * 15 // 100
    units = {v: (GRAPH_UNITS if v in seed_set else 0) for v in nodes}
    for _ in range(n_iter):
        share = {u: units[u] * 85 // (100 * d) for u, d in outdeg.items()}
        nxt = {v: (base_seed if v in seed_set else 0) for v in nodes}
        for u, v in edges:
            nxt[v] += share[u]
        units = nxt
    return pa.table({
        "node": pa.array(nodes, pa.string()),
        "rank_units": pa.array([units[v] for v in nodes], pa.int64()),
        "rank": pa.array([float(round_half_up(units[v] / (k * GRAPH_UNITS), 9))
                          for v in nodes], pa.float64()),
    })


def _alias_canon_map(names: list, threshold: float, k: int, n_perm: int,
                     n_bands: int) -> dict:
    """Shared union-find core of the alias-merge oracles: name -> canonical
    (lexicographically-smallest cluster member; self for singletons)."""
    from .stages.linking import CharNameMinHasher, exact_name_jaccard

    mh = CharNameMinHasher(n_perm=n_perm, k=k)
    sigs = {n: mh.signature(n) for n in names}
    r = n_perm // n_bands
    parent = {n: n for n in names}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = names[i], names[j]
            eq = sigs[a] == sigs[b]
            if not any(eq[bd * r:(bd + 1) * r].all() for bd in range(n_bands)):
                continue
            if exact_name_jaccard(a, b, k) < threshold:
                continue
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    comp_min: dict = {}
    for n in names:
        rt = find(n)
        comp_min[rt] = min(comp_min.get(rt, n), n)
    return {n: comp_min[find(n)] for n in names}


def expected_alias_blocking_recall(triples: pa.Table,
                                   threshold: float = 0.5, k: int = 3,
                                   n_perm: int = 64, coarse_bands: int = 16,
                                   fine_bands: int = 64) -> pa.Table:
    """All-pairs twin of linking.py:alias_blocking_recall — exact jaccard
    per pair plus band-collision tests for BOTH banding configs."""
    from .stages.linking import CharNameMinHasher, exact_name_jaccard

    names = sorted({v for col in ("subj", "obj", "subj_norm", "obj_norm")
                    for v in triples.column(col).to_pylist()})
    mh = CharNameMinHasher(n_perm=n_perm, k=k)
    sigs = {n: mh.signature(n) for n in names}
    rc = n_perm // coarse_bands
    rf = n_perm // fine_bands
    n_coarse = n_fine = 0
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = names[i], names[j]
            eq = sigs[a] == sigs[b]
            fine_hit = any(eq[bd * rf:(bd + 1) * rf].all()
                           for bd in range(fine_bands))
            if not fine_hit:
                continue
            if exact_name_jaccard(a, b, k) < threshold:
                continue
            n_fine += 1
            if any(eq[bd * rc:(bd + 1) * rc].all()
                   for bd in range(coarse_bands)):
                n_coarse += 1
    return pa.table({
        "n_names": pa.array([len(names)], pa.int64()),
        "n_fine_pairs": pa.array([n_fine], pa.int64()),
        "n_coarse_pairs": pa.array([n_coarse], pa.int64()),
        "recall_ppm": pa.array([n_coarse * 1_000_000 // max(n_fine, 1)],
                               pa.int64()),
    })


def expected_alias_mapping(triples: pa.Table, threshold: float = 0.5,
                           k: int = 3, n_perm: int = 64,
                           n_bands: int = 16) -> pa.Table:
    """(name, component) for EVERY vocabulary name (singletons map to
    themselves) — the full canonicalization map behind
    expected_alias_merge, exposed for type-consistency QA oracles."""
    subj = triples.column("subj").to_pylist()
    obj = triples.column("obj").to_pylist()
    s_n = triples.column("subj_norm").to_pylist()
    o_n = triples.column("obj_norm").to_pylist()
    names = sorted(set(subj) | set(obj) | set(s_n) | set(o_n))
    canon = _alias_canon_map(names, threshold, k, n_perm, n_bands)
    return pa.table({
        "name": pa.array(names, pa.string()),
        "component": pa.array([canon[n] for n in names], pa.string()),
    })


def expected_alias_merge(triples: pa.Table, threshold: float = 0.5,
                         k: int = 3, n_perm: int = 64,
                         n_bands: int = 16) -> pa.Table:
    """Scalar recompute of stages/linking.py:alias_merge_edges: name pairs
    are candidates iff they share >= 1 full char-minhash band (signatures
    reuse the operator's own hash family — they define it; the LSH
    banding / shuffle / join plumbing is what this verifies), verified by
    exact char-k-gram Jaccard >= threshold; union-find with min-member
    representative; triples re-keyed and counted."""
    subj = triples.column("subj").to_pylist()
    pred = triples.column("pred").to_pylist()
    obj = triples.column("obj").to_pylist()
    s_n = triples.column("subj_norm").to_pylist()
    o_n = triples.column("obj_norm").to_pylist()
    names = sorted(set(subj) | set(obj) | set(s_n) | set(o_n))
    canon = _alias_canon_map(names, threshold, k, n_perm, n_bands)
    counts: dict = {}
    for s, p, o in zip(subj, pred, obj):
        key = (canon[s], p, canon[o])
        counts[key] = counts.get(key, 0) + 1
    rows = sorted(counts.items())
    return pa.table({
        "subj_canon": pa.array([kk[0] for kk, _ in rows], pa.string()),
        "pred": pa.array([kk[1] for kk, _ in rows], pa.string()),
        "obj_canon": pa.array([kk[2] for kk, _ in rows], pa.string()),
        "weight": pa.array([v for _, v in rows], pa.int64()),
    })


def expected_pagerank(triples: pa.Table, n_iter: int = 10) -> pa.Table:
    """Integer fixed-point PageRank recompute (stages/graph.py spec): int64
    micro-units, floor-divided shares, no dangling/rounding redistribution.
    Single-threaded dict arithmetic is exact int64, so it must hash-match
    the distributed evaluation bit for bit."""
    from .functions.strings import round_half_up

    edges = _distinct_edges(triples)
    nodes = sorted({n for e in edges for n in e})
    n = len(nodes)
    outdeg: dict = {}
    for u, _ in edges:
        outdeg[u] = outdeg.get(u, 0) + 1
    base = (n * GRAPH_UNITS) * 15 // (100 * n)
    units = {v: GRAPH_UNITS for v in nodes}
    for _ in range(n_iter):
        share = {u: units[u] * 85 // (100 * d) for u, d in outdeg.items()}
        nxt = {v: base for v in nodes}
        for u, v in edges:
            nxt[v] += share[u]
        units = nxt
    return pa.table({
        "node": pa.array(nodes, pa.string()),
        "rank_units": pa.array([units[v] for v in nodes], pa.int64()),
        "rank": pa.array([float(round_half_up(units[v] / (n * GRAPH_UNITS), 9))
                          for v in nodes], pa.float64()),
    })


def expected_pagerank_weighted(triples: pa.Table,
                               n_iter: int = 10) -> pa.Table:
    """Weighted-PageRank dict re-walk (stages/graph.py:pagerank_weighted
    spec): edge weight = multiplicity of the (subj, obj) pair in the raw
    triple table, delivered share floor(units·85·w / (100·W_out)) in exact
    python bigints (the distributed divmod split equals this exactly)."""
    from .functions.strings import round_half_up

    w_of: dict = {}
    for s, o in zip(triples.column("subj_norm").to_pylist(),
                    triples.column("obj_norm").to_pylist()):
        w_of[(s, o)] = w_of.get((s, o), 0) + 1
    nodes = sorted({n for e in w_of for n in e})
    n = len(nodes)
    wout: dict = {}
    for (u, _), w in w_of.items():
        wout[u] = wout.get(u, 0) + w
    base = (n * GRAPH_UNITS) * 15 // (100 * n)
    units = {v: GRAPH_UNITS for v in nodes}
    for _ in range(n_iter):
        nxt = {v: base for v in nodes}
        for (u, v), w in w_of.items():
            nxt[v] += units[u] * 85 * w // (100 * wout[u])
        units = nxt
    return pa.table({
        "node": pa.array(nodes, pa.string()),
        "rank_units": pa.array([units[v] for v in nodes], pa.int64()),
        "rank": pa.array([float(round_half_up(units[v] / (n * GRAPH_UNITS),
                                              9)) for v in nodes],
                         pa.float64()),
    })


def expected_type_propagation(triples: pa.Table, types: pa.Table,
                              n_iter: int = 2) -> pa.Table:
    """Dict re-walk of graph.py:seeded_type_propagation — same distinct
    directed edge set (each edge votes both directions), same monotone
    modal-type adoption with (count desc, type asc) winners."""
    edges = _distinct_edges(triples)
    nodes = sorted({x for e in edges for x in e})
    node_set = set(nodes)
    lab: dict = {}
    rnd: dict = {}
    seed_pairs = sorted(zip(types.column("entity").to_pylist(),
                            types.column("etype").to_pylist()))
    for ent, ty in seed_pairs:
        if ent in node_set and (ent not in lab or ty < lab[ent]):
            lab[ent] = ty
    for ent in lab:
        rnd[ent] = 0
    for h in range(1, n_iter + 1):
        votes: dict = {}
        for s, o in edges:
            if s in lab and o not in lab:
                votes.setdefault(o, {}).setdefault(lab[s], 0)
                votes[o][lab[s]] += 1
            if o in lab and s not in lab:
                votes.setdefault(s, {}).setdefault(lab[o], 0)
                votes[s][lab[o]] += 1
        if not votes:
            break
        for v, tv in votes.items():
            best = sorted(tv.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
            lab[v] = best
            rnd[v] = h
    typed = sorted(lab)
    return pa.table({
        "node": pa.array(typed, pa.string()),
        "etype": pa.array([lab[v] for v in typed], pa.string()),
        "round_assigned": pa.array([rnd[v] for v in typed], pa.int64()),
    })


def expected_hll_ndv(sf_dir: str, p: int = 12) -> pa.Table:
    """Single-threaded HLL recompute over the events table: same hash /
    register / estimator spec as stages/sketch.py but evaluated in ONE pass
    per group (no partial merge) — register max is order-independent, so the
    distributed run must match exactly."""
    from .stages.sketch import hll_estimate, hll_partial_registers

    t = pq.read_table(os.path.join(sf_dir, "events.parquet"),
                      columns=["event_type", "user_id"])
    df = t.to_pandas()
    keys, ndvs = [], []
    for k in sorted(df["event_type"].unique()):
        vals = df.loc[df["event_type"] == k, "user_id"].to_numpy()
        nz, regs = hll_partial_registers(vals, p)
        keys.append(k)
        ndvs.append(hll_estimate(nz, regs, p))
    return pa.table({"event_type": pa.array(keys, pa.string()),
                     "ndv": pa.array(ndvs, pa.int64())})


def _splitmix64_scalar(z: int) -> int:
    """Pure-python splitmix64 twin (independent of the numpy kernel)."""
    m = 0xFFFFFFFFFFFFFFFF
    z = (z + 0x9E3779B97F4A7C15) & m
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m
    return (z ^ (z >> 31)) & m


def expected_stratified_sample(sf_dir: str, key: str = "o_orderpriority",
                               id_col: str = "o_orderkey", n: int = 20,
                               seed: int = 42) -> pa.Table:
    """Per-stratum smallest-n by splitmix64(id ^ seed), scalar recompute."""
    import pandas as pd

    df = pd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                         columns=[key, id_col])
    keys, ids = [], []
    for k, g in sorted(df.groupby(key), key=lambda kv: kv[0]):
        scored = sorted((_splitmix64_scalar(int(i) ^ seed), int(i))
                        for i in g[id_col])[:n]
        keys += [k] * len(scored)
        ids += [i for _, i in scored]
    return pa.table({key: pa.array(keys, pa.string()),
                     id_col: pa.array(ids, pa.int64())})


def expected_substring_pairs(sf_dir: str, k: int = 20, w: int = 8,
                             min_shared: int = 2, max_df: int = 8) -> pa.Table:
    """Winnowed substring-fingerprint pairs — scalar re-derivation: per-doc
    Horner rolling hash over k-byte windows, explicit window-min winnowing,
    Counter over per-fingerprint doc pairs."""
    from collections import Counter, defaultdict

    import pandas as pd

    m64 = 0xFFFFFFFFFFFFFFFF
    b_const = 1000003
    df = pd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    fp2docs: dict[int, set] = defaultdict(set)
    for doc_id, text in zip(df["doc_id"], df["text"]):
        data = text.encode("utf-8")
        n = len(data)
        if n < k:
            continue
        hs = []
        h = 0
        for j in range(k):                    # first window, plain Horner
            h = (h * b_const + data[j]) & m64
        hs.append(h)
        top = pow(b_const, k - 1, 1 << 64)
        for i in range(1, n - k + 1):         # roll
            h = ((h - data[i - 1] * top) * b_const + data[i + k - 1]) & m64
            hs.append(h)
        hs = [_splitmix64_scalar(x) for x in hs]
        if len(hs) <= w:
            sel = {min(hs)}
        else:
            sel = {min(hs[i:i + w]) for i in range(len(hs) - w + 1)}
        for v in sel:
            fp2docs[v].add(int(doc_id))
    cnt: Counter = Counter()
    for ids in fp2docs.values():
        ids = sorted(ids)
        if len(ids) < 2 or len(ids) > max_df:
            continue
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                cnt[(ids[x], ids[y])] += 1
    rows = sorted((a, b, c) for (a, b), c in cnt.items() if c >= min_shared)
    return pa.table({
        "id_a": pa.array([r[0] for r in rows], pa.int64()),
        "id_b": pa.array([r[1] for r in rows], pa.int64()),
        "n_shared": pa.array([r[2] for r in rows], pa.int64()),
    })


# ------------------------------------------------------------------ writers


ORACLE_DIR = "/tmp/dygiepp_ray_oracle"


def write_oracle(name: str, table: pa.Table) -> str:
    os.makedirs(ORACLE_DIR, exist_ok=True)
    path = os.path.join(ORACLE_DIR, f"{name}.parquet")
    pq.write_table(table, path)
    return path


def expected_mixture_sample(sf_dir: str, key: str = "source",
                            id_col: str = "doc_id", total: int = 200,
                            temperature: float = 0.5,
                            seed: int = 42) -> pa.Table:
    """Temperature-mix sample — scalar recompute: per-source quota
    floor(total * n^tau / sum n^tau), then the quota smallest
    splitmix64(id ^ seed) ids per source."""
    import pandas as pd

    df = pd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=[key, id_col])
    # deterministic skew (mirrors the query): small sources keep only every
    # third doc, three sources stay complete
    full = df[key].isin(("src0", "src1", "src2"))
    df = df[full | (df[id_col] % 3 == 0)]
    counts = {k: len(g) for k, g in df.groupby(key)}
    tot_w = sum(n ** temperature for n in counts.values())
    ids, keys = [], []
    for k, g in sorted(df.groupby(key), key=lambda kv: kv[0]):
        quota = int(total * (counts[k] ** temperature) / tot_w)
        scored = sorted((_splitmix64_scalar(int(i) ^ seed), int(i))
                        for i in g[id_col])[:quota]
        keys += [k] * len(scored)
        ids += [i for _, i in scored]
    return pa.table({id_col: pa.array(ids, pa.int64()),
                     key: pa.array(keys, pa.string())})


def expected_bpe_merges(sf_dir: str, n_merges: int = 12,
                        min_count: int = 2) -> pa.Table:
    """Scalar BPE re-derivation: word-type counts from the parquet, then a
    plain dict/Counter merge loop (independent of stages/bpe.py)."""
    from collections import Counter

    import pandas as pd

    df = pd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["text"])
    wc: Counter = Counter()
    for t in df["text"]:
        wc.update(t.lower().split())
    table = {w: tuple(w) for w in wc}
    ranks, lefts, rights, mergeds, counts = [], [], [], [], []
    for rank in range(n_merges):
        pc: Counter = Counter()
        for w, syms in table.items():
            n = wc[w]
            for i in range(len(syms) - 1):
                pc[(syms[i], syms[i + 1])] += n
        if not pc:
            break
        (a, b), cnt = max(pc.items(),
                          key=lambda kv: (kv[1], kv[0][0], kv[0][1]))
        if cnt < min_count:
            break
        ab = a + b
        ranks.append(rank); lefts.append(a); rights.append(b)
        mergeds.append(ab); counts.append(int(cnt))
        new_table = {}
        for w, syms in table.items():
            out, i = [], 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == a
                        and syms[i + 1] == b):
                    out.append(ab); i += 2
                else:
                    out.append(syms[i]); i += 1
            new_table[w] = tuple(out)
        table = new_table
    return pa.table({"rank": pa.array(ranks, pa.int64()),
                     "left": pa.array(lefts, pa.string()),
                     "right": pa.array(rights, pa.string()),
                     "merged": pa.array(mergeds, pa.string()),
                     "count": pa.array(counts, pa.int64())})


def expected_cms_token_counts(sf_dir: str,
                              probes=("scan", "merge", "window",
                                      "zzz-missing"),
                              width: int = 4096, depth: int = 4,
                              seed: int = 11) -> pa.Table:
    """Scalar CMS re-derivation: Counter over the token stream, per-row
    blake2b+splitmix64 bucket adds, probe minima."""
    import hashlib
    from collections import Counter

    import pandas as pd

    df = pd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["text"])
    wc: Counter = Counter()
    for t in df["text"]:
        wc.update(t.lower().split())

    def h64(s: str) -> int:
        return int.from_bytes(
            hashlib.blake2b(s.encode(), digest_size=8).digest(), "big")

    rs = [_splitmix64_scalar(((r + 1) * seed) & 0xFFFFFFFFFFFFFFFF)
          for r in range(depth)]
    sk = [[0] * width for _ in range(depth)]
    for v, n in wc.items():
        hv = h64(v)
        for r in range(depth):
            sk[r][_splitmix64_scalar(hv ^ rs[r]) % width] += n
    ests = []
    for p in probes:
        hv = h64(p)
        ests.append(min(sk[r][_splitmix64_scalar(hv ^ rs[r]) % width]
                        for r in range(depth)))
    return pa.table({"token": pa.array(list(probes), pa.string()),
                     "est": pa.array(ests, pa.int64())})


def expected_compression_ratio(sf_dir: str) -> pa.Table:
    """Scalar zlib recompute (level pinned to 6, same zlib as the engine)."""
    import zlib

    import pandas as pd

    df = pd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    ids, raws, zls, ratios = [], [], [], []
    for i, t in zip(df["doc_id"], df["text"]):
        raw = len(t)
        zl = len(zlib.compress(t.encode("utf-8"), 6))
        ids.append(int(i)); raws.append(raw); zls.append(zl)
        ratios.append(zl * 10000 // max(raw, 1))
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "raw_len": pa.array(raws, pa.int64()),
                     "zlen": pa.array(zls, pa.int64()),
                     "ratio_scaled": pa.array(ratios, pa.int64())})


def expected_neardup_clusters(sf_dir: str, threshold: float = 0.8) -> pa.Table:
    """Union-find over the brute-force minhash pair set — independent of the
    engine's CC fixpoint."""
    pairs = expected_minhash_pairs(sf_dir, threshold=threshold)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["id_a"].to_pylist(), pairs["id_b"].to_pylist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    nodes = sorted(parent)
    return pa.table({"doc_id": pa.array(nodes, pa.int64()),
                     "keep_id": pa.array([find(n) for n in nodes],
                                         pa.int64())})


def expected_curation(sf_dir: str, quality_min: float = 0.5,
                      threshold: float = 0.8) -> pa.Table:
    """Scalar funnel recompute for pipelines/curation.py:curate_corpus —
    sha keepers via hashlib, near-dup clusters via brute-force minhash pairs
    + union-find over the exact-pass survivors, quality via a plain-python
    mirror of the documented formula."""
    import hashlib
    from collections import defaultdict

    import pandas as pd

    from .functions.strings import STOPWORDS, round_half_up
    from .stages.dedup import MinHasher

    stop = frozenset(STOPWORDS)
    df = pd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    ids = [int(i) for i in df["doc_id"]]
    texts = list(df["text"])

    # stage 1: exact keepers
    by_sha: dict[str, list[int]] = defaultdict(list)
    for i, t in zip(ids, texts):
        by_sha[hashlib.sha256(t.encode("utf-8")).hexdigest()].append(i)
    keepers = {min(v) for v in by_sha.values()}
    status = {i: "exact_dup" for i in ids if i not in keepers}

    surv1 = [(i, t) for i, t in zip(ids, texts) if i in keepers]

    # stage 2: near-dup union-find over survivors (brute-force pair twin)
    mh = MinHasher(n_perm=64, shingle_k=3)
    sigs = {i: mh.signature(t) for i, t in surv1}
    sids = [i for i, _ in surv1]
    r = 64 // 16
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a_ix in range(len(sids)):
        for b_ix in range(a_ix + 1, len(sids)):
            a, b = sids[a_ix], sids[b_ix]
            eq = sigs[a] == sigs[b]
            if not any(eq[k * r:(k + 1) * r].all() for k in range(16)):
                continue
            if float(np.mean(eq)) >= threshold:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    near_drop = {i for i in parent if find(i) != i}
    for i in near_drop:
        status[i] = "near_dup"

    # stage 3: quality over remaining survivors (formula mirror)
    for i, t in surv1:
        if i in near_drop:
            continue
        toks = t.lower().split()
        n = len(toks)
        n_eff = max(n, 1)
        stop_ratio = float(round_half_up(
            sum(w in stop for w in toks) / n_eff, 6))
        uniq_ratio = float(round_half_up(len(set(toks)) / n_eff, 6))
        q = (min(n, 100) / 100.0) * 0.4 + min(stop_ratio, 0.4) * 0.5 \
            + uniq_ratio * 0.4
        q = float(round_half_up(min(q, 1.0), 6))
        status[i] = "kept" if q >= quality_min else "low_quality"

    out_ids = sorted(status)
    return pa.table({"doc_id": pa.array(out_ids, pa.int64()),
                     "status": pa.array([status[i] for i in out_ids],
                                        pa.string())})


def expected_weighted_sample(sf_dir: str, k: int = 100,
                             seed: int = 42) -> pa.Table:
    """ES-sampling recompute: same key formula (it defines the operator)
    over a single full-table numpy pass, explicit top-k."""
    import pandas as pd

    from .stages.dedup import _splitmix64

    df = pd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "n_chars"])
    ids = df["doc_id"].to_numpy().astype(np.uint64)
    w = df["n_chars"].to_numpy(np.float64)
    u = (_splitmix64(ids ^ np.uint64(seed)).astype(np.float64) + 1.0) / 2.0 ** 64
    key = u ** (1.0 / np.maximum(w, 1e-12))
    out = pd.DataFrame({"doc_id": df["doc_id"].astype("int64"),
                        "n_chars": df["n_chars"].astype("int64"),
                        "es_key": key})
    out = out.sort_values(["es_key", "doc_id"],
                          ascending=[False, True]).head(k)
    return pa.table({"doc_id": pa.array(out["doc_id"], pa.int64()),
                     "n_chars": pa.array(out["n_chars"], pa.int64()),
                     "es_key": pa.array(out["es_key"], pa.float64())})


def expected_knn_pq(sf_dir: str, m: int = 4, kcode: int = 16,
                    n_iter: int = 4, k: int = 10) -> pa.Table:
    """Scalar PQ recompute: Lloyd per subspace over the full matrix with the
    engine's int64-scaled sums and difference-form distances (exact partial
    sums make the distributed and single-pass trainings identical), then
    ADC against the vec_id-0 query."""
    import pandas as pd

    from .functions.strings import round_half_up

    scale = 1_000_000
    df = pd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                         columns=["vec_id", "embedding"]).sort_values(
                             "vec_id").reset_index(drop=True)
    x = np.stack([np.asarray(v, dtype=np.float64) for v in df["embedding"]])
    ids = df["vec_id"].to_numpy()
    dim = x.shape[1]
    dsub = dim // m

    def assign(mat: np.ndarray, cents: np.ndarray) -> np.ndarray:
        d = np.empty((mat.shape[0], cents.shape[0]), dtype=np.float64)
        for j in range(cents.shape[0]):
            diff = mat - cents[j]
            d[:, j] = (diff * diff).sum(axis=1)
        return d.argmin(axis=1)

    # init: k smallest vec_ids (df already id-sorted)
    cb = np.ascontiguousarray(
        x[:kcode].reshape(kcode, m, dsub).transpose(1, 0, 2))
    for _ in range(n_iter):
        new = cb.copy()
        for s in range(m):
            xs = x[:, s * dsub:(s + 1) * dsub]
            labels = assign(xs, cb[s])
            scaled = np.rint(xs * scale).astype(np.int64)
            for j in range(kcode):
                sel = scaled[labels == j]
                if len(sel):
                    new[s, j] = sel.sum(axis=0).astype(np.float64) \
                        / (scale * len(sel))
        cb = new

    qv = x[ids.tolist().index(0)]
    lut = np.empty((m, kcode), dtype=np.float64)
    for s in range(m):
        diff = cb[s] - qv[s * dsub:(s + 1) * dsub]
        lut[s] = (diff * diff).sum(axis=1)
    adc = np.zeros(x.shape[0], dtype=np.float64)
    for s in range(m):
        xs = x[:, s * dsub:(s + 1) * dsub]
        adc += lut[s][assign(xs, cb[s])]
    out = pd.DataFrame({"vec_id": ids.astype(np.int64),
                        "adc": round_half_up(adc, 6)})
    out = out.sort_values(["adc", "vec_id"]).head(k)
    return pa.table({"vec_id": pa.array(out["vec_id"], pa.int64()),
                     "adc": pa.array(out["adc"], pa.float64())})


def expected_bm25(sf_dir: str, terms=("scan", "merge", "window"),
                  k1: float = 1.2, b: float = 0.75,
                  top_n: int = 20) -> pa.Table:
    """Scalar BM25 recompute with the same fixed-term-order float64 sums."""
    import math

    import pandas as pd

    from .functions.strings import round_half_up

    df = pd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "text"])
    toks = [t.lower().split() for t in df["text"]]
    n = len(df)
    avgdl = sum(len(ws) for ws in toks) / max(n, 1)
    idf = {}
    for t in terms:
        dfreq = sum(t in ws for ws in toks)
        idf[t] = math.log((n - dfreq + 0.5) / (dfreq + 0.5) + 1.0)
    rows = []
    for doc_id, ws in zip(df["doc_id"], toks):
        dl = float(len(ws))
        s = 0.0
        for t in terms:
            tf = float(ws.count(t))
            if tf > 0:
                denom = tf + k1 * (1.0 - b + b * dl / avgdl)
                s += idf[t] * tf * (k1 + 1.0) / denom
        sr = float(round_half_up(s, 6))
        if sr > 0:
            rows.append((int(doc_id), sr))
    rows.sort(key=lambda r: (-r[1], r[0]))
    rows = rows[:top_n]
    return pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                     "score": pa.array([r[1] for r in rows], pa.float64())})


def expected_media_frames(n: int = 32, n_frames: int = 4) -> pa.Table:
    """Scalar recompute of the frame-sampling offsets over the synthetic
    media corpus (videos only)."""
    from .stages.multimodal import synth_media_table

    t = synth_media_table(n)
    ids, offs = [], []
    for mid, kind, dur in zip(t["media_id"].to_pylist(),
                              t["kind"].to_pylist(),
                              t["duration_ms"].to_pylist()):
        if kind != "video":
            continue
        d = int(dur) if dur is not None else 0
        for i in range(n_frames):
            ids.append(mid)
            offs.append((d * i) // max(1, n_frames))
    return pa.table({"media_id": pa.array(ids, pa.string()),
                     "frame_offset_ms": pa.array(offs, pa.int64())})


def expected_media_dedup(n: int = 32, n_dups: int = 16) -> pa.Table:
    """Scalar recompute of payload_dedup over the synthetic media corpus
    with `n_dups` planted copies (row i >= n duplicates row i - n's payload
    under media_id d{i:04d})."""
    import hashlib

    from .stages.multimodal import synth_media_table

    t = synth_media_table(n)
    mids = t["media_id"].to_pylist()
    payloads = t["payload"].to_pylist()
    for i in range(n_dups):
        mids.append(f"d{n + i:04d}")
        payloads.append(payloads[i])
    groups: dict = {}
    for mid, p in zip(mids, payloads):
        sha = hashlib.sha256(p).hexdigest()[:16]
        cnt, keeper = groups.get(sha, (0, None))
        groups[sha] = (cnt + 1, mid if keeper is None or mid < keeper
                       else keeper)
    shas = sorted(groups)
    return pa.table({
        "sha16": pa.array(shas, pa.string()),
        "n_copies": pa.array([groups[s][0] for s in shas], pa.int64()),
        "keeper_media_id": pa.array([groups[s][1] for s in shas],
                                    pa.string()),
    })


def expected_media_resize(n: int = 32, max_side: int = 512) -> pa.Table:
    """Scalar recompute of the integer resize plan (images only)."""
    from .stages.multimodal import synth_media_table

    t = synth_media_table(n)
    rows = []
    for mid, kind, w, h in zip(t["media_id"].to_pylist(),
                               t["kind"].to_pylist(),
                               t["width"].to_pylist(),
                               t["height"].to_pylist()):
        if kind != "image":
            continue
        w, h = int(w or 0), int(h or 0)
        longest = max(w, h, 1)
        if longest > max_side:
            nw, nh = w * max_side // longest, h * max_side // longest
            rs = True
        else:
            nw, nh, rs = w, h, False
        rows.append((mid, w, h, nw, nh, rs))
    return pa.table({
        "media_id": pa.array([r[0] for r in rows], pa.string()),
        "width": pa.array([r[1] for r in rows], pa.int64()),
        "height": pa.array([r[2] for r in rows], pa.int64()),
        "new_w": pa.array([r[3] for r in rows], pa.int64()),
        "new_h": pa.array([r[4] for r in rows], pa.int64()),
        "resized": pa.array([r[5] for r in rows], pa.bool_()),
    })


# ------------------------------------------------ learned-scorer oracle


def _learned_feat(feats: list[str], dim: int) -> list[int]:
    return [stable_hash64(f) % dim for f in feats]


def expected_triples_learned(corpus_dir: str, weights_path: str) -> pa.Table:
    """Expected kg_triples output under the LEARNED v2 scorer artifact —
    an independent re-walk of the learned decode (full span enumeration,
    max-logit entity-beam mention in the pinned band, pruner, pattern-gap
    relation scoring with additive mentions, canonical-registry coref),
    reading the `.npz` directly; shares no scorer/kernel code with the
    engine. Reference decode arithmetic as in `decode_doc` above."""
    z = np.load(weights_path, allow_pickle=False)
    assert int(z["format_version"][0]) == 2
    dim = int(z["dim"][0])
    max_pat = int(z["max_pattern_len"][0])
    ner_W, rel_W = z["ner_W"], z["rel_W"]

    span_cache: dict[str, tuple] = {}
    rel_cache: dict[str, np.ndarray] = {}

    def span_info(text: str):
        v = span_cache.get(text)
        if v is None:
            toks = text.split()
            feats = ["B:", f"S:{text}", f"N:{len(toks)}"]
            feats += [f"T:{t}" for t in toks]
            feats += [f"P:{a}_{b}" for a, b in zip(toks, toks[1:])]
            if toks:
                feats += [f"F:{toks[0]}", f"L:{toks[-1]}",
                          f"FL:{toks[0]}_{toks[-1]}"]
            vec = ner_W[_learned_feat(feats, dim)].sum(axis=0)
            raw = vec.max()
            hit = bool(raw > 0.0)
            sig = 1.0 / (1.0 + np.exp(-raw))
            mention = 2.0 + 0.1 * sig if hit else -1.0 + 0.05 * sig
            v = (hit, float(mention), int(vec.argmax()))
            span_cache[text] = v
        return v

    def rel_vec(between: str) -> np.ndarray:
        v = rel_cache.get(between)
        if v is None:
            toks = between.split()
            feats = ["B:", f"R:{between}"] + [f"C:{t}" for t in toks]
            feats += [f"D:{a}_{b}" for a, b in zip(toks, toks[1:])]
            v = rel_W[_learned_feat(feats, dim)].sum(axis=0)
            rel_cache[between] = v
        return v

    cols = {n: [] for n in TRIPLE_SCHEMA.names}
    for key, sentences, sha in prep_documents(corpus_dir):
        doc_rel = []
        registry: dict[str, list[tuple[int, int]]] = {}
        offset = 0
        for sent in sentences:
            n = len(sent)
            lower = [t.lower() for t in sent]
            spans = [(s, e) for s in range(n)
                     for e in range(s, min(s + MAX_SPAN_WIDTH, n))]
            infos = [span_info(" ".join(lower[s : e + 1])) for (s, e) in spans]
            mentions = [i[1] for i in infos]
            for (s, e), (hit, _m, _lab) in zip(spans, infos):
                if hit:
                    ck = canonicalize(" ".join(sent[s : e + 1]))
                    if ck:
                        registry.setdefault(ck, []).append(
                            (offset + s, offset + e))
            k = max(1, math.ceil(0.5 * n))
            kept = sorted(sorted(range(len(spans)),
                                 key=lambda i: (-mentions[i], i))[:k])
            rels = []
            for ai in kept:
                if not infos[ai][0]:
                    continue
                s1, e1 = spans[ai]
                for bi in kept:
                    if ai == bi or not infos[bi][0]:
                        continue
                    s2, e2 = spans[bi]
                    if e1 < s2 and (s2 - e1 - 1) <= max_pat:
                        m12 = mentions[ai] + mentions[bi]
                        logits = rel_vec(" ".join(lower[e1 + 1 : s2])) + m12
                        full = np.concatenate([[0.0], logits])
                        lab = int(full.argmax()) - 1
                        if lab >= 0:
                            rels.append({
                                "s1": s1, "e1": e1, "s2": s2, "e2": e2,
                                "label": RELATION_LABELS[lab],
                                "conf": round(_softmax_at(
                                    float(logits[lab]), logits, lab), 4),
                            })
            doc_rel.append(rels)
            offset += n
        clusters = [v for v in registry.values() if len(v) >= 2]
        flat = [t for s in sentences for t in s]
        rep_of: dict[str, str] = {}
        for cluster in clusters:
            rep = " ".join(flat[cluster[0][0] : cluster[0][1] + 1])
            for (ms, me) in cluster[1:]:
                mention = " ".join(flat[ms : me + 1])
                if contains_reference(mention):
                    rep_of[mention] = rep
        for sent, rels in zip(sentences, doc_rel):
            sent_text = " ".join(sent)
            for r in rels:
                subj = " ".join(sent[r["s1"] : r["e1"] + 1])
                obj = " ".join(sent[r["s2"] : r["e2"] + 1])
                subj = rep_of.get(subj, subj)
                obj = rep_of.get(obj, obj)
                cols["doc_id"].append(key)
                cols["sentence"].append(sent_text)
                cols["subj"].append(subj)
                cols["obj"].append(obj)
                cols["pred"].append(r["label"])
                cols["subj_norm"].append(canonicalize(subj))
                cols["obj_norm"].append(canonicalize(obj))
                cols["conf"].append(r["conf"])
                cols["content_sha256"].append(sha)
    return pa.table({n: pa.array(cols[n], TRIPLE_SCHEMA.field(n).type)
                     for n in TRIPLE_SCHEMA.names})


# ---------------------------------------------------- DSIR selection oracle


def expected_dsir_select(sf_dir: str, k: int = 50, dim: int = 1 << 16,
                         ngram: int = 2, scale: int = 1_000_000) -> pa.Table:
    """Independent re-walk of `stages/dsir.py:dsir_select` over the
    documents table (target = doc_id % 7 == 0, raw = the rest): single
    scan, scalar accumulation, same integer-scaled log-ratio arithmetic
    (exact int64 scores ⇒ bit-identical hash)."""
    import pandas as pd

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    ids = t.column("doc_id").to_pylist()
    texts = t.column("text").to_pylist()

    def feats(text: str) -> np.ndarray:
        toks = text.lower().split()
        grams = toks + [" ".join(toks[i : i + ngram])
                        for i in range(len(toks) - ngram + 1)]
        if not grams:
            return np.zeros(0, dtype=np.int64)
        h = pd.util.hash_pandas_object(pd.Series(grams), index=False)
        return (h.to_numpy() % np.uint64(dim)).astype(np.int64)

    t_hist = np.zeros(dim, dtype=np.int64)
    r_hist = np.zeros(dim, dtype=np.int64)
    raw_rows = []
    for doc_id, text in zip(ids, texts):
        f = feats(text)
        if doc_id % 7 == 0:
            np.add.at(t_hist, f, 1)
        else:
            np.add.at(r_hist, f, 1)
            raw_rows.append((doc_id, f))
    p = np.log((t_hist + 1.0) / float(t_hist.sum() + dim))
    q = np.log((r_hist + 1.0) / float(r_hist.sum() + dim))
    ratio = np.round((p - q) * scale).astype(np.int64)
    scored = sorted(((int(ratio[f].sum()), doc_id)
                     for doc_id, f in raw_rows),
                    key=lambda x: (-x[0], x[1]))[:k]
    return pa.table({
        "doc_id": pa.array([d for _s, d in scored], pa.int64()),
        "dsir_score": pa.array([s for s, _d in scored], pa.int64()),
    })


def expected_bpe_token_counts(sf_dir: str, n_merges: int = 12,
                              min_count: int = 2) -> pa.Table:
    """Scalar re-walk of BPE learn + encode: re-derive the merge table with
    the plain dict/Counter loop (same as `expected_bpe_merges`), keep the
    final per-word-type symbolization, and weight each symbol by the word
    count — independent of stages/bpe.py's distributed learner/encoder."""
    from collections import Counter

    import pandas as pd

    df = pd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["text"])
    wc: Counter = Counter()
    for t in df["text"]:
        wc.update(t.lower().split())
    table = {w: tuple(w) for w in wc}
    for _rank in range(n_merges):
        pc: Counter = Counter()
        for w, syms in table.items():
            n = wc[w]
            for i in range(len(syms) - 1):
                pc[(syms[i], syms[i + 1])] += n
        if not pc:
            break
        (a, b), cnt = max(pc.items(),
                          key=lambda kv: (kv[1], kv[0][0], kv[0][1]))
        if cnt < min_count:
            break
        ab = a + b
        new_table = {}
        for w, syms in table.items():
            out, i = [], 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == a
                        and syms[i + 1] == b):
                    out.append(ab); i += 2
                else:
                    out.append(syms[i]); i += 1
            new_table[w] = tuple(out)
        table = new_table
    tok: Counter = Counter()
    for w, syms in table.items():
        n = wc[w]
        for s in syms:
            tok[s] += n
    ks = sorted(tok)
    return pa.table({"token": pa.array(ks, pa.string()),
                     "n": pa.array([tok[k] for k in ks], pa.int64())})


def expected_knn_recall(sf_dir: str, query_ids: list[int], k: int = 10,
                        n_bits: int = 8, seed: int = 11) -> pa.Table:
    """Scalar re-walk of `stages/similarity.py:knn_recall_lsh`: full cosine
    matrix in numpy, exact top-k vs Hamming-radius-1 LSH top-k per query,
    identical float dtypes / rounding / tie order."""
    from dygiepp_ray.functions.strings import round_half_up
    from dygiepp_ray.stages.similarity import (_hyperplanes, _lsh_sig,
                                               _normalize)

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    ids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    m = _normalize(np.asarray(t.column("embedding").to_pylist(),
                              dtype=np.float64))
    by_id = {int(i): r for r, i in enumerate(ids)}
    raw = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
    qm = _normalize(np.asarray([raw[by_id[q]] for q in query_ids],
                               dtype=np.float64))
    # signatures: corpus rows float64-normalized then cast to float32;
    # queries normalized IN float32 (matching the distributed stage)
    planes = _hyperplanes(m.shape[1], n_bits, seed)
    sigs = _lsh_sig(m.astype(np.float32), planes)
    q32 = _normalize(np.asarray([raw[by_id[q]] for q in query_ids],
                                dtype=np.float32))
    qsigs = _lsh_sig(q32, planes)

    out_q, out_r = [], []
    cos = round_half_up(m @ qm.T, 6)
    for j, qid in enumerate(query_ids):
        cj = cos[:, j]
        order = np.lexsort((ids, -cj))
        exact = set(ids[order[:k]].tolist())
        near = {int(qsigs[j])} | {int(qsigs[j]) ^ (1 << b)
                                  for b in range(n_bits)}
        in_lsh = np.array([int(s) in near for s in sigs])
        lsh = set(ids[order[in_lsh[order]][:k]].tolist())
        out_q.append(int(qid))
        out_r.append(float(round_half_up(len(exact & lsh) / k, 6)))
    return pa.table({"query_id": pa.array(out_q, pa.int64()),
                     "recall": pa.array(out_r, pa.float64())})


def expected_kcore(triples: pa.Table) -> pa.Table:
    """Scalar k-core peel over the distinct undirected (subj_norm,
    obj_norm) edge set, self-loops dropped — adjacency dict + iterative
    removal, independent of stages/graph.py."""
    s = triples.column("subj_norm").to_pylist()
    o = triples.column("obj_norm").to_pylist()
    und = {tuple(sorted((a, b))) for a, b in zip(s, o) if a != b}
    adj: dict[str, set] = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    core: dict[str, int] = {}
    alive = set(adj)
    k = 1
    while alive:
        while True:
            low = {v for v in alive
                   if sum(1 for w in adj[v] if w in alive) < k}
            if not low:
                break
            for v in low:
                core[v] = k - 1
            alive -= low
        k += 1
    ks = sorted(core)
    return pa.table({"node": pa.array(ks, pa.string()),
                     "core": pa.array([core[n] for n in ks], pa.int64())})


def _media_neardup_corpus(n: int = 32, n_near: int = 12,
                          n_exact: int = 4) -> tuple:
    """(media_ids, payloads) — synthetic media corpus with `n_near`
    planted 1-byte-flipped near-copies (of rows 0..n_near-1, ids
    nd{i:04d}) and `n_exact` exact copies (of rows 0..n_exact-1, ids
    xd{i:04d}). Shared by the engine query and the oracle so both walk
    the identical corpus."""
    from .stages.multimodal import synth_media_table

    t = synth_media_table(n)
    mids = t["media_id"].to_pylist()
    payloads = t["payload"].to_pylist()
    for i in range(n_near):
        p = payloads[i]
        mids.append(f"nd{i:04d}")
        payloads.append(p[:7] + bytes([p[7] ^ 0xFF]) + p[8:])
    for i in range(n_exact):
        mids.append(f"xd{i:04d}")
        payloads.append(payloads[i])
    return mids, payloads


def expected_media_neardup(n: int = 32, n_near: int = 12,
                           n_exact: int = 4,
                           max_hamming: int = 3) -> pa.Table:
    """ALL-PAIRS brute force of payload_neardup_pairs over the shared
    near-dup corpus: signatures reuse the payload_simhash family (the
    hash family defines the operator); the banding/shuffle/verify
    plumbing is what this checks — pigeonhole makes 4-band routing
    lossless at max_hamming 3, so all-pairs is the exact truth."""
    from .stages.dedup import _popcount_u64
    from .stages.multimodal import payload_simhash

    mids, payloads = _media_neardup_corpus(n, n_near, n_exact)
    sigs = np.array([payload_simhash(p) for p in payloads],
                    dtype=np.uint64)
    rows = []
    for i in range(len(mids)):
        for j in range(i + 1, len(mids)):
            a, b = sorted((mids[i], mids[j]))
            h = int(_popcount_u64(np.array([sigs[i] ^ sigs[j]]))[0])
            if h <= max_hamming:
                rows.append((a, b, h))
    rows.sort()
    return pa.table({
        "id_a": pa.array([r[0] for r in rows], pa.string()),
        "id_b": pa.array([r[1] for r in rows], pa.string()),
        "hamming": pa.array([r[2] for r in rows], pa.int64())})


def expected_neardup_store(sf_dir: str, n_perm: int = 64,
                           n_bands: int = 16, shingle_k: int = 3,
                           thr_milli: int = 800) -> pa.Table:
    """All-cross-pairs brute force of `neardup_against_store` over the
    doc_id % 3 store/new split (store = %3 != 0, new = %3 == 0): a new
    doc matches a stored doc iff they share ≥ 1 full band AND the exact
    integer agreement test matches·1000 ≥ thr_milli·n_perm passes; best
    = (matches desc, stored id asc). Signatures reuse the MinHasher
    family (it defines the operator); the store partitioning / selective
    reads / bucket merge are what this checks."""
    from .stages.dedup import MinHasher, _band_keys

    ids, texts = _read_docs(sf_dir)
    mh = MinHasher(n_perm=n_perm, shingle_k=shingle_k)
    sigs = np.asarray([mh.signature(t) for t in texts], dtype=np.int64)
    bands = _band_keys(sigs, n_bands)
    st = [i for i, d in enumerate(ids) if d % 3 != 0]
    nw = [i for i, d in enumerate(ids) if d % 3 == 0]
    best: dict = {}
    for i in nw:
        bi = set(bands[i].tolist())
        for j in st:
            if bi.isdisjoint(bands[j].tolist()):
                continue
            m = int((sigs[i] == sigs[j]).sum())
            if m * 1000 < thr_milli * n_perm:
                continue
            d = int(ids[i])
            cand = (m, -int(ids[j]))
            if d not in best or cand > best[d]:
                best[d] = cand
    ks = sorted(best)
    return pa.table({
        "doc_id": pa.array(ks, pa.int64()),
        "dup_of": pa.array([-best[k][1] for k in ks], pa.int64()),
        "est_matches": pa.array([best[k][0] for k in ks], pa.int64())})


def expected_events_stationary(sf_dir: str, rounds: int = 60,
                               scale: int = 10**12) -> pa.Table:
    """Dict re-walk of q_events_stationary: per-user consecutive-type
    transitions from the events parquet ((ts, event_id) order), the same
    floored fixed-point power iteration with the uniform dangling
    redistribution."""
    t = pq.read_table(os.path.join(sf_dir, "events.parquet"),
                      columns=["user_id", "event_type", "ts", "event_id"])
    df = t.to_pandas().sort_values(["user_id", "ts", "event_id"],
                                   kind="mergesort")
    u = df["user_id"].to_numpy()
    et = df["event_type"].to_numpy(object)
    ok = u[:-1] == u[1:]
    pairs = Counter(zip(et[:-1][ok], et[1:][ok]))
    types = sorted({a for a, _ in pairs} | {b for _, b in pairs})
    ix = {t: i for i, t in enumerate(types)}
    k = len(types)
    n_ij = [[0] * k for _ in range(k)]
    for (a, b), n in pairs.items():
        n_ij[ix[a]][ix[b]] = n
    row_n = [sum(r) for r in n_ij]
    pi = [scale // k + (1 if i < scale % k else 0) for i in range(k)]
    for _ in range(rounds):
        nxt = [0] * k
        for i in range(k):
            if row_n[i] == 0:
                for j in range(k):
                    nxt[j] += pi[i] // k
                continue
            for j in range(k):
                if n_ij[i][j]:
                    nxt[j] += pi[i] * n_ij[i][j] // row_n[i]
        pi = nxt
    return pa.table({
        "event_type": pa.array(types, pa.string()),
        "pi_ppm": pa.array([p // 10**6 for p in pi], pa.int64())})


def expected_compaction_plan(corpus_dir: str,
                             target: int = 24 * 1024) -> pa.Table:
    """Independent FFD re-walk of q_compaction_plan over the same shard
    manifest (sort by (bytes desc, path asc), first fit into `target`
    bins)."""
    files = sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))
    man = sorted(((os.path.getsize(f), os.path.relpath(f, corpus_dir))
                  for f in files), key=lambda t: (-t[0], t[1]))
    fill: list[int] = []
    rows = []
    for b, p in man:
        placed = -1
        for i, f in enumerate(fill):
            if f + b <= target:
                placed = i
                break
        if placed < 0:
            fill.append(b)
            placed = len(fill) - 1
        else:
            fill[placed] += b
        rows.append((p, b, placed))
    gsum = {g: sum(b for _, b, gg in rows if gg == g)
            for g in {r[2] for r in rows}}
    return pa.table({
        "path": pa.array([r[0] for r in rows], pa.string()),
        "bytes": pa.array([r[1] for r in rows], pa.int64()),
        "group_id": pa.array([r[2] for r in rows], pa.int64()),
        "group_bytes": pa.array([gsum[r[2]] for r in rows], pa.int64())})


def expected_revenue_bootstrap(sf_dir: str, n_boot: int = 64) -> pa.Table:
    """Scalar re-walk of q_revenue_bootstrap: same row keys, the shared
    poisson_bootstrap_weights family (it defines the operator), python-int
    sums, ceil-rank order-statistic picks."""
    import math

    from .stages.sketch import poisson_bootstrap_weights

    t = pq.read_table(os.path.join(sf_dir, "lineitem.parquet"),
                      columns=["l_orderkey", "l_linenumber",
                               "l_extendedprice", "l_discount"])
    ok = np.asarray(t.column("l_orderkey").to_pylist(), dtype=np.int64)
    ln = np.asarray(t.column("l_linenumber").to_pylist(), dtype=np.int64)
    ext = np.floor(np.asarray(t.column("l_extendedprice").to_pylist(),
                              dtype=np.float64) * 100.0 + 0.5
                   ).astype(np.int64)
    disc = np.floor(np.asarray(t.column("l_discount").to_pylist(),
                               dtype=np.float64) * 100.0 + 0.5
                    ).astype(np.int64)
    rev = ext * (100 - disc)
    keys = ok * 10 + ln
    w = poisson_bootstrap_weights(keys, n_boot)
    reps = sorted(int(x) for x in (w * rev[:, None]).sum(axis=0))
    total = int(rev.sum())

    def pick(p: float) -> int:
        return reps[max(math.ceil(p * n_boot), 1) - 1]

    return pa.table({
        "stat": pa.array(["total", "p05", "p50", "p95"], pa.string()),
        "value_s": pa.array([total, pick(0.05), pick(0.50), pick(0.95)],
                            pa.int64())})


def expected_betweenness(triples: pa.Table, n_seeds: int = 3,
                         max_rounds: int = 3,
                         scale: int = 1_000_000) -> pa.Table:
    """Dict re-walk of betweenness_sampled under the identical integer
    contract: hop-bounded Brandes from the top-(degree, name) hubs with
    δ(v) = Σ_w (σ(v)·(scale+δ(w))) // σ(w) — independent floored terms,
    order-invariant sum."""
    s = triples.column("subj_norm").to_pylist()
    o = triples.column("obj_norm").to_pylist()
    und = {tuple(sorted((a, b))) for a, b in zip(s, o) if a != b}
    adj: dict[str, set] = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seeds = sorted(adj, key=lambda v: (-len(adj[v]), v))[:n_seeds]
    bc = {v: 0 for v in adj}
    for seed in seeds:
        dist = {seed: 0}
        sigma = {seed: 1}
        levels = [[seed]]
        for h in range(1, max_rounds + 1):
            nxt = set()
            for u in levels[-1]:
                for w in adj[u]:
                    if w not in dist:
                        nxt.add(w)
            if not nxt:
                break
            for w in nxt:
                dist[w] = h
                sigma[w] = sum(sigma[u] for u in adj[w]
                               if dist.get(u) == h - 1)
            levels.append(sorted(nxt))
        delta = {v: 0 for v in dist}
        for h in range(len(levels) - 1, 0, -1):
            for w in levels[h]:
                for u in adj[w]:
                    if dist.get(u) == h - 1:
                        delta[u] += (sigma[u] * (scale + delta[w])
                                     ) // sigma[w]
        delta[seed] = 0
        for v, x in delta.items():
            bc[v] += x
    ks = sorted(bc)
    return pa.table({"node": pa.array(ks, pa.string()),
                     "bc_scaled": pa.array([bc[k] for k in ks],
                                           pa.int64())})


def expected_wsp(triples: pa.Table, max_rounds: int = 4) -> pa.Table:
    """Bounded Bellman-Ford re-walk of weighted_min_distances under the
    kg_wsp weight contract (w = 4 − min(undirected multiplicity, 3)):
    d_h(v) = min(d_{h−1}(v), min over incident (u,v,w) of d_{h−1}(u)+w),
    seeds = the 3 highest-(degree, name asc) hubs at distance 0."""
    s = triples.column("subj_norm").to_pylist()
    o = triples.column("obj_norm").to_pylist()
    mult: dict = {}
    for a, b in zip(s, o):
        if a == b:
            continue
        e = (a, b) if a < b else (b, a)
        mult[e] = mult.get(e, 0) + 1
    w = {e: 4 - min(c, 3) for e, c in mult.items()}
    deg: dict = {}
    for a, b in w:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    seeds = [n for n, _ in sorted(deg.items(),
                                  key=lambda t: (-t[1], t[0]))[:3]]
    dist = {n: 0 for n in seeds}
    for _ in range(max_rounds):
        nxt = dict(dist)
        for (a, b), ww in w.items():
            if a in dist and dist[a] + ww < nxt.get(b, 1 << 60):
                nxt[b] = dist[a] + ww
            if b in dist and dist[b] + ww < nxt.get(a, 1 << 60):
                nxt[a] = dist[b] + ww
        dist = nxt
    ks = sorted(dist)
    return pa.table({"node": pa.array(ks, pa.string()),
                     "dist": pa.array([dist[k] for k in ks], pa.int64())})


def expected_truss(triples: pa.Table) -> pa.Table:
    """Definition-based truss numbers over the distinct undirected edge
    set: for k = 3, 4, … compute the k-truss by iterated FULL support
    recomputation (prune edges with < k−2 in-subgraph triangles to a
    fixpoint); an edge's trussness is the largest k whose truss contains
    it. Independent of the engine's single-pass peel."""
    s = triples.column("subj_norm").to_pylist()
    o = triples.column("obj_norm").to_pylist()
    und = {tuple(sorted((a, b))) for a, b in zip(s, o) if a != b}
    truss = {e: 2 for e in und}
    cur = set(und)
    k = 3
    while cur:
        g = set(cur)
        while True:
            adj: dict[str, set] = {}
            for a, b in g:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
            bad = [e for e in g if len(adj[e[0]] & adj[e[1]]) < k - 2]
            if not bad:
                break
            g -= set(bad)
        for e in g:
            truss[e] = k
        cur = g
        k += 1
    es = sorted(truss)
    return pa.table({
        "u": pa.array([e[0] for e in es], pa.string()),
        "v": pa.array([e[1] for e in es], pa.string()),
        "trussness": pa.array([truss[e] for e in es], pa.int64())})


def expected_fuzzy_decontaminate(sf_dir: str, est_threshold: float = 0.5,
                                 n_perm: int = 64, n_bands: int = 16,
                                 shingle_k: int = 3) -> pa.Table:
    """All-cross-pairs brute-force twin of
    `stages/curate.py:fuzzy_decontaminate` over the doc_id % 5 train/eval
    split: a (train, eval) pair is contaminated iff it shares >= 1 full
    band AND its signature-estimated Jaccard >= est_threshold. Signatures
    reuse the hash family (they define the operator); the two-sided
    banding/shuffle/cross-verify plumbing is what this checks."""
    from .stages.dedup import MinHasher

    ids, texts = _read_docs(sf_dir)
    mh = MinHasher(n_perm=n_perm, shingle_k=shingle_k)
    sigs = [mh.signature(t) for t in texts]
    r = n_perm // n_bands
    tr = [(i, d) for i, d in enumerate(ids) if d % 5 != 0]
    ev = [(i, d) for i, d in enumerate(ids) if d % 5 == 0]
    out = []
    for i, tid in tr:
        for j, eid in ev:
            eq = sigs[i] == sigs[j]
            if not any(eq[b * r: (b + 1) * r].all() for b in range(n_bands)):
                continue
            est = float(np.mean(eq))
            if est >= est_threshold:
                out.append((tid, eid, round(est, 6)))
    out.sort()
    return pa.table({
        "train_id": pa.array([x[0] for x in out], pa.int64()),
        "eval_id": pa.array([x[1] for x in out], pa.int64()),
        "est_jaccard": pa.array([x[2] for x in out], pa.float64())})


def expected_remove_dup_spans(sf_dir: str, k: int = 10) -> pa.Table:
    """Scalar re-walk of `stages/dedup.py:remove_dup_spans`: window hashes
    per (doc, pos), global keeper = min packed (doc_id, pos), union of loser
    intervals dropped — plain dicts, same hash family."""
    from .stages.dedup import _POS_CAP, _token_hash_array, _window_hashes

    ids, texts = _read_docs(sf_dir)
    first: dict[int, int] = {}
    inst: list[tuple[int, int, int]] = []  # (wh, doc_id, pos)
    toks_by_doc: dict[int, list[str]] = {}
    counts: dict[int, int] = {}
    for did, text in zip(ids, texts):
        toks = text.split()
        toks_by_doc[did] = toks
        v = (_window_hashes(_token_hash_array(toks), k)
             >> np.uint64(2)).astype(np.int64)
        for pos, wh in enumerate(v.tolist()):
            packed = did * _POS_CAP + pos
            counts[wh] = counts.get(wh, 0) + 1
            if wh not in first or packed < first[wh]:
                first[wh] = packed
            inst.append((wh, did, pos))
    out_id, out_text, out_n = [], [], []
    drops: dict[int, list[int]] = {}
    for wh, did, pos in inst:
        if counts[wh] > 1 and did * _POS_CAP + pos != first[wh]:
            drops.setdefault(did, []).append(pos)
    for did in ids:
        toks = toks_by_doc[did]
        drop = np.zeros(len(toks), dtype=bool)
        for p in drops.get(did, []):
            drop[p: p + k] = True
        out_id.append(did)
        out_text.append(" ".join(t for t, d in zip(toks, drop) if not d))
        out_n.append(int(drop.sum()))
    return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                     "text": pa.array(out_text, pa.string()),
                     "n_removed": pa.array(out_n, pa.int64())})


def expected_doc_novelty(sf_dir: str, k: int = 10,
                         scale: int = 10_000) -> pa.Table:
    """Scalar re-walk of `stages/dedup.py:doc_novelty`: per-hash global
    winner = min packed (doc_id, pos); per-doc distinct window hashes and
    won hashes counted with plain dicts, same hash family."""
    from .stages.dedup import _POS_CAP, _token_hash_array, _window_hashes

    ids, texts = _read_docs(sf_dir)
    first: dict[int, int] = {}
    seen: dict[int, set] = {}
    for did, text in zip(ids, texts):
        toks = text.split()
        v = (_window_hashes(_token_hash_array(toks), k)
             >> np.uint64(2)).astype(np.int64)
        if len(v) == 0:
            continue
        seen[did] = set(v.tolist())
        for pos, wh in enumerate(v.tolist()):
            packed = did * _POS_CAP + pos
            if wh not in first or packed < first[wh]:
                first[wh] = packed
    won: dict[int, int] = {}
    for wh, packed in first.items():
        did = packed // _POS_CAP
        won[did] = won.get(did, 0) + 1
    rows = sorted(seen)
    n_w = [len(seen[d]) for d in rows]
    n_n = [won.get(d, 0) for d in rows]
    return pa.table({
        "doc_id": pa.array(rows, pa.int64()),
        "n_windows": pa.array(n_w, pa.int64()),
        "n_novel": pa.array(n_n, pa.int64()),
        "novelty_scaled": pa.array(
            [n * scale // w for n, w in zip(n_n, n_w)], pa.int64()),
    })


def expected_knn_graph(sf_dir: str, k: int = 5, n_clusters: int = 8,
                       n_iter: int = 4) -> pa.Table:
    """Scalar re-walk of `stages/cluster.py:knn_graph`: same deterministic
    Lloyd centroids, nprobe=1 cell scope, per-cell float64 cosine GEMM,
    (cosine DESC on the 6-dp rounding, nb_id ASC) neighbor order."""
    from .functions.strings import round_half_up

    ids, mat = _read_embeddings(sf_dir)
    centroids = _kmeans_single(mat, ids, n_clusters, n_iter)
    d = ((mat[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)
    labels = d.argmin(axis=1)
    norms = np.linalg.norm(mat, axis=1)
    norms[norms == 0.0] = 1.0
    nm = mat / norms[:, None]
    out_src, out_nb, out_cos = [], [], []
    for cell in np.unique(labels):
        sel = np.where(labels == cell)[0]
        if len(sel) < 2:
            continue
        cell_ids = ids[sel]
        cm = nm[sel]
        cos = round_half_up(cm @ cm.T, 6)
        for r in range(len(sel)):
            row = cos[r].copy()
            row[r] = np.inf
            order = np.lexsort((cell_ids, -row))
            take = order[row[order] != np.inf][:k]
            out_src.extend([int(cell_ids[r])] * len(take))
            out_nb.extend(int(x) for x in cell_ids[take])
            out_cos.extend(float(x) for x in row[take])
    return pa.table({
        "vec_id": pa.array(out_src, pa.int64()),
        "nb_id": pa.array(out_nb, pa.int64()),
        "cosine": pa.array(out_cos, pa.float64()),
    })


def expected_label_propagation(triples: pa.Table, n_iter: int = 5) -> pa.Table:
    """(node, community) via a single-threaded dict re-walk of the IDENTICAL
    synchronous-LPA spec in stages/graph.py:label_propagation — same distinct
    edge set, same sorted-vocabulary label init, same per-round most-frequent-
    neighbor-label update with (count DESC, label ASC) tie-break, same fixed
    round count with global-fixpoint early exit."""
    from collections import Counter, defaultdict

    edges = _distinct_edges(triples)
    nodes = sorted({n for e in edges for n in e})
    idx = {n: i for i, n in enumerate(nodes)}
    E = [(idx[u], idx[v]) for u, v in edges]
    lab = list(range(len(nodes)))
    for _ in range(n_iter):
        votes: dict = defaultdict(Counter)
        for u, v in E:
            votes[v][lab[u]] += 1
            votes[u][lab[v]] += 1
        new = lab[:]
        for node, c in votes.items():
            new[node] = min(c.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if new == lab:
            break
        lab = new
    return pa.table({
        "node": pa.array(nodes, pa.string()),
        "community": pa.array([nodes[i] for i in lab], pa.string()),
    })


def expected_corpus_sha(corpus_dir: str) -> pa.Table:
    """The raw north-rule corpus table plus an INDEPENDENTLY recomputed
    content_sha256 column (hashlib directly, not the engine's stamp) — the
    oracle input for the corpus-shape queries (repo_stats, repo_clones),
    whose real relational work then happens in DuckDB SQL."""
    import glob
    import hashlib

    import pyarrow.parquet as pq

    files = sorted(glob.glob(corpus_dir + "/part-*.parquet"))
    t = pa.concat_tables([pq.read_table(f) for f in files])
    shas = [hashlib.sha256(c.encode("utf-8")).hexdigest()
            for c in t.column("content").to_pylist()]
    return t.append_column("content_sha256", pa.array(shas, pa.string()))


def expected_embedding_link(sf_dir: str, scale: int = 1_000_000) -> pa.Table:
    """Single-threaded re-walk of stages/cluster.py:embedding_link — exact
    fixed-point class centroids (truncated integer means, per-label sums in
    plain python int), then per-row argmin of the int64 squared distance
    computed in the DIFFERENCE form (engine uses the expanded GEMM form;
    both are exact integers, so they agree bit-for-bit), ties to the
    lexicographically smallest label."""
    import os

    import numpy as np
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "label", "embedding"])
    ids = t.column("vec_id").to_pylist()
    labels = t.column("label").to_pylist()
    vecs = [np.rint(np.asarray(v, dtype=np.float64) * scale).astype(np.int64)
            for v in t.column("embedding").to_pylist()]
    by_label: dict = {}
    for lab, x in zip(labels, vecs):
        s, n = by_label.setdefault(lab, [None, 0])
        by_label[lab][0] = x.astype(object) if s is None else s + x
        by_label[lab][1] = n + 1
    labs = sorted(by_label)
    cents = []
    for lab in labs:
        s, n = by_label[lab]
        cents.append(np.array(
            [int(v) // n if v >= 0 else -((-int(v)) // n) for v in s],
            dtype=np.int64))
    out_pred, out_dist = [], []
    for x in vecs:
        best_lab, best_d = None, None
        for lab, c in zip(labs, cents):
            d = int(((x - c) ** 2).sum())
            if best_d is None or d < best_d:
                best_lab, best_d = lab, d
        out_pred.append(best_lab)
        out_dist.append(best_d)
    return pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "label": pa.array([int(x) for x in labels], pa.int64()),
        "label_pred": pa.array([int(x) for x in out_pred], pa.int64()),
        "dist_scaled2": pa.array(out_dist, pa.int64()),
        "match": pa.array([int(a == b) for a, b in zip(labels, out_pred)],
                          pa.int64()),
    })


def expected_hits(triples: pa.Table, n_iter: int = 8) -> pa.Table:
    """Single-threaded dict re-walk of stages/graph.py:hits_scores — same
    distinct edge set, same int micro-unit sum-scatters, same exact
    max-rescale floor(x*U/mx) (python bigints make the engine's divmod
    split unnecessary but produce the identical floor)."""
    from collections import defaultdict

    U = 1_000_000
    edges = _distinct_edges(triples)
    nodes = sorted({n for e in edges for n in e})
    hub = {v: U for v in nodes}
    auth = {v: 0 for v in nodes}

    def rescale(d: dict) -> dict:
        mx = max(d.values(), default=0)
        if mx <= 0:
            return {v: 0 for v in nodes}
        return {v: d.get(v, 0) * U // mx for v in nodes}

    for _ in range(n_iter):
        acc = defaultdict(int)
        for u, v in edges:
            acc[v] += hub[u]
        auth = rescale(acc)
        acc = defaultdict(int)
        for u, v in edges:
            acc[u] += auth[v]
        hub = rescale(acc)
    return pa.table({
        "node": pa.array(nodes, pa.string()),
        "auth_units": pa.array([auth[v] for v in nodes], pa.int64()),
        "hub_units": pa.array([hub[v] for v in nodes], pa.int64()),
    })


def expected_span_corruption(sf_dir: str, block: int = 8, mask_off: int = 4,
                             max_span: int = 3, seed: int = 17) -> pa.Table:
    """Independent scalar re-walk of `stages/text.py:span_corruption`: a
    per-document Python loop applying the documented mask rule
    (L = splitmix64(doc XOR ((blk + seed)·GOLD)) mod (max_span+1), offsets
    [mask_off, mask_off+L) of each fixed token block) with the scalar
    `_mix64` twin of the vectorized hash."""
    from .stages.dedup import _mix64

    M64 = (1 << 64) - 1
    GOLD = 0x9E3779B97F4A7C15

    t = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                      columns=["doc_id", "text"])
    rows = []
    for doc_id, text in zip(t.column("doc_id").to_pylist(),
                            t.column("text").to_pylist()):
        toks = text.split()
        inp, tgt, n_masked, k = [], [], 0, -1
        i = 0
        while i < len(toks):
            blk = i // block
            L = _mix64((doc_id ^ (((blk + seed) * GOLD) & M64)) & M64) \
                % (max_span + 1)
            lo, hi = mask_off, mask_off + L
            off = i % block
            if lo <= off < hi:
                if off == lo:
                    k += 1
                    inp.append(f"<extra_id_{k}>")
                    tgt.append(f"<extra_id_{k}>")
                tgt.append(toks[i])
                n_masked += 1
            else:
                inp.append(toks[i])
            i += 1
        rows.append({"doc_id": doc_id, "input_text": " ".join(inp),
                     "target_text": " ".join(tgt), "n_masked": n_masked})
    import pandas as pd

    return pa.Table.from_pandas(
        pd.DataFrame(rows, columns=["doc_id", "input_text", "target_text",
                                    "n_masked"]),
        preserve_index=False)


def expected_embedding_drift(sf_dir: str, scale: int = 1_000_000) -> pa.Table:
    """Independent re-walk of q_embedding_drift: quantize every embedding at
    `scale` (floor(x·scale + 0.5) in float64), exact int64 per-slice sums
    (vec_id parity), one float64 cosine over the two sum vectors, rounded
    half-up to 6dp — the same expression tree as the distributed path, over
    totals that are exact integers either way."""
    from .functions.strings import round_half_up

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    ids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    v = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
    q = np.floor(v * scale + 0.5).astype(np.int64)
    a = (ids % 2) == 0
    sa = q[a].sum(axis=0, dtype=np.int64).astype(np.float64)
    sb = q[~a].sum(axis=0, dtype=np.int64).astype(np.float64)
    den = np.sqrt(float((sa * sa).sum())) * np.sqrt(float((sb * sb).sum()))
    cos = float((sa * sb).sum() / den) if den > 0 else 0.0
    import pandas as pd

    return pa.Table.from_pandas(pd.DataFrame({
        "n_a": [int(a.sum())], "n_b": [int((~a).sum())],
        "mean_cosine": [float(round_half_up(np.array([cos]), 6)[0])]}),
        preserve_index=False)
