"""Extraction kernel: span enumeration, pruning, NER / relation / event decode.

The Ray-Data twin of the reference's neural forward+decode path
(dygie/models/{ner,relation,events,entity_beam_pruner}.py), implemented as

  * pure decode functions over numpy logit arrays — these encode the
    reference's decode semantics EXACTLY and are unit-tested table-driven:
      - null label fixed at index 0 with score 0; predicted = argmax-1
        (ner.py:74-147, relation.py:146-177)
      - pruner keeps k = ceil(spans_per_word * sentence_length), min 1, then
        RE-SORTS kept indices into original textual order
        (entity_beam_pruner.py:104-192, relation.py:112-131)
      - trigger beam floor(0.3*len) clamped [1,15]; argument beam
        floor(0.8*len) clamped [1,30] (events.py:133-152)
      - an argument is kept only if its trigger is itself predicted non-null
        (events.py:251-279)
      - scores rounded to 4 decimals on serialization (document.py:10-11)

  * a deterministic `LexiconScorer` standing in for the BERT trunk: logits are
    produced from broadcast entity-lexicon / relation-pattern / trigger tables
    (loaded once per worker process in `__init__` — the M1/M2
    weights-loading slot), so predictions are exactly reproducible by an
    independent oracle.

`ExtractionKernel` is the task-pool `map_batches` stage: documents in,
documents + `predicted_ner` / `predicted_relations` / `predicted_events` /
`predicted_clusters` out, Arrow in / Arrow out.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..functions.arrow import pylist
from ..functions.strings import canonicalize, stable_hash64
from ..schema import (
    ARG_BEAM_MAX,
    ARG_BEAM_MIN,
    ARG_BEAM_RATIO,
    ARG_ROLES,
    EVENT_TYPES,
    FLOAT_ROUND_DECIMALS,
    MAX_SPAN_WIDTH,
    NER_LABELS,
    RELATION_LABELS,
    RELATION_SPANS_PER_WORD,
    TRIGGER_BEAM_MAX,
    TRIGGER_BEAM_MIN,
    TRIGGER_BEAM_RATIO,
)
from ..state.process_local import ProcessLocal

# ------------------------------------------------------------------ decode


def enumerate_spans(n_tokens: int, max_width: int = MAX_SPAN_WIDTH) -> list[tuple[int, int]]:
    """P8 — all spans (start, end) inclusive with width ≤ max_width
    (dygie/data/dataset_readers/dygie.py:120-125). Textual order."""
    return [
        (s, e)
        for s in range(n_tokens)
        for e in range(s, min(s + max_width, n_tokens))
    ]


def softmax_with_null(raw: float, logits: np.ndarray, idx: int) -> float:
    """Softmax over [0, logits...] evaluated at position idx+1 (ner.py:126-139
    — the null column of constant 0 is part of the distribution)."""
    full = np.concatenate([[0.0], logits])
    m = full.max()
    exp = np.exp(full - m)
    return float(exp[idx + 1] / exp.sum())


def decode_labels(logits: np.ndarray) -> np.ndarray:
    """M3/M5 null-arithmetic: given (n_items, n_labels) real-label logits,
    prepend a 0-score null column, argmax, return label index - 1 (null→-1)."""
    if logits.size == 0:
        return np.full((logits.shape[0],), -1, dtype=np.int64)
    full = np.concatenate([np.zeros((logits.shape[0], 1)), logits], axis=1)
    return full.argmax(axis=1) - 1


def prune_spans(scores: np.ndarray, n_tokens: int,
                spans_per_word: float = RELATION_SPANS_PER_WORD) -> np.ndarray:
    """M4 — keep k = ceil(spans_per_word * n_tokens) top-scoring items (min 1)
    and return their indices RE-SORTED ascending (textual order restore,
    entity_beam_pruner.py:168-171). Ties break toward the lower index, as
    torch.topk does."""
    n = scores.shape[0]
    if n == 0:
        return np.zeros((0,), dtype=np.int64)
    k = max(1, min(n, math.ceil(spans_per_word * n_tokens)))
    # stable sort on -score keeps lower indices first among ties (torch.topk)
    order = np.argsort(-scores, kind="stable")[:k]
    return np.sort(order)


def beam_size(n_tokens: int, ratio: float, lo: int, hi: int) -> int:
    """M8 — floor(ratio * len) clamped to [lo, hi] (events.py:133-152)."""
    return int(min(hi, max(lo, math.floor(ratio * n_tokens))))


def prune_spans_entity_beam(class_scores: np.ndarray, n_tokens: int,
                            spans_per_word: float = RELATION_SPANS_PER_WORD) -> np.ndarray:
    """M4 entity-beam variant (entity_beam_pruner.py:116-119): the pruning
    score is the MAX over external class scores instead of the learned
    mention scorer; same k / order-restore rules."""
    if class_scores.size == 0:
        return np.zeros((0,), dtype=np.int64)
    return prune_spans(class_scores.max(axis=1), n_tokens, spans_per_word)


def prune_spans_gold_beam(gold_labels: np.ndarray) -> np.ndarray:
    """M4 gold-beam variant (entity_beam_pruner.py:120-125, 135-137): keep
    exactly the spans whose gold label is non-null (score 0 vs -1e20), i.e.
    k = #gold spans; order restored by construction."""
    return np.flatnonzero(gold_labels > 0).astype(np.int64)


def _round(x: float) -> float:
    return round(float(x), FLOAT_ROUND_DECIMALS)


# ------------------------------------------------------------------ scorer

# Deterministic jitter in [0, 0.1): stands in for learned-score noise so that
# top-k ordering among non-lexicon spans is stable but non-trivial.
_jitter_cache: dict[str, float] = {}


def _jitter(text: str) -> float:
    v = _jitter_cache.get(text)
    if v is None:
        v = (stable_hash64(text) % 1000) / 10000.0
        if len(_jitter_cache) < 1_000_000:  # bound per-process memory
            _jitter_cache[text] = v
    return v


class LexiconScorer:
    """Deterministic stand-in for the neural trunk (M1/M2).

    Logit policy (chosen so decode arithmetic, not the scorer, determines the
    output set):
      - NER: lexicon hit → +5.0 on its label, else -2.0 + jitter everywhere.
      - mention score: +2.0 + jitter for lexicon hits, -1.0 + jitter otherwise.
      - relation: ordered pair of two LEXICON spans (a before b) whose
        BETWEEN-tokens exactly match a connective pattern → +6.0 on that
        label; else -10.0 (mention scores of both spans are then ADDED per
        relation.py:200-245 — with lexicon mentions at +2 the null column
        can never win a pattern pair, and always wins a non-pattern pair).
      - trigger: token in trigger table → +4.0 on its type, else -2.0+jitter.
      - argument role (LEXICON spans only): position rule — arg before
        trigger → role[0] (+3.0), immediately after → role[1], further
        after → role[2]; else -10.0.
    """

    def __init__(self, entity_lexicon: dict[str, str], relation_patterns: dict[str, str],
                 event_triggers: dict[str, str]):
        self.entity_label = {k.lower(): NER_LABELS.index(v) for k, v in entity_lexicon.items()}
        self.rel_label = {k.lower(): RELATION_LABELS.index(v) for k, v in relation_patterns.items()}
        self.trig_label = {k.lower(): EVENT_TYPES.index(v) for k, v in event_triggers.items()}
        self.max_pattern_len = max((len(k.split()) for k in relation_patterns), default=0)
        # first-token index for the fast occurrence scan (extract_sentence_fast)
        # index entry: (seq_as_list, len(seq), label) — list form so the hit
        # check compares a raw slice (tuple() per candidate profiled hot),
        # length precomputed; only width-admissible phrases are indexed
        self.entity_index: dict[str, list[tuple[list[str], int, int]]] = {}
        for phrase, lab in self.entity_label.items():
            toks = phrase.split()
            if toks and len(toks) <= MAX_SPAN_WIDTH:
                self.entity_index.setdefault(toks[0], []).append(
                    (toks, len(toks), lab))
        # candidates sorted by phrase length: hits then come out of the scan
        # already (start, end)-lexicographic, so find_hits skips its sort
        for cands in self.entity_index.values():
            cands.sort(key=lambda c: c[1])

    def find_hits(self, tokens_lower: list[str]) -> list[tuple[int, int, int]]:
        """All lexicon-entity occurrences as (start, end, label_idx), in span
        enumeration order ((start, end) lexicographic), width ≤ MAX_SPAN_WIDTH."""
        hits = []
        n = len(tokens_lower)
        index_get = self.entity_index.get
        for i, tok in enumerate(tokens_lower):
            cands = index_get(tok)
            if cands is None:
                continue
            for seq, L, lab in cands:
                j = i + L
                if j <= n and tokens_lower[i:j] == seq:
                    hits.append((i, j - 1, lab))
        # already (start, end)-sorted: starts scan ascending, candidate lists
        # are length-ascending, and duplicate (start, end) pairs are
        # impossible (one phrase per span text)
        return hits

    def span_logits(self, tokens_lower: list[str], spans: list[tuple[int, int]]):
        """Returns (ner_logits (n_spans, n_labels), mention_scores (n_spans,),
        is_hit (n_spans,) bool — lexicon membership per span)."""
        n = len(spans)
        ner = np.empty((n, len(NER_LABELS)))
        mention = np.empty(n)
        is_hit = np.zeros(n, dtype=bool)
        for i, (s, e) in enumerate(spans):
            text = " ".join(tokens_lower[s : e + 1])
            hit = self.entity_label.get(text)
            if hit is not None:
                ner[i, :] = -2.0
                ner[i, hit] = 5.0
                mention[i] = 2.0 + _jitter(text)
                is_hit[i] = True
            else:
                ner[i, :] = -2.0 + _jitter(text)
                mention[i] = -1.0 + _jitter(text)
        return ner, mention, is_hit

    def relation_logits(self, tokens_lower: list[str], spans: list[tuple[int, int]],
                        kept: np.ndarray, mention: np.ndarray,
                        is_hit: np.ndarray) -> np.ndarray:
        """(n_kept, n_kept, n_labels) pair logits + both mention scores added
        (relation.py:200-245). Diagonal is left at -inf (no self relations)."""
        k = len(kept)
        out = np.full((k, k, len(RELATION_LABELS)), -10.0)
        hit_ixs = [i for i in range(k) if is_hit[kept[i]]]
        for ai in hit_ixs:
            s1, e1 = spans[kept[ai]]
            for bi in hit_ixs:
                if ai == bi:
                    continue
                s2, e2 = spans[kept[bi]]
                if e1 < s2 and (s2 - e1 - 1) <= self.max_pattern_len:
                    between = " ".join(tokens_lower[e1 + 1 : s2])
                    hit = self.rel_label.get(between)
                    if hit is not None:
                        out[ai, bi, hit] = 6.0
        m = mention[kept]
        out += m[:, None, None] + m[None, :, None]
        ii = np.arange(k)
        out[ii, ii, :] = -np.inf
        return out

    def trigger_logits(self, tokens_lower: list[str]) -> np.ndarray:
        n = len(tokens_lower)
        out = np.empty((n, len(EVENT_TYPES)))
        for i, t in enumerate(tokens_lower):
            hit = self.trig_label.get(t)
            if hit is not None:
                out[i, :] = -2.0
                out[i, hit] = 4.0
            else:
                out[i, :] = -2.0 + _jitter(t)
        return out

    def role_logits(self, trig_ix: int, span: tuple[int, int], is_hit: bool) -> np.ndarray:
        out = np.full(len(ARG_ROLES), -10.0)
        if not is_hit:
            return out
        s, e = span
        if e < trig_ix:
            out[0] = 3.0
        elif s == trig_ix + 1:
            out[1] = 3.0
        elif s > trig_ix + 1:
            out[2] = 3.0
        return out


# ------------------------------------------------------------- per-sentence


def extract_sentence(tokens: list[str], scorer: LexiconScorer):
    """Run the full decode for one sentence. Returns
    (pred_ner, pred_relations, pred_events) in the reference's JSON shapes
    with sentence-relative offsets."""
    n = len(tokens)
    lower = [t.lower() for t in tokens]
    spans = enumerate_spans(n)
    ner_logits, mention, is_hit = scorer.span_logits(lower, spans)

    # --- M3 NER decode
    ner_pred = decode_labels(ner_logits)
    pred_ner = []
    for i, lab in enumerate(ner_pred):
        if lab >= 0:
            raw = ner_logits[i, lab]
            pred_ner.append(
                {
                    "start": spans[i][0],
                    "end": spans[i][1],
                    "label": NER_LABELS[lab],
                    "raw_score": _round(raw),
                    "softmax_score": _round(softmax_with_null(raw, ner_logits[i], lab)),
                }
            )

    # --- M4 prune + M5 relations
    kept = prune_spans(mention, n)
    rel_logits = scorer.relation_logits(lower, spans, kept, mention, is_hit)
    pred_rels = []
    if kept.size:
        flat = rel_logits.reshape(-1, len(RELATION_LABELS))
        labels = decode_labels(flat).reshape(len(kept), len(kept))
        for ai in range(len(kept)):
            for bi in range(len(kept)):
                lab = labels[ai, bi]
                if lab >= 0:
                    s1, e1 = spans[kept[ai]]
                    s2, e2 = spans[kept[bi]]
                    raw = rel_logits[ai, bi, lab]
                    pred_rels.append(
                        {
                            "s1": s1, "e1": e1, "s2": s2, "e2": e2,
                            "label": RELATION_LABELS[lab],
                            "raw_score": _round(raw),
                            "softmax_score": _round(
                                softmax_with_null(raw, rel_logits[ai, bi], lab)
                            ),
                        }
                    )

    # --- M8 events
    trig_logits = scorer.trigger_logits(lower)
    trig_beam = beam_size(n, TRIGGER_BEAM_RATIO, TRIGGER_BEAM_MIN, TRIGGER_BEAM_MAX)
    trig_scores = trig_logits.max(axis=1)
    trig_kept = np.sort(np.argsort(-trig_scores, kind="stable")[:trig_beam])
    # argument beam is a fixed-size top-k on mention scores (events.py:139-152)
    arg_beam = beam_size(n, ARG_BEAM_RATIO, ARG_BEAM_MIN, ARG_BEAM_MAX)
    arg_order = np.argsort(-mention, kind="stable")[: min(arg_beam, len(spans))]
    arg_kept = np.sort(arg_order)

    pred_events = []
    trig_labels = decode_labels(trig_logits[trig_kept]) if trig_kept.size else np.array([])
    for ti, trig_ix in enumerate(trig_kept):
        lab = int(trig_labels[ti])
        if lab < 0:
            continue  # trigger-gating: null trigger emits nothing (events.py:269-270)
        raw = trig_logits[trig_ix, lab]
        args = []
        for si in arg_kept:
            role = scorer.role_logits(int(trig_ix), spans[si], bool(is_hit[si]))
            # argument scored against this trigger; add mention score (events.py:158-186)
            scored = role + mention[si]
            rlab = int(decode_labels(scored[None, :])[0])
            if rlab < 0:
                continue
            args.append(
                {
                    "start": spans[si][0],
                    "end": spans[si][1],
                    "role": ARG_ROLES[rlab],
                    "raw_score": _round(scored[rlab]),
                    "softmax_score": _round(softmax_with_null(scored[rlab], scored, rlab)),
                }
            )
        pred_events.append(
            {
                "trigger_tok": int(trig_ix),
                "event_type": EVENT_TYPES[lab],
                "trig_raw_score": _round(raw),
                "trig_softmax_score": _round(softmax_with_null(raw, trig_logits[trig_ix], lab)),
                "args": args,
            }
        )
    return pred_ner, pred_rels, pred_events


_NER_SOFTMAX_CACHE: dict[int, float] = {}
_TRIG_SOFTMAX_CACHE: dict[int, float] = {}


def _ner_softmax(lab: int) -> float:
    v = _NER_SOFTMAX_CACHE.get(lab)
    if v is None:
        vec = np.full(len(NER_LABELS), -2.0)
        vec[lab] = 5.0
        v = softmax_with_null(5.0, vec, lab)
        _NER_SOFTMAX_CACHE[lab] = v
    return v


def _trig_softmax(lab: int) -> float:
    v = _TRIG_SOFTMAX_CACHE.get(lab)
    if v is None:
        vec = np.full(len(EVENT_TYPES), -2.0)
        vec[lab] = 4.0
        v = softmax_with_null(4.0, vec, lab)
        _TRIG_SOFTMAX_CACHE[lab] = v
    return v


# Relation / event-arg softmaxes depend only on (mention-sum, label) — both
# drawn from the small jitter grid — so memoize on the EXACT float key
# (same float in → same float out; no quantized keys, which could alias
# inputs differing in the last ulp and drift from the independent oracle).
_REL_SOFTMAX_CACHE: dict[tuple[float, int], float] = {}
_ARG_SOFTMAX_CACHE: dict[tuple[float, int], float] = {}


def _rel_softmax(m12: float, lab: int) -> float:
    key = (m12, lab)
    v = _REL_SOFTMAX_CACHE.get(key)
    if v is None:
        raw = 6.0 + m12
        vec = np.full(len(RELATION_LABELS), -10.0 + m12)
        vec[lab] = raw
        v = softmax_with_null(raw, vec, lab)
        if len(_REL_SOFTMAX_CACHE) < 1_000_000:
            _REL_SOFTMAX_CACHE[key] = v
    return v


def _arg_softmax(mention: float, rlab: int) -> float:
    key = (mention, rlab)
    v = _ARG_SOFTMAX_CACHE.get(key)
    if v is None:
        raw = 3.0 + mention
        vec = np.full(len(ARG_ROLES), -10.0 + mention)
        vec[rlab] = raw
        v = softmax_with_null(raw, vec, rlab)
        if len(_ARG_SOFTMAX_CACHE) < 1_000_000:
            _ARG_SOFTMAX_CACHE[key] = v
    return v


# hot-loop constants: _round is pure, so these equal the inline calls they
# replace (pinned by the fast==slow equivalence test)
_RAW_5 = round(5.0, FLOAT_ROUND_DECIMALS)
_RAW_4 = round(4.0, FLOAT_ROUND_DECIMALS)
_NER_SOFT_ROUNDED: dict[int, float] = {}
_TRIG_SOFT_ROUNDED: dict[int, float] = {}


def _top_hits(mentions: list[float], beam: int) -> list[int]:
    """M4 over lexicon hits: the top-`beam` mention scores (ties break toward
    the earlier span, as torch.topk), re-sorted to textual order."""
    if len(mentions) <= beam:
        return list(range(len(mentions)))
    return sorted(sorted(range(len(mentions)),
                         key=lambda i: (-mentions[i], i))[:beam])


def _lexicon_relations(lower: list[str], scorer: LexiconScorer):
    """The one lexicon relation decode of a (lowercased) sentence: hits,
    mention scores, the M4 pruned `kept` set and the M5 pattern-pair loop.
    `extract_sentence_fast` and `ExtractionKernel.decode_triples_document`
    both build their output from it. Returns (hits, texts, mentions, rels)
    with rels = [(s1, e1, s2, e2, label_ix, m12)] in ai-outer/bi-inner
    order and m12 the summed mention score of the pair."""
    hits = scorer.find_hits(lower)  # [(s, e, lab)] in span-enumeration order
    if not hits:
        return hits, [], [], []
    texts = [" ".join(lower[s : e + 1]) for (s, e, _lab) in hits]
    mentions = [2.0 + _jitter(t) for t in texts]
    k = max(1, math.ceil(RELATION_SPANS_PER_WORD * len(lower)))
    kept = range(len(hits)) if len(hits) <= k else _top_hits(mentions, k)
    rel_get = scorer.rel_label.get
    maxpat = scorer.max_pattern_len
    rels = []
    for ai in kept:
        s1, e1, _ = hits[ai]
        for bi in kept:
            if ai == bi:
                continue
            s2, e2, _ = hits[bi]
            if e1 < s2 and (s2 - e1 - 1) <= maxpat:
                lab = rel_get(" ".join(lower[e1 + 1 : s2]))
                if lab is not None:
                    rels.append((s1, e1, s2, e2, lab,
                                 mentions[ai] + mentions[bi]))
    return hits, texts, mentions, rels


def extract_sentence_fast(tokens: list[str], scorer: LexiconScorer):
    """Output-identical fast path of `extract_sentence` (the slow version is
    the executable spec; tests/test_kernel_decode.py asserts equivalence).

    Key observation: non-lexicon spans can never change what is EMITTED —
    their NER argmax is always null, their relation/role logits are always
    dominated by the null column, and their mention scores (-1+jitter) never
    outrank a lexicon span's (+2+jitter). So decode reduces to:
      * NER: every lexicon occurrence (≤ MAX_SPAN_WIDTH);
      * pruner: k = ceil(0.5·n) spans total → top-min(#hits, k) hits survive
        (ties on equal mention break toward the earlier span, as in
        torch.topk), re-sorted to textual order;
      * relations: forward pattern pairs among surviving hits;
      * events: trigger tokens within beam floor(0.3·n)∈[1,15]; arguments =
        hits within beam floor(0.8·n)∈[1,30], role by position.
    """
    n = len(tokens)
    lower = [t.lower() for t in tokens]
    hits, _texts, mentions, rels = _lexicon_relations(lower, scorer)

    pred_ner = []
    ner_soft = _NER_SOFT_ROUNDED
    for (s, e, lab) in hits:
        sm = ner_soft.get(lab)
        if sm is None:
            sm = ner_soft[lab] = _round(_ner_softmax(lab))
        pred_ner.append(
            {
                "start": s, "end": e, "label": NER_LABELS[lab],
                "raw_score": _RAW_5,
                "softmax_score": sm,
            }
        )
    pred_rels = [
        {
            "s1": s1, "e1": e1, "s2": s2, "e2": e2,
            "label": RELATION_LABELS[lab],
            "raw_score": _round(6.0 + m12),
            "softmax_score": _round(_rel_softmax(m12, lab)),
        }
        for (s1, e1, s2, e2, lab, m12) in rels
    ]

    # --- events (beam_size inlined — 2 calls per sentence profiled hot;
    # floor == int() for non-negative ratios, same clamps)
    trig_beam = min(TRIGGER_BEAM_MAX, max(TRIGGER_BEAM_MIN,
                                          int(TRIGGER_BEAM_RATIO * n)))
    triggers = [(i, scorer.trig_label[t]) for i, t in enumerate(lower) if t in scorer.trig_label]
    triggers = triggers[:trig_beam]  # all trigger scores tie at 4.0 → lowest indexes win
    arg_beam = min(ARG_BEAM_MAX, max(ARG_BEAM_MIN, int(ARG_BEAM_RATIO * n)))
    arg_hits = _top_hits(mentions, arg_beam)
    pred_events = []
    for trig_ix, lab in triggers:
        args = []
        for hi in arg_hits:
            s, e, _ = hits[hi]
            if e < trig_ix:
                rlab = 0
            elif s == trig_ix + 1:
                rlab = 1
            elif s > trig_ix + 1:
                rlab = 2
            else:
                continue  # span overlaps the trigger → all roles null
            args.append(
                {
                    "start": s, "end": e, "role": ARG_ROLES[rlab],
                    "raw_score": _round(3.0 + mentions[hi]),
                    "softmax_score": _round(_arg_softmax(mentions[hi], rlab)),
                }
            )
        tsm = _TRIG_SOFT_ROUNDED.get(lab)
        if tsm is None:
            tsm = _TRIG_SOFT_ROUNDED[lab] = _round(_trig_softmax(lab))
        pred_events.append(
            {
                "trigger_tok": int(trig_ix),
                "event_type": EVENT_TYPES[lab],
                "trig_raw_score": _RAW_4,
                "trig_softmax_score": tsm,
                "args": args,
            }
        )
    return pred_ner, pred_rels, pred_events


# -------------------------------------------------------------- map stage


def decode_antecedents(antecedent_best: list[int]) -> list[list[int]]:
    """M6 greedy cluster decode (coref.py:367-439): mention i's predicted
    antecedent is `antecedent_best[i]` (an earlier mention index, or -1 for
    null). Walk mentions in order; a non-null antecedent joins its
    antecedent's cluster (creating it if needed). Returns clusters as lists
    of mention indices, in first-creation order."""
    cluster_of: dict[int, int] = {}
    clusters: list[list[int]] = []
    for i, ant in enumerate(antecedent_best):
        if ant < 0:
            continue
        cid = cluster_of.get(ant)
        if cid is None:
            cid = len(clusters)
            clusters.append([ant])
            cluster_of[ant] = cid
        clusters[cid].append(i)
        cluster_of[i] = cid
    return clusters


def bucket_distance(d: int, num_identity: int = 4, num_total: int = 10) -> int:
    """AllenNLP `util.bucket_values` twin (the reference's 10 antecedent
    distance buckets, coref.py:60-66, 541-543): identity for d ≤ 4, then
    floor(log2(d)) + 3, clamped to num_total - 1."""
    if d <= num_identity:
        return d
    return min(num_total - 1, int(math.floor(math.log2(d))) + 3)


# Default antecedent-scorer weights (the learned FFNN stand-in):
# canonical equality dominates; partial canonical-token overlap is weaker
# evidence; each distance bucket subtracts a step so NEARER antecedents win
# ties and far partial matches fall below the null score (0).
_COREF_SIM_EXACT = 4.0
_COREF_SIM_PARTIAL = 1.0     # × token-Jaccard of the canonical forms (≥ 0.5)
_COREF_DIST_WEIGHT = -0.1    # per distance bucket
# the defaults expressed as the learnable (w_exact, w_partial,
# dist-bucket-embedding) weight vector — `stages/learned.py` fits the same
# shape from data (reference: learned distance-bucket embedding,
# coref.py:60-66, 541-543)
_COREF_W_DEFAULT = (_COREF_SIM_EXACT, _COREF_SIM_PARTIAL,
                    tuple(_COREF_DIST_WEIGHT * b for b in range(10)))


def antecedent_pair_score(canon_i: str, canon_j: str, pos_distance: int,
                          mention_j: float = 0.0,
                          weights: tuple | None = None) -> float:
    """M6 pair score (coref.py:515-559 shape): similarity term + distance
    bucket embedding + antecedent mention score, against a null score of 0.
    `weights` = (w_exact, w_partial, w_dist[10]) — defaults reproduce the
    deterministic constants; trained vectors come from
    `learned.fit_coref_weights` through the `.npz` seam. The decode
    arithmetic — argmax over [null=0, antecedents...] − 1 — is unchanged."""
    if not canon_i or not canon_j:
        return float("-inf")
    w_exact, w_partial, w_dist = weights or _COREF_W_DEFAULT
    if canon_i == canon_j:
        sim = w_exact
    else:
        ti, tj = set(canon_i.split()), set(canon_j.split())
        j = len(ti & tj) / len(ti | tj) if (ti or tj) else 0.0
        if j < 0.5:
            return float("-inf")
        sim = w_partial * j
    return sim + w_dist[bucket_distance(pos_distance)] + mention_j


def antecedent_score_rows(mentions: list[tuple[int, int, str]], doc_tokens: int,
                          max_antecedents: int = 100,
                          spans_per_word: float = 0.3,
                          mention_scores: list[float] | None = None,
                          weights: tuple | None = None):
    """Shared M6 scoring pass: prune mentions to k = ceil(spans_per_word ×
    doc_tokens) (min 2, coref.py:241, textual order kept — the pruned list
    is a prefix), then score up to `max_antecedents` PRECEDING kept mentions
    per mention (cap at #kept, coref.py:260) with `antecedent_pair_score`.

    Returns (kept, rows): kept = indices into `mentions`; rows[i_pos] =
    [(j_pos, score), …] NEAREST FIRST with -inf pairs dropped. Both the
    argmax decode and the gated propagation consume these rows, so the
    scores are computed exactly once per document."""
    n = len(mentions)
    if n == 0:
        return [], []
    k = max(2, math.ceil(spans_per_word * doc_tokens))
    kept = list(range(min(n, max(k, 2))))
    cap = min(max_antecedents, len(kept))
    rows: list[list[tuple[int, float]]] = []
    for i_pos, i in enumerate(kept):
        lo = max(0, i_pos - cap)
        r: list[tuple[int, float]] = []
        for j_pos in range(i_pos - 1, lo - 1, -1):  # nearest first (tie-break)
            j = kept[j_pos]
            m_j = mention_scores[j] if mention_scores is not None else 0.0
            s = antecedent_pair_score(mentions[i][2], mentions[j][2],
                                      i_pos - j_pos, m_j, weights)
            if s != float("-inf"):
                r.append((j_pos, s))
        rows.append(r)
    return kept, rows


def argmax_antecedents(rows: list[list[tuple[int, float]]]) -> list[int]:
    """Predicted antecedent per mention = argmax over [null=0,
    antecedents…] − 1 (coref.py:315-321); rows are nearest-first, so the
    strict > keeps ties toward the NEARER antecedent."""
    best: list[int] = []
    for r in rows:
        choice, best_score = -1, 0.0  # null antecedent scores 0
        for j_pos, s in r:
            if s > best_score:
                choice, best_score = j_pos, s
        best.append(choice)
    return best


def coref_antecedent_decode(mentions: list[tuple[int, int, str]], doc_tokens: int,
                            max_antecedents: int = 100,
                            spans_per_word: float = 0.3,
                            mention_scores: list[float] | None = None,
                            weights: tuple | None = None) -> list[list[int]]:
    """M6 deterministic antecedent path (coref.py:213-439 decode semantics):
    `antecedent_score_rows` + `argmax_antecedents` + greedy cluster decode.

    `mentions`: (doc_start, doc_end, canonical_text) in textual order.
    Returns clusters as lists of indices into the PRUNED mention list.
    """
    _kept, rows = antecedent_score_rows(mentions, doc_tokens, max_antecedents,
                                        spans_per_word, mention_scores,
                                        weights)
    if not rows:
        return []
    return decode_antecedents(argmax_antecedents(rows))


def propagate_antecedent_labels(mention_labels: list[str],
                                rows: list[list[tuple[int, float]]],
                                iterations: int = 1,
                                gate: float = 0.5) -> list[str]:
    """M7 on ANTECEDENT SCORES (reference coref.py:111-154): each mention's
    label distribution is gate-updated from its antecedent distribution,

        P(·|i) = softmax([null=0, s_i1, s_i2, …])          (coref.py:133-140)
        a_i    = P(null)·d_i + Σ_j P(j)·d_j
        d_i'   = gate · a_i + (1 − gate) · d_i              (coref.py:142-144)

    with d = one-hot label distributions and the learned sigmoid gate
    replaced by a fixed deterministic constant. After `iterations` rounds
    the propagated label is the argmax (ties → lexicographically smallest
    label). Plain scalar Python on purpose: per-doc mention counts are
    small, and the oracle's independent recompute must be able to match
    the summation order bit for bit."""
    n = len(mention_labels)
    if n == 0 or iterations <= 0:
        return list(mention_labels)
    labels = sorted(set(mention_labels))
    lab_ix = {lab: k for k, lab in enumerate(labels)}
    nl = len(labels)
    dist = [[1.0 if lab_ix[lab] == k else 0.0 for k in range(nl)]
            for lab in mention_labels]
    for _ in range(iterations):
        new = [row[:] for row in dist]
        for i, r in enumerate(rows[:n]):
            if not r:
                continue
            scores = [0.0] + [s for _, s in r]
            mx = max(scores)
            exps = [math.exp(s - mx) for s in scores]
            z = sum(exps)
            p = [e / z for e in exps]
            a = [p[0] * dist[i][k] for k in range(nl)]
            for (j, _), pj in zip(r, p[1:]):
                for k in range(nl):
                    a[k] += pj * dist[j][k]
            new[i] = [gate * a[k] + (1.0 - gate) * dist[i][k]
                      for k in range(nl)]
        dist = new
    out = []
    for row in dist:
        b = 0
        for k in range(1, nl):
            if row[k] > row[b]:
                b = k
        out.append(labels[b])
    return out


def propagate_cluster_labels(doc_ner: list[list[dict]], clusters: list[list[dict]],
                             sentence_starts: list[int], sentence_lens: list[int],
                             iterations: int = 1) -> list[list[dict]]:
    """M7 deterministic twin of coref propagation (coref.py:111-154): the
    reference gate-updates top-span embeddings from their antecedent
    distribution and rescores NER; here each cluster's mentions vote and the
    MAJORITY label overwrites every member (ties break to the
    lexicographically smallest label), repeated `iterations` times."""
    if iterations <= 0 or not clusters:
        return doc_ner
    # doc-level span → (sent_ix, mention dict)
    index: dict[tuple[int, int], dict] = {}
    for sent_ix, (start, sent_ner) in enumerate(zip(sentence_starts, doc_ner)):
        for m in sent_ner:
            index[(start + m["start"], start + m["end"])] = m
    for _ in range(iterations):
        changed = False
        for cluster in clusters:
            members = [index[(c["start"], c["end"])] for c in cluster
                       if (c["start"], c["end"]) in index]
            if len(members) < 2:
                continue
            votes: dict[str, int] = {}
            for m in members:
                votes[m["label"]] = votes.get(m["label"], 0) + 1
            best = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
            for m in members:
                if m["label"] != best:
                    m["label"] = best
                    changed = True
        if not changed:
            break
    return doc_ner


def save_scorer_weights(path: str, entity_lexicon: dict[str, str],
                        relation_patterns: dict[str, str],
                        event_triggers: dict[str, str]) -> None:
    """Serialize the scorer tables to an `.npz` weights artifact — the demo
    stand-in for a real model archive. The seam mirrors the reference's
    predictor construction (dygie/predictors/dygie.py:42-55 loads an
    AllenNLP archive from a path once, in the constructor): an artifact
    path goes in, the scorer is built ONCE PER WORKER PROCESS in
    `ExtractionKernel.__init__`. Swapping this file format for real model
    weights (torch state_dict, ONNX, …) changes only `load_scorer_weights`
    and the scorer class — the Ray Data plumbing stays identical."""
    np.savez(
        path,
        format_version=np.array([1], dtype=np.int64),
        entity_keys=np.array(list(entity_lexicon.keys()), dtype="U"),
        entity_vals=np.array(list(entity_lexicon.values()), dtype="U"),
        relation_keys=np.array(list(relation_patterns.keys()), dtype="U"),
        relation_vals=np.array(list(relation_patterns.values()), dtype="U"),
        trigger_keys=np.array(list(event_triggers.keys()), dtype="U"),
        trigger_vals=np.array(list(event_triggers.values()), dtype="U"),
    )


def load_scorer_weights(path: str):
    """Inverse of `save_scorer_weights`: (entity_lexicon, relation_patterns,
    event_triggers) dicts from an `.npz` artifact. Pure numpy — no pickle,
    so the artifact is safe to ship to workers from untrusted storage."""
    z = np.load(path, allow_pickle=False)
    ver = int(z["format_version"][0])
    if ver != 1:
        raise ValueError(f"unsupported scorer-weights format: {ver}")
    return (
        dict(zip(z["entity_keys"].tolist(), z["entity_vals"].tolist())),
        dict(zip(z["relation_keys"].tolist(), z["relation_vals"].tolist())),
        dict(zip(z["trigger_keys"].tolist(), z["trigger_vals"].tolist())),
    )


def flat_predictions(doc_rel: list[list[dict]], clusters) -> tuple:
    """The dict→tuple adapter: one document's `predicted_relations` /
    `predicted_clusters` (the documents product's shape) as the
    `(rel_rows, clusters)` pair `FlattenTriples.rows_for_doc_flat` takes:

        rel_rows = [(sent_ix, s1, e1, s2, e2, label_ix, conf), ...]
        clusters = [[(doc_start, doc_end), ...], ...]
    """
    rel_rows = [
        (six, r["s1"], r["e1"], r["s2"], r["e2"],
         RELATION_LABELS.index(r["label"]), r["softmax_score"])
        for six, rels in enumerate(doc_rel) for r in rels]
    return rel_rows, [[(m["start"], m["end"]) for m in c]
                      for c in clusters or ()]


class ExtractionKernel(ProcessLocal):
    """Task-pool `map_batches` stage (M1-M8). As a `ProcessLocal`, lexicon
    tables are resolved once per worker process in __init__ — pass either
    plain dicts, `ray.ObjectRef`s (broadcast with `ray.put` on the driver;
    see state/broadcast.py), or a `weights_path` to an `.npz` artifact
    loaded from disk per process (the pluggable-weights seam: reference
    predictors load their model archive the same way,
    dygie/predictors/dygie.py:42-55).
    `coref_prop` > 0 enables the M7 label-propagation pass."""

    def __init__(self, entity_lexicon=None, relation_patterns=None, event_triggers=None,
                 coref_prop: int = 0, coref_mode: str = "canonical",
                 weights_path: str | None = None):
        assert coref_mode in ("canonical", "antecedent")

        from ..corpus import ENTITY_LEXICON, EVENT_TRIGGERS, RELATION_PATTERNS
        from ..state.broadcast import resolve

        def _resolve(x, default):
            return default if x is None else resolve(x)

        self.coref_weights: tuple | None = None
        if weights_path is not None:
            if any(x is not None for x in (entity_lexicon, relation_patterns,
                                           event_triggers)):
                raise ValueError(
                    "pass either weights_path or inline tables, not both")
            ver = int(np.load(weights_path, allow_pickle=False)
                      ["format_version"][0])
            if ver == 1:  # lexicon-table artifact
                ent, rel, trig = load_scorer_weights(weights_path)
                self.scorer = LexiconScorer(ent, rel, trig)
            elif ver == 2:  # learned parameter matrices (stages/learned.py)
                from .learned import LearnedScorer, load_learned_weights

                wts, cw = load_learned_weights(weights_path)
                self.scorer = LearnedScorer(wts)
                self.coref_weights = (cw["w_exact"], cw["w_partial"],
                                      tuple(cw["w_dist"]))
            else:
                raise ValueError(f"unsupported scorer-weights format: {ver}")
        else:
            self.scorer = LexiconScorer(
                _resolve(entity_lexicon, ENTITY_LEXICON),
                _resolve(relation_patterns, RELATION_PATTERNS),
                _resolve(event_triggers, EVENT_TRIGGERS),
            )
        # the lexicon fast path (extract_sentence_fast / find_hits) is an
        # output-pinned shortcut valid only for LexiconScorer logit policy;
        # learned scorers run the generic spec path (extract_sentence)
        self._lexicon_fast = isinstance(self.scorer, LexiconScorer)
        self.coref_prop = coref_prop
        self.coref_mode = coref_mode
        self._canon_cache: dict[str, str] = {}
        # SENTENCE decode memo of the fused triples path, one per worker
        # process per build (`state/process_local.py`): the sentence-local
        # decode is a pure function of the (lowercased) token list given a
        # fixed scorer, and web-scale corpora are boilerplate-heavy (the
        # 2.3M-file bench corpus has ~77% exact-duplicate sentences within
        # two shards), so memoizing the (relation rows, span-registry rows)
        # per distinct sentence skips find_hits + the pair loop on repeats.
        # Epoch-cleared at the cap (~128k entries ≈ tens of MB).
        self._sent_cache: dict[str, tuple] = {}
        self._sent_cache_cap = 131_072

    def _canon(self, text: str) -> str:
        v = self._canon_cache.get(text)
        if v is None:
            v = canonicalize(text)
            if len(self._canon_cache) < 500_000:
                self._canon_cache[text] = v
        return v

    def decode_document(self, sentences: list[list[str]]):
        """Per-document decode in plain Python: returns
        (doc_ner, doc_rel, doc_evt, clusters, failed). Shared by the Arrow
        `__call__` stage (the documents product) and the fallback of
        `decode_triples_document`.

        Poison-pill policy (SURVEY §4): one bad document becomes a
        `failed=True` marker, never a dead batch — mirroring the reference's
        _FAILED_PREDICTION skip markers (03_collect_shards.py:23, 44-50)."""
        try:
            doc_ner, doc_rel, doc_evt = [], [], []
            span_registry: dict[str, list[tuple[int, int]]] = {}
            mention_seq: list[tuple[int, int, str]] = []
            mention_refs: list[dict] = []
            want_seq = self.coref_mode == "antecedent"
            extract = (extract_sentence_fast if self._lexicon_fast
                       else extract_sentence)
            offset = 0
            for sent in sentences:
                ner, rels, evts = extract(sent, self.scorer)
                doc_ner.append(ner)
                doc_rel.append(rels)
                doc_evt.append(evts)
                # doc-level coref (M6): collect mentions with canonical key
                for m in ner:
                    key = self._canon(" ".join(sent[m["start"] : m["end"] + 1]))
                    if key:
                        span_registry.setdefault(key, []).append(
                            (offset + m["start"], offset + m["end"])
                        )
                    if want_seq:
                        mention_seq.append(
                            (offset + m["start"], offset + m["end"], key)
                        )
                        mention_refs.append(m)
                offset += len(sent)
            if self.coref_mode == "antecedent":
                kept, rows = antecedent_score_rows(
                    mention_seq, offset, weights=self.coref_weights)
                idx_clusters = (decode_antecedents(argmax_antecedents(rows))
                                if rows else [])
                clusters = [
                    [{"start": mention_seq[i][0], "end": mention_seq[i][1]}
                     for i in c]
                    for c in idx_clusters
                ]
                if self.coref_prop > 0 and kept:
                    # M7 over antecedent scores (not majority relabel): the
                    # score rows computed for the decode drive the gated
                    # label write-back, mutating the ner dicts in place
                    labels = [mention_refs[i]["label"] for i in kept]
                    new_labels = propagate_antecedent_labels(
                        labels, rows, iterations=self.coref_prop)
                    for i, lab in zip(kept, new_labels):
                        mention_refs[i]["label"] = lab
            else:
                clusters = [
                    [{"start": s, "end": e} for (s, e) in v]
                    for v in span_registry.values()
                    if len(v) >= 2
                ]
                if self.coref_prop > 0:
                    starts = []
                    acc = 0
                    for sent in sentences:
                        starts.append(acc)
                        acc += len(sent)
                    doc_ner = propagate_cluster_labels(
                        doc_ner, clusters, starts, [len(s) for s in sentences],
                        iterations=self.coref_prop,
                    )
            return doc_ner, doc_rel, doc_evt, clusters, False
        except Exception:  # noqa: BLE001 — per-row containment is the point
            empty = [[] for _ in sentences]
            return empty, [[] for _ in sentences], [[] for _ in sentences], [], True

    def decode_triples_document(self, sentences: list[list[str]],
                                pre_lowered: bool = False):
        """Bandwidth-lean decode for the fused triples path. Returns
        `(rel_rows, clusters, failed)` in the shape `flat_predictions`
        gives (the input of `FlattenTriples.rows_for_doc_flat`).

        Lexicon scorer in canonical coref mode: the triple table never reads
        NER rows or events, so neither the per-hit dicts nor the event
        decode are built — that Python-object churn was the measured DRAM
        ceiling at 16 extraction workers (BASELINE.md round-3 scan) — and each
        distinct sentence is decoded once per kernel (the sentence memo).
        Learned scorers and antecedent coref mode take `decode_document`
        (the memo holds canonical clusters only). Output-equivalent to
        `decode_document` + `flat_predictions` (pinned by
        tests/test_kernel_decode.py)."""
        if not self._lexicon_fast or self.coref_mode != "canonical":
            _ner, doc_rel, _evt, clusters, failed = \
                self.decode_document(sentences)
            return (*flat_predictions(doc_rel, clusters), failed)
        scorer = self.scorer
        canon = self._canon
        cache = self._sent_cache
        cache_get = cache.get
        rel_rows: list[tuple] = []
        span_registry: dict[str, list[tuple[int, int]]] = {}
        setdefault = span_registry.setdefault
        offset = 0
        try:
            for sent_ix, sent in enumerate(sentences):
                # pre_lowered: the Arrow fast prep (pipelines/kg.py) only
                # admits all-lowercase ASCII text, so .lower() would be a
                # per-token identity COPY — reuse the list instead
                lower = sent if pre_lowered else [t.lower() for t in sent]
                ckey = "\x00".join(lower)
                entry = cache_get(ckey)
                if entry is None:
                    hits, texts, _mentions, rels = \
                        _lexicon_relations(lower, scorer)
                    local_rel, local_spans = [], []
                    for (s1, e1, s2, e2, lab, m12) in rels:
                        local_rel.append((s1, e1, s2, e2, lab,
                                          _round(_rel_softmax(m12, lab))))
                    for (s, e, _lab), t in zip(hits, texts):
                        key = canon(t)
                        if key:
                            local_spans.append((key, s, e))
                    if len(cache) >= self._sent_cache_cap:
                        cache.clear()  # epoch reset — bounded memory
                    entry = (local_rel, local_spans)
                    cache[ckey] = entry
                local_rel, local_spans = entry
                for (s1, e1, s2, e2, lab, conf) in local_rel:
                    rel_rows.append((sent_ix, s1, e1, s2, e2, lab, conf))
                for (key, s, e) in local_spans:
                    setdefault(key, []).append((offset + s, offset + e))
                offset += len(sent)
            clusters = [v for v in span_registry.values() if len(v) >= 2]
            return rel_rows, clusters, False
        except Exception:  # noqa: BLE001 — per-row containment (SURVEY §4)
            return [], [], True

    def __call__(self, batch: pa.Table) -> pa.Table:
        sentences_col = pylist(batch.column("sentences"))
        pred_ner_col, pred_rel_col, pred_evt_col, clusters_col = [], [], [], []
        failed_col = []
        for sentences in sentences_col:
            doc_ner, doc_rel, doc_evt, clusters, failed = self.decode_document(sentences)
            pred_ner_col.append(doc_ner)
            pred_rel_col.append(doc_rel)
            pred_evt_col.append(doc_evt)
            clusters_col.append(clusters)
            failed_col.append(failed)

        from ..schema import PREDICTED_COLUMNS

        batch = batch.append_column(
            "predicted_ner", pa.array(pred_ner_col, PREDICTED_COLUMNS.field("predicted_ner").type)
        )
        batch = batch.append_column(
            "predicted_relations",
            pa.array(pred_rel_col, PREDICTED_COLUMNS.field("predicted_relations").type),
        )
        batch = batch.append_column(
            "predicted_events",
            pa.array(pred_evt_col, PREDICTED_COLUMNS.field("predicted_events").type),
        )
        batch = batch.append_column(
            "predicted_clusters",
            pa.array(
                clusters_col,
                pa.list_(pa.list_(pa.struct([("start", pa.int32()), ("end", pa.int32())]))),
            ),
        )
        batch = batch.append_column("_failed_prediction", pa.array(failed_col, pa.bool_()))
        return batch
