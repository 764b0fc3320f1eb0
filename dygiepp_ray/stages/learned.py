"""Learned scorer for M1/M2: logits from trained parameter matrices.

The round-3 `.npz` weights seam (kernel.py `save/load_scorer_weights`)
shipped the lexicon TABLES; this module ships actual learned weights — a
hashed-feature linear model whose logits drive the unchanged reference
decode arithmetic (null index 0 / argmax−1, pruner, beams — kernel.py):

  * features: hashing trick over span / between-text / token strings
    (`stable_hash64 % D`), one shared map for train and inference;
  * model: per-head weight matrices W (D × n_labels); span logits =
    Σ_rows W[φ(text)] — a linear model with the null class's logit FIXED
    at 0, exactly the decode's `[0, logits]` softmax geometry
    (ner.py:126-139 twin);
  * training: deterministic full-batch gradient descent on the
    null-column-fixed softmax cross-entropy, fit to the lexicon oracle's
    labels on a synthetic corpus (the stand-in for distilling the
    reference's trained DyGIE++ archive, dygie/predictors/dygie.py:42-55);
  * conformance: tests/test_learned.py measures span/relation/event P/R of
    the learned decode against the reference decode semantics and gates at
    ≥ 0.95 (the north-rule metric).

The mention score is the max real-class logit — the reference's
entity-beam pruner variant (entity_beam_pruner.py:116-119), so pruning
stays reference-faithful without a second learned head.

Antecedent (M6) weights are also learnable here: the deterministic
antecedent score is linear in (exact-match, partial-jaccard,
distance-bucket one-hot) features, so `fit_coref_weights` recovers a
weight vector from observed mention pairs by least squares — a
distance-bucket EMBEDDING like the reference's learned one
(coref.py:60-66, 541-543) instead of a hand-set slope.
"""

from __future__ import annotations

import numpy as np

from ..functions.strings import stable_hash64
from ..schema import (
    ARG_ROLES,
    EVENT_TYPES,
    MAX_SPAN_WIDTH,
    NER_LABELS,
    RELATION_LABELS,
)

DEFAULT_DIM = 1 << 14

# learned mention-score band: hits land in (2.0, 2.1], non-hits in
# (-1.0, -0.95] — the position inside the band is learned (sigmoid of the
# max class logit), the band itself is pinned so the additive decode terms
# (relation/argument heads) have a known operating range to train against
MENTION_BAND_MID = 2.05

# --------------------------------------------------------------- features


def _feat_indices(feats: list[str], dim: int) -> np.ndarray:
    return np.fromiter((stable_hash64(f) % dim for f in feats),
                       dtype=np.int64, count=len(feats))


def span_feature_strings(text: str) -> list[str]:
    """Shared train/inference feature map for a span's (lowercased) text.

    Includes CONJUNCTION features (adjacent-token bigrams, first×last):
    single-token features alone cannot separate phrases built from shared
    vocabulary ("merge sort" vs "sort merge join") once the corpus entity
    mix shifts — the bigrams keep the held-out-distribution conformance
    gate (tests/test_learned.py) above 0.95 without a second layer."""
    toks = text.split()
    feats = ["B:", f"S:{text}", f"N:{len(toks)}"]
    feats += [f"T:{t}" for t in toks]
    feats += [f"P:{a}_{b}" for a, b in zip(toks, toks[1:])]
    if toks:
        feats += [f"F:{toks[0]}", f"L:{toks[-1]}",
                  f"FL:{toks[0]}_{toks[-1]}"]
    return feats


def between_feature_strings(text: str) -> list[str]:
    toks = text.split()
    feats = ["B:", f"R:{text}"] + [f"C:{t}" for t in toks]
    feats += [f"D:{a}_{b}" for a, b in zip(toks, toks[1:])]
    return feats


def token_feature_strings(tok: str) -> list[str]:
    return ["B:", f"G:{tok}"]


# --------------------------------------------------------------- training


def fit_null_softmax(feat_lists: list[np.ndarray], labels: np.ndarray,
                     n_labels: int, dim: int, iters: int = 2000,
                     lr: float = 0.5, shift: float = 0.0) -> np.ndarray:
    """Fit W (dim, n_labels) minimizing cross-entropy of
    softmax([0, Σ W[φ(x)] + shift]) — the null class's logit is
    STRUCTURALLY 0, matching the decode arithmetic, so the learned
    real-class logits play the exact role the reference model's do.

    `shift` encodes additive decode-time terms the head doesn't see at
    training time: relation logits get BOTH mention scores added
    (relation.py:200-245) and argument logits get one (events.py:158-186),
    so those heads train against the boundary `logit + shift > 0` with
    shift = the mention-band sum — otherwise every hit pair with a benign
    between-text decodes as a false positive.

    Full-batch deterministic GD (fixed iters, float64, no randomness —
    retraining is reproducible)."""
    counts = np.fromiter((len(f) for f in feat_lists), dtype=np.int64,
                         count=len(feat_lists))
    flat = np.concatenate(feat_lists) if feat_lists else np.zeros(0, np.int64)
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    y = labels.astype(np.int64)  # 0 = null, 1..n_labels = real classes
    n = len(y)
    W = np.zeros((dim, n_labels), dtype=np.float64)
    onehot = np.zeros((n, n_labels), dtype=np.float64)
    real = y > 0
    onehot[np.flatnonzero(real), y[real] - 1] = 1.0
    # balanced sample weights: positives are rare (25 lexicon phrases vs
    # ~10k negative span texts) — unweighted CE drives everything to null
    n_real = max(1, int(real.sum()))
    n_null = max(1, n - int(real.sum()))
    w = np.where(real, 0.5 / n_real, 0.5 / n_null)[:, None]
    best_W, best_err = W.copy(), n + 1
    zero_since = -1
    for it in range(iters):
        logits = np.add.reduceat(W[flat], starts, axis=0) if n else W[:0]
        logits[counts == 0] = 0.0  # reduceat artifacts for empty rows
        logits += shift
        if it and it % 25 == 0:
            pred = np.where(logits.max(axis=1) > 0,
                            logits.argmax(axis=1) + 1, 0)
            wrong = pred != y
            err = int(wrong.sum())
            if err < best_err:  # keep the best checkpoint, not the last
                best_W, best_err = W.copy(), err
            if err == 0:
                # separation reached: polish margins for 100 more iters on
                # balanced weights, then stop
                if zero_since < 0:
                    zero_since = it
                    w = np.where(real, 0.5 / n_real, 0.5 / n_null)[:, None]
                elif it - zero_since >= 100:
                    return W
            else:
                # deterministic hard-example boosting: under balanced
                # weights a single hard negative (e.g. "b tree", a sub-span
                # of the positive "b tree index" sharing its token
                # features) carries ~1/n of the mass and never converges;
                # re-split half the mass across the misclassified examples
                zero_since = -1
                w = np.where(real, 0.25 / n_real, 0.25 / n_null)
                w[wrong] += 0.5 / err
                w = w[:, None]
        m = np.maximum(logits.max(axis=1), 0.0)
        e = np.exp(logits - m[:, None])
        z = np.exp(-m) + e.sum(axis=1)
        p = e / z[:, None]
        g = (p - onehot) * w
        # W[idx] -= lr * g_row for every (row, feature) pair; no weight
        # decay — separable data + the bias feature give the margin
        np.subtract.at(W, flat, lr * np.repeat(g, counts, axis=0))
    # final check: return whichever of (last, best checkpoint) errs least
    logits = np.add.reduceat(W[flat], starts, axis=0) if n else W[:0]
    logits[counts == 0] = 0.0
    logits += shift
    pred = np.where(logits.max(axis=1) > 0, logits.argmax(axis=1) + 1, 0)
    return W if int((pred != y).sum()) <= best_err else best_W


def _unique_texts(items: dict[str, int]) -> tuple[list[str], np.ndarray]:
    texts = sorted(items)
    return texts, np.fromiter((items[t] for t in texts), dtype=np.int64,
                              count=len(texts))


def build_training_sets(sentences: list[list[str]],
                        entity_lexicon: dict[str, str],
                        relation_patterns: dict[str, str],
                        event_triggers: dict[str, str]):
    """Training examples from tokenized sentences, labeled by the lexicon
    oracle (the distillation targets). Deduplicated by TEXT — the scorer is
    a pure function of the text, so unique texts are the true sample space
    and the class balance stays sane without negative sampling."""
    ent_label = {k.lower(): NER_LABELS.index(v) + 1
                 for k, v in entity_lexicon.items()}
    rel_label = {k.lower(): RELATION_LABELS.index(v) + 1
                 for k, v in relation_patterns.items()}
    trig_label = {k.lower(): EVENT_TYPES.index(v) + 1
                  for k, v in event_triggers.items()}
    max_pat = max((len(k.split()) for k in relation_patterns), default=0)

    span_y: dict[str, int] = {}
    between_y: dict[str, int] = {}
    tok_y: dict[str, int] = {}
    for sent in sentences:
        lower = [t.lower() for t in sent]
        n = len(lower)
        ent_spans = []
        for s in range(n):
            for e in range(s, min(s + MAX_SPAN_WIDTH, n)):
                text = " ".join(lower[s : e + 1])
                lab = ent_label.get(text, 0)
                span_y[text] = lab
                if lab:
                    ent_spans.append((s, e))
        for (s1, e1) in ent_spans:  # between-texts among entity pairs
            for (s2, _e2) in ent_spans:
                if e1 < s2 and (s2 - e1 - 1) <= max_pat:
                    bt = " ".join(lower[e1 + 1 : s2])
                    between_y[bt] = rel_label.get(bt, 0)
        # every ≤max_pat token window is a potential between-text at decode
        # time — include them all as negatives so unseen-pair precision
        # doesn't rest on feature-hash luck
        for L in range(1, max_pat + 1):
            for i in range(n - L + 1):
                bt = " ".join(lower[i : i + L])
                between_y[bt] = rel_label.get(bt, 0)
        for t in lower:
            tok_y[t] = trig_label.get(t, 0)
    # every pattern/lexicon/trigger entry is a guaranteed positive example
    # even if the corpus sample missed it
    for k, v in ent_label.items():
        span_y[k] = v
    for k, v in rel_label.items():
        between_y[k] = v
    for k, v in trig_label.items():
        tok_y[k] = v
    return span_y, between_y, tok_y


def train_scorer(sentences: list[list[str]], entity_lexicon: dict[str, str],
                 relation_patterns: dict[str, str],
                 event_triggers: dict[str, str], dim: int = DEFAULT_DIM,
                 iters: int = 2000, lr: float = 0.5) -> dict:
    """Offline training entry: tokenized sentences → learned weight dict
    (`ner_W`, `rel_W`, `trig_W`, `role_W`, `dim`, `max_pattern_len`)."""
    span_y, between_y, tok_y = build_training_sets(
        sentences, entity_lexicon, relation_patterns, event_triggers)

    def fit(y_by_text, featurize, n_labels, shift=0.0):
        texts, y = _unique_texts(y_by_text)
        feats = [_feat_indices(featurize(t), dim) for t in texts]
        return fit_null_softmax(feats, y, n_labels, dim, iters=iters, lr=lr,
                                shift=shift)

    ner_W = fit(span_y, span_feature_strings, len(NER_LABELS))
    # relation / role heads train against the decode-time boundary: the
    # decode ADDS the mention scores (relation.py:200-245 both, the
    # argument path one), and the learned mention band is (2.0, 2.1] per
    # hit — shift = the band-midpoint sum (see LearnedScorer.span_logits)
    rel_W = fit(between_y, between_feature_strings, len(RELATION_LABELS),
                shift=2 * MENTION_BAND_MID)
    trig_W = fit(tok_y, token_feature_strings, len(EVENT_TYPES))
    # role head: 3 position features → 3 roles; the position rule is the
    # labeled data (events.py:158-186 argument scoring twin)
    pos_feats = [np.array([0]), np.array([1]), np.array([2])]
    role_W = fit_null_softmax(pos_feats, np.array([1, 2, 3]), len(ARG_ROLES),
                              dim=3, iters=2000, lr=1.0,
                              shift=MENTION_BAND_MID)
    return {
        "format_version": 2,
        "dim": dim,
        "max_pattern_len": max((len(k.split()) for k in relation_patterns),
                               default=0),
        "ner_W": ner_W, "rel_W": rel_W, "trig_W": trig_W, "role_W": role_W,
    }


# ----------------------------------------------------------- coref weights


# default antecedent weights — exactly the round-3 deterministic constants
# (kernel.py _COREF_SIM_EXACT / _COREF_SIM_PARTIAL / _COREF_DIST_WEIGHT),
# expressed as the learnable (exact, partial, dist-bucket-embedding) vector
def default_coref_weights() -> dict:
    return {"w_exact": 4.0, "w_partial": 1.0,
            "w_dist": -0.1 * np.arange(10, dtype=np.float64)}


def collect_coref_pairs(sentences: list[list[str]],
                        entity_lexicon: dict[str, str],
                        max_pairs: int = 20000) -> list:
    """Antecedent training rows (is_exact, partial_jaccard, dist_bucket,
    target_score) from corpus mention sequences, targets from the
    deterministic teacher (`antecedent_pair_score` defaults) — the
    distillation set for `fit_coref_weights`."""
    from ..functions.strings import canonicalize
    from .kernel import LexiconScorer, antecedent_pair_score, bucket_distance

    scorer = LexiconScorer(entity_lexicon, {}, {})
    rows: list = []
    canons: list[str] = []
    for sent in sentences:
        lower = [t.lower() for t in sent]
        for (s, e, _lab) in scorer.find_hits(lower):
            canons.append(canonicalize(" ".join(lower[s : e + 1])))
    for i in range(len(canons)):
        for j_pos in range(max(0, i - 40), i):
            d = i - j_pos
            ci, cj = canons[i], canons[j_pos]
            s = antecedent_pair_score(ci, cj, d)
            if s == float("-inf"):
                continue
            ex = 1.0 if ci == cj else 0.0
            pj = 0.0
            if not ex:
                ti, tj = set(ci.split()), set(cj.split())
                pj = len(ti & tj) / len(ti | tj) if (ti or tj) else 0.0
            rows.append((ex, pj, bucket_distance(d), s))
            if len(rows) >= max_pairs:
                return rows
    return rows


def fit_coref_weights(pairs: list[tuple[float, float, int, float]]) -> dict:
    """Least-squares fit of (w_exact, w_partial, w_dist[10]) to observed
    (is_exact, partial_jaccard, dist_bucket, target_score) antecedent
    pairs — the antecedent score is linear in these features, so the learned
    distance-bucket embedding recovers the scoring function from data
    (reference shape: coref.py:515-559 pair scorer + bucketed distance
    embedding). Deterministic (numpy lstsq)."""
    if not pairs:
        return default_coref_weights()
    X = np.zeros((len(pairs), 12), dtype=np.float64)
    t = np.zeros(len(pairs), dtype=np.float64)
    for i, (ex, pj, b, target) in enumerate(pairs):
        X[i, 0] = ex
        X[i, 1] = pj
        X[i, 2 + int(b)] = 1.0
        t[i] = target
    # ridge toward the teacher prior (MAP): corpus pair features are
    # collinear when e.g. every observed pair is an exact match (the exact
    # indicator then equals the bucket one-hot sum), so plain lstsq splits
    # the weight arbitrarily between w_exact and the bucket embedding.
    # λ is small: data-identified directions fit exactly (residual → 0),
    # unidentified directions (unseen buckets, absent partial pairs) keep
    # the prior instead of collapsing to minimum-norm 0.
    d = default_coref_weights()
    w0 = np.concatenate([[d["w_exact"], d["w_partial"]], d["w_dist"]])
    lam = 1e-3
    A = X.T @ X + lam * np.eye(12)
    b = X.T @ t + lam * w0
    w = np.linalg.solve(A, b)
    return {"w_exact": float(w[0]), "w_partial": float(w[1]),
            "w_dist": w[2:].copy()}


# --------------------------------------------------------------- inference


class LearnedScorer:
    """Drop-in scorer for `extract_sentence` (same interface as
    `LexiconScorer`: span_logits / relation_logits / trigger_logits /
    role_logits) whose logits come from the trained matrices. Built once
    per worker process in `ExtractionKernel.__init__` from a v2 `.npz`
    artifact — the same archive-load seam as the reference predictor
    (dygie/predictors/dygie.py:42-55)."""

    def __init__(self, weights: dict):
        self.dim = int(weights["dim"])
        self.ner_W = np.asarray(weights["ner_W"], dtype=np.float64)
        self.rel_W = np.asarray(weights["rel_W"], dtype=np.float64)
        self.trig_W = np.asarray(weights["trig_W"], dtype=np.float64)
        self.role_W = np.asarray(weights["role_W"], dtype=np.float64)
        self.max_pattern_len = int(weights["max_pattern_len"])
        self._span_cache: dict[str, np.ndarray] = {}
        self._rel_cache: dict[str, np.ndarray] = {}
        self._tok_cache: dict[str, np.ndarray] = {}

    def _span_vec(self, text: str) -> np.ndarray:
        v = self._span_cache.get(text)
        if v is None:
            v = self.ner_W[_feat_indices(span_feature_strings(text),
                                         self.dim)].sum(axis=0)
            if len(self._span_cache) < 500_000:
                self._span_cache[text] = v
        return v

    def span_logits(self, tokens_lower: list[str],
                    spans: list[tuple[int, int]]):
        n = len(spans)
        ner = np.empty((n, len(NER_LABELS)))
        for i, (s, e) in enumerate(spans):
            ner[i] = self._span_vec(" ".join(tokens_lower[s : e + 1]))
        # a span is a "hit" iff its decode (argmax over [0, logits] − 1) is
        # non-null; the mention score is the max real-class logit (the
        # reference's entity-beam pruner signal,
        # entity_beam_pruner.py:116-119) squashed into the pinned band —
        # ordering among spans follows the learned confidence, while the
        # band keeps the additive relation/argument decode terms inside
        # the range their heads trained against (MENTION_BAND_MID)
        raw = ner.max(axis=1) if n else np.zeros(0)
        is_hit = raw > 0.0
        sig = 1.0 / (1.0 + np.exp(-raw))
        mention = np.where(is_hit, 2.0 + 0.1 * sig, -1.0 + 0.05 * sig)
        return ner, mention, is_hit

    def relation_logits(self, tokens_lower: list[str],
                        spans: list[tuple[int, int]], kept: np.ndarray,
                        mention: np.ndarray, is_hit: np.ndarray) -> np.ndarray:
        k = len(kept)
        out = np.full((k, k, len(RELATION_LABELS)), -10.0)
        hit_ixs = [i for i in range(k) if is_hit[kept[i]]]
        for ai in hit_ixs:
            s1, e1 = spans[kept[ai]]
            for bi in hit_ixs:
                if ai == bi:
                    continue
                s2, _e2 = spans[kept[bi]]
                if e1 < s2 and (s2 - e1 - 1) <= self.max_pattern_len:
                    bt = " ".join(tokens_lower[e1 + 1 : s2])
                    v = self._rel_cache.get(bt)
                    if v is None:
                        v = self.rel_W[_feat_indices(
                            between_feature_strings(bt), self.dim)].sum(axis=0)
                        if len(self._rel_cache) < 500_000:
                            self._rel_cache[bt] = v
                    out[ai, bi, :] = v
        m = mention[kept]
        out += m[:, None, None] + m[None, :, None]
        ii = np.arange(k)
        out[ii, ii, :] = -np.inf
        return out

    def trigger_logits(self, tokens_lower: list[str]) -> np.ndarray:
        out = np.empty((len(tokens_lower), len(EVENT_TYPES)))
        for i, t in enumerate(tokens_lower):
            v = self._tok_cache.get(t)
            if v is None:
                v = self.trig_W[_feat_indices(token_feature_strings(t),
                                              self.dim)].sum(axis=0)
                if len(self._tok_cache) < 500_000:
                    self._tok_cache[t] = v
            out[i] = v
        return out

    def role_logits(self, trig_ix: int, span: tuple[int, int],
                    is_hit: bool) -> np.ndarray:
        if not is_hit:
            return np.full(len(ARG_ROLES), -10.0)
        s, e = span
        if e < trig_ix:
            return self.role_W[0].copy()
        if s == trig_ix + 1:
            return self.role_W[1].copy()
        if s > trig_ix + 1:
            return self.role_W[2].copy()
        return np.full(len(ARG_ROLES), -10.0)  # overlaps the trigger


# ----------------------------------------------------------- persistence


def save_learned_weights(path: str, weights: dict,
                         coref_weights: dict | None = None) -> None:
    """v2 `.npz` artifact (numpy-only, pickle-free like v1)."""
    payload = {
        "format_version": np.array([2], dtype=np.int64),
        "dim": np.array([weights["dim"]], dtype=np.int64),
        "max_pattern_len": np.array([weights["max_pattern_len"]],
                                    dtype=np.int64),
        "ner_W": weights["ner_W"], "rel_W": weights["rel_W"],
        "trig_W": weights["trig_W"], "role_W": weights["role_W"],
    }
    cw = coref_weights or default_coref_weights()
    payload["coref_w"] = np.concatenate(
        [[cw["w_exact"], cw["w_partial"]], np.asarray(cw["w_dist"])])
    np.savez(path, **payload)


def load_learned_weights(path: str) -> tuple[dict, dict]:
    z = np.load(path, allow_pickle=False)
    ver = int(z["format_version"][0])
    if ver != 2:
        raise ValueError(f"not a v2 learned-weights artifact: {ver}")
    weights = {
        "format_version": 2,
        "dim": int(z["dim"][0]),
        "max_pattern_len": int(z["max_pattern_len"][0]),
        "ner_W": z["ner_W"], "rel_W": z["rel_W"],
        "trig_W": z["trig_W"], "role_W": z["role_W"],
    }
    cw = z["coref_w"]
    coref = {"w_exact": float(cw[0]), "w_partial": float(cw[1]),
             "w_dist": cw[2:].copy()}
    return weights, coref


def conformance_prf(sentences: list[list[str]], weights: dict,
                    entity_lexicon: dict[str, str] | None = None,
                    relation_patterns: dict[str, str] | None = None,
                    event_triggers: dict[str, str] | None = None) -> dict:
    """North-rule conformance: micro P/R of the learned decode against the
    reference decode semantics (the lexicon-scorer decode is the executable
    stand-in for the reference predictions) per head — ner / relation /
    trigger / argument. Gated at ≥ 0.95 by tests/test_learned.py."""
    from ..corpus import ENTITY_LEXICON, EVENT_TRIGGERS, RELATION_PATTERNS
    from .kernel import LexiconScorer, extract_sentence

    lex = LexiconScorer(entity_lexicon or ENTITY_LEXICON,
                        relation_patterns or RELATION_PATTERNS,
                        event_triggers or EVENT_TRIGGERS)
    learned = LearnedScorer(weights)

    def tuples(ner, rels, evts):
        return (
            {(m["start"], m["end"], m["label"]) for m in ner},
            {(r["s1"], r["e1"], r["s2"], r["e2"], r["label"]) for r in rels},
            {(e["trigger_tok"], e["event_type"]) for e in evts},
            {(e["trigger_tok"], e["event_type"], a["start"], a["end"],
              a["role"]) for e in evts for a in e["args"]},
        )

    heads = ["ner", "relation", "trigger", "argument"]
    tp = [0] * 4
    fp = [0] * 4
    fn = [0] * 4
    for sent in sentences:
        gold = tuples(*extract_sentence(sent, lex))
        pred = tuples(*extract_sentence(sent, learned))
        for i in range(4):
            tp[i] += len(gold[i] & pred[i])
            fp[i] += len(pred[i] - gold[i])
            fn[i] += len(gold[i] - pred[i])
    return {h: (tp[i] / max(1, tp[i] + fp[i]), tp[i] / max(1, tp[i] + fn[i]))
            for i, h in enumerate(heads)}


def corpus_sentences(corpus_dir: str) -> list[list[str]]:
    """Tokenized sentences of every document in a corpus dir (the same prep
    chain the pipeline runs: extract_text → sentence_split → tokenize →
    word_normalize), for offline training."""
    import glob
    import os

    import pyarrow.parquet as pq

    from ..functions.strings import sentence_split, tokenize, word_normalize
    from ..stages.prep import extract_text

    out: list[list[str]] = []
    for f in sorted(glob.glob(os.path.join(corpus_dir, "*.parquet"))):
        t = pq.read_table(f, columns=["lang", "content"])
        for lang, content in zip(t.column("lang").to_pylist(),
                                 t.column("content").to_pylist()):
            text = extract_text(content, lang)
            for s in sentence_split(text):
                toks = [word_normalize(x) for x in tokenize(s)]
                if toks and all(toks):
                    out.append(toks)
    return out
