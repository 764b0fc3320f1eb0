"""Learned-scorer (M1/M2) conformance gate + weights seam tests.

The north-rule metric: the engine's output must match the reference's
predictions at P/R ≥ 0.95 (BASELINE.json north_rule). Here the learned
scorer (trained parameter matrices, stages/learned.py) is measured against
the reference decode semantics per head — span NER, relation, event
trigger, event argument — and gated at ≥ 0.95, mirroring the reference's
pytest evaluation suite role (dygie/tests + eval_utils.py metrics)."""

import numpy as np
import pytest

from dygiepp_ray.corpus import (
    ENTITY_LEXICON,
    EVENT_TRIGGERS,
    RELATION_PATTERNS,
    write_corpus,
)
from dygiepp_ray.stages.learned import (
    LearnedScorer,
    collect_coref_pairs,
    conformance_prf,
    corpus_sentences,
    default_coref_weights,
    fit_coref_weights,
    save_learned_weights,
    train_scorer,
)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("learned")
    train_dir = str(root / "train")
    eval_dir = str(root / "eval")
    write_corpus(train_dir, n_files=50, seed=42, n_shards=2)
    write_corpus(eval_dir, n_files=25, seed=7, n_shards=2)
    return corpus_sentences(train_dir), corpus_sentences(eval_dir)


@pytest.fixture(scope="module")
def trained(corpora):
    train_sents, _ = corpora
    return train_scorer(train_sents, ENTITY_LEXICON, RELATION_PATTERNS,
                        EVENT_TRIGGERS)


def test_learned_scorer_north_rule_conformance(corpora, trained):
    """Span/relation/event P/R of the learned decode vs the reference
    decode semantics, on a HELD-OUT corpus (different seed) — the
    north-rule ≥ 0.95 gate, reported per head."""
    _, eval_sents = corpora
    prf = conformance_prf(eval_sents, trained)
    report = {h: (round(p, 4), round(r, 4)) for h, (p, r) in prf.items()}
    print(f"north-rule conformance P/R: {report}")
    for head, (p, r) in prf.items():
        assert p >= 0.95, f"{head} precision {p:.4f} < 0.95"
        assert r >= 0.95, f"{head} recall {r:.4f} < 0.95"


def test_learned_conformance_held_out_distribution(trained):
    """VERDICT r4 #4: the ≥0.95 gate on a held-out DISTRIBUTION, not just
    a held-out sample — the eval sentences use a permuted entity-frequency
    ranking (entities rare in training become frequent here) and an unseen
    seed, so memorizing the training mix cannot pass. The conjunction
    features (span bigrams / first×last) carry this gate."""
    from dygiepp_ray.corpus import make_sentences

    sents = make_sentences(n=400, seed=555, entity_order_seed=99)
    prf = conformance_prf(sents, trained)
    report = {h: (round(p, 4), round(r, 4)) for h, (p, r) in prf.items()}
    print(f"held-out-distribution conformance P/R: {report}")
    for head, (p, r) in prf.items():
        assert p >= 0.95, f"{head} precision {p:.4f} < 0.95 (held-out mix)"
        assert r >= 0.95, f"{head} recall {r:.4f} < 0.95 (held-out mix)"


def test_learned_weights_are_actually_learned(trained):
    """The logits must come from trained parameter matrices, not tables:
    the weight matrices are dense-ish real-valued arrays touched by
    training, and a scorer built from them reproduces labels it was never
    given as a lookup (feature composition, not key equality)."""
    assert (np.abs(trained["ner_W"]) > 0).sum() > 1000
    scorer = LearnedScorer(trained)
    # "bloom filter" scored through hashed features sums ≥ 3 weight rows
    ner, mention, is_hit = scorer.span_logits(["bloom", "filter"], [(0, 1)])
    assert is_hit[0] and ner[0].argmax() == 0  # Method
    assert 2.0 < mention[0] <= 2.1  # pinned mention band


def test_learned_kernel_actor_pool_roundtrip(tmp_path, trained, corpora):
    """v2 .npz seam end-to-end: ExtractionKernel(weights_path=...) inside a
    Ray actor pool (weights loaded once per actor in __init__, the
    reference predictor archive-load shape, dygie/predictors/dygie.py:42-55)
    must equal the same kernel applied locally."""
    import pyarrow as pa

    import ray.data

    from dygiepp_ray.stages.kernel import ExtractionKernel

    path = str(tmp_path / "scorer_v2.npz")
    save_learned_weights(path, trained)

    _, eval_sents = corpora
    docs = [eval_sents[i : i + 3] for i in range(0, 30, 3)]
    tbl = pa.table({
        "doc_key": [f"d{i}" for i in range(len(docs))],
        "sentences": pa.array(docs,
                              pa.list_(pa.list_(pa.string()))),
        "content_sha256": ["x"] * len(docs),
    })
    pooled = (
        ray.data.from_arrow(tbl)
        .map_batches(ExtractionKernel(weights_path=path),
                     batch_format="pyarrow", batch_size=4)
        .to_pandas().sort_values("doc_key").reset_index(drop=True)
    )
    local = ExtractionKernel(weights_path=path)(tbl).to_pandas() \
        .sort_values("doc_key").reset_index(drop=True)

    def norm(series):  # nested numpy arrays from to_pandas → plain json
        import json

        def default(o):
            if hasattr(o, "tolist"):
                return o.tolist()
            raise TypeError(type(o))

        return [json.dumps(v, default=default, sort_keys=True)
                for v in series]

    for col in ("predicted_ner", "predicted_relations", "predicted_events"):
        assert norm(pooled[col]) == norm(local[col]), col
    assert sum(len(x) for doc in local["predicted_ner"] for x in doc) > 0


def test_fused_triples_path_with_learned_scorer(tmp_path, trained, corpora):
    """decode_triples_document must fall back to the generic spec path for
    learned scorers and stay equivalent to decode_document +
    flat_predictions, both through rows_for_doc_flat."""
    from dygiepp_ray.stages.kernel import ExtractionKernel, flat_predictions
    from dygiepp_ray.stages.triples import FlattenTriples

    path = str(tmp_path / "scorer_v2b.npz")
    save_learned_weights(path, trained)
    kernel = ExtractionKernel(weights_path=path)
    _, eval_sents = corpora
    fl = FlattenTriples()
    out_a, out_b = fl.empty_out(), fl.empty_out()
    for d, i in enumerate(range(0, 24, 3)):
        sentences = eval_sents[i : i + 3]
        rel_rows, tclusters, failed = kernel.decode_triples_document(sentences)
        _n, doc_rel, _e, clusters, failed_b = kernel.decode_document(sentences)
        assert failed == failed_b
        fl.rows_for_doc_flat(out_a, f"d{d}", sentences, rel_rows, tclusters,
                             "sha", None)
        rel_rows_b, tclusters_b = flat_predictions(doc_rel, clusters)
        fl.rows_for_doc_flat(out_b, f"d{d}", sentences, rel_rows_b,
                             tclusters_b, "sha", None)
    ta, tb = FlattenTriples.to_table(out_a, False), \
        FlattenTriples.to_table(out_b, False)
    assert ta.equals(tb)
    assert ta.num_rows > 0


def test_fitted_coref_weights_reproduce_decode(corpora):
    """M6 learned antecedent weights: least-squares over corpus mention
    pairs recovers the scoring function — the antecedent decode under the
    FITTED weights equals the default decode on held-out mention
    sequences (parity), and the recovered weights are close."""
    from dygiepp_ray.functions.strings import canonicalize
    from dygiepp_ray.stages.kernel import LexiconScorer, coref_antecedent_decode

    train_sents, eval_sents = corpora
    fitted = fit_coref_weights(collect_coref_pairs(train_sents,
                                                   ENTITY_LEXICON))
    dflt = default_coref_weights()
    assert abs(fitted["w_exact"] - dflt["w_exact"]) < 1e-6
    w_fit = (fitted["w_exact"], fitted["w_partial"],
             tuple(fitted["w_dist"]))

    scorer = LexiconScorer(ENTITY_LEXICON, {}, {})
    checked = 0
    for i in range(0, len(eval_sents) - 5, 5):
        doc = eval_sents[i : i + 5]
        mentions, offset = [], 0
        for sent in doc:
            lower = [t.lower() for t in sent]
            for (s, e, _l) in scorer.find_hits(lower):
                mentions.append((offset + s, offset + e,
                                 canonicalize(" ".join(lower[s : e + 1]))))
            offset += len(sent)
        got = coref_antecedent_decode(mentions, offset, weights=w_fit)
        exp = coref_antecedent_decode(mentions, offset)
        assert got == exp
        checked += len(exp)
    assert checked > 20  # the parity actually exercised clusters
