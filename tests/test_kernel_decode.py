"""Table-driven decode-semantics tests (SURVEY.md §7.4-1, FIXTURES.md §5-2).

These pin the reference's decode arithmetic exactly:
- null label index 0 / argmax-1 (ner.py:74-147, relation.py:146-177)
- pruner k = ceil(0.5·len), min 1, order-restoring sort, stable ties
  (entity_beam_pruner.py:104-192, relation.py:112-131)
- trigger beam floor(0.3·len)∈[1,15]; arg beam floor(0.8·len)∈[1,30]
  (events.py:133-152)
- trigger-gated argument emission (events.py:251-279)
"""

import math

import numpy as np
import pytest

from dygiepp_ray.schema import MAX_SPAN_WIDTH
from dygiepp_ray.stages.kernel import (
    LexiconScorer,
    beam_size,
    decode_labels,
    enumerate_spans,
    extract_sentence,
    prune_spans,
    softmax_with_null,
)

SCORER = LexiconScorer(
    {"hash join": "Method", "bloom filter": "Method", "latency": "Metric"},
    {"is used for": "USED-FOR", "is part of": "PART-OF"},
    {"shipped": "movement_transport"},
)


def test_enumerate_spans_count():
    # n*w - w*(w-1)/2 spans for n >= w (dygie.py:120-125 semantics)
    for n in (1, 5, 8, 20):
        spans = enumerate_spans(n)
        w = MAX_SPAN_WIDTH
        expected = n * w - w * (w - 1) // 2 if n >= w else n * (n + 1) // 2
        assert len(spans) == expected
        assert spans == sorted(spans)  # textual order
        assert all(0 <= s <= e < n and e - s + 1 <= w for s, e in spans)


def test_decode_labels_null_arithmetic():
    # null column of 0 prepended; argmax-1; ties → null wins (lower index)
    logits = np.array([
        [1.0, -1.0],    # label 0 wins
        [-1.0, -2.0],   # null wins → -1
        [0.0, 0.0],     # tie with null at 0 → null (argmax picks first)
        [-5.0, 2.0],    # label 1
    ])
    assert decode_labels(logits).tolist() == [0, -1, -1, 1]


def test_softmax_includes_null():
    # softmax over [0, logits...]
    logits = np.array([1.0, 2.0])
    s = softmax_with_null(2.0, logits, 1)
    full = np.exp([0.0, 1.0, 2.0])
    assert s == pytest.approx(full[2] / full.sum())


def test_prune_spans_k_and_order_restore():
    scores = np.array([0.1, 0.9, 0.5, 0.8, 0.2, 0.7])
    # n_tokens=5 → k = ceil(0.5*5) = 3; top3 by score = idx {1,3,5};
    # output must be re-sorted ascending (textual order)
    kept = prune_spans(scores, 5)
    assert kept.tolist() == [1, 3, 5]
    assert math.ceil(0.5 * 5) == 3


def test_prune_spans_min_one_and_ties():
    assert prune_spans(np.array([-5.0]), 1).tolist() == [0]
    # ties break toward the lower index (torch.topk stable behavior)
    kept = prune_spans(np.array([1.0, 1.0, 1.0, 0.0]), 2)  # k=1
    assert kept.tolist() == [0]


def test_beam_clamps():
    # triggers: floor(0.3*len) in [1,15] (events.py:133-138)
    assert beam_size(2, 0.3, 1, 15) == 1
    assert beam_size(10, 0.3, 1, 15) == 3
    assert beam_size(100, 0.3, 1, 15) == 15
    # args: floor(0.8*len) in [1,30] (events.py:139-152)
    assert beam_size(1, 0.8, 1, 30) == 1
    assert beam_size(10, 0.8, 1, 30) == 8
    assert beam_size(100, 0.8, 1, 30) == 30


def test_extract_sentence_relation_pattern():
    tokens = "hash join is used for bloom filter .".split()
    ner, rels, evts = extract_sentence(tokens, SCORER)
    ner_set = {(m["start"], m["end"], m["label"]) for m in ner}
    assert (0, 1, "Method") in ner_set and (5, 6, "Method") in ner_set
    assert len(ner_set) == 2
    assert len(rels) == 1
    r = rels[0]
    assert (r["s1"], r["e1"], r["s2"], r["e2"], r["label"]) == (0, 1, 5, 6, "USED-FOR")
    assert 0 < r["softmax_score"] <= 1.0
    # no reversed-direction relation, no self pairs
    assert not any(x["s1"] == 5 for x in rels)


def test_extract_sentence_no_pattern_no_relation():
    tokens = "hash join near bloom filter .".split()
    _, rels, _ = extract_sentence(tokens, SCORER)
    assert rels == []


def test_extract_sentence_event_trigger_gating():
    tokens = "bloom filter shipped latency today .".split()
    _, _, evts = extract_sentence(tokens, SCORER)
    assert len(evts) == 1
    e = evts[0]
    assert e["trigger_tok"] == 2 and e["event_type"] == "movement_transport"
    roles = {(a["start"], a["end"], a["role"]) for a in e["args"]}
    assert (0, 1, "agent") in roles          # before trigger
    assert (3, 3, "artifact") in roles       # immediately after
    # non-lexicon spans emit no argument
    assert all((s, e_) in {(0, 1), (3, 3)} for s, e_, _ in roles)


def test_extract_sentence_no_trigger_no_event():
    tokens = "bloom filter improves latency today .".split()
    _, _, evts = extract_sentence(tokens, SCORER)
    assert evts == []  # all trigger beams decode to null → gated out


def test_fast_path_equals_slow_path():
    """extract_sentence is the executable spec; extract_sentence_fast must be
    output-identical on planted, dense, adversarial and random sentences."""
    import random

    from dygiepp_ray.stages.kernel import extract_sentence_fast

    vocab = ["hash", "join", "bloom", "filter", "latency", "shipped", "is",
             "used", "for", "part", "of", "the", "runtime", "keeps", "x", "."]
    rng = random.Random(17)
    cases = [
        "hash join is used for bloom filter .".split(),
        "bloom filter shipped latency today .".split(),
        "hash join hash join hash join hash join".split(),  # dense hits > k
        ["latency"] * 40,                                     # hits ≫ beams
        "shipped shipped shipped latency".split(),            # many triggers
        ["x"],
        [],
    ] + [[rng.choice(vocab) for _ in range(rng.randint(1, 30))] for _ in range(60)]
    for tokens in cases:
        if not tokens:
            continue
        slow = extract_sentence(tokens, SCORER)
        fast = extract_sentence_fast(tokens, SCORER)
        assert fast == slow, tokens


def test_scores_rounded_4_decimals():
    tokens = "hash join is used for bloom filter .".split()
    ner, rels, _ = extract_sentence(tokens, SCORER)
    for m in ner:
        assert m["raw_score"] == round(m["raw_score"], 4)
        assert m["softmax_score"] == round(m["softmax_score"], 4)
    for r in rels:
        assert r["softmax_score"] == round(r["softmax_score"], 4)


def test_fused_triples_path_equivalence():
    """The bandwidth-lean fused decode (decode_triples_document, with its
    sentence memo) must emit byte-identical triple tables, in identical row
    order, to the dict decode the documents product runs (decode_document
    + flat_predictions), both through rows_for_doc_flat — across coref
    substitution, label_map projection, and failure containment."""
    import random

    from dygiepp_ray.stages.kernel import ExtractionKernel, flat_predictions
    from dygiepp_ray.stages.triples import FlattenTriples

    lex = {"hash join": "Method", "bloom filter": "Method",
           "latency": "Metric", "it": "Method", "this method": "Method"}
    pats = {"is used for": "USED-FOR", "is part of": "PART-OF"}
    trig = {"shipped": "movement_transport"}
    kernel = ExtractionKernel(entity_lexicon=lex, relation_patterns=pats,
                              event_triggers=trig)
    rng = random.Random(23)
    vocab = ["hash", "join", "bloom", "filter", "latency", "is", "used",
             "for", "part", "of", "it", "this", "method", "shipped", "."]
    docs = [
        [  # multi-sentence with a referring mention → coref substitution
            "hash join is used for bloom filter .".split(),
            "it is part of latency .".split(),
        ],
        [["latency"] * 40],
        [[]],
    ] + [[[rng.choice(vocab) for _ in range(rng.randint(1, 25))]
          for _ in range(rng.randint(1, 6))] for _ in range(40)]

    for label_map in (None, {"USED-FOR": "MECHANISM"}):
        for use_coref in (True, False):
            fl_a = FlattenTriples(label_map=label_map,
                                  use_coref_substitution=use_coref)
            fl_b = FlattenTriples(label_map=label_map,
                                  use_coref_substitution=use_coref)
            out_a, out_b = fl_a.empty_out(), fl_b.empty_out()
            for d_ix, sentences in enumerate(docs):
                key = f"doc{d_ix}"
                rel_rows, tclusters, failed_a = \
                    kernel.decode_triples_document(sentences)
                _ner, doc_rel, _evt, dclusters, failed_b = \
                    kernel.decode_document(sentences)
                assert failed_a == failed_b
                rel_rows_b, tclusters_b = flat_predictions(doc_rel, dclusters)
                assert tclusters == tclusters_b
                fl_a.rows_for_doc_flat(out_a, key, sentences, rel_rows,
                                       tclusters, "sha", 3)
                fl_b.rows_for_doc_flat(out_b, key, sentences, rel_rows_b,
                                       tclusters_b, "sha", 3)
            ta = FlattenTriples.to_table(out_a, True)
            tb = FlattenTriples.to_table(out_b, True)
            assert ta.equals(tb), (label_map, use_coref)
            assert ta.num_rows > 0


def test_arrow_fast_sentences_matches_python_chain():
    """The Arrow tokenize/sentence-split fast path must equal the Python
    regex chain (sentence_split -> tokenize -> word_normalize) wherever it
    fires, and must DECLINE (None) every input that could diverge."""
    import dygiepp_ray.pipelines.kg as kg
    from dygiepp_ray.functions.strings import sentence_split, tokenize

    word_norm = {"/.": ".", "/?": "?"}.get

    def python_chain(text):
        return [[word_norm(t, t) for t in toks]
                for s in sentence_split(text) if (toks := tokenize(s))]

    texts = [
        "hash join is used for bloom filter . latency is part of it .",
        "a . . b ? trailing tail without terminal",
        "don't touch the spill 's path .",
        "one\nline breaks but no blank line . second sentence !",
        "",
        "   ",
        ". leading terminal",
        "UPPER case falls back .",          # not lowercase
        "bad/. token falls back .",         # chunk regex fails
        "blank\n\nline falls back .",       # \n{2,} rule needs raw text
        "unicode café falls back .",   # non-ascii
        "x = scan(t42) mixed chunk",        # word+punct chunk
    ]
    fast = kg._arrow_fast_sentences(texts)
    n_fast = sum(1 for f in fast if f is not None)
    # "don't ... 's ..." correctly DECLINES: the bare "'s" chunk is
    # punct+word, which tokenize splits but whitespace-split would not
    assert n_fast >= 6, f"fast path vacuous: only {n_fast} admitted"
    for text, got in zip(texts, fast):
        if got is not None:
            assert got == python_chain(text), text
    # the four adversarial tails must all decline
    for text, got in list(zip(texts, fast))[-5:]:
        assert got is None, f"fast path wrongly admitted: {text!r}"


def test_arrow_fast_prep_equivalence(monkeypatch):
    """ExtractToTriples and the documents product's batch function, with
    the Arrow fast prep enabled, must each emit a byte-identical table to
    the forced-Python-path run, on a batch mixing fast-eligible and
    fallback documents."""
    import pyarrow as pa

    import dygiepp_ray.pipelines.kg as kg

    contents = [
        ("python", "def f():\n    # hash join is used for bloom filter .\n"
                   "    # it is part of latency .\n    pass\n"),
        ("markdown", "merge sort is compared with hash join .\n"
                     "latency shipped throughput .\n"),
        ("markdown", "UPPER Case doc . bloom filter is part of latency .\n"),
        ("markdown", "weird/. token . cost model is used for latency .\n"),
        ("markdown", "para one .\n\npara two : bloom filter .\n"),
        ("go", "// query planner is evaluated by scan time .\nfunc main() {}\n"),
        ("python", ""),
    ]
    n = len(contents)
    batch = pa.table({
        "repo": [f"org/r{i}" for i in range(n)],
        "path": [f"src/f{i}" for i in range(n)],
        "commit": ["deadbeefcafe" + str(i) for i in range(n)],
        "lang": [lg for lg, _ in contents],
        "content": [c for _, c in contents],
    })
    fast_tbl = kg.ExtractToTriples()(batch)
    fast_docs = kg.documents_batch(batch)
    monkeypatch.setattr(kg, "_arrow_fast_sentences",
                        lambda texts: [None] * len(texts))
    slow_tbl = kg.ExtractToTriples()(batch)
    slow_docs = kg.documents_batch(batch)
    assert fast_tbl.equals(slow_tbl)
    assert fast_tbl.num_rows > 0
    assert fast_docs.equals(slow_docs)
    assert fast_docs.num_rows == n - 1  # only the empty python file drops


def _corpus_batch(extra_rows=()):
    """A corpus batch of generated files (plus `extra_rows` of (lang,
    content)) with a bucket column, as build_kg feeds the fused stage."""
    import pyarrow as pa

    from dygiepp_ray.corpus import generate_corpus

    t = generate_corpus(40, seed=11)
    rows = {c: t.column(c).to_pylist() for c in t.column_names}
    for j, (lang, content) in enumerate(extra_rows):
        rows["repo"].append(f"org/extra{j}")
        rows["path"].append(f"doc{j}.md")
        rows["commit"].append("f00dfeed" * 5)
        rows["lang"].append(lang)
        rows["content"].append(content)
    rows["bucket"] = [i % 5 for i in range(len(rows["repo"]))]
    return pa.table({c: pa.array(v, pa.int32() if c == "bucket"
                                 else pa.string())
                     for c, v in rows.items()})


@pytest.fixture(scope="module")
def learned_weights(tmp_path_factory):
    from dygiepp_ray.corpus import (
        ENTITY_LEXICON,
        EVENT_TRIGGERS,
        RELATION_PATTERNS,
        make_sentences,
    )
    from dygiepp_ray.stages.learned import save_learned_weights, train_scorer

    path = str(tmp_path_factory.mktemp("learned") / "scorer.npz")
    save_learned_weights(path, train_scorer(
        make_sentences(n=200, seed=5), ENTITY_LEXICON, RELATION_PATTERNS,
        EVENT_TRIGGERS))
    return path


@pytest.mark.parametrize("mode", ["lexicon-canonical", "lexicon-antecedent",
                                  "learned"])
def test_fused_stage_equals_documents_product(mode, request):
    """The fused ExtractToTriples table must equal the documents product's
    chain — documents_batch → ExtractionKernel → FlattenTriples — on the same
    batch, row for row, for the lexicon scorer in both coref modes (the
    antecedent run with M7 propagation) and for a learned scorer. So must
    the stage a worker gets by unpickling it."""
    import pickle

    import dygiepp_ray.pipelines.kg as kg
    from dygiepp_ray.stages.kernel import ExtractionKernel
    from dygiepp_ray.stages.triples import FlattenTriples

    kernel_kwargs = {
        "lexicon-canonical": {},
        "lexicon-antecedent": {"coref_mode": "antecedent", "coref_prop": 2},
        "learned": {"weights_path": request.getfixturevalue(
            "learned_weights")},
    }[mode]
    batch = _corpus_batch([
        # the referring "this approach" is rewritten to "This approach"
        ("markdown", "This approach is used for bloom filter . "
                     "hash join is part of this approach .\n"),
        # antecedent mode prunes mentions to ceil(0.3 * tokens), so the late
        # referring mention is clustered (and rewritten) in canonical mode only
        ("markdown", "This approach latency latency latency latency latency . "
                     "hash join is part of this approach .\n"),
    ])
    stage = kg.ExtractToTriples(**kernel_kwargs)
    fused = stage(batch)
    staged = FlattenTriples()(
        ExtractionKernel(**kernel_kwargs)(kg.documents_batch(batch)))
    assert fused.equals(staged)
    assert pickle.loads(pickle.dumps(stage))(batch).equals(fused)
    assert fused.num_rows > 100
    assert fused.column_names[-1] == "bucket"
    if mode == "lexicon-antecedent":
        assert not fused.equals(kg.ExtractToTriples()(batch))


def test_fused_stage_unpickles_to_one_stage_per_process(monkeypatch):
    """Unpickling an ExtractToTriples gives this process's stage for the
    instance's token: every unpickle of one instance returns the same
    object, so its kernel and sentence memo serve every batch of a build,
    and a new instance's token replaces the held stage."""
    import pickle

    import dygiepp_ray.pipelines.kg as kg
    from dygiepp_ray.state import process_local

    monkeypatch.setattr(process_local, "_INSTANCES", {})
    first = kg.ExtractToTriples()
    blob = pickle.dumps(first)
    held = pickle.loads(blob)
    assert held is not first and pickle.loads(blob) is held
    assert pickle.loads(pickle.dumps(held)) is held
    assert held(_corpus_batch()).equals(first(_corpus_batch()))

    second = pickle.loads(pickle.dumps(kg.ExtractToTriples()))
    assert second is not held
    assert process_local._INSTANCES[kg.ExtractToTriples] == (
        second._token, second)
    assert pickle.loads(blob) is not held  # rebuilt, with a fresh memo


def test_fused_stage_requires_prep():
    import dygiepp_ray.pipelines.kg as kg

    with pytest.raises(ValueError):
        kg.ExtractToTriples(do_prep=False)


def test_null_content_row_is_dropped():
    """A corpus row with a null `content` is dropped by the shared prep (as
    a document without text is) instead of failing the batch: the fused
    stage and the documents batch function both return, for the other
    rows, exactly what they return for the batch without that row."""
    import pyarrow as pa

    import dygiepp_ray.pipelines.kg as kg

    clean = _corpus_batch()
    rows = clean.to_pylist()
    rows.insert(7, {**rows[7], "path": "null.py", "content": None})
    dirty = pa.Table.from_pylist(rows, schema=clean.schema)
    assert dirty.column("content").null_count == 1

    for fn in (kg.ExtractToTriples(), kg.documents_batch):
        assert fn(dirty).equals(fn(clean))


def test_arrow_fast_sentences_property_based():
    """Property pin for the Arrow fast prep: over arbitrary generated ASCII
    text (words, punctuation, whitespace runs, newlines), every admitted
    doc must equal the Python regex chain exactly — hypothesis drives the
    precondition boundary harder than the hand-picked cases."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    import dygiepp_ray.pipelines.kg as kg
    from dygiepp_ray.functions.strings import sentence_split, tokenize

    word_norm = {"/.": ".", "/?": "?"}.get

    def python_chain(text):
        return [[word_norm(t, t) for t in toks]
                for s in sentence_split(text) if (toks := tokenize(s))]

    piece = st.one_of(
        st.text(alphabet="abcdefghij", min_size=1, max_size=6),
        st.sampled_from([".", "!", "?", ",", ":", "'", "/.",
                         "don't", "x=1", "a.b", "CAP", "café"]),
        st.sampled_from([" ", "  ", "\n", "\n\n", "\t"]),
    )
    texts = st.lists(
        st.lists(piece, min_size=0, max_size=30).map(" ".join),
        min_size=1, max_size=8)

    @settings(max_examples=150, deadline=None)
    @given(texts)
    def check(batch):
        fast = kg._arrow_fast_sentences(batch)
        for text, got in zip(batch, fast):
            if got is not None:
                assert got == python_chain(text), repr(text)

    check()
