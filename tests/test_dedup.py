"""Dedup suite vs brute-force oracles on a small planted corpus."""

import itertools

import pandas as pd
import pytest

import ray.data

from dygiepp_ray.stages.dedup import (
    MinHasher,
    SimHasher,
    _shingles,
    exact_duplicates,
    minhash_lsh_pairs,
    ngram_jaccard_pairs,
    simhash_near_dups,
)

BASE = ("the quick brown fox jumps over the lazy dog while the cat watches "
        "from the warm windowsill in the afternoon sun light").split()


def _mutate(words, n_swap, seed):
    import random

    rng = random.Random(seed)
    out = list(words)
    for _ in range(n_swap):
        i = rng.randrange(len(out))
        out[i] = f"tok{rng.randrange(100)}"
    return out


@pytest.fixture(scope="module")
def planted():
    rows = []
    # exact dup pair (0, 1); near-dup pair (2, 3); distinct rest
    rows.append((0, " ".join(BASE)))
    rows.append((1, " ".join(BASE)))
    rows.append((2, " ".join(BASE + ["extra", "tail"])))
    rows.append((3, " ".join(BASE + ["extra", "tail", "word"])))
    for i in range(4, 24):
        rows.append((i, " ".join(_mutate(BASE, 15, i)) + f" unique{i}"))
    return pd.DataFrame(rows, columns=["doc_id", "text"])


def test_exact_duplicates(planted):
    got = exact_duplicates(ray.data.from_pandas(planted)).to_pandas()
    dups = got[got["n_copies"] > 1]
    assert len(dups) == 1
    assert dups.iloc[0]["keep_id"] == 0 and dups.iloc[0]["n_copies"] == 2
    assert got["n_copies"].sum() == len(planted)


def test_minhash_estimates_jaccard(planted):
    mh = MinHasher(n_perm=128)
    import numpy as np

    for a, b in [(0, 1), (2, 3), (0, 10)]:
        ta, tb = planted.loc[a, "text"], planted.loc[b, "text"]
        sa, sb = _shingles(ta, 3), _shingles(tb, 3)
        true_j = len(sa & sb) / len(sa | sb)
        est = float(np.mean(mh.signature(ta) == mh.signature(tb)))
        assert abs(est - true_j) < 0.15, (a, b, true_j, est)


def test_minhash_lsh_pairs_finds_planted(planted):
    got = minhash_lsh_pairs(ray.data.from_pandas(planted),
                            jaccard_threshold=0.7).to_pandas()
    pairs = set(zip(got["id_a"], got["id_b"]))
    assert (0, 1) in pairs and (2, 3) in pairs
    # no false positives among the heavily-mutated docs
    assert all(a in (0, 1, 2, 3) and b in (0, 1, 2, 3) for a, b in pairs)


def test_simhash_near_dups(planted):
    got = simhash_near_dups(ray.data.from_pandas(planted),
                            max_hamming=6).to_pandas()
    pairs = set(zip(got["id_a"], got["id_b"]))
    assert (0, 1) in pairs  # identical docs → identical simhash
    sh = SimHasher()
    assert sh.simhash(planted.loc[0, "text"]) == sh.simhash(planted.loc[1, "text"])


def test_ngram_jaccard_exact_verification(planted):
    got = ngram_jaccard_pairs(ray.data.from_pandas(planted), threshold=0.5).to_pandas()
    got_pairs = {(a, b): j for a, b, j in zip(got["id_a"], got["id_b"], got["jaccard"])}
    # brute-force oracle over all pairs
    want = {}
    for (a, ta), (b, tb) in itertools.combinations(
        zip(planted["doc_id"], planted["text"]), 2
    ):
        sa, sb = _shingles(ta, 3), _shingles(tb, 3)
        j = len(sa & sb) / len(sa | sb)
        if j >= 0.5:
            want[(a, b)] = round(j, 6)
    assert got_pairs == want  # LSH recall is perfect on this planted corpus


def test_minhash_estimator_quality():
    """Regression: the hash family must be min-wise well-behaved — a weak
    32-bit linear-congruential family showed max error 0.41 here."""
    import random

    import numpy as np

    rng = random.Random(3)
    base = [f"w{i}" for i in range(120)]
    mh = MinHasher(n_perm=64)
    errs = []
    for _ in range(30):
        b = list(base)
        for _ in range(rng.randint(0, 60)):
            b[rng.randrange(len(b))] = f"x{rng.randrange(999)}"
        ta, tb = " ".join(base), " ".join(b)
        sa, sb = _shingles(ta, 3), _shingles(tb, 3)
        true_j = len(sa & sb) / len(sa | sb)
        est = float(np.mean(mh.signature(ta) == mh.signature(tb)))
        errs.append(abs(true_j - est))
    assert np.mean(errs) < 0.08 and max(errs) < 0.2, (np.mean(errs), max(errs))


def test_signature_determinism(planted):
    mh = MinHasher(n_perm=32)
    t = planted.loc[2, "text"]
    assert mh.signature(t).tolist() == MinHasher(n_perm=32).signature(t).tolist()


def test_char_window_hashes_match_scalar_horner():
    import numpy as np

    from dygiepp_ray.stages.dedup import _mix64, char_window_hashes

    text = "the quick brown fox jumps over the lazy dog"
    k = 7
    got = char_window_hashes(text, k)
    data = text.encode()
    m64 = (1 << 64) - 1
    want = []
    for i in range(len(data) - k + 1):
        h = 0
        for j in range(k):
            h = (h * 1000003 + data[i + j]) & m64
        want.append(_mix64(h))
    assert got.tolist() == want
    # short-text edge
    assert len(char_window_hashes("ab", 7)) == 0


def test_winnow_guarantee_shared_passage():
    import numpy as np

    from dygiepp_ray.stages.dedup import char_window_hashes, winnow_values

    k, w = 8, 4
    shared = "XCOMMONPASSAGEYZ0123456789"  # len 26 >= k+w-1
    a = "aaaa bbbb " + shared + " cccc"
    b = "dd " + shared + " eeee ffff gg"
    sa = set(winnow_values(char_window_hashes(a, k), w).tolist())
    sb = set(winnow_values(char_window_hashes(b, k), w).tolist())
    assert sa & sb  # winnowing guarantee: >= 1 shared fingerprint


def test_substring_dup_pairs_plants():
    import pandas as pd

    import ray.data

    from dygiepp_ray.stages.dedup import substring_dup_pairs

    passage = "the exact same long shared passage of text here"
    docs = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": [
            "alpha " + passage + " omega",
            "beta " + passage + " gamma",
            "completely different content with no overlap at all xyzzy",
            "another fully unrelated document body qwerty asdf zxcv",
        ],
    })
    ds = ray.data.from_pandas(docs).repartition(2)
    got = substring_dup_pairs(ds, k=12, w=4, min_shared=2, max_df=8
                              ).to_pandas()
    pairs = set(zip(got["id_a"].astype(int), got["id_b"].astype(int)))
    assert (0, 1) in pairs
    assert all(p == (0, 1) for p in pairs)


def test_dedup_store_roundtrip(tmp_path):
    import glob
    import os

    import pandas as pd
    import pyarrow.parquet as pq

    import ray.data
    from dygiepp_ray.stages.dedup import (
        build_dedup_store,
        dedup_against_store,
    )

    old = pd.DataFrame(
        {
            "doc_id": [0, 2, 4, 6],
            "text": ["shared one", "only old", "shared two", "shared one"],
        }
    )
    new = pd.DataFrame(
        {
            "doc_id": [1, 3, 5],
            "text": ["shared one", "brand new", "shared two"],
        }
    )
    store = str(tmp_path / "store")
    build_dedup_store(ray.data.from_pandas(old).repartition(2), store,
                      n_buckets=8)
    # one zstd file of one row group per bucket, across both input blocks
    for d in glob.glob(os.path.join(store, "bucket=*")):
        (name,) = os.listdir(d)
        meta = pq.read_metadata(os.path.join(d, name))
        assert meta.num_row_groups == 1
        assert meta.row_group(0).column(0).compression == "ZSTD"
    got = (
        dedup_against_store(ray.data.from_pandas(new).repartition(2), store,
                            n_buckets=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # doc 1 dups "shared one" (min stored id 0, not 6); doc 5 dups doc 4
    assert got["doc_id"].tolist() == [1, 5]
    assert got["dup_of"].tolist() == [0, 4]


def test_dedup_store_no_hits(tmp_path):
    import pandas as pd

    import ray.data
    from dygiepp_ray.stages.dedup import (
        build_dedup_store,
        dedup_against_store,
    )

    old = pd.DataFrame({"doc_id": [0], "text": ["aaa"]})
    new = pd.DataFrame({"doc_id": [1], "text": ["bbb"]})
    store = str(tmp_path / "store")
    build_dedup_store(ray.data.from_pandas(old), store, n_buckets=4)
    got = dedup_against_store(ray.data.from_pandas(new), store,
                              n_buckets=4).to_pandas()
    assert len(got) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_batched_signatures_match_per_doc():
    """The batched reduceat path must be bit-identical to the per-doc
    `signature` spec (the oracle recomputes signatures per doc). Neither
    hands splitmix64 a numpy scalar, which warns on the uint64 overflow the
    mixer relies on (arrays wrap silently)."""
    import numpy as np

    from dygiepp_ray.stages.dedup import MinHasher

    mh = MinHasher(n_perm=32, shingle_k=3)
    texts = [
        "the quick brown fox jumps over the lazy dog " * 3,
        "",                       # empty doc -> sentinel signature
        "a b",                    # fewer tokens than k -> scalar fold
        "one two three four five six",
        "   ",                    # whitespace-only -> empty token list
    ]
    got = mh.signatures(texts)
    for i, t in enumerate(texts):
        assert (got[i] == mh.signature(t)).all(), i


def test_band_explode_groups_identical_docs():
    """Vectorized band keys: identical signatures share every band key;
    bands at different positions get distinct keys (the band-index salt)."""
    import numpy as np
    import pandas as pd

    from dygiepp_ray.stages.dedup import MinHasher, minhash_bands_with_sig

    mh = MinHasher(n_perm=64, shingle_k=3)
    txt = "alpha beta gamma delta epsilon zeta eta theta " * 2
    sig_df = mh(pd.DataFrame({"doc_id": [1, 2], "text": [txt, txt]}))
    b = minhash_bands_with_sig(sig_df, n_bands=16)
    assert len(b) == 32
    k1 = b[b.doc_id == 1]["band_key"].to_numpy()
    k2 = b[b.doc_id == 2]["band_key"].to_numpy()
    assert (k1 == k2).all()
    assert len(np.unique(k1)) == 16  # band-index salt keeps positions apart


def test_minhash_large_collision_group_chunked():
    """A large band-collision group (boilerplate near-identical docs) must
    verify in bounded memory: the chunked compare must find every pair of
    the identical-doc clique and estimate jaccard 1.0 for each."""
    n = 60  # clique of identical docs → n(n-1)/2 pairs, all est_jaccard 1.0
    rows = [(i, " ".join(BASE)) for i in range(n)]
    rows += [(n + i, " ".join(_mutate(BASE, 18, 100 + i)) + f" u{i}")
             for i in range(10)]
    docs = ray.data.from_pandas(pd.DataFrame(rows, columns=["doc_id", "text"]))
    got = minhash_lsh_pairs(docs, n_perm=32, n_bands=8,
                            jaccard_threshold=0.8).to_pandas()
    clique = got[(got.id_a < n) & (got.id_b < n)]
    assert len(clique) == n * (n - 1) // 2
    assert (clique.est_jaccard == 1.0).all()


def test_minhash_pairs_string_ids():
    """Generic id_col: string ids must come back with a consistent dtype
    whether or not a bucket produced pairs (ADVICE: empty blocks pinned
    int64 while non-empty blocks emitted object)."""
    rows = [("a", " ".join(BASE)), ("b", " ".join(BASE)),
            ("c", " ".join(_mutate(BASE, 18, 7)) + " solo")]
    docs = ray.data.from_pandas(pd.DataFrame(rows, columns=["doc_id", "text"]))
    got = minhash_lsh_pairs(docs, n_perm=32, n_bands=8,
                            jaccard_threshold=0.8).to_pandas()
    assert set(zip(got.id_a, got.id_b)) == {("a", "b")}


def test_simhash_large_collision_group_chunked():
    n = 50
    rows = [(i, " ".join(BASE)) for i in range(n)]
    docs = ray.data.from_pandas(pd.DataFrame(rows, columns=["doc_id", "text"]))
    got = simhash_near_dups(docs).to_pandas()
    assert len(got) == n * (n - 1) // 2
    assert (got.hamming == 0).all()


def test_remove_dup_spans_keeper_and_union():
    import numpy as np
    import ray.data

    from dygiepp_ray.stages.dedup import remove_dup_spans

    span = "q w e r t y u i o p"          # 10 tokens, duplicated
    doc1 = f"aa bb {span} cc dd"
    doc2 = f"xx {span} yy zz"             # loser: span removed
    doc3 = "totally different words only here nothing repeated at all ok"
    df = pd.DataFrame({"doc_id": [1, 2, 3],
                       "text": [doc1, doc2, doc3]})
    for nparts in (1, 3):
        got = remove_dup_spans(
            ray.data.from_pandas(df).repartition(nparts), k=10
        ).to_pandas().set_index("doc_id")
        # doc 1 holds the globally-first occurrence -> untouched
        assert got.loc[1, "text"] == doc1
        assert got.loc[1, "n_removed"] == 0
        # doc 2 loses exactly the 10 span tokens
        assert got.loc[2, "text"] == "xx yy zz"
        assert got.loc[2, "n_removed"] == 10
        assert got.loc[3, "text"] == doc3
        assert got.loc[3, "n_removed"] == 0


def test_remove_dup_spans_within_doc_and_overlap():
    import ray.data

    from dygiepp_ray.stages.dedup import remove_dup_spans

    # one doc: the same 10-token span twice -> second occurrence removed
    span = "a1 a2 a3 a4 a5 a6 a7 a8 a9 a10"
    doc = f"{span} mid {span} tail"
    got = remove_dup_spans(
        ray.data.from_pandas(pd.DataFrame({
            "doc_id": [7], "text": [doc]})), k=10).to_pandas()
    assert got.loc[0, "text"] == f"{span} mid tail"
    assert got.loc[0, "n_removed"] == 10


def test_doc_novelty_golden_and_invariance():
    import numpy as np
    import pandas as pd

    import ray.data
    from dygiepp_ray.stages.dedup import doc_novelty

    span = "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10"
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            span + " aa bb",             # doc1: 3 windows, all first
            "xx " + span,                # doc2: 2 windows; the span window
                                          # is doc1's -> 1 novel
            "yy zz",                     # doc3: < k tokens -> absent
            "q1 q2 q3 q4 q5 q6 q7 q8 q9 q10 q11",  # doc4: 2 novel windows
        ],
    })
    for nparts in (1, 3):
        got = doc_novelty(ray.data.from_pandas(docs).repartition(nparts),
                          k=10, n_buckets=4).to_pandas()
        d = {int(r.doc_id): (int(r.n_windows), int(r.n_novel),
                             int(r.novelty_scaled))
             for r in got.itertuples()}
        assert d == {1: (3, 3, 10_000), 2: (2, 1, 5_000),
                     4: (2, 2, 10_000)}
