"""Curation ops: decontamination, PII redaction, keep-best dedup."""

import duckdb
import pandas as pd
import pytest

import ray.data

from dygiepp_ray.stages.curate import (
    PII_EMAIL,
    PII_IPV4,
    PII_PHONE,
    _word_ngrams,
    decontaminate,
    keep_best,
    pii_redact,
)


def test_word_ngrams():
    assert _word_ngrams(["a", "b", "c"], 2) == ["a b", "b c"]
    assert _word_ngrams(["a", "b"], 3) == []
    assert _word_ngrams([], 2) == []


def test_decontaminate_flags_overlap():
    # eval doc 100 shares the 3-gram "x y z" with train docs 1 (twice) and 2
    train = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "p x y z q x y z",   # two occurrences of "x y z"
                "a b x y z",          # one
                "totally clean doc here",
            ],
        }
    )
    ev = pd.DataFrame({"doc_id": [100], "text": ["m x y z n"]})
    out = (
        decontaminate(
            ray.data.from_pandas(train), ray.data.from_pandas(ev), n=3,
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [1, 2]
    assert out["n_contam"].tolist() == [2, 1]
    assert out["n_grams"].tolist() == [6, 3]


def test_decontaminate_clean_corpus_empty():
    train = pd.DataFrame({"doc_id": [1], "text": ["alpha beta gamma delta"]})
    ev = pd.DataFrame({"doc_id": [2], "text": ["one two three four five"]})
    out = decontaminate(
        ray.data.from_pandas(train), ray.data.from_pandas(ev), n=3,
    ).to_pandas()
    assert len(out) == 0


def test_pii_redact_kinds_and_counts():
    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "mail bob.smith+x@corp.example.org now",
                "srv at 10.1.255.3 and 192.168.0.1 call 555-0199",
                "no pii here",
            ],
        }
    )
    out = pii_redact(df)
    assert out.loc[0, "red"] == "mail <EMAIL> now"
    assert out.loc[0, ["n_email", "n_ip", "n_phone"]].tolist() == [1, 0, 0]
    assert out.loc[1, "red"] == "srv at <IP> and <IP> call <PHONE>"
    assert out.loc[1, ["n_email", "n_ip", "n_phone"]].tolist() == [0, 2, 1]
    assert out.loc[2, "red"] == "no pii here"
    assert out.loc[2, ["n_email", "n_ip", "n_phone"]].tolist() == [0, 0, 0]


def test_pii_email_wins_over_ip_inside_domain():
    # an alpha-TLD email containing digits is eaten whole by the email pass;
    # a numeric-TLD "address" is NOT an email and falls through to the IP pass
    df = pd.DataFrame(
        {"doc_id": [1, 2], "text": ["x a@1.2.3.four.com y", "x a@1.2.3.44 y"]}
    )
    out = pii_redact(df)
    assert out.loc[0, "red"] == "x <EMAIL> y"
    assert out.loc[0, "n_ip"] == 0
    assert out.loc[1, "red"] == "x a@<IP> y"
    assert out.loc[1, ["n_email", "n_ip"]].tolist() == [0, 1]


def test_pii_regex_duckdb_parity():
    """The three patterns must behave identically under RE2 (DuckDB) and
    Python re — the SQL oracle depends on it."""
    texts = [
        "mail bob.smith+x@corp.example.org now",
        "srv at 10.1.255.3 and 192.168.0.1 call 555-0199",
        "edge 999.1.1.1 and 1.2.3 and 12-3456 and a@b.c",
        "x a@1.2.3.44 y",
        "",
    ]
    con = duckdb.connect()
    for t in texts:
        sql_red = con.execute(
            """
            SELECT regexp_replace(regexp_replace(regexp_replace($1,
                     $2, '<EMAIL>', 'g'), $3, '<IP>', 'g'), $4, '<PHONE>', 'g')
            """,
            [t, PII_EMAIL, PII_IPV4, PII_PHONE],
        ).fetchone()[0]
        py_red = pii_redact(
            pd.DataFrame({"doc_id": [0], "text": [t]})
        ).loc[0, "red"]
        assert py_red == sql_red, t


def _brute_keep_best(df: pd.DataFrame) -> pd.DataFrame:
    rows = []
    for key, g in df.groupby("k"):
        g = g.sort_values(["score", "doc_id"], ascending=[False, True])
        rows.append((key, int(g.iloc[0]["doc_id"]), int(g.iloc[0]["score"]),
                     len(g)))
    return (
        pd.DataFrame(rows, columns=["k", "keep_id", "score", "n_copies"])
        .sort_values("k")
        .reset_index(drop=True)
    )


def test_keep_best_matches_brute_force():
    import numpy as np

    rng = np.random.default_rng(7)
    n = 500
    df = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype="int64"),
            "k": [f"key{v}" for v in rng.integers(0, 60, n)],
            "score": rng.integers(0, 10, n).astype("int64"),
        }
    )
    ds = ray.data.from_pandas(df).repartition(5)
    got = (
        keep_best(ds, key_col="k", score_col="score", id_col="doc_id",
                  n_buckets=8)
        .to_pandas()[["k", "keep_id", "score", "n_copies"]]
        .sort_values("k")
        .reset_index(drop=True)
    )
    exp = _brute_keep_best(df)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_keep_best_tie_breaks_on_min_id():
    df = pd.DataFrame(
        {"doc_id": [5, 2, 9], "k": ["a", "a", "a"], "score": [3, 3, 1]}
    )
    got = keep_best(ray.data.from_pandas(df), "k", "score").to_pandas()
    assert got["keep_id"].tolist() == [2]
    assert got["n_copies"].tolist() == [3]


def test_ccnet_buckets_terciles_per_lang():
    import math

    import numpy as np

    from dygiepp_ray.stages.curate import ccnet_buckets

    # two "languages" with different score distributions; texts built so the
    # bigram LM scores are distinct within each language
    rng = np.random.default_rng(3)
    rows = []
    for i in range(30):
        lang = "aa" if i % 2 == 0 else "bb"
        # doc i repeats bigram "w w" i+2 times mixed with a unique token —
        # more repeats of the globally-common bigram => higher LM score
        toks = ["w"] * (i + 2) + [f"u{i}"]
        rows.append((i, " ".join(toks), lang))
    df = pd.DataFrame(rows, columns=["doc_id", "text", "lang"])
    got = (
        ccnet_buckets(ray.data.from_pandas(df).repartition(3))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(got) == 30
    # brute-force per-lang terciles with quantile_disc rank semantics
    for lang, g in got.groupby("lang"):
        scores = sorted(g["lm_score"])
        n = len(scores)
        c1 = scores[max(1, math.ceil(n / 3)) - 1]
        c2 = scores[max(1, math.ceil(2 * n / 3)) - 1]
        for _, r in g.iterrows():
            exp = ("tail" if r["lm_score"] <= c1
                   else "middle" if r["lm_score"] <= c2 else "head")
            assert r["bucket"] == exp, (lang, r["doc_id"])
    # all three buckets are populated in each language
    assert set(got["bucket"]) == {"head", "middle", "tail"}


def test_pack_concat_chunks_offsets():
    from dygiepp_ray.stages.curate import pack_concat_chunks

    # one pack group; doc token counts 3, 4, 2, 0, 5 with seq_len 4
    df = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3, 4],
            "text": ["a b c", "a b c d", "a b", "", "a b c d e"],
        }
    )
    got = (
        pack_concat_chunks(ray.data.from_pandas(df).repartition(2),
                           seq_len=4, n_groups=1)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["n_tokens"].tolist() == [3, 4, 2, 0, 5]
    assert got["tok_start"].tolist() == [0, 3, 7, 9, 9]
    # doc1 spans tokens 3..6 -> seqs 0..1; doc4 spans 9..13 -> seqs 2..3
    assert got["seq_first"].tolist() == [0, 0, 1, 2, 2]
    assert got["seq_last"].tolist() == [0, 1, 2, 2, 3]


def test_pack_concat_chunks_group_independence():
    from dygiepp_ray.stages.curate import pack_concat_chunks

    df = pd.DataFrame(
        {"doc_id": list(range(10)), "text": ["w " * 3] * 10}
    )
    got = pack_concat_chunks(
        ray.data.from_pandas(df), seq_len=4, n_groups=2
    ).to_pandas()
    # each group has 5 docs of 3 tokens; offsets restart per group
    for _, g in got.groupby("pack_group"):
        assert sorted(g["tok_start"]) == [0, 3, 6, 9, 12]


def test_mixture_sample_quotas_and_determinism():
    import numpy as np

    from dygiepp_ray.stages.curate import mixture_sample

    # skewed sources: 90 / 30 / 9 rows
    rows = []
    i = 0
    for src, n in [("a", 90), ("b", 30), ("c", 9)]:
        for _ in range(n):
            rows.append((i, src))
            i += 1
    df = pd.DataFrame(rows, columns=["doc_id", "source"])
    got = mixture_sample(
        ray.data.from_pandas(df).repartition(4), key="source",
        id_col="doc_id", total=60, temperature=0.5, seed=42,
    ).to_pandas()
    sizes = {"a": 90, "b": 30, "c": 9}
    w = {s: n ** 0.5 for s, n in sizes.items()}
    tot = sum(w.values())
    # a quota larger than the source (c: quota 10 of 9 rows) caps at the size
    quotas = {s: min(int(60 * v / tot), sizes[s]) for s, v in w.items()}
    got_counts = got.groupby("source").size().to_dict()
    assert got_counts == quotas
    # tau=0.5 gives c more than its natural share (9/129*60 ≈ 4 -> all 9)
    assert quotas["c"] > int(60 * 9 / 129)
    # partitioning invariance: same sample from a different block layout
    got2 = mixture_sample(
        ray.data.from_pandas(df).repartition(9), key="source",
        id_col="doc_id", total=60, temperature=0.5, seed=42,
    ).to_pandas()
    a = got.sort_values(["source", "doc_id"]).reset_index(drop=True)
    b = got2.sort_values(["source", "doc_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_neardup_clusters_keeper_assignment():
    import ray.data

    from dygiepp_ray.stages.curate import neardup_clusters

    base = ("the quick brown fox jumps over the lazy dog and then runs "
            "far away into the deep dark woods tonight")
    rows = [
        (0, base),
        (7, base),                      # exact dup of 0
        (3, base + " extra"),           # near dup of 0/7
        (9, "completely different text about databases and query engines "
            "with shuffles joins and aggregates everywhere in the plan"),
    ]
    df = pd.DataFrame(rows, columns=["doc_id", "text"])
    got = (
        neardup_clusters(ray.data.from_pandas(df))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # 0, 3, 7 form one cluster kept by 0; doc 9 is clean (absent)
    assert got["doc_id"].tolist() == [0, 3, 7]
    assert got["keep_id"].tolist() == [0, 0, 0]


def test_compression_ratio_signal():
    from dygiepp_ray.stages.text import compression_ratio

    df = pd.DataFrame(
        {
            "doc_id": [1, 2],
            "text": ["abc " * 200, "the quick brown fox jumps over it"],
        }
    )
    out = compression_ratio(df)
    # repetitive text compresses far more than prose
    assert out.loc[0, "ratio_scaled"] < out.loc[1, "ratio_scaled"]
    assert (out["zlen"] > 0).all()
    assert out.loc[0, "raw_len"] == 800


def test_weighted_sample_bias_and_invariance():
    import numpy as np

    from dygiepp_ray.stages.curate import weighted_sample

    # 200 light rows (w=1) + 50 heavy rows (w=50): heavies dominate the top
    n_light, n_heavy, k = 200, 50, 40
    df = pd.DataFrame({
        "doc_id": np.arange(n_light + n_heavy, dtype="int64"),
        "w": np.array([1] * n_light + [50] * n_heavy, dtype="int64"),
    })
    got = weighted_sample(
        ray.data.from_pandas(df).repartition(5), "doc_id", "w", k=k
    ).to_pandas()
    assert len(got) == k
    heavy_share = (got["doc_id"] >= n_light).mean()
    assert heavy_share > 0.5  # heavies are 20% of rows but >50% of sample
    # partitioning invariance
    got2 = weighted_sample(
        ray.data.from_pandas(df).repartition(11), "doc_id", "w", k=k
    ).to_pandas()
    assert got["doc_id"].tolist() == got2["doc_id"].tolist()


def test_fuzzy_decontaminate_cross_side_only():
    import ray.data

    from dygiepp_ray.stages.curate import fuzzy_decontaminate

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon")
    tweak = base.replace("theta", "THETA")
    other = "one two three four five six seven eight nine ten " * 2
    # 1/6: near-identical cross-side pair; 2/5: IDENTICAL train-side pair
    # (must NOT be reported — same side); 3: unrelated eval doc
    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 5, 6],
        "text": [base, other, "unrelated words here entirely", other,
                 tweak],
    })
    docs = ray.data.from_pandas(df).repartition(2)
    ev = docs.map_batches(lambda d: d[d["doc_id"] % 3 == 0],
                          batch_format="pandas")
    tr = docs.map_batches(lambda d: d[d["doc_id"] % 3 != 0],
                          batch_format="pandas")
    got = fuzzy_decontaminate(tr, ev, est_threshold=0.5).to_pandas()
    pairs = set(zip(got["train_id"], got["eval_id"]))
    assert (1, 6) in pairs             # near-dup across sides
    assert (2, 5) not in pairs and (5, 2) not in pairs  # same-side dup
    assert all(e % 3 == 0 and t % 3 != 0 for t, e in pairs)
    assert (got["est_jaccard"] >= 0.5).all()


def test_source_quality_stats_golden_and_invariance():
    import numpy as np
    import pandas as pd

    import ray.data
    from dygiepp_ray.stages.curate import source_quality_stats
    from dygiepp_ray.stages.text import quality_score

    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["the cat sat on the mat with a hat",
                 "alpha beta gamma delta epsilon zeta",
                 "the the the the the the",
                 "a quick brown fox jumps over the lazy dog by the river"],
        "source": ["s1", "s2", "s1", "s2"],
    })
    q = quality_score(docs[["doc_id", "text"]])
    qs = np.rint(q["quality"].to_numpy("float64") * 1_000_000).astype("int64")
    want = {}
    for src in ("s1", "s2"):
        mask = (docs["source"] == src).to_numpy()
        mean_q = int(qs[mask].sum()) // int(mask.sum())
        want[src] = (int(mask.sum()), mean_q, int(mean_q >= 450_000))
    assert want["s1"][2] != want["s2"][2]  # threshold splits the sources
    for nparts in (1, 3):
        got = source_quality_stats(
            ray.data.from_pandas(docs).repartition(nparts),
            salt_buckets=2).to_pandas()
        got_d = {s: (int(n), int(m), int(k)) for s, n, m, k in
                 zip(got["source"], got["n_docs"], got["mean_q_scaled"],
                     got["kept"])}
        assert got_d == want
