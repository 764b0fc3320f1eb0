"""Offline scorer training — fits the learned weight matrices (M1/M2) and
the antecedent weight vector (M6) on a deterministic synthetic corpus and
writes a v2 `.npz` artifact for `ExtractionKernel(weights_path=...)`.

Usage:
    python scripts/train_scorer.py [out.npz] [--files N] [--seed S]

The conformance gate (span/relation/event P/R vs the reference decode
semantics, north-rule ≥ 0.95) lives in tests/test_learned.py and is also
reported here after training.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    args = sys.argv[1:]
    out = args[0] if args and not args[0].startswith("--") else \
        "/tmp/dygiepp_ray_scorer_v2.npz"
    n_files = int(args[args.index("--files") + 1]) if "--files" in args else 120
    seed = int(args[args.index("--seed") + 1]) if "--seed" in args else 42

    from dygiepp_ray.corpus import (
        ENTITY_LEXICON,
        EVENT_TRIGGERS,
        RELATION_PATTERNS,
        write_corpus,
    )
    from dygiepp_ray.stages.learned import (
        collect_coref_pairs,
        corpus_sentences,
        fit_coref_weights,
        save_learned_weights,
        train_scorer,
    )

    train_dir = f"/tmp/dygiepp_ray_train_corpus/seed{seed}_n{n_files}"
    write_corpus(train_dir, n_files=n_files, seed=seed, n_shards=4)
    sents = corpus_sentences(train_dir)
    print(f"training on {len(sents)} sentences from {n_files} files")
    weights = train_scorer(sents, ENTITY_LEXICON, RELATION_PATTERNS,
                           EVENT_TRIGGERS)
    coref_w = fit_coref_weights(collect_coref_pairs(sents, ENTITY_LEXICON))
    save_learned_weights(out, weights, coref_w)
    print(f"wrote {out}")

    # conformance report (eval corpus from a held-out seed)
    from dygiepp_ray.stages.learned import conformance_prf

    eval_dir = f"/tmp/dygiepp_ray_train_corpus/eval_seed{seed + 65}"
    write_corpus(eval_dir, n_files=max(20, n_files // 4), seed=seed + 65,
                 n_shards=2)
    prf = conformance_prf(corpus_sentences(eval_dir), weights)
    for head, (p, r) in prf.items():
        print(f"{head}: P={p:.4f} R={r:.4f}")
    ok = all(p >= 0.95 and r >= 0.95 for p, r in prf.values())
    print("north-rule P/R >= 0.95:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
