"""Sketch aggregates: HyperLogLog approximate count-distinct.

The classic mergeable cardinality sketch (Flajolet et al. 2007, with the
linear-counting small-range correction from the HLL++ paper) expressed in
the engine's partial+final shape: per-block register partials (numpy
`maximum.at`, ≤ m rows per (group, block)) → `partial_final_agg` max over
(group, register) — register max is commutative, so the distributed merge
is exactly the single-threaded sketch — → per-group estimate in
`map_groups`. The shuffle moves at most groups × m tiny rows regardless of
input size; nothing is materialized on the driver.

Deterministic by construction: the value hash is splitmix64 (xor-seeded,
shared with the minhash module), register maxes are order-independent, and
the estimator is a fixed float64 formula over the final registers — so a
single-threaded recomputation (dygiepp_ray/oracle.py) hash-matches the
distributed run bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ..aggregates import partial_final_agg
from .dedup import _splitmix64


def hash64_values(vals) -> np.ndarray:
    """Deterministic uint64 hash of an int or string array (vectorized:
    splitmix64 for ints; blake2b over the small dictionary for strings)."""
    arr = np.asarray(vals)
    if arr.dtype.kind in "iu":
        return _splitmix64(arr.astype(np.uint64))
    uniq, inv = np.unique(arr.astype(str), return_inverse=True)
    small = np.fromiter(
        (int.from_bytes(hashlib.blake2b(u.encode(), digest_size=8).digest(),
                        "big") for u in uniq),
        dtype=np.uint64, count=len(uniq))
    return small[inv]


def hll_partial_registers(vals, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(register_idx, rho_max) nonzero pairs for one batch of values."""
    m = 1 << p
    h = hash64_values(vals)
    reg = (h >> np.uint64(64 - p)).astype(np.int64)
    w = (h << np.uint64(p)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    # floor(log2(w)) via 6 vectorized shift steps (exact — no float log)
    bl = np.zeros(len(w), dtype=np.int64)
    tmp = w.copy()
    for s in (32, 16, 8, 4, 2, 1):
        big = tmp >= (np.uint64(1) << np.uint64(s))
        bl[big] += s
        tmp[big] >>= np.uint64(s)
    # w = remaining bits left-aligned in the 64-bit word, so leading zeros
    # within the (64-p)-bit field == clz64(w) = 64 - bitlen(w); rho = clz+1
    rho = np.where(w > 0, 64 - (bl + 1) + 1, 64 - p + 1).astype(np.int64)
    regs = np.zeros(m, dtype=np.int64)
    np.maximum.at(regs, reg, rho)
    nz = np.nonzero(regs)[0]
    return nz, regs[nz]


def hll_estimate(reg_idx: np.ndarray, reg_val: np.ndarray, p: int) -> int:
    """Cardinality estimate from the final merged registers (only nonzero
    registers passed; the rest are zero). Standard HLL estimator with the
    linear-counting small-range correction; all float64, deterministic."""
    m = 1 << p
    alpha = 0.7213 / (1.0 + 1.079 / m)
    zeros = m - len(reg_idx)
    denom = float(zeros) + np.sum(np.float64(2.0) ** (-reg_val.astype(np.float64)))
    e = alpha * m * m / denom
    if e <= 2.5 * m and zeros > 0:
        e = m * np.log(m / np.float64(zeros))
    return int(np.floor(e + 0.5))


def hll_ndv(ds: "ray.data.Dataset", value_col: str, by: str | None = None,
            p: int = 12) -> "ray.data.Dataset":
    """(by?, ndv) — approximate distinct `value_col` per group. Standard
    error ≈ 1.04/sqrt(2^p) (~1.6% at p=12); memory 2^p registers/group."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out_g, out_r, out_v = [], [], []
        groups = df.groupby(by) if by else [(None, df)]
        for k, g in groups:
            nz, vals = hll_partial_registers(g[value_col].to_numpy(), p)
            out_g.extend([k] * len(nz))
            out_r.extend(nz.tolist())
            out_v.extend(vals.tolist())
        res = {"reg": np.asarray(out_r, np.int64),
               "rho": np.asarray(out_v, np.int64)}
        if by:
            res = {by: out_g, **res}
        return pd.DataFrame(res)

    keys = [by, "reg"] if by else ["reg"]
    merged = partial_final_agg(ds.map_batches(partial, batch_format="pandas"),
                               keys, [("rho", "rho", "max")])

    if by:
        def estimate(g: pd.DataFrame) -> pd.DataFrame:
            n = hll_estimate(g["reg"].to_numpy(), g["rho"].to_numpy(), p)
            return pd.DataFrame({by: [g[by].iloc[0]], "ndv": [n]})

        return merged.groupby(by).map_groups(estimate, batch_format="pandas")

    def estimate_all(df: pd.DataFrame) -> pd.DataFrame:
        n = hll_estimate(df["reg"].to_numpy(), df["rho"].to_numpy(), p)
        return pd.DataFrame({"ndv": [n]})

    # global: the merged register table is ≤ m rows — one final task
    return merged.repartition(1).map_batches(estimate_all,
                                             batch_format="pandas")


# ---------------------------------------------------------- count-min sketch


def cms_row_seeds(depth: int, seed: int) -> np.ndarray:
    """Per-row xor seeds, derived deterministically from (depth, seed)."""
    return _splitmix64(np.arange(1, depth + 1, dtype=np.uint64)
                       * np.uint64(seed))


def cms_point_counts(ds: "ray.data.Dataset", col: str, probes: list[str],
                     width: int = 4096, depth: int = 4,
                     seed: int = 11) -> "ray.data.Dataset":
    """Count-min sketch (Cormode & Muthukrishnan 2005) point queries over a
    value stream: est(v) = min_r sketch[r][h_r(v)] — an upper bound on the
    true count, within eps·N (eps = e/width) with prob 1-delta
    (delta = e^-depth).

    CMS is a LINEAR sketch, so the distributed build is exact: per-block
    partial sketches (values compacted to per-block counts first, then
    weighted vectorized adds) merged by elementwise int64 SUM on the driver
    — depth×width int64 per block (~128 KB), independent of input size.
    Deterministic: blake2b value hash + splitmix64 row mixing, so a scalar
    single-threaded recompute (oracle.py) is bit-identical.
    """
    rs = cms_row_seeds(depth, seed)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        vc = df[col].value_counts()
        sk = np.zeros((depth, width), np.int64)
        if len(vc):
            h = hash64_values(vc.index.to_numpy())
            w = vc.to_numpy().astype(np.int64)
            for r in range(depth):
                idx = (_splitmix64(h ^ rs[r]) % np.uint64(width)).astype(
                    np.int64)
                np.add.at(sk[r], idx, w)
        return pd.DataFrame({"sk": [sk.ravel()]})

    merged = np.zeros(depth * width, dtype=np.int64)
    for b in ds.map_batches(partial, batch_format="pandas").iter_batches(
            batch_format="pandas"):
        for row in b["sk"]:
            merged += np.asarray(row, dtype=np.int64)
    sk = merged.reshape(depth, width)

    hp = hash64_values(np.array(probes, dtype=object))
    ests = []
    for i in range(len(probes)):
        est = min(int(sk[r][int(_splitmix64(np.array([hp[i]],
                                            dtype=np.uint64) ^ rs[r])[0]
                                % np.uint64(width))])
                  for r in range(depth))
        ests.append(est)
    return ray.data.from_arrow(pa.table({
        col: pa.array(list(probes), pa.string()),
        "est": pa.array(ests, pa.int64()),
    }))


def histogram_quantiles(ds: "ray.data.Dataset", col: str,
                        probs: list[float], lo: float, hi: float,
                        bits: int = 16) -> "ray.data.Dataset":
    """(prob, value, n) — one-pass mergeable approximate quantiles over a
    fixed 2^bits-bin histogram of [lo, hi): the streaming companion to
    `aggregates.distributed_quantiles` (exact, 3 passes). Error is bounded
    by one bin width ((hi−lo)/2^bits); values outside [lo, hi) clip into
    the edge bins (caller owns the range, e.g. from column statistics).

    Deterministic & partitioning-invariant by construction: the partial is
    a per-block (bin, count) table (≤ 2^bits rows per block — np.unique,
    no compression step that would depend on block boundaries), the merge
    is a commutative partial+final sum, and the quantile pick is the
    smallest bin whose cumulative count reaches ceil(p·n) (quantile_disc
    discipline), reported as the bin's UPPER edge rounded half-up to 6
    decimals. Every float expression (bin = floor((x−lo)·scale), edge
    value) is simple enough to mirror verbatim in a SQL oracle."""
    from ..functions.strings import round_half_up

    nb = 1 << bits
    scale = nb / (hi - lo)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df[col].to_numpy(np.float64)
        b = np.floor((x - lo) * scale).astype(np.int64)
        np.clip(b, 0, nb - 1, out=b)
        uniq, cnt = np.unique(b, return_counts=True)
        return pd.DataFrame({"bin": uniq, "n": cnt.astype(np.int64)})

    hist = partial_final_agg(ds.map_batches(partial, batch_format="pandas"),
                             ["bin"], [("n", "n", "sum")])

    def pick(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values("bin")
        cum = df["n"].to_numpy(np.int64).cumsum()
        bins = df["bin"].to_numpy(np.int64)
        total = int(cum[-1]) if len(cum) else 0
        out_p, out_v, out_n = [], [], []
        for p in probs:
            # ceil(p·n) in exact nonneg-int arithmetic (p quantized to 1e-6
            # first), so the SQL oracle's // mirrors it bit for bit
            rank = (int(p * 1_000_000) * total + 999_999) // 1_000_000
            i = int(np.searchsorted(cum, max(rank, 1)))
            b = int(bins[min(i, len(bins) - 1)]) if len(bins) else 0
            out_p.append(p)
            out_v.append(float(round_half_up(
                np.float64(lo) + (b + 1) / np.float64(scale), 6)))
            out_n.append(total)
        return pa.table({"prob": pa.array(out_p, pa.float64()),
                         "value": pa.array(out_v, pa.float64()),
                         "n": pa.array(out_n, pa.int64())})

    # the final histogram is ≤ 2^bits rows by construction — one task
    return hist.repartition(1).map_batches(pick, batch_format="pyarrow",
                                           batch_size=None)


# ------------------------------------------------------ Poisson bootstrap


def _poisson1_thresholds(kmax: int = 8) -> np.ndarray:
    """Cumulative Poisson(1) CDF thresholds on the 63-bit uniform grid:
    a 63-bit draw u maps to weight = #{k : u >= T_k} − ... computed as
    the count of thresholds ≤ u. Float64 CDF math is fixed here once —
    the same function defines both the engine and the oracle."""
    import math

    cdf = []
    acc = 0.0
    for k in range(kmax + 1):
        acc += math.exp(-1.0) / math.factorial(k)
        cdf.append(min(acc, 1.0))
    return np.array([int(c * float(1 << 63)) for c in cdf], dtype=np.int64)


_PB_T = _poisson1_thresholds()
_PB_SEED = np.uint64(0xD1B54A32D192ED03)


def poisson_bootstrap_weights(keys: np.ndarray, n_boot: int) -> np.ndarray:
    """(n, n_boot) int64 Poisson(1) bootstrap weights, deterministic in
    the row key alone — partitioning-invariant by construction (the
    splitmix64 counter-mode draw, no RNG state). The standard one-pass
    'Poisson bootstrap' used when the corpus cannot be resampled by
    index at scale."""
    from .dedup import _splitmix64

    seeds = _splitmix64(
        np.arange(n_boot, dtype=np.uint64) ^ _PB_SEED)
    u = _splitmix64(keys.astype(np.uint64)[:, None] ^ seeds[None, :])
    u63 = (u >> np.uint64(1)).astype(np.int64)
    # weight = count of CDF thresholds <= u63  (inverse-CDF lookup)
    return (u63[:, :, None] >= _PB_T[None, None, :]).sum(axis=2
                                                         ).astype(np.int64)


def bootstrap_sum_replicates(ds: "ray.data.Dataset", key_col: str,
                             x_col: str,
                             n_boot: int = 64) -> "ray.data.Dataset":
    """(b, s) — `n_boot` Poisson-bootstrap replicate sums of `x_col`
    (int64) plus the unweighted total as b = −1. ONE scan: each block
    emits ≤ n_boot+1 partial rows; the combine is a tiny grouped sum.
    Replicate spread estimates the sampling distribution of the total —
    the basis for bootstrap confidence intervals at any corpus size
    (weights derive from the row KEY, so results are exact-deterministic
    under any partitioning). Overflow: Σ w·x ≤ ~9·Σx — keep Σx under
    ~1e18/9."""
    from ..aggregates import partial_final_agg

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = df[key_col].to_numpy("int64")
        x = df[x_col].to_numpy("int64")
        w = poisson_bootstrap_weights(k, n_boot)
        sums = (w * x[:, None]).sum(axis=0)
        return pd.DataFrame({
            "b": np.concatenate([[np.int64(-1)],
                                 np.arange(n_boot, dtype=np.int64)]),
            "s": np.concatenate([[x.sum()], sums])})

    return partial_final_agg(
        ds.map_batches(partial, batch_format="pandas"), ["b"],
        [("s", "s", "sum")])


def histogram_quantiles_grouped(ds: "ray.data.Dataset", col: str,
                                by: str, probs: list[float], lo: float,
                                hi: float, bits: int = 13
                                ) -> "ray.data.Dataset":
    """(group, prob, value, n) — the GROUPED companion of
    `histogram_quantiles`: per-(group, bin) count partials (≤ groups ×
    2^bits rows total after the tiny combine), then a per-group ceil-rank
    pick. Same determinism/mirroring contract as the global op; intended
    for modest group cardinality (the final pick holds one group's
    histogram per pandas group — ≤ 2^bits rows each)."""
    from ..aggregates import partial_final_agg
    from ..functions.strings import round_half_up

    nb = 1 << bits
    scale = nb / (hi - lo)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        x = df[col].to_numpy(np.float64)
        b = np.floor((x - lo) * scale).astype(np.int64)
        np.clip(b, 0, nb - 1, out=b)
        g = pd.DataFrame({by: df[by].to_numpy(object), "bin": b,
                          "one": np.ones(len(df), "int64")})
        return g.groupby([by, "bin"], as_index=False)["one"].sum().rename(
            columns={"one": "n"})

    hist = partial_final_agg(ds.map_batches(partial, batch_format="pandas"),
                             [by, "bin"], [("n", "n", "sum")])

    def pick(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bin")
        cum = df["n"].to_numpy(np.int64).cumsum()
        bins = df["bin"].to_numpy(np.int64)
        total = int(cum[-1]) if len(cum) else 0
        rows = []
        for p in probs:
            rank = (int(p * 1_000_000) * total + 999_999) // 1_000_000
            i = int(np.searchsorted(cum, max(rank, 1)))
            b = int(bins[min(i, len(bins) - 1)]) if len(bins) else 0
            rows.append((p, float(round_half_up(
                np.float64(lo) + (b + 1) / np.float64(scale), 6)), total))
        return pd.DataFrame({by: df[by].iloc[0],
                             "prob": [r[0] for r in rows],
                             "value": [r[1] for r in rows],
                             "n": np.array([r[2] for r in rows], "int64")})

    return hist.groupby(by).map_groups(pick, batch_format="pandas")
