"""Multimodal column plumbing: image/audio/video as opaque `binary` columns.

The decode libraries (PIL/ffmpeg/librosa) are NOT in this container, so the
codec step is stubbed (deterministic fake or NotImplementedError) — but the
Ray-side plumbing is real and tested: schema, small-batch task-pool stages,
typed metadata, output layout. At scale the rules encoded here are:
 - binary payloads ride as `pa.binary()` with sidecar metadata columns;
 - decode/feature stages are task maps with SMALL batch_size (payload ×
   batch × concurrent tasks must fit worker heap);
 - features come out as fixed-width `list<float>` ready for the similarity /
   dedup stages in this package.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.string()),
        ("kind", pa.string()),          # image | audio | video
        ("mime", pa.string()),
        ("payload", pa.binary()),       # opaque encoded bytes
        ("width", pa.int32()),          # typed metadata (nullable)
        ("height", pa.int32()),
        ("duration_ms", pa.int32()),
    ]
)

# payload bytes per batch is the sizing constraint, not row count
DEFAULT_MEDIA_BATCH_SIZE = 16


class ImageDecoder:
    """Task-pool stage: payload → decoded dims + feature vector.

    REAL decode requires PIL — not available here. `fake=True` (default in
    this container) derives a deterministic pseudo-decode from the payload
    bytes so the pipeline plumbing is testable end-to-end; `fake=False`
    raises NotImplementedError at construction, marking the integration
    point.
    """

    def __init__(self, feature_dim: int = 64, fake: bool = True):
        if not fake:
            raise NotImplementedError(
                "real image decode needs PIL/opencv, not present in this "
                "container; run with fake=True or install a decoder"
            )
        self.feature_dim = feature_dim

    def _features(self, payload: bytes) -> np.ndarray:
        # deterministic fake: hash-seeded projection of byte histogram
        hist = np.bincount(np.frombuffer(payload, dtype=np.uint8), minlength=256)
        seed = int.from_bytes(hashlib.blake2b(payload, digest_size=4).digest(), "big")
        rng = np.random.RandomState(seed % (2**31))
        proj = rng.standard_normal((256, self.feature_dim)).astype(np.float32)
        v = hist.astype(np.float32) @ proj
        n = np.linalg.norm(v)
        return v / (n if n else 1.0)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        feats = [self._features(p).tolist() for p in batch["payload"]]
        return pd.DataFrame(
            {
                "media_id": batch["media_id"].values,
                "kind": batch["kind"].values,
                "feature": feats,
            }
        )


class FrameSampler:
    """Task-pool stage: video payload → N deterministic frame offsets (ms).
    Real frame extraction is stubbed; offsets + plumbing are real."""

    def __init__(self, n_frames: int = 4):
        self.n_frames = n_frames

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        ids, offsets = [], []
        for mid, dur in zip(batch["media_id"], batch["duration_ms"]):
            dur = int(dur) if dur and not pd.isna(dur) else 0
            for i in range(self.n_frames):
                ids.append(mid)
                offsets.append((dur * i) // max(1, self.n_frames))
        return pd.DataFrame({"media_id": ids, "frame_offset_ms": offsets})


def synth_media_table(n: int = 32, seed: int = 5) -> pa.Table:
    """Deterministic fake media corpus for tests."""
    rng = np.random.RandomState(seed)
    rows = {k: [] for k in MEDIA_SCHEMA.names}
    kinds = ["image", "audio", "video"]
    for i in range(n):
        kind = kinds[i % 3]
        payload = rng.randint(0, 256, size=rng.randint(64, 512), dtype=np.uint8).tobytes()
        rows["media_id"].append(f"m{i:04d}")
        rows["kind"].append(kind)
        rows["mime"].append({"image": "image/png", "audio": "audio/wav", "video": "video/mp4"}[kind])
        rows["payload"].append(payload)
        rows["width"].append(int(rng.randint(16, 4096)) if kind == "image" else None)
        rows["height"].append(int(rng.randint(16, 4096)) if kind == "image" else None)
        rows["duration_ms"].append(int(rng.randint(1000, 600000)) if kind != "image" else None)
    return pa.table({k: pa.array(rows[k], MEDIA_SCHEMA.field(k).type) for k in MEDIA_SCHEMA.names})


class Resizer:
    """Task-pool stage: image rows → resize plan (typed-metadata math).
    Real pixel resampling needs PIL (stubbed, like ImageDecoder); the
    integer aspect-preserving dimension math, schema and small-batch task
    plumbing are real: new_w = w·S // max(w,h) (and likewise h) when the
    longest side exceeds `max_side`, else unchanged."""

    def __init__(self, max_side: int = 512, fake: bool = True):
        if not fake:
            raise NotImplementedError(
                "real resampling needs PIL/opencv; run with fake=True")
        self.max_side = max_side

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        w = batch["width"].fillna(0).astype("int64").to_numpy()
        h = batch["height"].fillna(0).astype("int64").to_numpy()
        longest = np.maximum(np.maximum(w, h), 1)
        scale_needed = longest > self.max_side
        new_w = np.where(scale_needed, w * self.max_side // longest, w)
        new_h = np.where(scale_needed, h * self.max_side // longest, h)
        return pd.DataFrame({
            "media_id": batch["media_id"].values,
            "width": w,
            "height": h,
            "new_w": new_w.astype("int64"),
            "new_h": new_h.astype("int64"),
            "resized": scale_needed,
        })


def payload_dedup(media: "ray.data.Dataset") -> "ray.data.Dataset":
    """(sha16, n_copies, keeper_media_id) — exact binary-payload dedup over
    an opaque media column: content-hash groups with copy counts and the
    deterministic keeper (smallest media_id). The multimodal twin of the
    documents exact-dedup (binary payloads never decode — dedup works on
    bytes, so the stubbed codecs don't matter here).

    Scale shape: one scan stamps sha256 per payload (a digest is
    inherently per-row; payloads stay inside the task), per-block
    (sha, min_id, count) partials, then ONE sha-keyed partial+final
    reduce — the same partial-min/count discipline as exact_duplicates."""
    import hashlib

    from ..aggregates import partial_final_agg

    def stamp(df: pd.DataFrame) -> pd.DataFrame:
        sha = [hashlib.sha256(p).hexdigest()[:16] for p in df["payload"]]
        g = pd.DataFrame({"sha16": sha,
                          "mid": df["media_id"].to_numpy(object),
                          "n_p": np.ones(len(df), "int64")})
        return g.groupby("sha16", as_index=False).agg(
            keeper_p=("mid", "min"), n_p=("n_p", "sum"))

    out = partial_final_agg(
        media.select_columns(["media_id", "payload"]).map_batches(
            stamp, batch_format="pandas"),
        ["sha16"], [("n_copies", "n_p", "sum"),
                    ("keeper_media_id", "keeper_p", "min")])
    return out.map_batches(
        lambda df: df[["sha16", "n_copies", "keeper_media_id"]],
        batch_format="pandas")


def payload_simhash(p: bytes) -> int:
    """64-bit SimHash over byte 4-grams of an opaque payload (decode-free
    perceptual-ish near-dup signature: a few flipped bytes touch only a
    few 4-grams, so the signature moves O(1) bits). The hash family
    (_splitmix64 over packed big-endian 4-grams, sign-vote with ties→1)
    DEFINES the operator — the oracle reuses it, the banding/shuffle
    plumbing is what gets checked. Payloads shorter than 4 bytes hash
    their zero-padded single window."""
    from numpy.lib.stride_tricks import sliding_window_view

    from .dedup import _splitmix64

    arr = np.frombuffer(p, dtype=np.uint8)
    if len(arr) < 4:
        arr = np.concatenate([arr, np.zeros(4 - len(arr), np.uint8)])
    w = sliding_window_view(arr, 4).astype(np.uint64)
    grams = ((w[:, 0] << np.uint64(24)) | (w[:, 1] << np.uint64(16))
             | (w[:, 2] << np.uint64(8)) | w[:, 3])
    h = _splitmix64(grams)
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64))
            & np.uint64(1)).astype(np.int64)
    votes = (2 * bits - 1).sum(axis=0)
    sig = np.uint64(0)
    for i in np.nonzero(votes >= 0)[0]:
        sig |= np.uint64(1) << np.uint64(i)
    return int(sig)


def payload_neardup_pairs(media: "ray.data.Dataset", max_hamming: int = 3,
                          n_bands: int = 4) -> "ray.data.Dataset":
    """(id_a, id_b, hamming) — near-duplicate payload pairs by banded
    SimHash (id_a < id_b). With 64-bit signatures split into `n_bands`
    equal bands, any pair within Hamming distance ≤ n_bands − 1 shares at
    least one untouched band (pigeonhole) — so the default (4 bands,
    max_hamming 3) is LOSSLESS: banding is pure routing, never recall
    loss. In-bucket verify is the byte-table popcount over the full
    signatures; cross-bucket duplicates collapse with one grouped
    min-reduce (a pair is emitted once, keyed on its id pair).

    Scale shape: one signature scan (per-row digest, payloads never leave
    the task), 4 band rows per payload into ONE coarse groupby shuffle,
    all-pairs only INSIDE a band bucket (boilerplate-heavy corpora should
    cap bucket size like substring_dup_pairs' max_df — not needed for the
    synthetic corpus)."""
    if max_hamming > n_bands - 1:
        raise ValueError("banding is lossless only for "
                         "max_hamming <= n_bands - 1")
    from ..aggregates import partial_final_agg
    from ..joins import bucket_groups
    from .dedup import _popcount_u64

    band_bits = 64 // n_bands
    mask = np.uint64((1 << band_bits) - 1)

    def band_rows(df: pd.DataFrame) -> pd.DataFrame:
        sigs = np.array([payload_simhash(p) for p in df["payload"]],
                        dtype=np.uint64)
        parts = []
        for b in range(n_bands):
            bv = (sigs >> np.uint64(b * band_bits)) & mask
            parts.append(pd.DataFrame({
                "band_ix": np.full(len(df), b, "int64"),
                "band_val": bv.astype("int64"),
                "media_id": df["media_id"].to_numpy(object),
                "sig": sigs.astype("int64")}))
        return pd.concat(parts, ignore_index=True)

    bands = media.select_columns(["media_id", "payload"]).map_batches(
        band_rows, batch_format="pandas")

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, g in df.groupby(["band_ix", "band_val"], sort=False):
            if len(g) < 2:
                continue
            ids = g["media_id"].to_numpy(object)
            sigs = g["sig"].to_numpy("int64").view(np.uint64)
            order = np.argsort(ids, kind="stable")
            ids, sigs = ids[order], sigs[order]
            ii, jj = np.triu_indices(len(ids), 1)
            ham = _popcount_u64(sigs[ii] ^ sigs[jj])
            keep = ham <= max_hamming
            out.append(pd.DataFrame({"id_a": ids[ii[keep]],
                                     "id_b": ids[jj[keep]],
                                     "hamming": ham[keep].astype("int64")}))
        if not out:
            return pd.DataFrame({"id_a": pd.Series(dtype=object),
                                 "id_b": pd.Series(dtype=object),
                                 "hamming": pd.Series(dtype="int64")})
        return pd.concat(out, ignore_index=True)

    # coarse bucket on the (band, value) key — ONE shuffle, the in-bucket
    # kernel iterates its exact band groups
    pairs = bucket_groups(bands, ["band_ix", "band_val"], 64, bucket_pairs)
    # a pair found in several bands collapses to one row (hamming is a
    # function of the pair, min == the value)
    return partial_final_agg(pairs, ["id_a", "id_b"],
                             [("hamming", "hamming", "min")])
