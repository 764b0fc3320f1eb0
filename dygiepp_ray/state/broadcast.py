"""Broadcast small-side lookups (SURVEY.md §2.4 J4/J5 pattern).

`ray.put` the small object ONCE on the driver; pass the ObjectRef to a
`ProcessLocal` stage's constructor (state/process_local.py), which resolves
it once per worker process, or resolve it lazily inside a stateless
map_batches fn. Never re-ship the object per batch, never shuffle-join a
small side.
"""

from __future__ import annotations

from typing import Any

import ray

from .process_local import ProcessLocal


def broadcast(obj: Any) -> "ray.ObjectRef":
    return ray.put(obj)


def resolve(ref_or_obj: Any) -> Any:
    if isinstance(ref_or_obj, ray.ObjectRef):
        return ray.get(ref_or_obj)
    return ref_or_obj


class BloomFilter:
    """Fixed-size Bloom filter for broadcast membership at scales where the
    exact key set won't fit in worker heap (J5 at 10^12 rows). k splitmix64
    hashes over a numpy bit array; no false negatives, tunable false-positive
    rate (~(1-e^(-kn/m))^k). Anti-joins built on it are APPROXIMATE: a false
    positive drops a row that should survive — callers must state the FPR."""

    def __init__(self, n_expected: int, fpr: float = 0.01, seed: int = 13):
        import math

        import numpy as np

        m = max(64, int(-n_expected * math.log(max(fpr, 1e-9)) / (math.log(2) ** 2)))
        self.n_bits = 1 << max(6, (m - 1).bit_length())  # power of two
        self.k = max(1, round(m / max(1, n_expected) * math.log(2)))
        self.bits = np.zeros(self.n_bits // 8, dtype=np.uint8)
        self.seed = seed

    def _hashes(self, key) -> list[int]:
        import hashlib

        h = int.from_bytes(
            hashlib.blake2b(str(key).encode(), digest_size=16,
                            salt=self.seed.to_bytes(8, "little")).digest(),
            "big",
        )
        h1, h2 = h & ((1 << 64) - 1), h >> 64
        return [(h1 + i * h2) % self.n_bits for i in range(self.k)]

    def add(self, key) -> None:
        for b in self._hashes(key):
            self.bits[b >> 3] |= 1 << (b & 7)

    def __contains__(self, key) -> bool:
        return all(self.bits[b >> 3] & (1 << (b & 7)) for b in self._hashes(key))

    @classmethod
    def from_keys(cls, keys, fpr: float = 0.01) -> "BloomFilter":
        keys = list(keys)
        bf = cls(max(1, len(keys)), fpr)
        for k in keys:
            bf.add(k)
        return bf


def bloom_anti_join(big: "ray.data.Dataset", keys, column: str,
                    fpr: float = 0.01) -> "ray.data.Dataset":
    """Approximate anti-join: keep rows whose key is NOT (probably) in
    `keys`. Broadcasts only the bit array. False positives (≤ fpr) wrongly
    drop rows; false negatives cannot occur."""
    bf_ref = ray.put(BloomFilter.from_keys(keys, fpr))

    def drop_members(batch):
        bf = ray.get(bf_ref)
        mask = [v not in bf for v in batch.column(column).to_pylist()]
        import pyarrow as pa

        return batch.filter(pa.array(mask))

    return big.map_batches(drop_members, batch_format="pyarrow")


class BroadcastSetFilter(ProcessLocal):
    """Semi/anti-join by broadcast key set: keep rows whose `column` is (or is
    not) in the broadcast set (J5 — check_dataset.py:24-49 style membership)."""

    def __init__(self, keys_ref: Any, column: str, keep_if_member: bool = True):
        import pyarrow as pa

        # build the Arrow value-set ONCE per worker process — rebuilding it
        # per batch was a measurable per-batch cost on large key sets
        self.value_set = pa.array(sorted(set(resolve(keys_ref))))
        self.column = column
        self.keep = keep_if_member

    def __call__(self, batch):
        import pyarrow.compute as pc

        mask = pc.is_in(batch.column(self.column), value_set=self.value_set)
        if not self.keep:
            mask = pc.invert(mask)
        return batch.filter(mask)
