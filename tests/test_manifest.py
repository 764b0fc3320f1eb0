"""The manifest's sha256 roll-up against its integer definition."""

import hashlib
import random

import pytest

from dygiepp_ray.state.manifest import sha_rollup


def _int_xor(shas: list[str]) -> str:
    acc = 0
    for s in shas:
        acc ^= int(s, 16)
    return format(acc, "064x")


@pytest.mark.parametrize("n", [0, 1, 2, 64, 1001])
def test_sha_rollup_equals_integer_xor(n):
    rng = random.Random(n)
    shas = [hashlib.sha256(rng.randbytes(16)).hexdigest() for _ in range(n)]
    assert sha_rollup(shas) == _int_xor(shas)
    assert sha_rollup(shas + shas[:1] * 2) == _int_xor(shas)
