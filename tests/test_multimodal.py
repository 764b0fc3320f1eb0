"""Multimodal plumbing: stubbed decode, real Ray-side schema/actor path."""

import pandas as pd
import pytest

import ray.data

from dygiepp_ray.stages.multimodal import (
    DEFAULT_MEDIA_BATCH_SIZE,
    FrameSampler,
    ImageDecoder,
    MEDIA_SCHEMA,
    synth_media_table,
)


def test_media_table_schema():
    t = synth_media_table(12)
    assert t.schema.equals(MEDIA_SCHEMA)
    assert t.num_rows == 12


def test_real_decode_is_marked_unimplemented():
    with pytest.raises(NotImplementedError):
        ImageDecoder(fake=False)


def test_fake_decoder_deterministic():
    t = synth_media_table(6)
    df = t.to_pandas()
    d = ImageDecoder(feature_dim=8)
    f1 = d(df)["feature"].tolist()
    f2 = ImageDecoder(feature_dim=8)(df)["feature"].tolist()
    assert f1 == f2
    assert all(len(f) == 8 for f in f1)


def test_task_pool_pipeline():
    ds = ray.data.from_arrow(synth_media_table(16))
    out = ds.map_batches(
        ImageDecoder(feature_dim=4),
        batch_format="pandas", batch_size=DEFAULT_MEDIA_BATCH_SIZE,
    ).to_pandas()
    assert len(out) == 16 and all(len(f) == 4 for f in out["feature"])


def test_frame_sampler_offsets():
    fs = FrameSampler(n_frames=4)
    df = pd.DataFrame({"media_id": ["v1"], "duration_ms": [1000]})
    out = fs(df)
    assert out["frame_offset_ms"].tolist() == [0, 250, 500, 750]


def test_resizer_dimension_math():
    import pandas as pd

    from dygiepp_ray.stages.multimodal import Resizer

    df = pd.DataFrame({
        "media_id": ["a", "b", "c"],
        "width": [1024, 300, 512],
        "height": [768, 200, 513],
    })
    out = Resizer(max_side=512)(df)
    # a: longest 1024 -> scale to 512; aspect preserved via integer floor
    assert out.loc[0, ["new_w", "new_h"]].tolist() == [512, 384]
    assert bool(out.loc[0, "resized"])
    # b: already within bounds -> unchanged
    assert out.loc[1, ["new_w", "new_h"]].tolist() == [300, 200]
    assert not bool(out.loc[1, "resized"])
    # c: 513 just over -> 511x512
    assert out.loc[2, ["new_w", "new_h"]].tolist() == [511, 512]


def test_resizer_real_mode_is_marked():
    import pytest

    from dygiepp_ray.stages.multimodal import Resizer

    with pytest.raises(NotImplementedError):
        Resizer(fake=False)


def test_payload_neardup_pairs_vs_bruteforce_and_invariance():
    import numpy as np

    from dygiepp_ray.oracle import _media_neardup_corpus
    from dygiepp_ray.stages.dedup import _popcount_u64
    from dygiepp_ray.stages.multimodal import (payload_neardup_pairs,
                                               payload_simhash)

    mids, payloads = _media_neardup_corpus(20, 8, 3)
    sigs = np.array([payload_simhash(p) for p in payloads], dtype=np.uint64)
    want = set()
    for i in range(len(mids)):
        for j in range(i + 1, len(mids)):
            h = int(_popcount_u64(np.array([sigs[i] ^ sigs[j]]))[0])
            if h <= 3:
                a, b = sorted((mids[i], mids[j]))
                want.add((a, b, h))
    assert want, "planted corpus must produce near-dup pairs"
    import pyarrow as _pa
    for nparts in (1, 4):
        media = ray.data.from_arrow(_pa.table({
            "media_id": _pa.array(mids, _pa.string()),
            "payload": _pa.array(payloads, _pa.binary()),
        })).repartition(nparts)
        got = payload_neardup_pairs(media, max_hamming=3).to_pandas()
        have = {(r.id_a, r.id_b, int(r.hamming)) for r in got.itertuples()}
        assert have == want


def test_payload_neardup_banding_guard():
    import pytest as _pytest

    from dygiepp_ray.stages.multimodal import payload_neardup_pairs

    with _pytest.raises(ValueError, match="lossless"):
        payload_neardup_pairs(None, max_hamming=4, n_bands=4)
