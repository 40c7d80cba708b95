import numpy as np
import pytest

from carrierstream import (
    ConfigError,
    FormatError,
    FrameTokens,
    ModelConfig,
    PayloadLengthError,
    ShapeError,
    load_frames,
    make_random_frames,
    save_frames,
)


def test_frames_roundtrip_bitwise(tmp_path):
    frames = make_random_frames(5, tokens_per_frame=4, d_model=8, seed=9)
    path = str(tmp_path / "f.bin")
    save_frames(path, frames)
    loaded = load_frames(path)
    assert [f.frame_index for f in loaded] == [0, 1, 2, 3, 4]
    for a, b in zip(frames, loaded):
        np.testing.assert_array_equal(a.embeddings, b.embeddings)
        assert b.embeddings.dtype == np.float32


def test_make_random_frames_seeded():
    a = make_random_frames(3, 4, 8, seed=1)
    b = make_random_frames(3, 4, 8, seed=1)
    c = make_random_frames(3, 4, 8, seed=2)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.embeddings, fb.embeddings)
    assert not np.array_equal(a[0].embeddings, c[0].embeddings)
    bound = 1.0 / np.sqrt(8)
    assert all(np.abs(f.embeddings).max() <= bound for f in a)


@pytest.mark.parametrize("count, n, d, seed", [
    (1, 8, 32, 0),  # a single frame
    (129, 8, 32, 1),  # 16 frames to a chunk: 8 chunks, and one frame more
    (256, 8, 32, 2),  # exactly 16 chunks
    (100, 4, 24, 3),  # 42 frames to a chunk, 16 left over
    (300, 16, 256, 4),  # one frame to a chunk
    (3, 300, 200, 5),  # a frame larger than a chunk
])
def test_make_random_frames_equals_per_frame_draws(count, n, d, seed):
    rng = np.random.default_rng(seed)  # the reference: one draw per frame
    scale = 1.0 / np.sqrt(d)
    expected = [rng.uniform(-scale, scale, size=(n, d)).astype(np.float32) for _ in range(count)]
    frames = make_random_frames(count, n, d, seed)
    assert [f.frame_index for f in frames] == list(range(count))
    for f, e in zip(frames, expected):
        assert f.embeddings.dtype == np.float32 and np.array_equal(f.embeddings, e)


def test_save_frames_refuses_bad_input(tmp_path):
    with pytest.raises(ShapeError):
        save_frames(str(tmp_path / "x.bin"), [])
    frames = [
        FrameTokens(0, np.zeros((2, 4), np.float32)),
        FrameTokens(1, np.zeros((3, 4), np.float32)),
    ]
    with pytest.raises(ShapeError):
        save_frames(str(tmp_path / "x.bin"), frames)


def test_load_frames_rejects_corruption(tmp_path):
    path = str(tmp_path / "f.bin")
    save_frames(path, make_random_frames(3, 2, 4, seed=0))
    raw = open(path, "rb").read()

    bad = str(tmp_path / "bad.bin")
    open(bad, "wb").write(b"ZZZZ" + raw[4:])
    with pytest.raises(FormatError):
        load_frames(bad)

    open(bad, "wb").write(raw[:-5])
    with pytest.raises(PayloadLengthError):
        load_frames(bad)

    open(bad, "wb").write(raw + b"\x01\x02")
    with pytest.raises(FormatError):
        load_frames(bad)


def test_load_frames_checks_config_shape(tmp_path):
    path = str(tmp_path / "f.bin")
    save_frames(path, make_random_frames(3, 2, 4, seed=0))
    good = ModelConfig(tokens_per_frame=2, d_model=4, ff_dim=8, heads=2)
    assert len(load_frames(path, good)) == 3
    bad = ModelConfig(tokens_per_frame=8, d_model=4, ff_dim=8, heads=2)
    with pytest.raises(ConfigError):
        load_frames(path, bad)
