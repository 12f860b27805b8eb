import numpy as np
import pytest

from saabcodec import video
from saabcodec.errors import InvalidInputError


def test_write_read_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    planes = [rng.integers(0, 256, size=(48, 64)).astype(np.uint8) for _ in range(3)]
    path = str(tmp_path / "clip.yuv")
    video.write_yuv(path, planes)
    back = video.read_yuv(path, 64, 48)
    assert len(back) == 3
    for a, b in zip(planes, back):
        assert np.array_equal(a, b)


def test_frame_count(tmp_path):
    planes = [np.full((16, 16), i, dtype=np.uint8) for i in range(5)]
    path = str(tmp_path / "clip.yuv")
    video.write_yuv(path, planes)
    # the first n frames; 0, or a count past the end, reads all of them
    for frames, want in ((2, 2), (0, 5), (5, 5), (9, 5)):
        back = video.read_yuv(path, 16, 16, frames)
        assert [int(p[0, 0]) for p in back] == list(range(want))
    with pytest.raises(InvalidInputError):
        video.read_yuv(path, 16, 16, -1)


def test_crop_to_block_grid():
    plane = np.zeros((17, 22), dtype=np.uint8)
    cropped = video.crop_to_block_grid(plane)
    assert cropped.shape == (16, 16)


def test_read_crops_odd_dimensions(tmp_path):
    # 4:2:0 file with luma 18x20 -> luma cropped to 16x16 on read
    w, h = 20, 18
    data = np.zeros(w * h * 3 // 2, dtype=np.uint8)
    path = tmp_path / "odd.yuv"
    path.write_bytes(data.tobytes())
    back = video.read_yuv(str(path), w, h)
    assert back[0].shape == (16, 16)


def test_odd_width_and_height_frame_size(tmp_path):
    """A 17x9 4:2:0 frame is 153 luma bytes and two 9x5 chroma planes."""
    rng = np.random.default_rng(4)
    luma = rng.integers(0, 256, size=(3, 9, 17), dtype=np.uint8)
    chroma = rng.integers(0, 256, size=(3, 2 * 9 * 5), dtype=np.uint8)
    path = tmp_path / "odd.yuv"
    path.write_bytes(np.concatenate([luma.reshape(3, -1), chroma], axis=1).tobytes())
    back = video.read_yuv(str(path), 17, 9)
    assert len(back) == 3
    for y, b in zip(luma, back):
        assert np.array_equal(b, y[:8, :16])
    video.write_yuv(str(path), list(luma))
    assert path.stat().st_size == 3 * 243
    assert all(np.array_equal(b, y[:8, :16]) for y, b in zip(luma, video.read_yuv(str(path), 17, 9)))


def test_size_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.yuv"
    path.write_bytes(b"\x00" * 100)
    with pytest.raises(InvalidInputError):
        video.read_yuv(str(path), 64, 48)


def test_synthesize_deterministic():
    a = video.synthesize_luma_clip(64, 48, 4, seed=3)
    b = video.synthesize_luma_clip(64, 48, 4, seed=3)
    c = video.synthesize_luma_clip(64, 48, 4, seed=4)
    assert len(a) == 4
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)
    assert any(not np.array_equal(pa, pc) for pa, pc in zip(a, c))
    for p in a:
        assert p.dtype == np.uint8
        assert p.shape == (48, 64)


def test_synthesize_has_motion():
    planes = video.synthesize_luma_clip(64, 48, 3, seed=0)
    assert not np.array_equal(planes[0], planes[2])


@pytest.mark.parametrize("width,height", [(4, 4), (0, 16), (16, 7)])
def test_frames_below_one_block_rejected(tmp_path, width, height):
    path = tmp_path / "small.yuv"
    path.write_bytes(bytes(width * height * 3 // 2 or 1))
    with pytest.raises(InvalidInputError):
        video.read_yuv(str(path), width, height)
    with pytest.raises(InvalidInputError):
        video.synthesize_luma_clip(width, height, 1)


@pytest.mark.parametrize("frames", [0, -1])
def test_synthesize_rejects_fewer_than_one_frame(frames):
    with pytest.raises(InvalidInputError):
        video.synthesize_luma_clip(16, 16, frames)
