"""Raw video ingestion: planar 8-bit 4:2:0 files, luma only.

Also provides a deterministic synthetic clip generator used for demos and
tests, since the package ships no video assets.
"""

import os

import numpy as np

from .errors import InvalidInputError
from .linalg import BLOCK_SIZE as BLOCK


def _check_frame_size(width, height):
    if width < BLOCK or height < BLOCK:
        raise InvalidInputError(f"frame size {width}x{height} is below one {BLOCK}x{BLOCK} block")


def crop_to_block_grid(plane):
    """Crop a luma plane down to dimensions that are multiples of 8."""
    h, w = plane.shape
    return plane[: h - h % BLOCK, : w - w % BLOCK]


def _frame_bytes(width, height):
    """Bytes of one 4:2:0 frame: luma and two ceil(width/2) x ceil(height/2) chroma planes."""
    return width * height + 2 * (-(-width // 2)) * (-(-height // 2))


def read_yuv(path, width, height, frames=0):
    """Read the luma planes of an 8-bit planar 4:2:0 file.

    frames is how many frames to read from the start, in display order; 0,
    or a count past the end of the file, reads all of them.  Raises
    InvalidInputError if a dimension is below one block, the file size is
    inconsistent with the dimensions or `frames` is negative.
    """
    _check_frame_size(width, height)
    if frames < 0:
        raise InvalidInputError(f"frame count {frames} is negative")
    frame_bytes = _frame_bytes(width, height)
    size = os.path.getsize(path)
    if size == 0 or size % frame_bytes != 0:
        raise InvalidInputError(
            f"file size {size} is not a multiple of the 4:2:0 frame size {frame_bytes} "
            f"for {width}x{height}"
        )
    n_frames = size // frame_bytes
    if frames:
        n_frames = min(frames, n_frames)
    planes = []
    with open(path, "rb") as f:
        for _ in range(n_frames):
            y = np.frombuffer(f.read(width * height), dtype=np.uint8)
            if y.size != width * height:
                raise InvalidInputError("truncated file")
            f.seek(frame_bytes - width * height, os.SEEK_CUR)
            planes.append(crop_to_block_grid(y.reshape(height, width)).copy())
    return planes


def write_yuv(path, planes):
    """Write luma planes as an 8-bit planar 4:2:0 file with neutral chroma."""
    with open(path, "wb") as f:
        for y in planes:
            h, w = y.shape
            f.write(np.asarray(y, dtype=np.uint8).tobytes())
            f.write(np.full(_frame_bytes(w, h) - h * w, 128, dtype=np.uint8).tobytes())


def synthesize_luma_clip(width, height, frames, seed=0):
    """Deterministic synthetic test content with natural-image statistics.

    Mixes a smooth illumination gradient, oriented gratings whose angle
    varies across the frame (so intra prediction exercises many angular
    modes), a few moving soft discs, and mild texture noise.  Raises
    InvalidInputError if a dimension is below one block, `frames` is below
    1 or `seed` (an integer or a sequence of them) is negative.
    """
    _check_frame_size(width, height)
    if frames < 1:
        raise InvalidInputError(f"frame count {frames} is below 1")
    if np.any(np.asarray(seed) < 0):
        raise InvalidInputError(f"seed {seed!r} is negative")
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    base_angle = np.pi / 5 + rng.uniform(-0.1, 0.1)
    grad = 60.0 + 80.0 * (xx * np.cos(base_angle) + yy * np.sin(base_angle)) / max(width, height)

    # Canonical orientations and frequencies (jittered slightly per seed) so
    # clips synthesized from different seeds share second-order statistics;
    # positions, phases, motion, and noise are what the seed varies.
    n_gratings = 6
    g_angle = np.array([0.0, np.pi / 8, np.pi / 4, np.pi / 2, 3 * np.pi / 4, 7 * np.pi / 8])
    g_angle = g_angle + rng.uniform(-0.06, 0.06, n_gratings)
    g_freq = np.array([0.25, 0.45, 0.6, 0.3, 0.5, 0.35]) * rng.uniform(0.9, 1.1, n_gratings)
    g_cx = rng.uniform(0, width, n_gratings)
    g_cy = rng.uniform(0, height, n_gratings)
    g_sigma = rng.uniform(0.12, 0.35, n_gratings) * max(width, height)
    g_amp = rng.uniform(15.0, 45.0, n_gratings)

    n_discs = 4
    d_cx = rng.uniform(0, width, n_discs)
    d_cy = rng.uniform(0, height, n_discs)
    d_vx = rng.uniform(-1.5, 1.5, n_discs)
    d_vy = rng.uniform(-1.5, 1.5, n_discs)
    d_r = rng.uniform(0.08, 0.2, n_discs) * min(width, height)
    d_amp = rng.uniform(-50.0, 50.0, n_discs)

    texture = rng.normal(0.0, 4.0, (height, width))

    planes = []
    for t in range(frames):
        img = grad.copy()
        for i in range(n_gratings):
            phase = g_freq[i] * (
                (xx - g_cx[i]) * np.cos(g_angle[i] + 0.01 * t)
                + (yy - g_cy[i]) * np.sin(g_angle[i] + 0.01 * t)
            )
            envelope = np.exp(
                -((xx - g_cx[i]) ** 2 + (yy - g_cy[i]) ** 2) / (2 * g_sigma[i] ** 2)
            )
            img += g_amp[i] * envelope * np.sin(phase + 0.2 * t)
        for i in range(n_discs):
            cx = d_cx[i] + d_vx[i] * t
            cy = d_cy[i] + d_vy[i] * t
            dist2 = (xx - cx) ** 2 + (yy - cy) ** 2
            img += d_amp[i] / (1.0 + dist2 / d_r[i] ** 2)
        img += texture
        planes.append(crop_to_block_grid(np.clip(np.rint(img), 0, 255).astype(np.uint8)))
    return planes
