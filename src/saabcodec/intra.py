"""35-mode intra prediction for 8x8 blocks, following the HEVC process.

Planar, DC with edge filtering, and angular modes with 1/32-pel
interpolation, the [1 2 1] reference smoothing rule for 8x8 blocks and the
mode-10/26 edge filters.  All arithmetic is exact, so encoder and decoder
predictions are bit-identical by construction.

Reference layout: one int32 vector of 70 samples per block,
[above, left, above_f, left_f, dc, 1].  `above` is the corner, 8 top and 8
top-right samples; `left` is the corner, 8 left and 8 below-left samples;
`above_f` and `left_f` are the same after [1 2 1] smoothing; `dc` is the DC
value (8 top + 8 left + 8) >> 4, the process's one nonlinear step.
The available samples of a block's 33-sample scan line (below-left bottom
.. corner .. top-right end) always form one run lo..hi: below-left samples
are never available in raster block order.  The standard's substitution
repeats the run's ends, so scan sample i reads sample clip(i, lo, hi).

Every mode is one weight table row set: a prediction sample is
floor(clip(refs @ table, 0, 255)).  The table holds the standard's integer
weights and rounding offsets (on the constant 1) scaled by 2**-shift, and the
DC and mode-10/26 edge filters as weights on `dc`, `above` and `left`.  It is
stored mode-major as one C-contiguous (35, 70, 64) array: `predict_all_modes`
is one stacked product over it, and `predict_block` gathers each block's
contiguous (70, 64) slice.
"""

import functools

import numpy as np

from .errors import InvalidInputError
from .linalg import BLOCK_SIZE as N
from .modes import N_MODES

_LOG2N = 3
_REF = 2 * N + 1  # samples per part of the reference vector
_SCAN = 4 * N + 1  # scan line: below-left bottom .. corner .. top-right end
# (dy, dx) from the block origin of each scan-line sample
_SCAN_DY = np.concatenate([np.arange(2 * N - 1, -1, -1), np.full(2 * N + 1, -1)])
_SCAN_DX = np.concatenate([np.full(2 * N + 1, -1), np.arange(2 * N)])

# intraPredAngle for modes 2..34
_ANGLES = np.array(
    [32, 26, 21, 17, 13, 9, 5, 2, 0, -2, -5, -9, -13, -17, -21, -26, -32,
     -26, -21, -17, -13, -9, -5, -2, 0, 2, 5, 9, 13, 17, 21, 26, 32],
    dtype=np.int32,
)
# invAngle for angles -2,-5,-9,-13,-17,-21,-26,-32
_INV_ANGLES = {-2: -4096, -5: -1638, -9: -910, -13: -630, -17: -482,
               -21: -390, -26: -315, -32: -256}

# Offsets of the parts of the 70-sample reference vector.
_ABOVE, _LEFT, _ABOVE_F, _LEFT_F, _DC, _ONE = 0, _REF, 2 * _REF, 3 * _REF, 4 * _REF, 4 * _REF + 1
_LEN = 4 * _REF + 2


def _mode_angle(mode):
    return int(_ANGLES[mode - 2])


def smoothing_enabled(mode):
    """[1 2 1] reference smoothing rule for 8x8 luma blocks."""
    if mode == 0:
        return True
    if mode < 2:
        return False
    return min(abs(mode - 10), abs(mode - 26)) > 7


@functools.lru_cache(maxsize=16)
def _reference_table(h, w):
    """Per-position index table (blocks_h * blocks_w, 33) of an h x w frame:
    the flat index of each scan-line sample after substitution.

    A block's available samples form one run lo..hi of its scan line
    (below-left is never available): lo is 8 (the left's bottom) if bx > 0,
    else 17 (the top's first); hi is 32 (the top-right's end) if by > 0 and
    a block lies to the right, 24 (the top's end) if only by > 0, else 15.
    Substitution repeats the run's ends: sample i reads clip(i, lo, hi).
    Position 0 has no neighbours; its row is zero and unused."""
    by, bx = np.indices((h // N, w // N)).reshape(2, -1, 1)
    lo = np.where(bx > 0, N, 2 * N + 1)
    hi = np.where(by > 0, np.where(bx + 1 < w // N, _SCAN - 1, 3 * N), 2 * N - 1)
    table = (_SCAN_DY * w + _SCAN_DX)[np.clip(np.arange(_SCAN), lo, hi)] + (by * w + bx) * N
    table[0] = 0
    table.flags.writeable = False  # shared by every caller through the cache
    return table


# Positions, in [line, smoothed line, dc, 1], of the reference vector
# [above, left, above_f, left_f, dc, 1]: `above` is corner, top, top-right;
# `left` is corner, left, below-left.
_ABOVE_ORDER = np.arange(2 * N, _SCAN)
_LEFT_ORDER = np.arange(2 * N, -1, -1)
_REF_ORDER = np.concatenate([_ABOVE_ORDER, _LEFT_ORDER, _ABOVE_ORDER + _SCAN, _LEFT_ORDER + _SCAN,
                             [2 * _SCAN, 2 * _SCAN + 1]])
# Scan-line samples the DC value sums, by run: below-left, left, corner, top, top-right.
_DC_TAPS = np.repeat(np.int32([0, 1, 0, 1, 0]), [N, N, 1, N, N])


def build_references(recon, bx, by, frame=0):
    """The 70-sample reference vector of the block at grid position (bx, by).

    `recon` is the frame-sized reconstruction surface filled in raster block
    order, or a (frames, h, w) stack of them with `frame` selecting one.
    Returns the int32 vector [above, left, above_f, left_f, dc, 1] (module
    docstring).  `bx`, `by` and `frame` may be integer arrays of one shape;
    the result then has that shape plus a last axis of 70.
    """
    h, w = recon.shape[-2:]
    grid = (recon.shape[0] if recon.ndim == 3 else 1, h // N, w // N)
    try:
        at = np.ravel_multi_index((frame, by, bx), grid)
    except (TypeError, ValueError):  # name the fault: kind, shapes, then range
        where = f"block position ({bx}, {by}) of frame {frame}"
        if not all(np.issubdtype(np.asarray(v).dtype, np.integer) for v in (bx, by, frame)):
            raise InvalidInputError(f"{where}: positions and frames must be integers") from None
        try:
            np.broadcast_shapes(np.shape(bx), np.shape(by), np.shape(frame))
        except ValueError:
            raise InvalidInputError(f"{where}: the position arrays do not broadcast") from None
        raise InvalidInputError(f"{where} off the grid") from None
    frame, pos = np.divmod(at, grid[1] * grid[2])
    idx = _reference_table(h, w)[pos] + frame[..., None] * (h * w)
    line = recon.reshape(-1)[idx].astype(np.int32, copy=False)
    line[pos == 0] = 128

    # [line, smoothed line, dc, 1]
    ext = np.empty(line.shape[:-1] + (2 * _SCAN + 2,), dtype=np.int32)
    ext[..., :_SCAN] = ext[..., _SCAN : 2 * _SCAN] = line
    ext[..., _SCAN + 1 : 2 * _SCAN - 1] = (line[..., :-2] + 2 * line[..., 1:-1] + line[..., 2:] + 2) >> 2
    ext[..., -2] = (line @ _DC_TAPS + N) >> (_LOG2N + 1)
    ext[..., -1] = 1
    return ext[..., _REF_ORDER]


def _angular_taps(mode):
    """Reference-vector index of each extended main-reference entry
    ref[x + N], x in [-N, 2N], for one angular mode (-1 where unused)."""
    angle = _mode_angle(mode)
    smooth = smoothing_enabled(mode)
    main, side = (_ABOVE, _LEFT) if mode >= 18 else (_LEFT, _ABOVE)
    if smooth:
        main, side = main + 2 * _REF, side + 2 * _REF
    taps = np.full(3 * N + 1, -1, dtype=np.intp)
    taps[N:] = main + np.arange(2 * N + 1)  # main[0] = corner at x = 0
    if angle < 0:
        inv = _INV_ANGLES[angle]
        for x in range(-1, ((N * angle) >> 5) - 1, -1):
            taps[x + N] = side + ((x * inv + 128) >> 8)
    return taps


def _build_weights():
    """Weights (35, 70, 64), C-contiguous and mode-major: [mode, r, pixel] is
    that prediction sample's integer weight on reference sample r, rounding
    offset 2**(shift-1) on the constant included, scaled by 2**-shift (shift 4
    for planar and DC, 5 for angular), so the floor of a sum is the standard's
    >> shift.  On references in [0, 255] every product and partial sum is a
    multiple of 2**-5 below 2**10 in magnitude, so a float32 product is exact
    in any order; after the clip to [0, 255] truncation (astype) is the floor.
    """
    w = np.zeros((N_MODES, _LEN, N, N), dtype=np.float32)
    i = np.arange(N)
    # Planar on the smoothed references.
    for y in range(N):
        for x in range(N):
            w[0, _LEFT_F + 1 + y, y, x] += N - 1 - x
            w[0, _ABOVE_F + N + 1, y, x] += x + 1
            w[0, _ABOVE_F + 1 + x, y, x] += N - 1 - y
            w[0, _LEFT_F + N + 1, y, x] += y + 1
    w[0] /= 1 << (_LOG2N + 1)
    # DC: the value dc inside, (t + 3 dc + 2) >> 2 on the top and left edges
    # and (l + 2 dc + t + 2) >> 2 at the corner.
    w[1, _DC] = 1
    w[1, _DC, 0, :] = w[1, _DC, :, 0] = 3 / 4
    w[1, _DC, 0, 0] = 1 / 2
    w[1, _ABOVE + 1 + i, 0, i] = w[1, _LEFT + 1 + i, i, 0] = 1 / 4
    # Angular: two-tap 1/32-pel interpolation along the extended reference,
    # rows stepping along the angle in main-direction coordinates, which are
    # transposed for the horizontal modes 2..17.
    for mode in range(2, N_MODES):
        taps = _angular_taps(mode)
        for y in range(N):
            pos = (y + 1) * _mode_angle(mode)
            fact = pos & 31
            for x in range(N):
                pixel = (y, x) if mode >= 18 else (x, y)
                base = x + (pos >> 5) + 1 + N
                w[(mode, taps[base]) + pixel] += (32 - fact) / 32
                if fact:
                    w[(mode, taps[base + 1]) + pixel] += fact / 32
    w[:, _ONE] = 1 / 2
    # Modes 10 and 26 filter their first row and column to
    # side[1] + (main[1 + i] - corner) >> 1, clipped, with no rounding offset.
    for edge, main, side in ((w[10, :, 0, :], _ABOVE, _LEFT), (w[26, :, :, 0], _LEFT, _ABOVE)):
        edge[:] = 0
        edge[side + 1] = 1
        edge[_ABOVE] = -1 / 2  # the corner
        edge[main + 1 + i, i] = 1 / 2
    return w.reshape(N_MODES, _LEN, N * N)


_WEIGHTS = _build_weights()


def _check_length(refs):
    if refs.shape[-1:] != (_LEN,):
        raise InvalidInputError(f"reference vectors have {_LEN} samples, got shape {refs.shape}")


def predict_all_modes(refs):
    """All 35 predictions at once as a (35, 8, 8) int32 array.

    `refs` is a reference vector as build_references returns it, with any
    leading batch axes; the result then has the same leading axes, and is a
    view of the mode-major (35, ..., 8, 8) array of one stacked product.
    Used by the encoder's candidate search.
    """
    _check_length(refs)
    acc = refs.reshape(-1, _LEN).astype(np.float32) @ _WEIGHTS
    preds = np.clip(acc, 0, 255, out=acc).astype(np.int32)
    return np.moveaxis(preds.reshape((N_MODES,) + refs.shape[:-1] + (N, N)), 0, -3)


def predict_block(refs, mode):
    """Predict 8x8 blocks in [0, 255]: the one-mode row set of the table
    predict_all_modes applies.  `refs` is a reference vector as produced by
    build_references; `mode` is one intra mode or an integer array of one
    mode per block, shaped as the vector's leading axes, and the result is
    those axes plus (8, 8)."""
    _check_length(refs)
    batch = refs.shape[:-1]
    mode = np.broadcast_to(mode, batch).reshape(-1)
    if mode.dtype.kind not in "iu":
        raise InvalidInputError(f"intra modes must be integers, got {mode.dtype}")
    bad = np.flatnonzero((mode < 0) | (mode >= N_MODES))
    if bad.size:
        raise InvalidInputError(f"intra mode {mode[bad[0]]} of block {bad[0]} out of range")
    # (k, 70, 64): each block's contiguous table slice
    acc = (refs.reshape(-1, 1, _LEN).astype(np.float32) @ _WEIGHTS[mode])[:, 0]
    return np.clip(acc, 0, 255, out=acc).astype(np.int32).reshape(batch + (N, N))
