"""35-mode intra prediction for 8x8 blocks, following the HEVC process.

Planar, DC with edge filtering, and angular modes with 1/32-pel
interpolation and the [1 2 1] reference smoothing rule for 8x8 blocks.
All arithmetic is integer, so encoder and decoder predictions are
bit-identical by construction.

Reference layout: one int32 vector of 68 samples per block,
[above, left, above_f, left_f] with 17 each.  `above` is the corner, 8 top
and 8 top-right samples; `left` is the corner, 8 left and 8 below-left
samples; `above_f` and `left_f` are the same after [1 2 1] smoothing.
The available samples of a block's 33-sample scan line (below-left bottom
.. corner .. top-right end) always form one run lo..hi: below-left samples
are never available in raster block order.  The standard's substitution
repeats the run's ends, so scan sample i reads sample clip(i, lo, hi).

Every mode is one integer weight table row set: a prediction sample is
(sum of weights x the 68 reference samples + rounding) >> shift, followed
by the DC and mode-10/26 edge fix-ups, which read `above` and `left`.  The
table is stored scaled by 2**-shift, so a sample is floor(refs @ table + 0.5),
and mode-major as one C-contiguous (35, 68, 64) array: `predict_all_modes` is
one stacked product over it, and `predict_block` gathers each block's
contiguous (68, 64) slice.
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

# Offsets of the four parts of the 68-sample reference vector.
_ABOVE, _LEFT, _ABOVE_F, _LEFT_F = 0, _REF, 2 * _REF, 3 * _REF


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


# Scan-line positions, in the [line, smoothed line] pair, of the reference
# vector [above, left, above_f, left_f]: `above` is corner, top, top-right;
# `left` is corner, left, below-left.
_ABOVE_ORDER = np.arange(2 * N, _SCAN)
_LEFT_ORDER = np.arange(2 * N, -1, -1)
_REF_ORDER = np.concatenate([_ABOVE_ORDER, _LEFT_ORDER, _ABOVE_ORDER + _SCAN, _LEFT_ORDER + _SCAN])


def build_references(recon, bx, by, frame=0):
    """The 68-sample reference vector of the block at grid position (bx, by).

    `recon` is the frame-sized reconstruction surface filled in raster block
    order, or a (frames, h, w) stack of them with `frame` selecting one.
    Returns the int32 vector [above, left, above_f, left_f] (module
    docstring).  `bx`, `by` and `frame` may be integer arrays of one shape;
    the result then has that shape plus a last axis of 68.
    """
    h, w = recon.shape[-2:]
    try:
        pos = np.ravel_multi_index((by, bx), (h // N, w // N))
    except ValueError:
        raise InvalidInputError(f"block position ({bx}, {by}) off the grid") from None
    idx = _reference_table(h, w)[pos] + np.asarray(frame)[..., None] * (h * w)
    line = recon.reshape(-1)[idx].astype(np.int32, copy=False)
    line[pos == 0] = 128

    sm = line.copy()
    sm[..., 1:-1] = (line[..., :-2] + 2 * line[..., 1:-1] + line[..., 2:] + 2) >> 2
    return np.concatenate([line, sm], axis=-1)[..., _REF_ORDER]


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
    """Weights (35, 68, 64), C-contiguous and mode-major: [mode, r, pixel] is
    that prediction sample's integer weight on reference sample r, scaled by
    2**-shift (shift 4 for planar and DC, 5 for angular), so (sum + 2**(shift-1))
    >> shift is floor(scaled sum + 0.5).  On references in [0, 255] every scaled
    product and partial sum is a non-negative multiple of 2**-5 below 2**8, so a
    float32 matmul is exact in any order, and truncation (astype) is the floor.
    """
    w = np.zeros((N_MODES, 4 * _REF, N, N), dtype=np.float32)
    # Planar on the smoothed references.
    for y in range(N):
        for x in range(N):
            w[0, _LEFT_F + 1 + y, y, x] += N - 1 - x
            w[0, _ABOVE_F + N + 1, y, x] += x + 1
            w[0, _ABOVE_F + 1 + x, y, x] += N - 1 - y
            w[0, _LEFT_F + N + 1, y, x] += y + 1
    # DC interior value; the edge samples are fixed up afterwards.
    w[1, _ABOVE + 1 : _ABOVE + N + 1] = 1
    w[1, _LEFT + 1 : _LEFT + N + 1] = 1
    w[:2] /= 1 << (_LOG2N + 1)
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
    return w.reshape(N_MODES, 4 * _REF, N * N)


_WEIGHTS = _build_weights()


def _dc_edges(pred, above, left):
    dc = pred[..., 1, 1:2].copy()
    t = above[..., 1 : N + 1]
    l = left[..., 1 : N + 1]
    pred[..., 0, 1:] = (t[..., 1:] + 3 * dc + 2) >> 2
    pred[..., 1:, 0] = (l[..., 1:] + 3 * dc + 2) >> 2
    pred[..., 0, 0] = (l[..., 0] + 2 * dc[..., 0] + t[..., 0] + 2) >> 2


def _horizontal_edge(pred, above, left):
    row = left[..., 1:2] + ((above[..., 1 : N + 1] - above[..., :1]) >> 1)
    pred[..., 0, :] = np.clip(row, 0, 255)


def _vertical_edge(pred, above, left):
    col = above[..., 1:2] + ((left[..., 1 : N + 1] - above[..., :1]) >> 1)
    pred[..., :, 0] = np.clip(col, 0, 255)


_EDGE_FIXUPS = {1: _dc_edges, 10: _horizontal_edge, 26: _vertical_edge}


def predict_all_modes(refs):
    """All 35 predictions at once as a (35, 8, 8) int32 array.

    `refs` is a reference vector as build_references returns it, with any
    leading batch axes; the result then has the same leading axes, and is a
    view of the mode-major (35, ..., 8, 8) array of one stacked product.
    Used by the encoder's candidate search.
    """
    acc = refs.reshape(-1, 4 * _REF).astype(np.float32) @ _WEIGHTS
    acc += 0.5
    preds = acc.astype(np.int32).reshape((N_MODES,) + refs.shape[:-1] + (N, N))
    above, left = refs[..., _ABOVE:_LEFT], refs[..., _LEFT:_ABOVE_F]
    for mode, fix in _EDGE_FIXUPS.items():
        fix(preds[mode], above, left)
    return np.moveaxis(preds, 0, -3)


def predict_block(refs, mode):
    """Predict 8x8 blocks in [0, 255]: the one-mode row set of the table
    predict_all_modes applies.  `refs` is a reference vector as produced by
    build_references; `mode` is one intra mode or an integer array of one
    mode per block, shaped as the vector's leading axes, and the result is
    those axes plus (8, 8)."""
    batch = refs.shape[:-1]
    mode = np.broadcast_to(mode, batch).reshape(-1)
    if np.any((mode < 0) | (mode >= N_MODES)):
        raise InvalidInputError(f"intra mode {mode} out of range")
    refs = refs.reshape(-1, 4 * _REF)
    # (k, 68, 64): each block's contiguous table slice
    acc = (refs.astype(np.float32)[:, None, :] @ _WEIGHTS[mode])[:, 0, :]
    acc += 0.5
    preds = acc.astype(np.int32).reshape(-1, N, N)
    for m, fix in _EDGE_FIXUPS.items():
        at = np.flatnonzero(mode == m)
        if at.size:
            sub = preds[at]
            fix(sub, refs[at, _ABOVE:_LEFT], refs[at, _LEFT:_ABOVE_F])
            preds[at] = sub
    return preds.reshape(batch + (N, N))
