"""Simplified 8x8-block intra encoder/decoder.

A strategy is one list of allowed (transform, mode) pairs, the DCT pairs
first, each transform's in mode order (`StrategyConfig`).  Per block the
encoder quantizes the residual with every pair on the list and keeps the
first candidate with the lowest J = D + lambda * bits.  This search is float32
and not normative; D is the error before rounding, ||M^T Q levels - r||^2 for
analysis rows M, exact for any kernel, and its levels and bit counts are exact
(`quantize`, `level_bit_cost` on float32 bits).  Its DCT pairs share one
float32 DCT_SCAN and its kernel pairs have their own rows (the config's
`search` runs), per pair the same BLAS call as a stack of every pair's rows.
`_search_sequence` fills one block table in stream order and the
reconstruction, which encode_sequence packs and extract_residuals reads.
Only the chosen candidate is reconstructed, by `_reconstruct`, whose float64
arithmetic the decoder replays, so its output matches the encoder's bit-exactly.

Both sides work on wavefront batches of blocks that do not reference each
other (`_wavefront_batches`, one read-only schedule per geometry), and both
reconstruct a batch through one `_reconstruct` call on one np.take of the
bank's row stack (`StrategyConfig.gather`); blocks are read and stored
through the (frames, h/8, 8, w/8, 8) view of a (frames, h, w) stack
(`_blocks`).  The encoder keeps BATCH_BLOCKS: its float32 search's BLAS
products may round differently at another row count, moving the J
estimates.  The decoder's batches are wider (DECODE_BATCH_BLOCKS): its
prediction and synthesis are exact at any size.  The decoder runs two
passes: a parse pass walks the payload, unpacked once by `unpack_bits` into
a string of '0'/'1' bytes, with one bit position, writes each block's
levels into its row of one zeroed buffer (`decode_levels`) and fills the
coded-block table once; a reconstruct pass predicts each batch with one
`predict_block` call, each block with its own mode.

Strategies:
  dct_only  anchor; every mode uses DCT, no flags.
  s1        pure substitution: learned kernel outside modes 8-12/24-28,
            DCT inside, never a flag bit.
  s2        RDO kernel-vs-DCT with a 1-bit flag outside 8-12/24-28,
            DCT-only inside.
  s3        RDO with flag for all 35 modes.

Block payload format (per block, in stream order): 6-bit mode, optional
1-bit transform flag (0=DCT, 1=learned), then the level coder: 1-bit
coded-block flag; if set, 6-bit last significant position and, scanning
from that position down to 0, a significance bit (implied at the last
position) plus exp-Golomb(magnitude-1) and a sign bit for significant
levels.  The encoder serializes its whole block table at once: the mode and
flag columns, then `encode_levels`' (value, bit length) columns of the level
code, packed by one `pack_bits` call; `level_bit_cost` is the row sum of
those lengths in closed form.  DCT levels are scanned in zigzag order,
learned-kernel levels in coefficient order.  A DCT candidate analyses with
`DCT_SCAN`, the DCT's rows in zigzag order, so one product gives either
transform's levels in coded order and its transpose synthesizes them.  Level
magnitudes are below 2**12, and the decoder rejects larger ones: an
analysis row with an L1 norm of at most 8 (an orthonormal row, or a kernel
row `KernelBank.validate` accepts) keeps |coefficient| <= 8 * 255 for an 8x8
residual in [-255, 255], and the quantizer step is at least 2**(-2/3) (QP
0), so |level| <= 3238, or 3239 with the float32 search's rounding.
"""

import functools
import struct
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .bitstream import pack_bits, unpack_bits
from .errors import BitstreamError, InvalidInputError
from .intra import build_references, predict_all_modes, predict_block
from .kernelio import KernelBank, stack_rows
from .linalg import BLOCK_SIZE as BLOCK, VEC_LEN
from .metrics import qp_to_lambda, qp_to_qstep
from .modes import DCT_ONLY_MODES, N_MODES
from .transforms import DCT_SCAN, ZIGZAG  # noqa: F401 (codec.ZIGZAG: the coded scan order)

MODE_BITS = 6
MAX_QP = 51
_LEVEL_LIMIT = 1 << 12  # |level| < 2**12, see the module docstring
_MIN_BLOCK_BITS = MODE_BITS + 1  # mode and coded-block flag
DEADZONE = 1.0 / 3.0
# Blocks per encode_block call: fixed (module docstring); bounds its candidate arrays.
BATCH_BLOCKS = 16
# Blocks per decoder batch: bounds its per-block temporaries, about 32 KB of
# float64 synthesis rows and 17 KB of prediction table slice (1.6 MB in all).
DECODE_BATCH_BLOCKS = 32

STRATEGIES = ("dct_only", "s1", "s2", "s3")

_ALL = np.ones(N_MODES, dtype=bool)
_LEARNED = np.array([m not in DCT_ONLY_MODES for m in range(N_MODES)])  # outside 8-12/24-28
# (dct_ok, saab_ok) masks over the 35 modes of each strategy, in STRATEGIES
# order, as the module docstring describes the strategies.
_CANDIDATES = np.array([(_ALL, ~_ALL), (~_LEARNED, _LEARNED), (_ALL, _LEARNED), (_ALL, _ALL)])
_CANDIDATES.flags.writeable = False
_FLAGGED = _CANDIDATES.all(axis=1)  # both transforms allowed: the choice is signalled
_FLAGGED.flags.writeable = False

STREAM_MAGIC = b"SBVC"
STREAM_VERSION = 1
_HEADER = struct.Struct("<4sBBBBHHH16s")
HEADER_U16_MAX = 0xFFFF  # the header's width, height and frame count are u16


def quantize(coeffs, q_step):
    """Uniform deadzone quantizer: sign(y) * floor(|y|/Q + DEADZONE), as integer-valued
    floats, float32 for float32 coefficients and float64 otherwise.  The sign is y's sign
    bit, taken first and OR-ed into the magnitude's bits: np.copysign's result (-0.0 for a
    small negative y).  Two new arrays: the sign, and |y|, which the later steps update."""
    if not (isinstance(q_step, Real) and q_step > 0):  # NaN too
        raise InvalidInputError(f"q_step must be a positive number, got {q_step!r}")
    y = np.asarray(coeffs)
    y = y if y.dtype == np.float32 else y.astype(np.float64)
    uint = np.dtype(f"u{y.itemsize}").type
    sign = y.view(uint) & uint(1 << 8 * y.itemsize - 1)
    mag = np.abs(y)
    mag /= y.dtype.type(q_step)
    mag += DEADZONE
    np.floor(mag, out=mag)
    np.bitwise_or(mag.view(uint), sign, out=mag.view(uint))
    return mag


def dequantize(levels, q_step):
    if not (isinstance(q_step, Real) and q_step > 0):  # NaN too
        raise InvalidInputError(f"q_step must be a positive number, got {q_step!r}")
    return np.asarray(levels, dtype=np.float64) * q_step


def encode_levels(levels_scan):
    """The level code of (n, 64) scan-order levels as (n, 129) int32 value
    and uint8 bit-length columns in emission order, for pack_bits: the
    coded-block flag with the last position (7 bits, or 1 for an all-zero
    block), then per position from 63 down to 0 a significance bit, sent
    only below the last position, and the level's code |l| << 1 | sign,
    which is ue(|l| - 1) and the sign bit in 2 * bit_length(|l|) bits."""
    levels = np.asarray(levels_scan)[:, ::-1]  # positions 63..0
    exp, last_1 = _bit_lengths(levels_scan)
    values = np.empty((len(levels), 1 + 2 * VEC_LEN), dtype=np.int32)
    lengths = np.empty(values.shape, dtype=np.uint8)
    values[:, 0] = np.where(last_1 > 0, 1 << 6 | last_1 - 1, 0)
    lengths[:, 0] = np.where(last_1 > 0, 7, 1)
    values[:, 1::2] = levels != 0
    lengths[:, 1::2] = np.arange(VEC_LEN, 0, -1) < last_1[:, None]
    values[:, 2::2] = np.abs(levels) << 1 | (levels < 0)
    lengths[:, 2::2] = 2 * exp[:, ::-1]
    return values, lengths


def _past_end(bits):
    return BitstreamError("read past end of stream", bit_offset=len(bits))


def decode_levels(bits, p, out):
    """Parse one block's 64 scan-order levels from `bits`, an `unpack_bits`
    string, at bit position p into `out`, a zeroed row of 64 (the decoder's:
    a memoryview slice of one int16 buffer); returns the position after them.

    A |level| 1 code and a significance 1 right after a level cost one bit
    test each; another level costs a find() and an int(), and a run of zero
    significance bits one find().  A code cut off by the end, a prefix of
    more than 64 zeros and a magnitude of 2**12 or more raise BitstreamError.
    """
    n = len(bits)
    if p >= n:
        raise _past_end(bits)
    if not bits[p] & 1:  # coded-block flag clear
        return p + 1
    p += 7
    if p > n:
        raise _past_end(bits)
    pos = int(bits[p - 6 : p], 2)  # the last significant position
    while True:
        # ue(|level| - 1) is b - 1 zeros, then |level| in b bits; then the sign
        if p < n and bits[p] & 1:  # |level| 1: the code is one 1
            mag, end = 1, p + 1
        else:
            one = bits.find(b"1", p, p + 65)
            end = 2 * one - p + 1
            if one < 0 and p + 65 <= n:
                raise BitstreamError("runaway exp-Golomb prefix", bit_offset=p + 65)
            if one < 0 or end > n:
                raise _past_end(bits)
            mag = int(bits[one:end], 2)
            if mag >= _LEVEL_LIMIT:
                raise BitstreamError(f"level magnitude {mag} out of range", bit_offset=end)
        if end == n:  # no sign bit
            raise _past_end(bits)
        out[pos] = -mag if bits[end] & 1 else mag
        p = end + 1
        if pos and p < n and bits[p] & 1:  # the next position is significant
            pos, p = pos - 1, p + 1
            continue
        # significance bits of the positions below, up to the next set one
        one = bits.find(b"1", p, p + pos)
        if one < 0:  # all clear
            if p + pos > n:
                raise _past_end(bits)
            return p + pos
        pos -= one + 1 - p
        p = one + 1


_TWOS = np.full(VEC_LEN, 2, dtype=np.float32)
_POWERS_OF_4 = np.ldexp(np.float32(1), 2 * np.arange(VEC_LEN))  # 4**63 = 2**126 fits float32


def _bit_lengths(levels_scan):
    """bit_length(|level|) of (..., 64) integer(-valued) levels, as float32, and each row's
    last significant position + 1 (0 if none).  A level below 2**12 is exact in float32,
    and np.frexp's exponent is its bit length (0 for +-0.0).  min(length, 1) flags the
    nonzero levels, whose row sum of 4**position stays in [4**last, 2 * 4**last) in any
    summation order: frexp gives 2 * last + 1."""
    mantissas, exponents = np.frexp(np.asarray(levels_scan, dtype=np.float32))
    lengths = exponents.astype(np.float32)
    last = np.frexp(np.minimum(lengths, 1, out=mantissas) @ _POWERS_OF_4)[1]
    return lengths, (last + 1) >> 1


def level_bit_cost(levels_scan):
    """Exact bit count of encode_levels, vectorized over (..., 64) level arrays of any
    dtype: the row sums of its bit lengths in closed form, 2 * sum as one float32 product."""
    exp, last_1 = _bit_lengths(levels_scan)
    cost = np.where(last_1 > 0, 6 + last_1 + (exp @ _TWOS).astype(np.int32), 1)
    return int(cost) if cost.ndim == 0 else cost


# One coded block as both sides know it: mode, `saab` transform flag,
# scan-order levels and the bits the block takes in the stream.
CODED_DTYPE = np.dtype(
    [
        ("mode", np.uint8),
        ("saab", np.bool_),
        ("levels", np.int16, (VEC_LEN,)),  # |level| < 2**12
        ("bits", np.int32),
    ]
)
# The encoder's block: the coded fields, its reconstruction's real pixel SSE,
# the RD search's J estimates (module docstring) and the chosen mode's residual.
BLOCK_DTYPE = np.dtype(
    CODED_DTYPE.descr
    + [
        ("sse", np.float64),
        ("j_chosen", np.float64),
        ("j_dct", np.float64),
        ("residual", np.int16, (BLOCK, BLOCK)),
    ]
)


@dataclass
class FrameStats:
    """One frame's coded blocks, a np.recarray of rows in raster order, so
    row i is the block at (i % blocks_w, i // blocks_w).  The encoder's rows
    are BLOCK_DTYPE, the decoder's CODED_DTYPE: `sse` exists only on the
    encoder's."""

    blocks: np.recarray

    total_bits = property(lambda self: int(self.blocks.bits.sum()))
    sse = property(lambda self: float(self.blocks.sse.sum()))
    n_saab = property(lambda self: int(np.count_nonzero(self.blocks.saab)))
    n_total = property(lambda self: len(self.blocks))


def summarize(stats, strategy):
    """Blocks, Saab-coded blocks, total bits and transform-flag bits of a
    `strategy` stream, from the encoder's or the decoder's FrameStats."""
    flagged = _FLAGGED[STRATEGIES.index(strategy)]
    return {
        "blocks": sum(s.n_total for s in stats),
        "saab_blocks": sum(s.n_saab for s in stats),
        "total_bits": sum(s.total_bits for s in stats),
        "flag_bits": sum(int(np.count_nonzero(flagged[s.blocks.mode])) for s in stats),
    }


class StrategyConfig:
    """Strategy + kernel bank as one list of allowed (transform, mode) pairs.

    `cand_saab` and `cand_mode` list the pairs of the (dct_ok, saab_ok)
    masks in the RD search's tie-break order, DCT first, each in mode order;
    `cand_index[saab, mode]` is a pair's place on the list (-1: not
    allowed) and `rows[cand_rows[i]]` pair i's analysis rows (`gather`): the
    bank's KernelBank.rows (kernelio.stack_rows), or DCT_SCAN[None] without one.
    The bank is a KernelBank or None; a strategy that allows no learned kernel
    drops it, any other requires one that validates.
    """

    def __init__(self, strategy, bank=None):
        if strategy not in STRATEGIES:
            raise InvalidInputError(f"unknown strategy {strategy!r}")
        if not (bank is None or isinstance(bank, KernelBank)):
            raise InvalidInputError(f"a kernel bank is a KernelBank or None, not {type(bank).__name__}")
        self.strategy = strategy
        allowed = _CANDIDATES[STRATEGIES.index(strategy)]
        self.dct_ok, self.saab_ok = allowed
        self.flag = _FLAGGED[STRATEGIES.index(strategy)]
        self.cand_saab, self.cand_mode = np.nonzero(allowed)
        self.cand_index = np.full(allowed.shape, -1)
        self.cand_index[allowed] = np.arange(len(self.cand_mode))
        self.cand_rows = stack_rows(self.cand_saab, self.cand_mode)
        self.head_bits = MODE_BITS + self.flag[self.cand_mode]  # each pair's mode and flag bits
        if not self.saab_ok.any():
            bank = None
        elif bank is None:
            raise InvalidInputError(f"strategy {strategy} requires a kernel bank")
        self.bank = None if bank is None else bank.validate()
        self.rows = DCT_SCAN[None] if self.bank is None else self.bank.rows

    def gather(self, cand):
        """The (k, 64, 64) float64 analysis rows of the candidates `cand` on the list: one np.take of `rows`."""
        return np.take(self.rows, self.cand_rows[cand], axis=0)

    @functools.cached_property
    def search(self):
        """The RD search's runs of the list, (candidates, their modes or None for all 35 in
        order, read-only (c, 64, 64) float32 analysis rows): one DCT_SCAN (stride 0) for the
        DCT pairs, the kernel pairs' own rows for the rest."""
        n = int(np.count_nonzero(self.dct_ok))  # the DCT pairs lead the list
        dct = np.broadcast_to(DCT_SCAN.astype(np.float32), (n, VEC_LEN, VEC_LEN))
        kernels = self.rows[self.cand_rows[n:]].astype(np.float32)
        kernels.flags.writeable = False
        runs = [(c, self.cand_mode[c], rows) for c, rows in ((slice(n), dct), (slice(n, None), kernels)) if len(rows)]
        return tuple((c, None if np.array_equal(m, np.arange(N_MODES)) else m, rows) for c, m, rows in runs)


def _reconstruct(preds, levels, matrices, q_step):
    """Shared encoder/decoder reconstruction of k blocks (must stay
    bit-identical): (k, 64) predictions, scan-order levels and each block's
    (64, 64) analysis rows in scan order; returns (k, 64) int32 samples.

    The synthesis is normative (docs/FORMATS.md): each output sample is a
    sequential sum over the 64 scan positions of the rounded products, which
    is what this einsum computes; a BLAS product's order depends on the
    kernel OpenBLAS picks.
    """
    xhat = np.einsum("kij,ki->kj", matrices, dequantize(levels, q_step))
    xhat += preds
    return np.clip(np.rint(xhat), 0, 255).astype(np.int32)


def _blocks(planes):
    """The (frames, h/8, 8, w/8, 8) view of a (frames, h, w) stack, whose
    [frame, by, :, bx, :] are the (k, 8, 8) blocks at (frame, bx, by) index
    arrays.  Both sides create their stacks C-contiguous, so the reshape is a
    view and a store through it reaches the stack, never a copy."""
    f, h, w = planes.shape
    return planes.reshape(f, h // BLOCK, BLOCK, w // BLOCK, BLOCK)


def _candidate_costs(res, q, lam, search, head_bits):
    """Levels, bits and J of C candidates, (C, blocks) first, from the (35, k, 64) float32
    residuals of the modes, the StrategyConfig.search runs and the (C,) mode and flag bits.
    Each product is one np.matmul per run into one (C, k, 64) buffer: per candidate the call
    a per-candidate (C, 64, 64) stack makes, so the same bits.  D is the error before rounding,
    ||M^T deq - r||^2 (module docstring).  The analysis takes the rows' transposed view: a
    C-contiguous copy rounds differently (docs/FORMATS.md)."""
    runs = [(c, res if modes is None else res[modes], rows) for c, modes, rows in search]
    prod = np.empty((len(head_bits),) + res.shape[1:], dtype=np.float32)
    for c, r, rows in runs:
        np.matmul(r, np.swapaxes(rows, -1, -2), out=prod[c])
    lv = quantize(prod, q)
    bits = head_bits[:, None] + level_bit_cost(lv)
    deq = lv * q
    for c, r, rows in runs:
        np.subtract(np.matmul(deq[c], rows, out=prod[c]), r, out=prod[c])
    return lv, bits, np.einsum("ckj,ckj->ck", prod, prod) + lam * bits


def encode_block(original, recon, pos, i, qp, cfg, table, cand, pred):
    """RD-optimal mode and transform choice for a batch of blocks.

    `original` and `recon` are C-contiguous (frames, h, w) stacks of source
    planes and uint8 reconstruction surfaces, the latter with every block the
    batch references already filled; `pos` holds (frame, bx, by) index arrays of
    at most BATCH_BLOCKS blocks that do not reference each other, `i` their
    stream-order indices.  Stores each block's reconstruction in `recon`, its
    levels, bits and J in the BLOCK_DTYPE `table`, its candidate in `cand` and
    its chosen prediction in `pred`, which `_search_sequence` reads once."""
    frame, bx, by = pos
    n = len(bx)
    refs = build_references(recon, bx, by, frame=frame)
    preds = np.moveaxis(predict_all_modes(refs), -3, 0).reshape(N_MODES, n, VEC_LEN)
    orig = _blocks(original)[frame, by, :, bx, :].reshape(n, VEC_LEN).astype(np.int32)

    q, lam = qp_to_qstep(qp), qp_to_lambda(qp)
    res = np.subtract(orig, preds, dtype=np.float32)  # each mode once
    lv, bits, j = _candidate_costs(res, q, lam, cfg.search, cfg.head_bits)

    # argmin takes the first minimum, so the candidate order is the tie-break.
    best = np.argmin(j, axis=0)
    mode, k = cfg.cand_mode[best], np.arange(n)
    levels, chosen = lv[best, k], preds[mode, k]
    rec = _reconstruct(chosen, levels, cfg.gather(best), q)
    _blocks(recon)[frame, by, :, bx, :] = rec.reshape(n, BLOCK, BLOCK)
    cand[i], pred[i] = best, chosen
    table["levels"][i], table["bits"][i], table["j_chosen"][i] = levels, bits[best, k], j[best, k]
    dct = cfg.cand_index[0, mode]  # j_dct: the mode's DCT candidate, for dominance checks
    table["j_dct"][i] = np.where(dct >= 0, j[dct, k], np.inf)  # inf where the mode allows no DCT


@functools.lru_cache(maxsize=8)
def _wavefront_batches(n_frames, blocks_w, blocks_h, size):
    """((frame, bx, by) index arrays, stream-order indices) of each batch of
    at most `size` blocks, in coding order: one read-only tuple per geometry.

    Blocks of one wave w = bx + 2 * by reference only blocks of earlier
    waves (left, top-left, top and top-right neighbours), and frames are
    independent intra pictures, so a wave of all frames can be coded as
    one set once the earlier waves are reconstructed.
    """
    batches = []
    for wave in range(blocks_w + 2 * (blocks_h - 1)):
        by = np.arange(blocks_h)
        bx = wave - 2 * by
        on_grid = (bx >= 0) & (bx < blocks_w)
        bx, by = bx[on_grid], by[on_grid]
        frame = np.repeat(np.arange(n_frames), bx.size)
        bx, by = np.tile(bx, n_frames), np.tile(by, n_frames)
        wave_pos = np.stack([frame, bx, by, (frame * blocks_h + by) * blocks_w + bx])
        wave_pos.flags.writeable = False  # and so every batch's view of it
        batches += [(tuple(wave_pos[:3, s : s + size]), wave_pos[3, s : s + size]) for s in range(0, bx.size, size)]
    return tuple(batches)


def check_qp(qp):
    """Raise InvalidInputError unless qp is an integer in 0..MAX_QP."""
    if isinstance(qp, bool) or not isinstance(qp, (int, np.integer)) or not 0 <= qp <= MAX_QP:
        raise InvalidInputError(f"QP must be an integer in 0..{MAX_QP}, got {qp!r}")


def check_qps(qps):
    """Raise InvalidInputError unless qps is a nonempty sequence of distinct valid QPs."""
    for qp in qps:
        check_qp(qp)
    if not qps or len(set(qps)) != len(qps):
        raise InvalidInputError(f"QPs must be a nonempty list without repeats, got {list(qps)}")


def check_planes(planes):
    """The (frames, h, w) of `planes`: a nonempty (frames, h, w) uint8 array or sequence of 2-D
    uint8 arrays of one size, whose sides are positive multiples of 8; else InvalidInputError."""
    if not (isinstance(planes, (list, tuple)) or getattr(planes, "ndim", 0) == 3) or not len(planes):
        raise InvalidInputError("frames are a nonempty (frames, h, w) array or sequence of 2-D planes")
    if not all(isinstance(p, np.ndarray) and p.shape == planes[0].shape and p.dtype == np.uint8 for p in planes):
        raise InvalidInputError("all frames must be uint8 planes of one size")
    h, w = planes[0].shape if planes[0].ndim == 2 else (0, 0)  # 0: not a plane
    if not h or not w or h % BLOCK or w % BLOCK:
        raise InvalidInputError("frames must be 2-D, with sides that are positive multiples of 8")
    return len(planes), h, w


def _search_sequence(planes, qp, cfg):
    """Check the planes (check_planes), QP and config, then run the RD search over wavefront
    batches of all frames: returns the BLOCK_DTYPE table of the blocks in stream order (raster
    order per frame), which encode_sequence packs, and the (frames, h, w) uint8 reconstruction."""
    n_frames, h, w = check_planes(planes)
    check_qp(qp)
    if not isinstance(cfg, StrategyConfig):
        raise InvalidInputError(f"a strategy config is a StrategyConfig, not {type(cfg).__name__}")
    if max(w, h, n_frames) > HEADER_U16_MAX:
        raise InvalidInputError(f"{w}x{h} by {n_frames} frames does not fit the header's u16 fields")
    original = np.stack(planes)
    recon = np.zeros(original.shape, dtype=np.uint8)
    n = original.size // VEC_LEN
    table = np.empty(n, dtype=BLOCK_DTYPE)
    cand, pred = np.empty(n, dtype=np.intp), np.empty((n, VEC_LEN), dtype=np.uint8)
    for pos, i in _wavefront_batches(n_frames, w // BLOCK, h // BLOCK, BATCH_BLOCKS):
        encode_block(original, recon, pos, i, qp, cfg, table, cand, pred)
    table["mode"], table["saab"] = cfg.cand_mode[cand], cfg.cand_saab[cand]
    orig, rec = (_blocks(p).swapaxes(2, 3).reshape(n, VEC_LEN).astype(np.int32) for p in (original, recon))
    table["sse"] = np.sum((orig - rec) ** 2, axis=1)
    table["residual"] = (orig - pred).reshape(n, BLOCK, BLOCK)
    return table, recon


def encode_sequence(planes, qp, cfg, recon_out=None):
    """Encode luma planes into one self-describing bitstream.

    Returns (stream bytes, list of FrameStats), one per frame, whose
    `blocks` rows hold each coded block's choices and its prediction
    residual (used by the training pipeline).  When `recon_out` is a list,
    the encoder's own reconstruction planes are appended (uint8), which
    must match the decoder output bit-exactly.  The block table of the RD
    search (`_search_sequence`) is packed as field columns in one pass.
    """
    table, recon = _search_sequence(planes, qp, cfg)
    values, lengths = encode_levels(table["levels"])
    mode = table["mode"]
    values = np.column_stack([mode, table["saab"], values])
    lengths = np.column_stack([np.full(mode.shape, MODE_BITS, np.uint8), cfg.flag[mode], lengths])
    stats_list = [FrameStats(blocks) for blocks in table.view(np.recarray).reshape(len(recon), -1)]
    if recon_out is not None:
        recon_out.extend(recon)
    n_frames, h, w = recon.shape
    digest = cfg.bank.digest() if cfg.bank is not None else bytes(16)
    header = _HEADER.pack(STREAM_MAGIC, STREAM_VERSION, STRATEGIES.index(cfg.strategy), qp, 0, w, h, n_frames, digest)
    return header + pack_bits(values, lengths), stats_list


def decode_sequence(data, bank=None):
    """Decode a bitstream back to luma planes.

    Parses the whole payload first, then reconstructs it batch by batch in
    the encoder's wavefront order.  Returns (planes, list of FrameStats),
    one per frame, whose CODED_DTYPE rows hold each block's parsed syntax
    and the bits it took (the parse position after it minus before).  Raises
    BitstreamError on truncation, on a payload too short for the header's
    block count, and on bytes or set bits past the last block's final bit;
    InvalidInputError when the embedded kernel-bank digest does not match.
    """
    info = stream_info(data)
    strategy, qp, w, h = info["strategy"], info["qp"], info["width"], info["height"]
    n_frames, blocks_w, blocks_h = info["frames"], w // BLOCK, h // BLOCK
    n_blocks = n_frames * blocks_h * blocks_w
    if 8 * (len(data) - _HEADER.size) < _MIN_BLOCK_BITS * n_blocks:
        raise BitstreamError(f"payload too short for {n_blocks} blocks")
    cfg = StrategyConfig(strategy, bank)
    if cfg.bank is not None and cfg.bank.digest().hex() != info["digest"]:
        raise InvalidInputError("kernel bank digest mismatch")

    # Parse pass: every block's syntax, in stream order, at one position p.
    payload = unpack_bits(data[_HEADER.size :])
    n = len(payload)
    flagged, saab_only = cfg.flag.tolist(), (~cfg.dct_ok).tolist()
    levels = np.zeros((n_blocks, VEC_LEN), dtype=np.int16)
    rows = memoryview(levels.reshape(-1))
    modes, uses_saab, sizes = [], [], []
    p = 0
    for row in range(0, n_blocks * VEC_LEN, VEC_LEN):
        start, p = p, p + MODE_BITS
        if p > n:
            raise _past_end(payload)
        mode = int(payload[start:p], 2)
        if mode >= N_MODES:
            raise BitstreamError(f"invalid mode {mode}", bit_offset=p)
        modes.append(mode)
        if flagged[mode]:
            if p >= n:
                raise _past_end(payload)
            uses_saab.append(payload[p] & 1)
            p += 1
        else:
            uses_saab.append(saab_only[mode])
        p = decode_levels(payload, p, rows[row : row + VEC_LEN])
        sizes.append(p - start)
    if len(data) - _HEADER.size != (p + 7) // 8:
        raise BitstreamError("trailing bytes after the last block", bit_offset=p)
    pad_mask = (1 << -p % 8) - 1  # the last byte's padding bits
    if data[-1] & pad_mask:
        raise BitstreamError("nonzero padding bits after the last block", bit_offset=p)

    table = np.empty(n_blocks, dtype=CODED_DTYPE)
    table["mode"], table["saab"], table["levels"], table["bits"] = modes, uses_saab, levels, sizes
    modes, uses_saab = table["mode"], table["saab"]

    # Reconstruct pass over the encoder's wavefront batches.
    q = qp_to_qstep(qp)
    cand = cfg.cand_index[uses_saab.astype(np.intp), modes]
    recon = np.zeros((n_frames, h, w), dtype=np.uint8)
    recon_blocks = _blocks(recon)
    for (frame, bx, by), i in _wavefront_batches(n_frames, blocks_w, blocks_h, DECODE_BATCH_BLOCKS):
        refs = build_references(recon, bx, by, frame=frame)
        preds = predict_block(refs, modes[i]).reshape(-1, VEC_LEN)
        rec = _reconstruct(preds, levels[i], cfg.gather(cand[i]), q)
        recon_blocks[frame, by, :, bx, :] = rec.reshape(-1, BLOCK, BLOCK)
    return list(recon), [FrameStats(blocks) for blocks in table.view(np.recarray).reshape(n_frames, -1)]


def stream_info(data):
    """Parse the header of a bitstream without decoding the payload.

    Raises InvalidInputError when the data is not bytes-like, and
    BitstreamError when it is not a saabcodec stream or names a version,
    strategy, QP, frame size or frame count the codec cannot have written,
    or has a nonzero pad byte or, for dct_only, bank digest.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise InvalidInputError(f"a bitstream is bytes, bytearray or memoryview, not {type(data).__name__}")
    if len(data) < _HEADER.size or data[:4] != STREAM_MAGIC:
        raise BitstreamError("not a saabcodec bitstream")
    magic, version, strategy_code, qp, pad, w, h, n_frames, digest = _HEADER.unpack_from(data)
    if version != STREAM_VERSION:
        raise BitstreamError(f"unsupported stream version {version}")
    if strategy_code >= len(STRATEGIES):
        raise BitstreamError(f"unknown strategy code {strategy_code}")
    if qp > MAX_QP:
        raise BitstreamError(f"QP {qp} out of range")
    if pad:
        raise BitstreamError(f"nonzero header pad byte {pad}")
    if not w or not h or w % BLOCK or h % BLOCK:
        raise BitstreamError(f"frame size {w}x{h} is not a positive multiple of {BLOCK}")
    if not n_frames:
        raise BitstreamError("stream has no frames")
    if STRATEGIES[strategy_code] == "dct_only" and any(digest):
        raise BitstreamError("nonzero bank digest in a dct_only stream")
    return {
        "version": version,
        "strategy": STRATEGIES[strategy_code],
        "qp": qp,
        "width": w,
        "height": h,
        "frames": n_frames,
        "digest": digest.hex(),
    }
