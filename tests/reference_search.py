"""The encoder's RD search written out plainly, as a reference the codec's
search must match byte for byte.

It is the search as it stood before the runs of `StrategyConfig.search`:
one stacked float32 product over the full per-candidate (C, 64, 64) stack of
analysis rows (DCT_SCAN for a DCT pair, the mode's kernel for a kernel pair),
the candidates' residuals gathered from the modes', the quantizer with its
magnitude, floor and sign bit written out, the bit cost from the float32
exponent field in eight passes, and D = ||M^T deq - r||^2.  Each slice of
these products is the same sgemm call as the codec's, so on any BLAS kernel
the levels, bits and J must come out the same.
"""

import numpy as np

from saabcodec import codec
from saabcodec.codec import DCT_SCAN, MODE_BITS

_POWERS_OF_4 = np.ldexp(np.float32(1), 2 * np.arange(64))


def stacked_rows(cfg):
    """The (C, 64, 64) float32 analysis rows of the config's candidate list."""
    pairs = zip(cfg.cand_saab, cfg.cand_mode)
    return np.stack([cfg.bank.kernel_for_mode(m).matrix if s else DCT_SCAN for s, m in pairs], dtype=np.float32)


def quantize(y, q):
    """sign(y) * floor(|y| / Q + 1/3) in float32, with y's sign bit."""
    mag = np.abs(y) / np.float32(q) + codec.DEADZONE
    np.floor(mag, out=mag)
    sign = y.view(np.uint32) & np.uint32(1 << 31)
    return (mag.view(np.uint32) | sign).view(np.float32)


def level_bit_cost(levels):
    """encode_levels' bit count: bit lengths from the exponent field, the last
    position from the 4**position sum of the nonzero flags."""
    exp = levels.view(np.int32) >> 23
    exp &= 0xFF
    exp = np.subtract(np.maximum(exp, 126, out=exp), 126, dtype=np.float32)
    last_1 = (np.frexp((levels != 0).astype(np.float32) @ _POWERS_OF_4)[1] + 1) >> 1
    twice = (exp @ np.full(64, 2, dtype=np.float32)).astype(np.int32)
    return np.where(last_1 > 0, 6 + last_1 + twice, 1)


def coefficients(res, cfg, rows):
    """The (C, k, 64) float32 coefficients of the candidates' residuals, from the
    (35, k, 64) residuals of the modes and rows = stacked_rows(cfg)."""
    return res[cfg.cand_mode] @ np.swapaxes(rows, -1, -2)


def candidate_costs(res, q, lam, cfg, rows=None):
    """Levels, bits and J of the config's candidates, (C, k) first, from the
    (35, k, 64) float32 residuals of the modes; `rows` is stacked_rows(cfg)."""
    rows = stacked_rows(cfg) if rows is None else rows
    r = res[cfg.cand_mode]
    lv = quantize(coefficients(res, cfg, rows), q)
    bits = (MODE_BITS + cfg.flag[cfg.cand_mode])[:, None] + level_bit_cost(lv)
    err = (lv * q) @ rows
    err -= r
    return lv, bits, np.einsum("ckj,ckj->ck", err, err) + lam * bits


def differences(search, res, q, lam, cfg):
    """Run `search` (codec._candidate_costs) and this reference on one batch;
    returns the reference's levels, bits and J and the names of the outputs
    whose bytes differ.  The codec's coefficients are read where it passes
    them to codec.quantize."""
    seen = []
    quantize_ = codec.quantize
    codec.quantize = lambda y, q_step: quantize_(seen.append(np.array(y)) or y, q_step)
    try:
        got = search(res, q, lam, cfg.search, cfg.head_bits)
    finally:
        codec.quantize = quantize_
    rows = stacked_rows(cfg)
    want = candidate_costs(res, q, lam, cfg, rows)
    pairs = zip(("coefficients", "levels", "bits", "J"), [seen[0], *got], [coefficients(res, cfg, rows), *want])
    return want, [name for name, a, b in pairs if (a.dtype, a.shape, a.tobytes()) != (b.dtype, b.shape, b.tobytes())]
