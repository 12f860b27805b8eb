"""Forward/inverse transforms over 8x8 residual blocks.

Four transform families share one interface: the fixed orthonormal 2-D
type-II DCT, a data-learned KLT, the one-stage Saab transform (fixed DC
kernel, PCA-derived AC kernels, shared positive AC bias), and the cascaded
two-stage Saab variant (16-dim over 4x4 sub-blocks, then per-channel 4-dim
over the 2x2 grid of stage-1 outputs).

Bias handling has two modes.  ``raw`` adds the learned bias to every AC
output, matching the original construction; ``centered`` drops the bias so
coefficients are zero-offset, which is what the codec quantizes.  The two
differ exactly by the bias vector and invert each other either way.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .linalg import (
    BLOCK_SIZE,
    VEC_LEN,
    apply_sign_convention,
    covariance,
    dc_complement_basis,
    eig_symmetric,
    flatten_block,
    unflatten_block,
)

BIAS_MODES = ("raw", "centered")

KIND_DCT = "dct"
KIND_KLT = "klt"
KIND_SAAB1 = "saab1"
KIND_SAAB2 = "saab2"


def dct_matrix(n):
    """Orthonormal 1-D type-II DCT matrix of size n."""
    k = np.arange(n).reshape(-1, 1)
    x = np.arange(n).reshape(1, -1)
    m = np.cos(np.pi * (2 * x + 1) * k / (2 * n)) * np.sqrt(2.0 / n)
    m[0, :] = np.sqrt(1.0 / n)
    return m


# 2-D separable DCT as a single 64x64 matrix acting on raster-flattened blocks.
DCT_64 = np.kron(dct_matrix(BLOCK_SIZE), dct_matrix(BLOCK_SIZE))


@dataclass(frozen=True)
class SaabKernel:
    """One 64-point transform: row k of `matrix` is kernel k, index 0 = DC."""

    matrix: np.ndarray
    bias: np.ndarray
    kind: str
    trained_mode_group: tuple = ()
    decimal_digits: int | None = None

    def orthonormality_error(self):
        g = self.matrix @ self.matrix.T
        return np.max(np.abs(g - np.eye(self.matrix.shape[0])))


def _as_sample_matrix(samples):
    """Stack ResidualBlocks (or 64-vectors) into a (T, 64) float array."""
    rows = []
    for s in samples:
        arr = np.asarray(s, dtype=np.float64)
        if arr.shape == (BLOCK_SIZE, BLOCK_SIZE):
            arr = arr.reshape(VEC_LEN)
        if arr.shape != (VEC_LEN,):
            raise InvalidInputError(f"bad sample shape {arr.shape}")
        rows.append(arr)
    d = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(d)):
        raise InvalidInputError("non-finite sample values")
    return d


def _learn_one_stage(d):
    """One-stage Saab construction for K-dim vectors (T, K) -> (matrix, bias).

    DC kernel fixed at (1/sqrt(K))*1.  AC kernels are eigenvectors of the
    second-moment matrix of the DC-removed samples, computed inside the
    DC-orthogonal complement so they stay exactly orthogonal to DC even when
    the covariance is rank-deficient.  The shared AC bias is max ||d||_2.
    """
    t, k = d.shape
    a0 = np.full(k, 1.0 / np.sqrt(k))
    dc = d @ a0
    z = d - np.outer(dc, a0)
    bias_value = float(np.sqrt(np.max(np.sum(d * d, axis=1))))
    basis = dc_complement_basis(k)
    c_sub = basis @ covariance(z) @ basis.T
    eig = eig_symmetric(c_sub)
    ac_rows = apply_sign_convention(eig.eigenvectors @ basis)
    matrix = np.vstack([a0, ac_rows])
    bias = np.full(k, bias_value)
    bias[0] = 0.0
    return matrix, bias


def learn_saab1(samples, trained_mode_group=()):
    d = _as_sample_matrix(samples)
    if d.shape[0] < VEC_LEN:
        raise InsufficientDataError(
            f"saab1 learning needs at least {VEC_LEN} samples, got {d.shape[0]}"
        )
    matrix, bias = _learn_one_stage(d)
    return SaabKernel(
        matrix=matrix, bias=bias, kind=KIND_SAAB1, trained_mode_group=tuple(trained_mode_group)
    )


def learn_klt(samples, trained_mode_group=()):
    """Eigenbasis of the mean-subtracted sample covariance, zero bias."""
    d = _as_sample_matrix(samples)
    if d.shape[0] < VEC_LEN:
        raise InsufficientDataError(
            f"KLT learning needs at least {VEC_LEN} samples, got {d.shape[0]}"
        )
    centered = d - d.mean(axis=0)
    eig = eig_symmetric(covariance(centered))
    return SaabKernel(
        matrix=eig.eigenvectors.copy(),
        bias=np.zeros(VEC_LEN),
        kind=KIND_KLT,
        trained_mode_group=tuple(trained_mode_group),
    )


def _coerce_input(kernel, block):
    x = np.asarray(block, dtype=np.float64)
    k = kernel.matrix.shape[0]
    if x.shape == (BLOCK_SIZE, BLOCK_SIZE) and k == VEC_LEN:
        x = x.reshape(VEC_LEN)
    if x.shape != (k,):
        raise InvalidInputError(f"input shape {x.shape} does not match kernel size {k}")
    return x


def saab_forward(kernel, block, bias_mode="centered"):
    """Transform one block.  Returns the length-64 coefficient vector."""
    _check_bias_mode(bias_mode)
    x = _coerce_input(kernel, block)
    y = kernel.matrix @ x
    if bias_mode == "raw":
        y = y + kernel.bias
    return y


def saab_inverse(kernel, coeffs, bias_mode="centered"):
    """Invert saab_forward.  Returns block samples as a flat float vector."""
    _check_bias_mode(bias_mode)
    y = np.asarray(coeffs, dtype=np.float64)
    if y.shape != (kernel.matrix.shape[0],):
        raise InvalidInputError(f"coefficient shape {y.shape} does not match kernel")
    if bias_mode == "raw":
        y = y - kernel.bias
    return kernel.matrix.T @ y


def _check_bias_mode(bias_mode):
    if bias_mode not in BIAS_MODES:
        raise InvalidInputError(f"unknown bias mode {bias_mode!r}")


def dct_forward(block):
    x = np.asarray(block, dtype=np.float64)
    if x.shape == (BLOCK_SIZE, BLOCK_SIZE):
        x = x.reshape(VEC_LEN)
    if x.shape != (VEC_LEN,):
        raise InvalidInputError(f"expected an 8x8 block or 64 samples, got shape {x.shape}")
    return DCT_64 @ x


def dct_inverse(coeffs):
    y = np.asarray(coeffs, dtype=np.float64)
    if y.shape != (VEC_LEN,):
        raise InvalidInputError(f"expected 64 coefficients, got shape {y.shape}")
    return DCT_64.T @ y


def round_kernel(kernel, decimal_digits):
    """Round matrix and bias entries to the given number of decimal digits.

    The rounded kernel is used as-is, without re-orthonormalization, to
    mirror reduced-precision kernel storage.
    """
    if decimal_digits is None:
        return kernel
    if decimal_digits >= 16:
        # beyond float64 precision rounding is a no-op; np.round's scale-and-
        # unscale would actually perturb the last bits here
        return replace(kernel, decimal_digits=decimal_digits)
    return replace(
        kernel,
        matrix=np.round(kernel.matrix, decimal_digits),
        bias=np.round(kernel.bias, decimal_digits),
        decimal_digits=decimal_digits,
    )


# ----------------------------------------------------------------------------
# Two-stage Saab transform: [4x4, 2x2]
# ----------------------------------------------------------------------------

_SUB = BLOCK_SIZE // 2  # 4
_SUB_LEN = _SUB * _SUB  # 16
_GRID = 4  # 2x2 grid of sub-blocks


def _split_subblocks(x64):
    """(...,64) raster block -> (...,4,16): 2x2 grid of raster 4x4 sub-blocks."""
    b = x64.reshape(x64.shape[:-1] + (BLOCK_SIZE, BLOCK_SIZE))
    parts = []
    for gy in range(2):
        for gx in range(2):
            sub = b[..., gy * _SUB : (gy + 1) * _SUB, gx * _SUB : (gx + 1) * _SUB]
            parts.append(sub.reshape(sub.shape[:-2] + (_SUB_LEN,)))
    return np.stack(parts, axis=-2)


def _merge_subblocks(subs):
    """Inverse of _split_subblocks."""
    out = np.zeros(subs.shape[:-2] + (BLOCK_SIZE, BLOCK_SIZE))
    for i in range(_GRID):
        gy, gx = divmod(i, 2)
        out[..., gy * _SUB : (gy + 1) * _SUB, gx * _SUB : (gx + 1) * _SUB] = subs[
            ..., i, :
        ].reshape(subs.shape[:-2] + (_SUB, _SUB))
    return out.reshape(out.shape[:-2] + (VEC_LEN,))


@dataclass(frozen=True)
class TwoStageSaabKernel:
    """Cascade of a 16-dim Saab stage over 4x4 sub-blocks and sixteen 4-dim
    Saab stages, one per spectral channel, over the 2x2 grid of stage-1
    outputs.  Output index c*4+j holds stage-2 coefficient j of channel c."""

    stage1_matrix: np.ndarray  # (16, 16)
    stage1_bias: np.ndarray  # (16,)
    stage2_matrices: np.ndarray  # (16, 4, 4)
    stage2_biases: np.ndarray  # (16, 4)
    trained_mode_group: tuple = ()
    kind: str = field(default=KIND_SAAB2)

    def orthonormality_error(self):
        err = np.max(np.abs(self.stage1_matrix @ self.stage1_matrix.T - np.eye(_SUB_LEN)))
        for c in range(_SUB_LEN):
            m = self.stage2_matrices[c]
            err = max(err, np.max(np.abs(m @ m.T - np.eye(_GRID))))
        return err


def learn_saab2(samples, trained_mode_group=()):
    d = _as_sample_matrix(samples)
    if d.shape[0] < VEC_LEN:
        raise InsufficientDataError(
            f"saab2 learning needs at least {VEC_LEN} samples, got {d.shape[0]}"
        )
    subs = _split_subblocks(d).reshape(-1, _SUB_LEN)  # (T*4, 16)
    m1, b1 = _learn_one_stage(subs)
    # Stage-2 training inputs are the raw (bias-shifted) stage-1 outputs, as
    # the cascade propagates them in raw mode; the learned AC kernels are
    # invariant to that constant shift.
    y1 = _split_subblocks(d) @ m1.T + b1  # (T, 4, 16)
    m2 = np.zeros((_SUB_LEN, _GRID, _GRID))
    b2 = np.zeros((_SUB_LEN, _GRID))
    for c in range(_SUB_LEN):
        m2[c], b2[c] = _learn_one_stage(y1[:, :, c])
    return TwoStageSaabKernel(
        stage1_matrix=m1,
        stage1_bias=b1,
        stage2_matrices=m2,
        stage2_biases=b2,
        trained_mode_group=tuple(trained_mode_group),
    )


def saab2_forward(kernel, block, bias_mode="centered"):
    _check_bias_mode(bias_mode)
    x = np.asarray(block, dtype=np.float64)
    if x.shape == (BLOCK_SIZE, BLOCK_SIZE):
        x = x.reshape(VEC_LEN)
    if x.shape != (VEC_LEN,):
        raise InvalidInputError(f"bad block shape {x.shape}")
    subs = _split_subblocks(x)  # (4, 16)
    y1 = subs @ kernel.stage1_matrix.T
    if bias_mode == "raw":
        y1 = y1 + kernel.stage1_bias
    out = np.empty(VEC_LEN)
    for c in range(_SUB_LEN):
        y2 = kernel.stage2_matrices[c] @ y1[:, c]
        if bias_mode == "raw":
            y2 = y2 + kernel.stage2_biases[c]
        out[c * _GRID : (c + 1) * _GRID] = y2
    return out


def saab2_inverse(kernel, coeffs, bias_mode="centered"):
    _check_bias_mode(bias_mode)
    y = np.asarray(coeffs, dtype=np.float64)
    if y.shape != (VEC_LEN,):
        raise InvalidInputError(f"expected 64 coefficients, got shape {y.shape}")
    y1 = np.empty((_GRID, _SUB_LEN))
    for c in range(_SUB_LEN):
        y2 = y[c * _GRID : (c + 1) * _GRID]
        if bias_mode == "raw":
            y2 = y2 - kernel.stage2_biases[c]
        y1[:, c] = kernel.stage2_matrices[c].T @ y2
    if bias_mode == "raw":
        y1 = y1 - kernel.stage1_bias
    subs = y1 @ kernel.stage1_matrix
    return _merge_subblocks(subs)
