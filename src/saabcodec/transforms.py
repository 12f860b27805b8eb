"""Forward/inverse transforms over 8x8 residual blocks.

Four transform families share one interface: the fixed orthonormal 2-D
type-II DCT, a data-learned KLT, the one-stage Saab transform (fixed DC
kernel, PCA-derived AC kernels, shared positive AC bias), and the cascaded
two-stage Saab variant (16-dim over 4x4 sub-blocks, then per-channel 4-dim
over the 2x2 grid of stage-1 outputs).  Each learned transform is one
`SaabKernel`; the two-stage cascade is composed into one when it is learned.

Every forward and inverse function takes one length-64 vector or any stack
of them, (..., 64), and returns the same shape; the forward functions also
take 8x8 blocks, (..., 8, 8).  A whole residual set is one matrix product.

Bias handling has two modes.  ``raw`` adds the learned bias to every AC
output, matching the original construction; ``centered`` drops the bias so
coefficients are zero-offset, which is what the codec quantizes.  The two
differ exactly by the bias vector and invert each other either way.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidInputError
from .linalg import (
    BLOCK_SIZE,
    VEC_LEN,
    apply_sign_convention,
    as_float64,
    covariance,
    dc_complement_basis,
    eig_symmetric,
    transform_moment,
)

BIAS_MODES = ("raw", "centered")


def dct_matrix(n):
    """Orthonormal 1-D type-II DCT matrix of size n."""
    k = np.arange(n).reshape(-1, 1)
    x = np.arange(n).reshape(1, -1)
    m = np.cos(np.pi * (2 * x + 1) * k / (2 * n)) * np.sqrt(2.0 / n)
    m[0, :] = np.sqrt(1.0 / n)
    return m


# 2-D separable DCT as a single 64x64 matrix acting on raster-flattened blocks.
DCT_64 = np.kron(dct_matrix(BLOCK_SIZE), dct_matrix(BLOCK_SIZE))


def _zigzag_order(n):
    order = sorted(
        ((r, c) for r in range(n) for c in range(n)),
        key=lambda rc: (rc[0] + rc[1], rc[1] if (rc[0] + rc[1]) % 2 else rc[0]),
    )
    return np.array([r * n + c for r, c in order], dtype=np.int64)


ZIGZAG = _zigzag_order(BLOCK_SIZE)
DCT_SCAN = DCT_64[ZIGZAG]  # analysis rows in coded scan order
DCT_SCAN.flags.writeable = False


@dataclass(frozen=True)
class SaabKernel:
    """One 64-point transform: row k of `matrix` is kernel k, index 0 = DC.

    A kernel is only its matrix and bias.  The modes that trained it and the
    digits it was rounded to belong to the bank that holds it (kernelio).
    """

    matrix: np.ndarray
    bias: np.ndarray

    def orthonormality_error(self):
        g = self.matrix @ self.matrix.T
        return np.max(np.abs(g - np.eye(self.matrix.shape[0])))


def _as_vectors(x, blocks=False):
    """`x` as a float64 (..., 64) array; with `blocks`, trailing 8x8 block
    axes are flattened in raster order first."""
    x = as_float64(x)
    if blocks and x.shape[-2:] == (BLOCK_SIZE, BLOCK_SIZE):
        x = x.reshape(x.shape[:-2] + (VEC_LEN,))
    if x.ndim == 0 or x.shape[-1] != VEC_LEN:
        want = "(..., 64) vectors or (..., 8, 8) blocks" if blocks else "(..., 64) vectors"
        raise InvalidInputError(f"expected {want}, got shape {x.shape}")
    return x


def _stage_statistics(d):
    """A (T, K) sample set's second moment, exact for integer samples, and
    its shared AC bias max ||d||_2: the input `_learn_stages` takes."""
    return covariance(d), float(np.sqrt(np.max(np.sum(d * d, axis=1))))


def _learn_stages(stats):
    """One-stage Saab construction for each (second moment (K, K), shared AC
    bias) pair of an iterable, all of one K -> list of K-point SaabKernels.

    DC kernel fixed at (1/sqrt(K))*1.  AC kernels are eigenvectors of the
    moment projected into the DC-orthogonal complement (transform_moment, so
    the projection does not depend on the BLAS kernel), so they stay exactly
    orthogonal to DC even when it is rank-deficient.  Each moment is
    projected as it is drawn; one stacked eigensolve serves them all, and one
    product maps every stack of eigenvectors back to K points.
    """
    stats = [(transform_moment(dc_complement_basis(len(m)), m), b) for m, b in stats]
    vectors = eig_symmetric(np.array([c for c, _ in stats])).eigenvectors
    k = vectors.shape[-1] + 1
    ac = apply_sign_convention(np.einsum("mai,ij->maj", vectors, dc_complement_basis(k)))
    matrices = np.concatenate([np.full((len(ac), 1, k), 1.0 / np.sqrt(k)), ac], axis=1)
    biases = np.outer([b for _, b in stats], np.arange(k) > 0)  # 0 on DC
    return [SaabKernel(matrix=m, bias=b) for m, b in zip(matrices, biases)]


def _training_samples(samples, kind):
    """8x8 blocks or 64-vectors as a (T, 64) float array of at least 64
    finite vectors."""
    d = _as_vectors(samples, blocks=True).reshape(-1, VEC_LEN)
    if not np.all(np.isfinite(d)):
        raise InvalidInputError("non-finite sample values")
    if d.shape[0] < VEC_LEN:
        raise InsufficientDataError(
            f"{kind} learning needs at least {VEC_LEN} samples, got {d.shape[0]}"
        )
    return d


def learn_saab1(samples, *, stacked=False):
    """One-stage Saab kernel learned from (T, 64) vectors or (T, 8, 8) blocks.

    With `stacked`, `samples` is instead an iterable of sample sets, and a
    list of kernels, one per set, comes back.  Each set is reduced to its
    covariance as it is drawn, so a generator keeps one set alive at a time,
    and all sets share one stacked eigensolve; each kernel equals the one
    its set alone would give.
    """
    if not stacked:
        return learn_saab1([samples], stacked=True)[0]
    return _learn_stages(_stage_statistics(_training_samples(s, "saab1")) for s in samples)


def learn_klt(samples):
    """Eigenbasis of the sample covariance, zero bias: the second moment less
    s s^T / T^2 for column sums s, exact but for two divisions on integers."""
    d = _training_samples(samples, "KLT")
    s, t = d.sum(axis=0), d.shape[0]
    eig = eig_symmetric(covariance(d) - np.outer(s, s) / (t * t))
    return SaabKernel(matrix=eig.eigenvectors.copy(), bias=np.zeros(VEC_LEN))


def saab_forward(kernel, block, bias_mode="centered"):
    """Transform (..., 64) vectors or (..., 8, 8) blocks into (..., 64)
    coefficient vectors."""
    _check_args(kernel, bias_mode)
    y = _as_vectors(block, blocks=True) @ kernel.matrix.T
    if bias_mode == "raw":
        y += kernel.bias
    return y


def saab_inverse(kernel, coeffs, bias_mode="centered"):
    """Invert saab_forward.  Returns (..., 64) flat block samples."""
    _check_args(kernel, bias_mode)
    y = _as_vectors(coeffs)
    if bias_mode == "raw":
        y = y - kernel.bias
    return y @ kernel.matrix


def _check_args(kernel, bias_mode):
    if not isinstance(kernel, SaabKernel):
        raise InvalidInputError(f"expected a SaabKernel, got {type(kernel).__name__}")
    if bias_mode not in BIAS_MODES:
        raise InvalidInputError(f"unknown bias mode {bias_mode!r}")


def dct_forward(block):
    return _as_vectors(block, blocks=True) @ DCT_64.T


def dct_inverse(coeffs):
    return _as_vectors(coeffs) @ DCT_64


# ----------------------------------------------------------------------------
# Two-stage Saab transform: [4x4, 2x2]
# ----------------------------------------------------------------------------

_SUB = BLOCK_SIZE // 2  # 4
_SUB_LEN = _SUB * _SUB  # 16
_GRID = 4  # 2x2 grid of sub-blocks


def _split_subblocks(x64):
    """(...,64) raster block -> (...,4,16): 2x2 grid of raster 4x4 sub-blocks,
    sub-block index gy*2+gx."""
    lead = x64.shape[:-1]
    b = x64.reshape(lead + (2, _SUB, 2, _SUB))  # (gy, row, gx, col)
    return b.swapaxes(-3, -2).reshape(lead + (_GRID, _SUB_LEN))


def learn_saab2(samples):
    """Two-stage Saab kernel learned from (T, 64) vectors or (T, 8, 8) blocks:
    a 16-dim stage over the 4x4 sub-blocks, then a 4-dim stage per stage-1
    channel c over its 2x2 grid.  No nonlinearity sits between the stages
    (the Saab bias stands in for the ReLU), so the cascade is one affine
    map: row c*4+j is channel c's stage-2 coefficient j, and the bias is
    the raw cascade's."""
    d = _training_samples(samples, "saab2")
    subs = _split_subblocks(d)  # (T, 4, 16)
    (k1,) = _learn_stages([_stage_statistics(subs.reshape(-1, _SUB_LEN))])
    # Stage 2 trains on each channel's raw outputs y = m1 x + b1 over its 2x2
    # grid.  Its AC kernels see their moment only projected off DC, where the
    # shift by b1 cancels, so that moment is m1 contracted with the sub-blocks'
    # exact cross moments r[g, k, h, l] = E[x_gk x_hl]; only the bias reads y.
    r = covariance(subs.reshape(-1, VEC_LEN)).reshape(_GRID, _SUB_LEN, _GRID, _SUB_LEN)
    moments = np.einsum("ck,cgkh->cgh", k1.matrix, np.einsum("gkhl,cl->cgkh", r, k1.matrix))
    y1 = np.einsum("tgk,ck->tcg", subs, k1.matrix) + k1.bias[:, None]
    k2 = _learn_stages(zip(moments, np.sqrt(np.max(np.sum(y1 * y1, axis=2), axis=0))))
    m2 = np.array([k.matrix for k in k2])  # (16, 4, 4): [channel, output, sub-block]
    cols = _split_subblocks(np.arange(VEC_LEN)).reshape(-1)  # raster index of (g, k)
    matrix = np.empty((VEC_LEN, VEC_LEN))
    matrix[:, cols] = np.einsum("cjg,ck->cjgk", m2, k1.matrix).reshape(VEC_LEN, VEC_LEN)
    bias = np.einsum("cjg,c->cj", m2, k1.bias) + np.array([k.bias for k in k2])
    return SaabKernel(matrix=matrix, bias=bias.reshape(VEC_LEN))


# A composed two-stage kernel is a SaabKernel, applied as any other.
saab2_forward = saab_forward
saab2_inverse = saab_inverse
