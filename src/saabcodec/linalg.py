"""Deterministic dense linear algebra for 8x8 transform learning.

Everything here is plain float64 numpy with a fixed operation order, so the
same input bytes always produce the same output bytes.  The eigensolver is
one stacked cyclic Jacobi rather than LAPACK: slower, but reproducible
across platforms and easy to reason about for 64x64 symmetric matrices.  It
solves a whole stack of matrices at once, applying each (p, q) rotation to
every matrix as one elementwise step; each matrix's rotations and their
order are fixed by that matrix alone, so its result does not depend on
what else is in the stack.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidInputError

BLOCK_SIZE = 8
VEC_LEN = BLOCK_SIZE * BLOCK_SIZE

# Eigenvector entries smaller than this are treated as zero when picking the
# leading entry for the sign convention.
_SIGN_EPS = 1e-12


def covariance(samples):
    """Second-moment matrix C = (1/T) * sum(z z^T) over the sample vectors,
    without mean subtraction.  For integer-valued samples with T * max|z|^2
    < 2**53 every partial sum of z^T z is an exact integer, so C does not
    depend on the summation order, and so not on the BLAS kernel."""
    z = np.asarray(samples, dtype=np.float64)
    if z.ndim != 2:
        raise InvalidInputError(f"expected a 2-D sample array, got shape {z.shape}")
    t = z.shape[0]
    if t < 2:
        raise InsufficientDataError(f"covariance needs at least 2 samples, got {t}")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("non-finite sample values")
    c = z.T @ z / t
    return 0.5 * (c + c.T)


@dataclass(frozen=True)
class EigenResult:
    """Eigenvalues in non-increasing order; row k of `eigenvectors` is the
    unit eigenvector for eigenvalue k."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _rotate(line_p, line_q, idx, c, s):
    """line_p, line_q = c*line_p - s*line_q, s*line_p + c*line_q in the
    matrices `idx` (the last axis) of two (l, m) lines."""
    x_p, x_q = line_p[:, idx], line_q[:, idx]
    new_p = c * x_p - s * x_q  # computed first: with a slice, x_p is a view of line_p
    line_q[:, idx] = s * x_p + c * x_q
    line_p[:, idx] = new_p


def _jacobi_sweeps(w, tol_factor=1e-12, max_sweeps=100):
    """Cyclic Jacobi diagonalization of m symmetric n x n matrices at once.

    `w` is the (2n, n, m) working stack, matrix index last: w[:n, :, i]
    holds matrix i and w[n:, :, i] the identity.  It is rotated in place,
    so that w[n:, :, i] ends up holding matrix i's column eigenvectors.
    Each cyclic (p, q) rotation is one elementwise step over every matrix
    that takes it, and each matrix sees exactly the operations, in the same
    order, that it would alone.  A matrix skips a rotation where its
    a[p, q] == 0 and stops rotating once its off-diagonal norm is below
    `tol_factor` times its Frobenius norm; a skipped or stopped matrix is not
    written.  Returns (diagonals (m, n), column eigenvectors (m, n, n)).
    """
    n, m = w.shape[1], w.shape[2]
    a = w[:n]
    # fro and off are reduced one contiguous matrix at a time, as for one matrix
    fro = np.array([np.sqrt(np.sum(x * x)) for x in np.moveaxis(a, -1, 0)])
    threshold = tol_factor * fro
    live = fro != 0.0
    with np.errstate(over="ignore"):
        for _ in range(max_sweeps):
            for i in np.flatnonzero(live):
                off = np.sqrt(2.0 * np.sum(np.triu(a[..., i].copy(), 1) ** 2))
                live[i] = not off < threshold[i]
            if not live.any():
                break
            for p in range(n - 1):
                for q in range(p + 1, n):
                    rot = a[p, q] != 0.0
                    rot &= live
                    k = np.count_nonzero(rot)
                    if k == 0:
                        continue
                    idx = slice(None) if k == m else np.flatnonzero(rot)
                    theta = (a[q, q, idx] - a[p, p, idx]) / (2.0 * a[p, q, idx])
                    # t = sign(theta) / (|theta| + sqrt(theta^2 + 1)), and 1 where theta == 0
                    t = (np.sign(theta) + (theta == 0.0)) / (
                        np.abs(theta) + np.sqrt(theta * theta + 1.0)
                    )
                    c = 1.0 / np.sqrt(t * t + 1.0)
                    s = t * c
                    # columns p and q of the matrices and their eigenvectors,
                    # then rows p and q of the matrices
                    _rotate(w[:, p], w[:, q], idx, c, s)
                    _rotate(w[p], w[q], idx, c, s)
    values = np.diagonal(a).copy()  # (m, n)
    values[fro == 0.0] = 0.0  # an all-zero matrix may hold -0.0
    return values, np.moveaxis(w[n:], -1, 0)


def apply_sign_convention(rows):
    """Copy of `rows`, (..., n), with each row negated where needed so that
    its first entry with |entry| > 1e-12 is positive."""
    rows = np.array(rows, dtype=np.float64)
    big = np.abs(rows) > _SIGN_EPS
    lead = np.take_along_axis(rows, np.argmax(big, axis=-1)[..., None], axis=-1)[..., 0]
    rows[big.any(axis=-1) & (lead < 0.0)] *= -1.0
    return rows


def _order_and_sign(values, vectors_cols):
    """Sort each matrix's eigenpairs descending (stable on ties) and fix
    vector signs; (m, n) values and (m, n, n) column vectors."""
    order = np.argsort(-values, axis=-1, kind="stable")
    rows = np.take_along_axis(vectors_cols.swapaxes(-1, -2), order[..., None], axis=-2)
    return np.take_along_axis(values, order, axis=-1), apply_sign_convention(rows)


def eig_symmetric(m):
    """Eigendecomposition of a symmetric matrix, or of each matrix of an
    (..., n, n) stack, with deterministic ordering.

    The input is symmetrized as (m + m^T)/2 before the sweeps.  Eigenvalues
    come back sorted non-increasing, ties broken by the Jacobi output order;
    each eigenvector row has its first entry with |entry| > 1e-12 positive.
    A matrix's result does not depend on the other matrices in its stack.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] == 0:
        raise InvalidInputError(f"expected square matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("non-finite matrix entries")
    lead, n = a.shape[:-2], a.shape[-1]
    a = np.moveaxis(a.reshape(-1, n, n), 0, -1)
    w = np.empty((2 * n, n, a.shape[-1]))  # the working stack, see _jacobi_sweeps
    np.add(a, a.swapaxes(0, 1), out=w[:n])
    w[:n] *= 0.5
    w[n:] = np.eye(n)[..., None]
    values, vectors = _jacobi_sweeps(w)
    values, rows = _order_and_sign(values, vectors)
    return EigenResult(
        eigenvalues=values.reshape(lead + (n,)), eigenvectors=rows.reshape(lead + (n, n))
    )


def dc_complement_basis(k):
    """Orthonormal basis (rows) of the subspace orthogonal to the all-ones vector.

    Built from the Householder reflection that maps e0 onto (1/sqrt(k))*1, so
    the result is deterministic and exactly reproducible.  Shape (k-1, k).
    """
    u = np.full(k, 1.0 / np.sqrt(k))
    v = -u.copy()
    v[0] += 1.0
    h = np.eye(k) - 2.0 * np.outer(v, v) / (v @ v)
    return h[:, 1:].T.copy()
