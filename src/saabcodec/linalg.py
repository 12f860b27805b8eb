"""Deterministic dense linear algebra for 8x8 transform learning.

Everything here is plain float64 numpy with a fixed operation order, so the
same input bytes always produce the same output bytes.  The eigensolver is a
cyclic Jacobi sweep rather than LAPACK: slower, but reproducible across
platforms and easy to reason about for 64x64 symmetric matrices.
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
    """Second-moment matrix C = (1/T) * sum(z z^T) over the sample vectors.

    No mean subtraction is performed; callers that want a true covariance
    subtract the mean first.  Divisor is T (population convention).
    """
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


def _jacobi_sweeps(a, tol_factor=1e-12, max_sweeps=100):
    """Cyclic Jacobi diagonalization. Returns (diagonal, column-eigenvector matrix)."""
    n = a.shape[0]
    v = np.eye(n)
    fro = np.sqrt(np.sum(a * a))
    if fro == 0.0:
        return np.zeros(n), v
    threshold = tol_factor * fro
    for _ in range(max_sweeps):
        off = np.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2))
        if off < threshold:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                with np.errstate(over="ignore"):
                    theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    return np.diag(a).copy(), v


def apply_sign_convention(rows):
    """Copy of `rows` with each row negated where needed so that its first
    entry with |entry| > 1e-12 is positive."""
    rows = np.array(rows, dtype=np.float64)
    big = np.abs(rows) > _SIGN_EPS
    lead = rows[np.arange(rows.shape[0]), np.argmax(big, axis=1)]
    rows[big.any(axis=1) & (lead < 0.0)] *= -1.0
    return rows


def _order_and_sign(values, vectors_cols):
    """Sort eigenpairs descending (stable on ties) and fix vector signs."""
    order = np.argsort(-values, kind="stable")
    return values[order], apply_sign_convention(vectors_cols.T[order])


def eig_symmetric(m):
    """Eigendecomposition of a symmetric matrix with deterministic ordering.

    The input is symmetrized as (m + m^T)/2 before the sweeps.  Eigenvalues
    come back sorted non-increasing, ties broken by the Jacobi output order;
    each eigenvector row has its first entry with |entry| > 1e-12 positive.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("non-finite matrix entries")
    a = 0.5 * (a + a.T)
    values, vectors = _jacobi_sweeps(a)
    values, rows = _order_and_sign(values, vectors)
    return EigenResult(eigenvalues=values, eigenvectors=rows)


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
