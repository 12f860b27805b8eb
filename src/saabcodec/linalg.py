"""Deterministic dense linear algebra for 8x8 transform learning.

Everything here is plain float64 numpy with a fixed operation order, so the
same input bytes always produce the same output bytes.  The eigensolver is
a round-robin Jacobi (Brent and Luk, 1985) rather than LAPACK: slower, but
reproducible across platforms and easy to reason about for 64x64 symmetric
matrices.  Each round's disjoint rotations are one elementwise step over a
whole stack of matrices, and a matrix's result does not depend on what
else is in the stack.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidInputError

BLOCK_SIZE = 8
VEC_LEN = BLOCK_SIZE * BLOCK_SIZE

# Eigenvector entries smaller than this are treated as zero when picking the
# leading entry for the sign convention.
_SIGN_EPS = 1e-12

# A Jacobi solve stops once the off-diagonal norm is below _TOL_FACTOR
# times the Frobenius norm, or after _MAX_SWEEPS sweeps.
_TOL_FACTOR, _MAX_SWEEPS = 1e-12, 100


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


def _round_robin(e):
    """Brent and Luk's schedule for an even e: (e - 1, e/2) index arrays
    p < q whose row r is round r, e/2 disjoint pairs, such that the e - 1
    rounds hold every pair once.  Seat i meets seat e-1-i; index 0 keeps
    seat 0 while the others move one seat per round."""
    r = np.arange(e - 1)
    seats = np.insert(1 + (r - r[:, None]) % (e - 1), 0, 0, axis=1)
    pairs = np.sort([seats[:, : e // 2], seats[:, : e // 2 - 1 : -1]], axis=0)
    return pairs[0], pairs[1]


def _jacobi_sweeps(a):
    """Round-robin Jacobi diagonalization of the m symmetric n x n matrices
    of `a`, (n, n, m), matrix index last.

    The matrices are padded to e = n + n % 2 with a zero last row and
    column when n is odd, and rotated together with eigenvector rows that
    start as the identity.  A sweep is the e - 1 rounds of
    `_round_robin(e)`; a round rotates, for all e/2 pairs at once, columns
    p and q of the matrices, rows p and q of the eigenvectors, then rows p
    and q of the matrices.  A matrix's entries are written back unchanged
    where its a[p, q] == 0 and once it stops (see _TOL_FACTOR, checked
    before each sweep), so its result does not depend on the rest of the
    stack.  Returns (diagonals (m, n), eigenvector rows (m, n, n)).
    """
    n, e = len(a), len(a) + len(a) % 2
    a = np.pad(a, ((0, e - n), (0, e - n), (0, 0)))
    vt = np.broadcast_to(np.eye(e)[..., None], a.shape).copy()
    # fro and off are reduced one contiguous matrix at a time, as for one matrix
    fro = np.array([np.sqrt(np.sum(x * x)) for x in np.moveaxis(a, -1, 0)])
    live = fro != 0.0
    ps, qs = _round_robin(e)
    # lanes with a[p, q] == 0 divide by zero; np.where discards them
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_MAX_SWEEPS):
            for i in np.flatnonzero(live):
                off = np.sqrt(2.0 * np.sum(np.triu(a[..., i].copy(), 1) ** 2))
                live[i] = not off < _TOL_FACTOR * fro[i]
            if not live.any():
                break
            for p, q in zip(ps, qs):
                rot = (a[p, q] != 0.0) & live  # (e/2, m)
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                # t = sign(theta) / (|theta| + sqrt(theta^2 + 1)), and 1 where theta == 0
                t = np.sign(theta) + (theta == 0.0)
                t /= np.abs(theta) + np.sqrt(theta * theta + 1.0)
                c = 1.0 / np.sqrt(t * t + 1.0)
                rot, c, s = rot[:, None], c[:, None], (t * c)[:, None]
                for x in (a.swapaxes(0, 1), vt, a):  # matrix columns, eigenvectors, rows
                    x_p, x_q = x[p], x[q]
                    x[p] = np.where(rot, c * x_p - s * x_q, x_p)
                    x[q] = np.where(rot, s * x_p + c * x_q, x_q)
    # an all-zero matrix may hold -0.0
    values = np.where(fro[:, None] == 0.0, 0.0, np.diagonal(a)[:, :n])
    return values, np.moveaxis(vt[:n, :n], -1, 0)


def apply_sign_convention(rows):
    """Copy of `rows`, (..., n), with each row negated where needed so that
    its first entry with |entry| > 1e-12 is positive."""
    rows = np.array(rows, dtype=np.float64)
    big = np.abs(rows) > _SIGN_EPS
    lead = np.take_along_axis(rows, np.argmax(big, axis=-1)[..., None], axis=-1)[..., 0]
    rows[big.any(axis=-1) & (lead < 0.0)] *= -1.0
    return rows


def _order_and_sign(values, rows):
    """Sort each matrix's eigenpairs descending (stable on ties) and fix
    vector signs; (m, n) values and (m, n, n) vector rows."""
    order = np.argsort(-values, axis=-1, kind="stable")
    rows = np.take_along_axis(rows, order[..., None], axis=-2)
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
    values, rows = _order_and_sign(*_jacobi_sweeps((a + a.swapaxes(0, 1)) * 0.5))
    if not (np.isfinite(values).all() and np.isfinite(rows).all()):
        raise InvalidInputError("non-finite eigenpairs: the entries overflow")
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
