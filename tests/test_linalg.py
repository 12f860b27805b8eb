import numpy as np
import pytest

from saabcodec import linalg
from saabcodec.errors import InvalidInputError


def char_poly_eigenvalues(m):
    """Oracle: eigenvalues as roots of the characteristic polynomial
    (Faddeev-LeVerrier coefficients + np.roots)."""
    n = m.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    mk = np.eye(n)
    for k in range(1, n + 1):
        mk = m @ mk
        coeffs[k] = -np.trace(mk) / k
        mk += coeffs[k] * np.eye(n)
    return np.sort(np.real(np.roots(coeffs)))[::-1]


def test_jacobi_matches_char_poly_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.normal(size=(4, 12))
        m = a @ a.T / 12
        got = linalg.eig_symmetric(m)
        want = char_poly_eigenvalues(m)
        assert np.allclose(got.eigenvalues, want, atol=1e-9)


def test_jacobi_diagonalizes_64x64():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(64, 300))
    m = a @ a.T / 300
    r = linalg.eig_symmetric(m)
    v = r.eigenvectors
    assert np.max(np.abs(v @ v.T - np.eye(64))) < 1e-12
    recon = v.T @ np.diag(r.eigenvalues) @ v
    assert np.max(np.abs(recon - m)) < 1e-10
    assert np.all(np.diff(r.eigenvalues) <= 1e-12)  # descending


def test_jacobi_deterministic():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(16, 40))
    m = a @ a.T / 40
    r1 = linalg.eig_symmetric(m.copy())
    r2 = linalg.eig_symmetric(m.copy())
    assert np.array_equal(r1.eigenvalues, r2.eigenvalues)
    assert np.array_equal(r1.eigenvectors, r2.eigenvectors)


def test_sign_convention():
    m = np.diag([3.0, 2.0, 1.0])
    r = linalg.eig_symmetric(m)
    for row in r.eigenvectors:
        nz = row[np.abs(row) > 1e-12]
        assert nz[0] > 0


def test_eig_zero_matrix():
    r = linalg.eig_symmetric(np.zeros((8, 8)))
    assert np.allclose(r.eigenvalues, 0)
    assert np.max(np.abs(r.eigenvectors @ r.eigenvectors.T - np.eye(8))) < 1e-12


def test_eig_rejects_nonsquare():
    with pytest.raises(InvalidInputError):
        linalg.eig_symmetric(np.zeros((3, 4)))


def test_dc_complement_basis():
    for k in (4, 16, 64):
        b = linalg.dc_complement_basis(k)
        assert b.shape == (k - 1, k)
        assert np.max(np.abs(b @ b.T - np.eye(k - 1))) < 1e-12
        assert np.max(np.abs(b @ np.ones(k))) < 1e-12


def test_covariance_no_mean_subtraction():
    rng = np.random.default_rng(2)
    x = rng.normal(loc=5.0, size=(100, 8))
    c = linalg.covariance(x)
    want = x.T @ x / 100
    assert np.allclose(c, 0.5 * (want + want.T))
    assert np.allclose(c, c.T)
