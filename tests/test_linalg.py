import hashlib
from functools import partial

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


def _dense_symmetric(n, seed):
    """Seeded symmetric matrix built without BLAS, so its bytes are the same
    on every machine."""
    x = np.random.default_rng([seed, n]).normal(size=(n, n))
    return x + x.T


def _golden_matrices():
    blocks = np.zeros((12, 12))  # exact-zero off-diagonal blocks: skipped rotations
    blocks[:5, :5] = _dense_symmetric(5, 11)
    blocks[5:, 5:] = _dense_symmetric(7, 11)
    return {
        "dense-63": _dense_symmetric(63, 7),
        "dense-15": _dense_symmetric(15, 7),
        "dense-3": _dense_symmetric(3, 7),
        "zero": np.zeros((8, 8)),
        "diagonal": np.diag([2.0, -1.0, 2.0, 0.5, 0.0, -1.0, 3.0]),
        "block-diagonal": blocks,
    }


# case -> SHA-256 of (eigenvalues, eigenvectors) as float64 bytes.  A change
# to the solver's operations or their order shows here, and in every bank.
EIG_DIGESTS = {
    "dense-63": (
        "c5bb08cf6251caa4a60b350eee43d270b71e2278b0ea90ac09217d400970f524",
        "04e1d908924d93a89cf77124b4f50e997535aff43f42921e1be90b2d68e5b012",
    ),
    "dense-15": (
        "91064c0661a93ecf9f4e4338f0e786fb3e95dc48facb0595267b7ae62fcebb80",
        "a910586028a91137f75d05aea1615912647e1d22494fd19c029153b0975b2ae8",
    ),
    "dense-3": (
        "1c195b47cdf52145d1820985e6da480c0d2efa2b22da99b67e347e3bf783a7a7",
        "2ca78c2667f5c3e17bb80b4f729a5b4ddae3ef07c9a70e76573cb5124d1ac435",
    ),
    "zero": (
        "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b",
        "912b8f2f0b10b7b22a7248a1909345aa185013716ca8cdd5490076f5788de980",
    ),
    "diagonal": (
        "20743a0d142c17adce84b2b5ca31048932c277c0b28b7290b4677b1aad28dbb7",
        "b439ad84807818415c773810fc86cadd1c9408a8e3b682cd6ab2f617182dad17",
    ),
    "block-diagonal": (
        "4d613f8ab6b3b6729f66d65f85632fba4675ccf3c7a7fd9ecb67827ec520cd20",
        "f99ae34ff9c84b7507833a4bb59325038b1b4fa302b6e7e63af510bf4cb0f785",
    ),
}


def _digests(result):
    return tuple(
        hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes()).hexdigest()
        for x in (result.eigenvalues, result.eigenvectors)
    )


@pytest.mark.parametrize("case", sorted(EIG_DIGESTS))
def test_eig_golden_digest(case):
    assert _digests(linalg.eig_symmetric(_golden_matrices()[case])) == EIG_DIGESTS[case]


def test_eig_rejects_nonsquare():
    with pytest.raises(InvalidInputError):
        linalg.eig_symmetric(np.zeros((3, 4)))


def _mixed_stack():
    """15x15 matrices that stop after different numbers of sweeps: none for
    the zero and diagonal ones, one for a single off-diagonal pair, a few
    for a nearly diagonal one, more for dense and block-diagonal ones."""
    pair = np.diag(np.arange(15.0))
    pair[3, 9] = pair[9, 3] = 0.5
    blocks = np.zeros((15, 15))
    blocks[:6, :6] = _dense_symmetric(6, 5)
    blocks[6:, 6:] = _dense_symmetric(9, 5)
    return np.array([
        _dense_symmetric(15, 5),
        np.zeros((15, 15)),
        np.diag(np.arange(15.0) % 4),
        pair,
        np.diag(np.arange(1.0, 16.0)) + 1e-2 * _dense_symmetric(15, 6),
        blocks,
    ])


def _sweeps_taken(m, monkeypatch):
    """Fewest sweeps after which the solver's output is already final."""
    final = linalg.eig_symmetric(m).eigenvectors.tobytes()
    solve = linalg._jacobi_sweeps
    with monkeypatch.context() as patch:
        for sweeps in range(100):
            patch.setattr(linalg, "_jacobi_sweeps", partial(solve, max_sweeps=sweeps))
            if linalg.eig_symmetric(m).eigenvectors.tobytes() == final:
                return sweeps
    raise AssertionError("no sweep count reproduces the output")


def test_stacked_call_matches_one_matrix_calls(monkeypatch):
    stack = _mixed_stack()
    assert [_sweeps_taken(m, monkeypatch) for m in stack] == [6, 0, 0, 1, 3, 5]
    got = linalg.eig_symmetric(stack)
    assert got.eigenvalues.shape == (6, 15) and got.eigenvectors.shape == (6, 15, 15)
    for m, values, vectors in zip(stack, got.eigenvalues, got.eigenvectors):
        one = linalg.eig_symmetric(m)
        assert values.tobytes() == one.eigenvalues.tobytes()
        assert vectors.tobytes() == one.eigenvectors.tobytes()
    # any leading shape is one stack
    grid = linalg.eig_symmetric(stack.reshape(2, 3, 15, 15))
    assert grid.eigenvalues.tobytes() == got.eigenvalues.tobytes()
    assert grid.eigenvectors.tobytes() == got.eigenvectors.tobytes()
    assert grid.eigenvectors.shape == (2, 3, 15, 15)


@pytest.mark.parametrize("shape", [(), (4,), (0, 0), (2, 3, 4), (3, 1, 2), (3, 0, 0)])
def test_eig_rejects_nonsquare_stacks(shape):
    with pytest.raises(InvalidInputError):
        linalg.eig_symmetric(np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eig_rejects_non_finite_entries(bad):
    stack = _mixed_stack()
    stack[4, 2, 7] = bad
    with pytest.raises(InvalidInputError):
        linalg.eig_symmetric(stack)
    with pytest.raises(InvalidInputError):
        linalg.eig_symmetric(stack[4])


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
