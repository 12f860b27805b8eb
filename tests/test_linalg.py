import hashlib

import numpy as np
import pytest

from saabcodec import linalg
from saabcodec.errors import InsufficientDataError, InvalidInputError


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
        "c8978f76732ecb5b6e71eb490445a40c05509bc3ce8b545ffa2f92ede8489479",
        "be41631c66328e19a4e258584a24f1b4b2470cea4d360faa629e03b22dd82398",
    ),
    "dense-15": (
        "a8f4131a0f29567e4b08c558cd2b6a7ef786e957c18f9fda379f339fd8556565",
        "073b57cacbdcba1f32fe1b80a003971773e34889a33ed48edc994810d26909d3",
    ),
    "dense-3": (
        "06b61f047856fe16e27ef92cbc8bbdb5a7837284e2a0d665654eca53a90eaf98",
        "2adfcd9dab6a86c6d8dcfd31007312d6e6db6c6047127651ce57a56f2909ee27",
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
        "1a5d871563e2fa388f8bacea3cd7f5f3bd0667723094c0f5314d2e60d98a7bbc",
        "445bbae25a9c10e64e0f510448cfd51d7c4c0fbd4690b69ecb4fee6e677fa088",
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
    for bad in (np.zeros((3, 4)), "abc", [[1, 2], [3]]):  # also non-numeric and ragged
        with pytest.raises(InvalidInputError):
            linalg.eig_symmetric(bad)


def _mixed_stack(n=15):
    """n x n matrices that stop after different numbers of sweeps: none for
    the zero and two diagonal ones, one for a single off-diagonal pair, a
    few for a nearly diagonal one, more for dense and block-diagonal ones.
    One diagonal entry is -0.0, which must come back as -0.0 however long
    the rest of the stack keeps rotating."""
    pair = np.diag(np.arange(float(n)))
    pair[3, 9] = pair[9, 3] = 0.5
    blocks = np.zeros((n, n))
    blocks[:6, :6] = _dense_symmetric(6, 5)
    blocks[6:, 6:] = _dense_symmetric(n - 6, 5)
    signed_zero = np.diag(np.arange(n) - 5.0)
    signed_zero[5, 5] = -0.0
    return np.array([
        _dense_symmetric(n, 5),
        np.zeros((n, n)),
        np.diag(np.arange(float(n)) % 4),
        pair,
        np.diag(np.arange(1.0, n + 1.0)) + 1e-2 * _dense_symmetric(n, 6),
        blocks,
        signed_zero,
    ])


def _sweeps_taken(m, monkeypatch):
    """Fewest sweeps after which the solver's output is already final."""
    final = _digests(linalg.eig_symmetric(m))
    with monkeypatch.context() as patch:
        for sweeps in range(100):
            patch.setattr(linalg, "_MAX_SWEEPS", sweeps)
            if _digests(linalg.eig_symmetric(m)) == final:
                return sweeps
    raise AssertionError("no sweep count reproduces the output")


@pytest.mark.parametrize("e", [2, 4, 16, 64])
def test_round_robin_schedule_covers_every_pair_once(e):
    p, q = linalg._round_robin(e)
    assert p.shape == q.shape == (e - 1, e // 2)
    assert np.all(p < q)
    for round_p, round_q in zip(p, q):  # each round's pairs are disjoint
        assert sorted(np.concatenate([round_p, round_q])) == list(range(e))
    pairs = sorted(zip(p.ravel().tolist(), q.ravel().tolist()))
    assert pairs == [(i, j) for i in range(e) for j in range(i + 1, e)]


@pytest.mark.parametrize(
    "n, sweeps", [(15, [6, 0, 0, 1, 3, 5, 0]), (16, [6, 0, 0, 1, 3, 6, 0])], ids=["15", "16"]
)
def test_stacked_call_matches_one_matrix_calls(n, sweeps, monkeypatch):
    stack = _mixed_stack(n)
    assert [_sweeps_taken(m, monkeypatch) for m in stack] == sweeps
    got = linalg.eig_symmetric(stack)
    assert got.eigenvalues.shape == (7, n) and got.eigenvectors.shape == (7, n, n)
    for m, values, vectors in zip(stack, got.eigenvalues, got.eigenvectors):
        one = linalg.eig_symmetric(m)
        assert values.tobytes() == one.eigenvalues.tobytes()
        assert vectors.tobytes() == one.eigenvectors.tobytes()
    zero = got.eigenvalues[6][got.eigenvalues[6] == 0.0]
    assert np.signbit(zero).tolist() == [True]  # the -0.0 kept its sign
    # any leading shape is one stack
    grid = linalg.eig_symmetric(stack[1:].reshape(2, 3, n, n))
    assert grid.eigenvalues.tobytes() == got.eigenvalues[1:].tobytes()
    assert grid.eigenvectors.tobytes() == got.eigenvectors[1:].tobytes()
    assert grid.eigenvectors.shape == (2, 3, n, n)


def test_padded_stack_matches_one_matrix_calls(monkeypatch):
    # n = 63, the bench's size, is padded to 64.  The block-diagonal and the
    # signed-zero matrix keep exact-zero pairs, so their rounds take the
    # np.where path; their -0.0 sits at index 62, the q of each of its pairs
    n = 63
    blocks = np.zeros((n, n))
    blocks[:20, :20] = _dense_symmetric(20, 11)
    blocks[20:, 20:] = _dense_symmetric(43, 11)
    signed_zero = np.zeros((n, n))
    signed_zero[:62, :62] = _dense_symmetric(62, 13)
    signed_zero[62, 62] = -0.0
    stack = np.array([
        _dense_symmetric(n, 7),
        blocks,
        np.diag(np.arange(float(n)) % 5),
        np.zeros((n, n)),
        signed_zero,
        np.diag(np.arange(1.0, n + 1.0)) + 1e-3 * _dense_symmetric(n, 6),
    ])
    assert [_sweeps_taken(m, monkeypatch) for m in stack] == [8, 7, 0, 0, 8, 2]
    got = linalg.eig_symmetric(stack)
    for m, values, vectors in zip(stack, got.eigenvalues, got.eigenvectors):
        one = linalg.eig_symmetric(m)
        assert values.tobytes() == one.eigenvalues.tobytes()
        assert vectors.tobytes() == one.eigenvectors.tobytes()
    assert _digests(linalg.EigenResult(got.eigenvalues[0], got.eigenvectors[0])) == EIG_DIGESTS["dense-63"]
    zero = got.eigenvalues[4][got.eigenvalues[4] == 0.0]
    assert np.signbit(zero).tolist() == [True]  # the -0.0 kept its sign


@pytest.mark.parametrize("value", [-2.5, 0.0, 3.0])
def test_one_by_one_and_diagonal_two_by_two_are_exact(value):
    one = linalg.eig_symmetric(np.array([[value]]))
    assert one.eigenvalues.tolist() == [value] and one.eigenvectors.tolist() == [[1.0]]
    two = linalg.eig_symmetric(np.diag([value, 4.0]))
    assert two.eigenvalues.tolist() == [4.0, value]
    assert two.eigenvectors.tolist() == [[0.0, 1.0], [1.0, 0.0]]


@pytest.mark.parametrize("a, b, d", [(2.0, 1.0, 2.0), (3.0, 1.0, -2.0), (1e-3, -5.0, 7.0)])
def test_two_by_two_is_one_rotation_to_its_closed_form(a, b, d, monkeypatch):
    m = np.array([[a, b], [b, d]])
    assert _sweeps_taken(m, monkeypatch) == 1
    got = linalg.eig_symmetric(m)
    root = np.hypot((a - d) / 2, b)
    want = np.array([(a + d) / 2 + root, (a + d) / 2 - root])
    tol = 1e-15 * abs(want).max()
    np.testing.assert_allclose(got.eigenvalues, want, rtol=0, atol=tol)
    v = got.eigenvectors
    np.testing.assert_allclose(v @ v.T, np.eye(2), rtol=0, atol=4e-16)
    np.testing.assert_allclose(v @ m @ v.T, np.diag(got.eigenvalues), rtol=0, atol=tol)


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


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_eig_rejects_non_finite_eigenpairs():
    # finite entries whose largest eigenvalue, 3e308, overflows to inf
    big = np.full((3, 3), 1e308)
    with pytest.raises(InvalidInputError, match="non-finite eigenpairs"):
        linalg.eig_symmetric(big)
    stack = np.array([big, np.diag([1.0, 2.0, 3.0])])
    with pytest.raises(InvalidInputError, match="non-finite eigenpairs"):
        linalg.eig_symmetric(stack)


def test_tiny_matrices_are_not_read_as_zero():
    # entries below about 1e-154 square to zero; the solver scales them first
    got = linalg.eig_symmetric(1e-170 * np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(got.eigenvalues, [3e-170, 1e-170], rtol=1e-15, atol=0)
    r = np.sqrt(0.5)
    np.testing.assert_allclose(got.eigenvectors, [[r, r], [r, -r]], rtol=0, atol=1e-15)
    got = linalg.eig_symmetric(np.diag([3e-170, 1e-170]))
    assert got.eigenvalues.tolist() == [3e-170, 1e-170]
    assert got.eigenvectors.tolist() == [[1.0, 0.0], [0.0, 1.0]]


@pytest.mark.parametrize("k", [-600, 600])
def test_power_of_two_scale_moves_no_bit(k):
    # the solver's own scale is exact, so a power-of-two scaled input gives
    # the same vectors and exactly scaled values
    m = _dense_symmetric(15, 5)
    one, scaled = linalg.eig_symmetric(m), linalg.eig_symmetric(np.ldexp(m, k))
    assert scaled.eigenvectors.tobytes() == one.eigenvectors.tobytes()
    assert scaled.eigenvalues.tobytes() == np.ldexp(one.eigenvalues, k).tobytes()


def test_tiny_matrix_in_a_stack_keeps_its_solo_bytes():
    tiny = 1e-170 * _dense_symmetric(15, 5)
    stack = linalg.eig_symmetric(np.array([tiny, _dense_symmetric(15, 6)]))
    for i, m in enumerate((tiny, _dense_symmetric(15, 6))):
        solo = linalg.eig_symmetric(m)
        assert stack.eigenvalues[i].tobytes() == solo.eigenvalues.tobytes()
        assert stack.eigenvectors[i].tobytes() == solo.eigenvectors.tobytes()
    assert np.all(np.abs(stack.eigenvalues[0]) > 0)


def test_dc_complement_basis():
    for k in (4, 16, 64):
        b = linalg.dc_complement_basis(k)
        assert b.shape == (k - 1, k)
        assert np.max(np.abs(b @ b.T - np.eye(k - 1))) < 1e-12
        assert np.max(np.abs(b @ np.ones(k))) < 1e-12


@pytest.mark.parametrize(
    "bad, error",
    [("x", InvalidInputError), ([[1, 2], [3]], InvalidInputError), (np.zeros(5), InvalidInputError),
     ([[1.0, np.nan]] * 2, InvalidInputError), (np.zeros((1, 4)), InsufficientDataError)],
    ids=["non-numeric", "ragged", "1-D", "nan", "one-sample"],
)
def test_covariance_rejects_bad_samples(bad, error):
    with pytest.raises(error):
        linalg.covariance(bad)


def test_covariance_no_mean_subtraction():
    rng = np.random.default_rng(2)
    x = rng.normal(loc=5.0, size=(100, 8))
    c = linalg.covariance(x)
    want = x.T @ x / 100
    assert np.allclose(c, 0.5 * (want + want.T))
    assert np.allclose(c, c.T)
