from functools import partial

import numpy as np
import pytest

from saabcodec import transforms as tf
from saabcodec.errors import InsufficientDataError, InvalidInputError
from saabcodec.kernelio import KernelBank
from saabcodec.linalg import covariance


@pytest.fixture(scope="module")
def training_data():
    rng = np.random.default_rng(5)
    return rng.laplace(0, 8, size=(2000, 64))


@pytest.fixture(scope="module")
def saab1(training_data):
    return tf.learn_saab1(training_data)


@pytest.fixture(scope="module")
def saab2(training_data):
    return tf.learn_saab2(training_data)


def test_dct_matrix_orthonormal():
    for n in (2, 4, 8):
        d = tf.dct_matrix(n)
        assert np.max(np.abs(d @ d.T - np.eye(n))) < 1e-12


def test_dct64_is_separable_kron():
    d8 = tf.dct_matrix(8)
    assert np.allclose(tf.DCT_64, np.kron(d8, d8))


def test_dct_roundtrip():
    rng = np.random.default_rng(6)
    x = rng.normal(size=64)
    assert np.max(np.abs(tf.dct_inverse(tf.dct_forward(x)) - x)) < 1e-12


def test_saab_dc_kernel_and_bias(saab1, training_data):
    assert np.allclose(saab1.matrix[0], np.full(64, 1.0 / 8.0))
    assert saab1.bias[0] == 0.0
    expected = np.max(np.linalg.norm(training_data, axis=1))
    assert np.allclose(saab1.bias[1:], expected)


def test_saab_orthonormal_and_roundtrip(saab1):
    assert saab1.orthonormality_error() < 1e-10
    rng = np.random.default_rng(7)
    x = rng.normal(size=64)
    for mode in ("centered", "raw"):
        y = tf.saab_forward(saab1, x, bias_mode=mode)
        assert np.max(np.abs(tf.saab_inverse(saab1, y, bias_mode=mode) - x)) < 1e-10


def test_bias_modes_differ_by_bias(saab1):
    x = np.arange(64, dtype=np.float64)
    yc = tf.saab_forward(saab1, x, bias_mode="centered")
    yr = tf.saab_forward(saab1, x, bias_mode="raw")
    assert np.allclose(yr - yc, saab1.bias)


def test_learning_is_deterministic(training_data):
    k1 = tf.learn_saab1(training_data.copy())
    k2 = tf.learn_saab1(training_data.copy())
    assert np.array_equal(k1.matrix, k2.matrix)
    assert np.array_equal(k1.bias, k2.bias)


def test_degenerate_training_data_still_orthonormal():
    # constant blocks: the DC-removed covariance is exactly zero
    d = np.full((100, 64), 3.0)
    k = tf.learn_saab1(d)
    assert k.orthonormality_error() < 1e-10
    assert np.max(np.abs(k.matrix[1:] @ np.ones(64))) < 1e-10


def test_insufficient_samples():
    with pytest.raises(InsufficientDataError):
        tf.learn_saab1(np.zeros((10, 64)))


def test_klt_zero_bias_and_roundtrip(training_data):
    k = tf.learn_klt(training_data)
    assert np.all(k.bias == 0)
    assert k.orthonormality_error() < 1e-10
    x = training_data[0]
    assert np.max(np.abs(tf.saab_inverse(k, tf.saab_forward(k, x)) - x)) < 1e-10


def test_round_kernel(saab1):
    # a kernel is rounded as part of a bank; the digits live in the bank's meta
    r = KernelBank(kernels=(saab1,), meta={}).rounded(2)
    assert np.array_equal(r.kernels[0].matrix, np.round(saab1.matrix, 2))
    assert np.array_equal(r.kernels[0].bias, np.round(saab1.bias, 2))
    assert r.meta["decimal_digits"] == 2
    # coarse rounding breaks exact orthonormality; fine rounding keeps it tiny
    fine = KernelBank(kernels=(saab1,), meta={}).rounded(12).kernels[0]
    assert fine.orthonormality_error() < 1e-10


def test_saab2_structure_and_roundtrip(training_data):
    # a two-stage kernel is one composed SaabKernel, applied as any other
    k2 = tf.learn_saab2(training_data)
    assert isinstance(k2, tf.SaabKernel)
    assert tf.saab2_forward is tf.saab_forward and tf.saab2_inverse is tf.saab_inverse
    assert k2.matrix.shape == (64, 64) and k2.bias.shape == (64,)
    assert k2.orthonormality_error() < 1e-10
    x = training_data[1]
    for mode in ("centered", "raw"):
        y = tf.saab2_forward(k2, x, bias_mode=mode)
        assert y.shape == (64,)
        assert np.max(np.abs(tf.saab2_inverse(k2, y, bias_mode=mode) - x)) < 1e-10


def _cascade_saab2(d):
    """Reference two-stage Saab cascade on the same training as learn_saab2:
    a 16-dim stage over the 4x4 sub-blocks, then per channel c a 4-dim stage
    over its 2x2 grid, output c*4+j.  Returns (forward, inverse), each taking
    (T, 64) arrays and whether to apply the biases."""
    subs = tf._split_subblocks(d)
    (k1,) = tf._learn_stages([tf._stage_statistics(subs.reshape(-1, 16))])
    # Stage 2 trains on the raw outputs y1 + b1, but its AC kernels see their
    # moment only projected off DC, where the shift cancels; the moment of the
    # unshifted outputs is the same matrix with far less rounding.
    y1 = subs @ k1.matrix.T
    k2 = tf._learn_stages(
        (covariance(y1[:, :, c]), tf._stage_statistics(y1[:, :, c] + k1.bias[c])[1]) for c in range(16)
    )
    m2, b2 = np.array([k.matrix for k in k2]), np.array([k.bias for k in k2])

    def forward(x, raw):
        y1 = tf._split_subblocks(x) @ k1.matrix.T + raw * k1.bias
        return (np.einsum("cjg,tgc->tcj", m2, y1) + raw * b2).reshape(-1, 64)

    def inverse(y, raw):
        y2 = y.reshape(-1, 16, 4) - raw * b2
        y1 = np.einsum("cjg,tcj->tgc", m2, y2) - raw * k1.bias
        # (t, gy, gx, row, col) back to raster (t, gy, row, gx, col)
        return (y1 @ k1.matrix).reshape(-1, 2, 2, 4, 4).swapaxes(2, 3).reshape(-1, 64)

    return forward, inverse


@pytest.mark.parametrize("bias_mode", ["centered", "raw"])
def test_saab2_matches_the_cascade(training_data, saab2, bias_mode):
    forward, inverse = _cascade_saab2(training_data)
    raw = bias_mode == "raw"
    x = np.random.default_rng(9).normal(0, 25, size=(2000, 64))
    y = tf.saab2_forward(saab2, x, bias_mode=bias_mode)
    tol = 1e-12 * np.max(np.abs(y))
    assert np.max(np.abs(y - forward(x, raw))) < tol
    assert np.max(np.abs(tf.saab2_inverse(saab2, y, bias_mode=bias_mode) - inverse(y, raw))) < tol
    # the cascade itself inverts, so the reference is not vacuous
    assert np.max(np.abs(inverse(forward(x, raw), raw) - x)) < 1e-10


def test_saab2_is_energy_preserving(training_data):
    # both stages are orthonormal, so the composition preserves norms
    k2 = tf.learn_saab2(training_data)
    x = training_data[2]
    y = tf.saab2_forward(k2, x, bias_mode="centered")
    assert abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-9


@pytest.mark.parametrize(
    "kind", ["dct", "saab-centered", "saab-raw", "saab2-centered", "saab2-raw"]
)
def test_batched_calls_match_single_block_calls(kind, saab1, saab2):
    if kind == "dct":
        fwd, inv = tf.dct_forward, tf.dct_inverse
    else:
        name, bias_mode = kind.split("-")
        kernel, fwd, inv = {
            "saab": (saab1, tf.saab_forward, tf.saab_inverse),
            "saab2": (saab2, tf.saab2_forward, tf.saab2_inverse),
        }[name]
        fwd = partial(fwd, kernel, bias_mode=bias_mode)
        inv = partial(inv, kernel, bias_mode=bias_mode)
    rng = np.random.default_rng(8)
    x = rng.normal(0, 25, size=(200, 64))

    y = fwd(x)
    assert y.shape == (200, 64)
    assert np.max(np.abs(y - np.array([fwd(v) for v in x]))) < 1e-12
    blocks = x.reshape(200, 8, 8)
    assert np.max(np.abs(fwd(blocks) - np.array([fwd(b) for b in blocks]))) < 1e-12
    assert np.max(np.abs(fwd(x.reshape(10, 20, 64)).reshape(200, 64) - y)) < 1e-12
    back = inv(y)
    assert np.max(np.abs(back - np.array([inv(v) for v in y]))) < 1e-12
    assert np.max(np.abs(back - x)) < 1e-10

    assert fwd(x[0]).shape == fwd(blocks[0]).shape == inv(y[0]).shape == (64,)
    ragged = [np.zeros(64), np.zeros(63)]
    for bad in (np.float64(1.0), np.zeros(63), np.zeros((5, 63)), np.zeros((8, 4)), ragged):
        with pytest.raises(InvalidInputError):
            fwd(bad)
        with pytest.raises(InvalidInputError):
            inv(bad)
    with pytest.raises(InvalidInputError):
        inv(blocks)  # inverses take coefficient vectors only


@pytest.mark.parametrize("kernel", [None, np.eye(64), {"matrix": np.eye(64), "bias": np.zeros(64)}])
def test_saab_transforms_reject_a_kernel_of_another_kind(kernel):
    for call in (tf.saab_forward, tf.saab_inverse):
        with pytest.raises(InvalidInputError, match="SaabKernel"):
            call(kernel, np.zeros(64))
