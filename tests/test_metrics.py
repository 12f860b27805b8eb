import math

import numpy as np
import pytest

from saabcodec import metrics
from saabcodec.errors import DegenerateInputError, InvalidInputError
from saabcodec.linalg import covariance
from saabcodec.transforms import DCT_64


def test_qp_to_qstep():
    assert metrics.qp_to_qstep(4) == pytest.approx(1.0)
    assert metrics.qp_to_qstep(10) == pytest.approx(2.0)
    assert metrics.qp_to_qstep(22) == pytest.approx(2.0 ** 3)


def test_qp_to_lambda():
    assert metrics.qp_to_lambda(12) == pytest.approx(0.57)
    assert metrics.qp_to_lambda(15) == pytest.approx(0.57 * 2.0)


def test_kappa_low_sigma_branch_exact():
    assert abs(metrics.kappa(1.0, 10.0, 1.0) - 100.0 / 112.0) < 1e-12


def test_kappa_zero_sigma():
    q, lam = metrics.qp_to_qstep(32), metrics.qp_to_lambda(32)
    assert metrics.kappa(0.0, q, lam) == 0.0
    with pytest.raises(InvalidInputError):
        metrics.kappa(-1.0, q, lam)


@pytest.mark.parametrize("nan_at", [0, 1, 2], ids=["sigma", "q_step", "lam"])
def test_kappa_rejects_nan(nan_at):
    args = [1.0, 1.0, 0.5]
    args[nan_at] = math.nan
    with pytest.raises(InvalidInputError):
        metrics.kappa(*args)


def test_kappa_rate_term_joins_continuously():
    thresh = 1.0 / metrics.SQRT2_E
    below = metrics.kappa(thresh * (1 - 1e-9), 1.0, 0.5)
    above = metrics.kappa(thresh * (1 + 1e-9), 1.0, 0.5)
    assert abs(above - below) < 1e-6


def test_energy_compaction_monotone_and_normalized():
    rng = np.random.default_rng(0)
    y = rng.normal(0, 3, size=(500, 64))
    var = float(np.var(y))  # treat the raw samples as the input signal
    curve = metrics.energy_compaction(covariance(y), var)
    assert len(curve.values) == 64
    assert all(b >= a for a, b in zip(curve.values, curve.values[1:]))
    assert curve.values[-1] == pytest.approx(np.mean(np.sum(y * y, axis=1)) / (64 * var))
    # descending per-position energy order
    energies = np.mean(y * y, axis=0)
    assert list(curve.position_order) == list(np.argsort(-energies, kind="stable"))


def test_decorrelation_cost_ordering():
    rng = np.random.default_rng(1)
    indep = rng.normal(size=(4000, 8))
    mix = indep @ np.array(
        [[1.0 if i == j else 0.4 for j in range(8)] for i in range(8)]
    )
    assert metrics.decorrelation_cost(covariance(indep)) < metrics.decorrelation_cost(covariance(mix))


def test_decorrelation_cost_rejects_non_finite_values():
    moment = covariance(np.random.default_rng(1).normal(size=(100, 64)))
    moment[7, 3] = np.nan
    with pytest.raises(InvalidInputError, match="non-finite"):
        metrics.decorrelation_cost(moment)
    with pytest.raises(InvalidInputError, match="non-finite"):
        metrics.energy_compaction(moment, 1.0)


@pytest.mark.parametrize("shape", [(64,), (64, 63), (2, 64, 64), (0, 0)])
def test_moment_metrics_reject_non_square_moments(shape):
    # a coefficient set, (n, 64), is not a moment
    for call in (metrics.decorrelation_cost, lambda m: metrics.energy_compaction(m, 1.0),
                 lambda m: metrics.coeff_stats(DCT_64, m)):
        with pytest.raises(InvalidInputError, match="square second-moment"):
            call(np.ones(shape))


@pytest.mark.parametrize(
    "call",
    [
        lambda: metrics.decorrelation_cost("x"),
        lambda: metrics.energy_compaction([[1, 2], [3]], 1.0),
        lambda: metrics.residual_sample_variance("x"),
    ],
    ids=["decorrelation-str", "compaction-ragged", "variance-str"],
)
def test_metrics_reject_non_numeric_input(call):
    with pytest.raises(InvalidInputError, match="not a numeric array"):
        call()


def test_energy_compaction_rejects_non_positive_input_variance():
    y = np.zeros((10, 64))
    for var in (0.0, -1.0):
        with pytest.raises(DegenerateInputError):
            metrics.energy_compaction(covariance(y), var)


def test_compare_transforms_zero_for_identical_stats():
    rng = np.random.default_rng(3)
    y = rng.normal(size=(200, 64))
    stats = metrics.coeff_stats(DCT_64, covariance(y))
    cmp_ = metrics.compare_transforms(stats, stats, 37)
    assert cmp_.delta_kappa == 0.0
    assert cmp_.delta_sigma2 == 0.0


def test_coeff_stats_clips_rounded_zero_variances():
    # rows that differ by a constant: every AC coefficient's variance is 0,
    # and M C M^T rounds some of them below it
    b = np.random.default_rng(5).integers(-200, 200, size=64).astype(np.float64)
    x = np.stack([b, b + 3, b - 5, b + 1])
    s, n = x.sum(axis=0), len(x)
    variance = metrics.coeff_stats(DCT_64, covariance(x) - np.outer(s, s) / (n * n))
    assert variance[0] == pytest.approx(np.var(x.sum(axis=1) / 8)) and np.all(variance >= 0.0)
    assert np.all(variance[1:] < 1e-20)
    metrics.compare_transforms(variance, variance, 22)


def test_residual_sample_variance():
    blocks = np.stack([np.zeros((8, 8)), np.ones((8, 8))])
    v = metrics.residual_sample_variance(blocks)
    assert v == pytest.approx(0.25)
