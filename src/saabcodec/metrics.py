"""Transform-quality analytics and the closed-form RD proxy.

Conventions pinned here:
  * QP -> quantization step: Q = 2**((QP-4)/6); lambda = 0.57 * 2**((QP-12)/3).
  * kappa(sigma, Q, lambda) takes a coefficient's standard deviation, the
    step and the multiplier; compare_transforms derives Q and lambda from
    the QP once.
  * Rate is measured in bits, so logs are base 2.
  * Energy compaction normalizes by 64 * (per-sample variance of the input
    residual set), so the curve ends near 1 for mean-free data, and ranks
    coefficient positions per transform by average energy, descending.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InsufficientDataError, InvalidInputError
from .linalg import VEC_LEN, covariance

SQRT2_E = math.sqrt(2.0) * math.e


def qp_to_qstep(qp):
    return 2.0 ** ((qp - 4) / 6.0)


def qp_to_lambda(qp):
    return 0.57 * 2.0 ** ((qp - 12) / 3.0)


def _as_coeff_matrix(coeff_sets):
    y = np.asarray(coeff_sets, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != VEC_LEN:
        raise InvalidInputError(f"expected (n, {VEC_LEN}) coefficient array, got {y.shape}")
    return y


@dataclass(frozen=True)
class CompactionCurve:
    """values[i-1] = cumulative transformed energy fraction using the i
    highest-energy coefficient positions."""

    values: np.ndarray
    position_order: np.ndarray


def residual_sample_variance(blocks):
    """Population variance of all residual samples in the set (scalar)."""
    x = np.asarray(blocks, dtype=np.float64).reshape(-1)
    return float(x.var())


def energy_compaction(coeff_sets, input_variance):
    y = _as_coeff_matrix(coeff_sets)
    if y.shape[0] == 0:
        raise InsufficientDataError("empty coefficient set")
    if input_variance <= 0:
        raise DegenerateInputError("input variance must be positive")
    mean_energy = np.mean(y * y, axis=0)
    order = np.argsort(-mean_energy, kind="stable")
    curve = np.cumsum(mean_energy[order]) / (VEC_LEN * input_variance)
    return CompactionCurve(values=curve, position_order=order)


def decorrelation_cost(coeff_sets):
    """Sum of |E[y_i * y_j]| over i != j, with the means taken as zero."""
    m = covariance(coeff_sets)
    return float(np.sum(np.abs(m)) - np.sum(np.abs(np.diag(m))))


@dataclass(frozen=True)
class CoeffStats:
    variance: np.ndarray
    sample_count: int


def coeff_stats(coeff_sets):
    y = _as_coeff_matrix(coeff_sets)
    if y.shape[0] < 2:
        raise InsufficientDataError("need at least 2 coefficient blocks")
    mean = y.mean(axis=0)
    cov = covariance(y - mean)
    return CoeffStats(variance=np.diag(cov).copy(), sample_count=y.shape[0])


def kappa(sigma_y, q_step, lam):
    """Closed-form RD cost of a Laplacian coefficient under uniform quantization.

    Distortion term sigma^2 Q^2 / (12 sigma^2 + Q^2) always; the rate term
    lambda * log2(sqrt(2) e sigma / Q) joins when sigma exceeds Q/(sqrt(2) e).
    """
    if sigma_y < 0:
        raise InvalidInputError("sigma must be non-negative")
    if sigma_y == 0.0:
        return 0.0
    s2 = sigma_y * sigma_y
    d = s2 * q_step * q_step / (12.0 * s2 + q_step * q_step)
    if sigma_y > q_step / SQRT2_E:
        return d + lam * math.log2(SQRT2_E * sigma_y / q_step)
    return d


@dataclass(frozen=True)
class TransformComparison:
    delta_kappa: float
    delta_sigma2: float
    kappa_saab: float
    kappa_dct: float


def compare_transforms(stats_saab, stats_dct, qp):
    """Aggregate kappa and variance differences at one QP; negative values
    favor Saab.

    Aggregates are arithmetic means over the 64 coefficient positions.
    """
    if stats_saab.sample_count != stats_dct.sample_count:
        raise InvalidInputError("mismatched sample counts between transform stats")
    q, lam = qp_to_qstep(qp), qp_to_lambda(qp)
    k_saab = np.array([kappa(math.sqrt(v), q, lam) for v in stats_saab.variance])
    k_dct = np.array([kappa(math.sqrt(v), q, lam) for v in stats_dct.variance])
    d_sigma2 = stats_saab.variance - stats_dct.variance
    return TransformComparison(
        delta_kappa=float(k_saab.mean() - k_dct.mean()),
        delta_sigma2=float(d_sigma2.mean()),
        kappa_saab=float(k_saab.mean()),
        kappa_dct=float(k_dct.mean()),
    )
