"""Transform-quality analytics and the closed-form RD proxy.

Conventions pinned here:
  * QP -> quantization step: Q = 2**((QP-4)/6); lambda = 0.57 * 2**((QP-12)/3).
  * kappa(sigma, Q, lambda) takes a coefficient's standard deviation, the
    step and the multiplier; compare_transforms derives Q and lambda from
    the QP once.
  * Rate is measured in bits, so logs are base 2.
  * Set statistics are read off a transform M's coefficient moment M C M^T
    for the set's moment C, not off coefficients: compaction ranks positions
    by its diagonal, descending, and normalizes by n * (per-sample variance
    of the input set) for an n x n moment, so it ends near 1 for mean-free
    data; decorrelation sums its off-diagonal.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .linalg import as_float64

SQRT2_E = math.sqrt(2.0) * math.e


def qp_to_qstep(qp):
    return 2.0 ** ((qp - 4) / 6.0)


def qp_to_lambda(qp):
    return 0.57 * 2.0 ** ((qp - 12) / 3.0)


def _as_moment(moment):
    """`moment` as a finite square float64 matrix; InvalidInputError otherwise."""
    m = as_float64(moment)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise InvalidInputError(f"expected a square second-moment matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("non-finite second-moment entries")
    return m


@dataclass(frozen=True)
class CompactionCurve:
    """values[i-1] = cumulative transformed energy fraction using the i
    highest-energy coefficient positions."""

    values: np.ndarray
    position_order: np.ndarray


def residual_sample_variance(blocks):
    """Population variance of all residual samples in the set (scalar)."""
    x = as_float64(blocks).reshape(-1)
    return float(x.var())


def energy_compaction(moment, input_variance):
    """Compaction curve of coefficients whose second moment is `moment`."""
    mean_energy = np.diag(_as_moment(moment))
    if input_variance <= 0:
        raise DegenerateInputError("input variance must be positive")
    order = np.argsort(-mean_energy, kind="stable")
    curve = np.cumsum(mean_energy[order]) / (len(mean_energy) * input_variance)
    return CompactionCurve(values=curve, position_order=order)


def decorrelation_cost(moment):
    """Sum of |E[y_i * y_j]| over i != j of a coefficient second moment."""
    m = _as_moment(moment)
    return float(np.sum(np.abs(m)) - np.sum(np.abs(np.diag(m))))


def coeff_stats(matrix, moment):
    """Variances of the coefficients `matrix` z of a set whose vectors z
    have the second moment `moment` about their mean: diag(M C M^T), the
    diagonal alone, with a rounded zero variance (-1e-30 or so) clipped to 0."""
    return np.maximum(np.einsum("aj,aj->a", np.einsum("ai,ij->aj", matrix, _as_moment(moment)), matrix), 0.0)


def kappa(sigma_y, q_step, lam):
    """Closed-form RD cost of a Laplacian coefficient under uniform quantization.

    Distortion term sigma^2 Q^2 / (12 sigma^2 + Q^2) always; the rate term
    lambda * log2(sqrt(2) e sigma / Q) joins when sigma exceeds Q/(sqrt(2) e).
    A negative or NaN sigma and a NaN Q or lambda raise InvalidInputError.
    """
    if not sigma_y >= 0 or math.isnan(q_step) or math.isnan(lam):
        raise InvalidInputError(f"kappa needs sigma >= 0 and no NaN, got {sigma_y}, {q_step}, {lam}")
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


def compare_transforms(var_saab, var_dct, qp):
    """Kappa and variance differences at one QP between two transforms'
    coefficient variances (coeff_stats) over one set, each the arithmetic
    mean over the 64 positions; negative values favor Saab."""
    q, lam = qp_to_qstep(qp), qp_to_lambda(qp)
    k_saab, k_dct = (float(np.mean([kappa(math.sqrt(v), q, lam) for v in x])) for x in (var_saab, var_dct))
    d_sigma2 = float(np.mean(var_saab - var_dct))
    return TransformComparison(delta_kappa=k_saab - k_dct, delta_sigma2=d_sigma2, kappa_saab=k_saab,
                               kappa_dct=k_dct)
