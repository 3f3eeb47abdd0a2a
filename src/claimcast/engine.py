"""Limit parameters and the distributional cost approximations.

``LimitParams`` collects the four quadrature outputs (mean/variance claim
rates and the sales-fluctuation mean/variance); ``cost_approx_normal`` and
``cost_approx_stable`` turn them into evaluable normal or stable
approximations of the total cost over the forecast window.  The claim
count and the pro-rata cost are the normal law at a fixed claim size (1
and the unit price), and the tail index alone picks the stable law.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import (
    FluctuationIncrements,
    MeanClaimsMeasure,
    RebateFunction,
    TimeHorizon,
    range_sums,
)
from .errors import DomainError, NumericalError
from .stable import (
    StableParams,
    params_eq_one_case,
    params_mean_case,
    params_zero_one_case,
    stable_cdf,
    stable_quantile,
)
from .tails import tail_scalers

logger = logging.getLogger(__name__)

__all__ = [
    "LimitParams",
    "CostApproximation",
    "rate_constants",
    "fluctuation_moments",
    "cost_approx_normal",
    "cost_approx_stable",
    "approx_cdf",
    "approx_quantile",
    "extremeness",
]

# standard normal CDF and quantile, elementwise; within 2.2e-16 absolute and
# 1e-15 relative of scipy's ndtr and ndtri
_ndtr = np.frompyfunc(lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0)), 1, 1)
try:  # the routine NormalDist().inv_cdf calls, without importing statistics
    from _statistics import _normal_dist_inv_cdf
except ImportError:  # a Python without the C accelerator
    from statistics import NormalDist

    _ndtri = np.frompyfunc(NormalDist().inv_cdf, 1, 1)
else:
    _ndtri = np.frompyfunc(lambda p: _normal_dist_inv_cdf(p, 0.0, 1.0), 1, 1)


@dataclass(frozen=True)
class LimitParams:
    """Ingredients of the limit laws for one forecast window.

    ``claims_mean`` / ``claims_var`` integrate the per-sale-day mean and
    variance grids against the sales share; ``fluct_mean`` / ``fluct_var``
    capture the sales-fluctuation contribution.
    """

    claims_mean: float
    claims_var: float
    fluct_mean: float
    fluct_var: float
    horizon: TimeHorizon

    def __post_init__(self):
        if self.claims_mean < 0.0 or self.claims_var < 0.0 or self.fluct_var < 0.0:
            raise DomainError("rate and variance parameters must be non-negative")


def rate_constants(
    mean_grid: np.ndarray, var_grid: np.ndarray, nu: np.ndarray
) -> Tuple[float, float]:
    """Trapezoid quadrature (c1, c2) of daily moment grids against a share.

    ``nu[k]`` is the sales share at the grid's day k.  Day t carries weight
    nu(t) - nu(t-1) applied to the midpoint of the grid values at t-1 and
    t; exact for grids constant in t.
    """
    dnu = np.diff(nu)
    c1 = float(np.sum(0.5 * (mean_grid[1:] + mean_grid[:-1]) * dnu))
    c2 = float(np.sum(0.5 * (var_grid[1:] + var_grid[:-1]) * dnu))
    return c1, c2


def fluctuation_moments(
    increments: FluctuationIncrements,
    mean_measure: MeanClaimsMeasure,
    rebate: RebateFunction,
    horizon: TimeHorizon,
) -> Tuple[float, float]:
    """Mean and variance of the fluctuation integral against r(u) m(du).

    Age u sees the daily increments on days (offset - u, T + offset - u]:
    the sale days of its window, :meth:`TimeHorizon.sale_day_range` (u, u),
    without the first one.  The density part of r(u) m(du) integrates by
    the trapezoid rule on ages 0..W and the atoms enter as exact point
    masses weighted by r(0), r(W).  Summed over the windows that hold day
    k (by :func:`claimcast.core.range_sums`), these age weights give the
    day's exposure a_k, so the mean is a . E[increment] and the
    variance the quadratic form of a in the increment covariance:
    acf[0] c[0] + 2 sum_{l>=1} acf[l] c[l] with c the autocorrelation of
    y = a * scale, acf zero beyond lag min(N - 1, W) in an estimated
    record.  No day-by-day grid is built.  Only the record's first
    W + T + offset days are read, so the one record a report assembles,
    for its last window, serves every window.  A variance below -1e-8
    indicates an increment covariance that is not positive semidefinite
    and raises; small negatives from rounding are floored at zero.
    """
    w, t = horizon.warranty, horizon.period
    if mean_measure.warranty != w:
        raise DomainError("mean measure and horizon differ in warranty length")
    u = np.arange(w + 1, dtype=float)
    trap = np.ones(w + 1)
    trap[0] = trap[-1] = 0.5
    weights = trap * np.asarray(rebate(u)) * mean_measure.density(u)
    weights[0] += mean_measure.atom0 * float(rebate(0.0))
    weights[w] += mean_measure.atomW * float(rebate(float(w)))

    days = w + t + horizon.offset
    if len(increments.mean) < days:
        raise DomainError("daily increments do not cover the forecast window")
    # entry k is the increment over day k - W + 1
    start, end = horizon.sale_day_range(u, u)
    exposure = range_sums(start + 1, end, weights, 1 - w, days)

    mu = float(exposure @ increments.mean[:days])
    y = exposure * increments.scale[:days]
    c = np.correlate(y, y, "full")[days - 1 :]
    acf = increments.acf[:days]
    var = float(acf[0] * c[0] + 2.0 * (acf[1:] @ c[1:]))
    if var < -1e-8:
        raise NumericalError(f"fluctuation variance {var:.3e} violates PSD")
    if var < 0.0:
        logger.warning("flooring slightly negative fluctuation variance %.3e", var)
        var = 0.0
    return mu, var


@dataclass(frozen=True)
class CostApproximation:
    """A location/scale family: normal when ``stable`` is None, otherwise
    an affine image of that stable law."""

    location: float
    scale: float
    stable: Optional[StableParams] = None

    def __post_init__(self):
        if self.scale <= 0.0:
            raise DomainError("scale must be positive")


def cost_approx_normal(
    lp: LimitParams, mean_size: float = 1.0, var_size: float = 0.0
) -> CostApproximation:
    """Finite-variance cost limit:
    mean n c1 E + sqrt(n) E mu, variance n (V c1 + E^2 (c2 + sigma^2)).

    The defaults E = 1, V = 0 give the claim count; a pro-rata cost is the
    count at fixed size E = c_b, since the rebate weights are already
    inside c1 and c2.  A location or variance that overflows raises
    :class:`NumericalError`.
    """
    if var_size < 0.0:
        raise DomainError("size variance must be non-negative")
    n = lp.horizon.scale
    e, v = mean_size, var_size
    location = n * lp.claims_mean * e + math.sqrt(n) * e * lp.fluct_mean
    try:
        var = n * (v * lp.claims_mean + e**2 * (lp.claims_var + lp.fluct_var))
    except OverflowError:  # a float power raises where a product gives inf
        var = math.inf
    if not (math.isfinite(location) and math.isfinite(var)):
        raise NumericalError(
            f"cost approximation not finite: location {location:.6g}, "
            f"variance {var:.6g}"
        )
    if var <= 0.0:
        raise DomainError("degenerate cost approximation (zero variance)")
    return CostApproximation(location=float(location), scale=float(np.sqrt(var)))


def cost_approx_stable(
    lp: LimitParams,
    alpha: float,
    mean_size: Optional[float] = None,
    size_scale: float = 1.0,
) -> CostApproximation:
    """Heavy-tail cost limit for sizes with tail index 0 < alpha < 2.

    b(n) and e(n) are the Pareto plug-ins of :func:`tail_scalers` at
    ``size_scale`` (the Pareto xm), which rejects a scale that is not
    positive and finite.  For 1 < alpha < 2 the cost is
    n c1 E plus b(n) c1^(1/alpha) times the standard skewed stable law;
    for alpha <= 1 it is n c1 e(n) plus b(n) times the stable law at
    intensity c1.

    For alpha strictly below 1 this departs from the published location
    n c1^(1/alpha) e(n).  The window cost is a compound sum with claim
    intensity n c1, so its truncated mean, and the centering under which
    (S - center) / b(n) tends to the intensity-c1 stable law, is
    n c1 e(n) (Samorodnitsky and Taqqu, Stable Non-Gaussian Random
    Processes, 1994).  The published form mis-centers by
    (c1^(1/alpha) - c1) alpha/(1 - alpha) in units of b(n); the two agree
    at alpha = 1, where the location is n c1 log n and the intensity-c1
    law needs no further shift: its Levy measure c1 x^-2 dx is
    compensated on (0, 1], which is exactly the limit of
    (S - n c1 log n) / n.
    """
    c1 = lp.claims_mean
    if c1 <= 0.0:
        raise DomainError("c1 must be positive")
    n = lp.horizon.scale
    b_n, e_n = tail_scalers(alpha, n, size_scale)
    if alpha > 1.0:
        if mean_size is None:
            raise DomainError("1 < alpha < 2 needs the mean claim size")
        return CostApproximation(
            location=n * c1 * mean_size,
            scale=b_n * c1 ** (1.0 / alpha),
            stable=params_mean_case(alpha),
        )
    return CostApproximation(
        location=n * c1 * e_n,
        scale=b_n,
        stable=params_eq_one_case(c1)
        if alpha == 1.0
        else params_zero_one_case(alpha, c1),
    )


def approx_cdf(approx: CostApproximation, x):
    """CDF of the approximating law at x; an array of points gives an array,
    from one stable CDF call."""
    points = np.asarray(x, dtype=float)
    if approx.stable is None:
        cdf = np.asarray(_ndtr((points - approx.location) / approx.scale), dtype=float)
    else:
        cdf = stable_cdf(approx.stable, (points - approx.location) / approx.scale)
    return float(cdf) if points.ndim == 0 else cdf


def approx_quantile(approx: CostApproximation, p):
    """Quantile of the approximating law at level p in (0, 1); an array of
    levels gives an array, from one stable quantile call."""
    levels = np.asarray(p, dtype=float)
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise DomainError("quantile level must lie in (0, 1)")
    if approx.stable is None:
        q = approx.location + approx.scale * np.asarray(_ndtri(levels), dtype=float)
    else:
        q = approx.location + approx.scale * stable_quantile(approx.stable, levels)
    return float(q) if levels.ndim == 0 else q


def extremeness(u: float) -> float:
    """Two-sided tail probability of a uniform variate: 2 min(u, 1 - u)."""
    if not (0.0 <= u <= 1.0):
        raise DomainError("probability must lie in [0, 1]")
    return 2.0 * min(u, 1.0 - u)
