"""The covariance-grid evaluation of the fluctuation moments: the reference
that ``claimcast.engine.fluctuation_moments`` is tested against, and a
builder of daily increments for the tests.

It cumulates the daily increments into the limit's mean path and
(N+1) x (N+1) covariance grid anchored at zero on day -W, takes each age's
window increment from four grid evaluations, and reduces the (W+1) x (W+1) window
moments against the weights of r(u) m(du).  It costs O(N^2) memory, so it
lives in the tests only.
"""

import numpy as np

from claimcast.core import FluctuationIncrements, MeanClaimsMeasure, RebateFunction


def daily_increments(w, t, offset=0, mean=0.0, scale=1.0, acf=()):
    """Daily increments over days -W+1 .. T+offset; ``acf`` gives the
    autocorrelation at lags 1, 2, ... and is zero beyond."""
    days = w + t + offset
    lags = np.zeros(days)
    lags[0] = 1.0
    lags[1 : 1 + len(acf)] = acf
    return FluctuationIncrements(
        mean=np.zeros(days) + mean,
        scale=np.zeros(days) + scale,
        acf=lags,
    )


def age_weights(measure: MeanClaimsMeasure, rebate: RebateFunction) -> np.ndarray:
    """Trapezoid weights of r(u) m(du) on ages 0..W, atoms as point masses."""
    w = measure.warranty
    u = np.arange(w + 1, dtype=float)
    trap = np.ones(w + 1)
    trap[0] = trap[-1] = 0.5
    weights = trap * np.asarray(rebate(u)) * measure.density(u)
    weights[0] += measure.atom0 * float(rebate(0.0))
    weights[w] += measure.atomW * float(rebate(float(w)))
    return weights


def increment_grids(increments):
    """Mean path and covariance grid of the process on days -W .. T+offset,
    anchored at zero on the first."""
    n = len(increments.mean)
    lag = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    scale = increments.scale
    incr_cov = np.outer(scale, scale) * increments.acf[lag]
    mean = np.zeros(n + 1)
    mean[1:] = np.cumsum(increments.mean)
    cov = np.zeros((n + 1, n + 1))
    cov[1:, 1:] = incr_cov.cumsum(axis=0).cumsum(axis=1)
    return mean, cov


def window_moments(mean, cov, anchor, horizon):
    """Mean vector and (W+1) x (W+1) covariance of each age's window
    increment, from the process grids on days anchor .. anchor + len(mean)
    - 1: age u's window increment is the process at T + offset - u minus
    the process at offset - u."""
    u = np.arange(horizon.warranty + 1)
    hi = horizon.period + horizon.offset - u - anchor
    lo = horizon.offset - u - anchor
    cross = cov[np.ix_(hi, lo)]
    chi_cov = cov[np.ix_(hi, hi)] + cov[np.ix_(lo, lo)] - cross - cross.T
    return mean[hi] - mean[lo], chi_cov


def moments_by_grid(mean, cov, anchor, measure, rebate, horizon):
    """Fluctuation mean and variance: the window moments reduced against
    the weights of r(u) m(du)."""
    chi_mean, chi_cov = window_moments(mean, cov, anchor, horizon)
    weights = age_weights(measure, rebate)
    return float(weights @ chi_mean), float(weights @ chi_cov @ weights)
