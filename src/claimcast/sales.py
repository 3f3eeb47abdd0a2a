"""Sales-curve fitting and the Gaussian fluctuation limit.

The deterministic sales share follows a Bass adoption curve fitted by
nonlinear least squares on daily (or k-day) count increments.  Residuals
against the fitted curve act as surrogates for the increments of the
limiting Gaussian fluctuation process; a trend/scale decomposition plus the
standardized residuals' mean, variance and autocorrelation describe the
limit's daily increments, extrapolated through the forecast window.  The
cost limit needs only the mean and variance of these increments summed
against per-day exposure weights, a linear and a quadratic form that
:func:`claimcast.engine.fluctuation_moments` evaluates directly, so no
covariance grid over days is ever built.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import Polynomial
from scipy.optimize import least_squares

from .core import FluctuationIncrements, TimeHorizon
from .errors import DomainError, FitError

logger = logging.getLogger(__name__)

__all__ = [
    "BassParams",
    "ResidualDecomposition",
    "fit_bass",
    "compute_residuals",
    "decompose_residuals",
    "assemble_fluctuation",
]

SCALE_FLOOR = 1e-8
BASS_START = (1e-4, 1e-2)  # (p, p + q) where the least-squares search starts


@dataclass(frozen=True)
class BassParams:
    """Bass adoption curve for cumulative sales.

    ``p`` is the innovation coefficient and ``q`` the imitation coefficient
    (both per day); the fitted share of total sales by day t is

        share(t) = (1 - e^{-(p+q)(t-origin)}) / (1 + (q/p) e^{-(p+q)(t-origin)})

    with ``origin`` the day adoption starts (share(origin) = 0) and ``n``
    the total observed sales the curve is scaled by.
    """

    p: float
    q: float
    n: int
    origin: float

    def __post_init__(self):
        if self.p <= 0.0 or self.p + self.q <= 0.0:
            raise DomainError("need p > 0 and p + q > 0")
        if self.n < 1:
            raise DomainError("total sales must be positive")

    def share(self, t) -> np.ndarray:
        """Cumulative share in [0, 1); vectorized, 0 before the origin."""
        tau = np.maximum(np.asarray(t, dtype=float) - self.origin, 0.0)
        rate = self.p + self.q
        if self.q >= 0.0:
            e = np.exp(-rate * tau)
            out = (1.0 - e) / (1.0 + (self.q / self.p) * e)
        else:
            # 1 - share = (1 + r) / (e^{rate tau} + r) with -1 < r = q/p < 0:
            # every operation is monotone, so the rounded share is too
            r = self.q / self.p
            with np.errstate(over="ignore"):
                out = 1.0 - (1.0 + r) / (np.exp(rate * tau) + r)
        return float(out) if out.ndim == 0 else out


def _binned(counts: np.ndarray, width: int) -> np.ndarray:
    m = (len(counts) // width) * width
    return counts[:m].reshape(-1, width).sum(axis=1)


def fit_bass(
    counts: np.ndarray,
    n: int,
    first_day: int,
    bin_width: int = 1,
) -> BassParams:
    """Least-squares Bass fit to observed sale-count increments.

    ``counts[k]`` is the number of sales on day ``first_day + k``.  The
    objective compares ``bin_width``-day count sums against the matching
    increments of n * share(t); optimization runs over (log p, log(p+q))
    so both stay positive.  A trailing partial bin is ignored.
    """
    counts = np.asarray(counts, dtype=float)
    if len(counts) < 30:
        raise DomainError("need at least 30 observed days to fit")
    if np.any(counts < 0.0):
        raise DomainError("daily counts must be non-negative")
    if bin_width < 1:
        raise DomainError("bin width must be >= 1")
    origin = first_day - 1
    y = _binned(counts, bin_width)
    edges = origin + bin_width * np.arange(len(y) + 1)

    def model(u):
        # share built from (log b, log c) = (log p, log(p + q)) directly so
        # the search may pass through c <= b without tripping parameter
        # validation; exponents are clipped to keep every iterate finite
        log_b, log_c = u
        c = np.exp(log_c)
        k = np.expm1(min(log_c - log_b, 700.0))  # c/b - 1, capped below inf
        tau = np.maximum(edges - origin, 0.0)
        e = np.exp(np.maximum(-c * tau, -700.0))
        # 1 + k e >= 1 - e >= 0 with equality only at tau = 0 where the
        # numerator also vanishes; the floor keeps that ratio a clean 0
        denom = np.maximum(1.0 + k * e, 1e-300)
        share = (1.0 - e) / denom
        return n * np.diff(share)

    def resid(u):
        return y - model(u)

    result = least_squares(
        resid,
        x0=np.log(BASS_START),
        method="lm",
        ftol=1e-10,
        xtol=1e-12,
        gtol=1e-12,
        max_nfev=800,
    )
    if not result.success:
        b, c = np.exp(result.x)
        raise FitError(
            f"Bass fit did not converge: {result.message}",
            best_params=(float(b), float(c)),
            residual_norm=float(np.sqrt(2.0 * result.cost)),
        )
    b, c = np.exp(result.x)
    return BassParams(p=float(b), q=float(c - b), n=n, origin=origin)


def compute_residuals(
    counts: np.ndarray, first_day: int, params: BassParams
) -> np.ndarray:
    """Scaled daily residuals (count_t - n * d(share)_t) / sqrt(n).

    These act as surrogates for the daily increments of the fluctuation
    limit.  The model term subtracts the fitted curve on the count scale
    (n times the share increment), so a surplus of k sales on one day shows
    up as k / sqrt(n) on that day.
    """
    counts = np.asarray(counts, dtype=float)
    days = first_day + np.arange(len(counts))
    dshare = params.share(days) - params.share(days - 1)
    return (counts - params.n * dshare) / np.sqrt(params.n)


def centered_moving_average(x: np.ndarray, halfwidth: int) -> np.ndarray:
    """Mean over [i - h, i + h], windows shrinking at the edges."""
    x = np.asarray(x, dtype=float)
    cs = np.concatenate([[0.0], np.cumsum(x)])
    i = np.arange(len(x))
    lo = np.maximum(i - halfwidth, 0)
    hi = np.minimum(i + halfwidth + 1, len(x))
    return (cs[hi] - cs[lo]) / (hi - lo)


@dataclass(frozen=True)
class ResidualDecomposition:
    """Trend/scale decomposition of the sales residuals.

    ``std_resid`` holds the standardized surrogates (resid - trend)/scale
    whose sample mean, variance and autocorrelation parameterize the
    fluctuation limit.  With ``stationary`` set the caller has judged the
    residual series stationary: trend is identically 0 and scale 1.
    """

    days: np.ndarray
    trend: np.ndarray
    scale: np.ndarray
    std_resid: np.ndarray
    mean: float
    var: float
    acf: np.ndarray
    stationary: bool = False

    def __post_init__(self):
        n = len(self.trend)
        if self.scale.shape != (n,) or self.std_resid.shape != (n,):
            raise DomainError("trend, scale and standardized residuals must align")
        if not np.array_equal(self.days, self.days[0] + np.arange(n)):
            raise DomainError("days must be consecutive, one per residual")
        if np.any(self.scale <= 0.0):
            raise DomainError("scale must be positive everywhere")
        if abs(self.acf[0] - 1.0) > 1e-9 or np.any(np.abs(self.acf) > 1.0 + 1e-9):
            raise DomainError("autocorrelation must start at 1 and stay in [-1, 1]")


def sample_acf(x: np.ndarray, maxlag: int) -> np.ndarray:
    """Autocorrelation with the 1/N normalization (positive semidefinite)."""
    d = np.asarray(x, dtype=float) - np.mean(x)
    full = np.correlate(d, d, mode="full")
    cov = full[len(d) - 1 : len(d) + maxlag]
    if cov[0] <= 0.0:
        out = np.zeros(maxlag + 1)
        out[0] = 1.0
        return out
    return cov / cov[0]


def decompose_residuals(
    resid: np.ndarray,
    first_day: int,
    halfwidth: int = 15,
    stationary: bool = False,
) -> ResidualDecomposition:
    """Moving-average trend and scale estimates plus standardized residuals.

    The trend is a centered moving average of the residuals and the scale a
    centered moving average of the absolute deviations, floored at 1e-8
    before dividing.  Under the stationary shortcut both are skipped.
    """
    resid = np.asarray(resid, dtype=float)
    if halfwidth < 1:
        raise DomainError("halfwidth must be >= 1")
    if len(resid) <= 2 * halfwidth:
        raise DomainError("series must be longer than twice the halfwidth")
    days = first_day + np.arange(len(resid))
    if stationary:
        trend = np.zeros_like(resid)
        scale = np.ones_like(resid)
        std = resid.copy()
    else:
        trend = centered_moving_average(resid, halfwidth)
        dev = np.abs(resid - trend)
        scale = np.maximum(centered_moving_average(dev, halfwidth), SCALE_FLOOR)
        std = (resid - trend) / scale
    return ResidualDecomposition(
        days=days,
        trend=trend,
        scale=scale,
        std_resid=std,
        mean=float(np.mean(std)),
        var=float(np.var(std, ddof=1)),
        acf=sample_acf(std, len(std) - 1),
        stationary=stationary,
    )


def _extend(
    obs_days: np.ndarray,
    obs_values: np.ndarray,
    target_days: np.ndarray,
    degree: int,
    log_domain: bool = False,
) -> np.ndarray:
    """Observed values where available, polynomial fit values elsewhere.

    ``obs_days`` must be consecutive days, as :class:`ResidualDecomposition`
    guarantees, so an observed day is looked up by its offset.
    """
    if degree < 0:
        raise DomainError("polynomial degree must be >= 0")
    if degree >= len(obs_days):
        raise FitError("polynomial degree exceeds the observed sample")
    y = np.log(obs_values) if log_domain else obs_values
    with warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.RankWarning)
        try:
            poly = Polynomial.fit(obs_days, y, degree)
        except np.exceptions.RankWarning as exc:
            raise FitError(f"rank-deficient polynomial fit: {exc}") from exc
    out = poly(target_days.astype(float))
    if log_domain:
        out = np.exp(out)
    inside = (target_days >= obs_days[0]) & (target_days <= obs_days[-1])
    out[inside] = obs_values[target_days[inside] - obs_days[0]]
    return out


def assemble_fluctuation(
    dec: ResidualDecomposition,
    horizon: TimeHorizon,
    poly_degree: int = 3,
) -> FluctuationIncrements:
    """The limit's daily increments over days -W+1 .. T+offset.

    Daily increments have mean trend_t + l * scale_t and covariance
    s^2 * scale_t * scale_s * c(|t-s|), with the autocorrelation cut off
    beyond the warranty length (and beyond the observed lags); the record's
    scale is s * scale_t.  Trend and log-scale extend into the forecast
    window by polynomial fit.
    """
    w, t, off = horizon.warranty, horizon.period, horizon.offset
    inc_days = np.arange(-w + 1, t + off + 1)
    if dec.stationary:
        trend = np.zeros(len(inc_days))
        scale = np.ones(len(inc_days))
    else:
        trend = _extend(dec.days, dec.trend, inc_days, poly_degree)
        scale = _extend(dec.days, dec.scale, inc_days, poly_degree, log_domain=True)
        scale = np.maximum(scale, SCALE_FLOOR)

    max_lag = min(len(dec.acf) - 1, w)
    acf = np.zeros(len(inc_days))
    acf[: max_lag + 1] = dec.acf[: max_lag + 1]
    return FluctuationIncrements(
        mean=trend + dec.mean * scale,
        scale=np.sqrt(dec.var) * scale,
        acf=acf,
    )
