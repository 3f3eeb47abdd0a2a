"""Sales-curve fitting and the Gaussian fluctuation limit.

The deterministic sales share follows a Bass adoption curve fitted by
nonlinear least squares on daily (or k-day) count increments, with
MINPACK's Levenberg-Marquardt method (Moré, "The Levenberg-Marquardt
algorithm: implementation and theory", 1978; Moré, Garbow and Hillstrom,
"User Guide for MINPACK-1", ANL-80-74, 1980), ported here so that it takes
the steps of scipy's ``least_squares(method="lm")`` exactly.  Residuals
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
import math
from dataclasses import dataclass

import numpy as np

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
        if not (np.isfinite(self.p) and np.isfinite(self.q)):
            raise DomainError(f"need finite p and q, got p = {self.p}, q = {self.q}")
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
    so both stay positive.  A trailing partial bin is ignored, and at least
    two full bins are needed.  Raises ``FitError`` when 800 residual
    evaluations do not converge, or when the fit converges where p or
    p + q is not positive and finite once rounded.
    """
    counts = np.asarray(counts, dtype=float)
    if len(counts) < 30:
        raise DomainError("need at least 30 observed days to fit")
    if not np.all(np.isfinite(counts)):
        raise DomainError("daily counts must be finite")
    if np.any(counts < 0.0):
        raise DomainError("daily counts must be non-negative")
    if bin_width < 1:
        raise DomainError("bin width must be >= 1")
    if len(counts) // bin_width < 2:
        raise DomainError(f"need at least 2 bins of {bin_width} days to fit")
    origin = first_day - 1
    y = _binned(counts, bin_width)
    edges = origin + bin_width * np.arange(len(y) + 1)

    def model(u):
        # share built from (log b, log c) = (log p, log(p + q)) directly so
        # the search may pass through c <= b without tripping parameter
        # validation; exponents are clipped to keep every iterate finite,
        # except past log(p + q) > 709, where c overflows and -c * tau is
        # NaN at tau = 0: such a trial point is rejected, so its overflow
        # and invalid-value warnings are silenced
        log_b, log_c = u
        with np.errstate(over="ignore", invalid="ignore"):
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

    x, fvec, info, _ = _lmder(
        resid, np.log(BASS_START), ftol=1e-10, xtol=1e-12, gtol=1e-12, max_nfev=800
    )
    with np.errstate(over="ignore"):
        b, c = np.exp(x)
    best = {
        "best_params": (float(b), float(c)),
        "residual_norm": float(np.sqrt(np.dot(fvec, fvec))),
    }
    if info > 4:  # 5: out of evaluations (6-8 need a tolerance below eps)
        raise FitError(
            "Bass fit did not converge: "
            "The maximum number of function evaluations is exceeded.",
            **best,
        )
    p, q = float(b), float(c) - float(b)  # as floats, inf - inf is NaN unwarned
    if not (0.0 < p < np.inf and 0.0 < p + q < np.inf):
        # a fit that failed, not bad input: when b dwarfs c, p + q =
        # b + (c - b) rounds to 0, and an overflowed b or c is not finite
        raise FitError(
            f"Bass fit degenerate: p = {p:.6g} and q = {q:.6g} leave p + q = {p + q:.6g}",
            **best,
        )
    return BassParams(p=p, q=q, n=n, origin=origin)


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
    """Trend/scale decomposition of the sales residuals of the consecutive
    days ``first_day``, ``first_day + 1``, ...

    ``std_resid`` holds the standardized surrogates (resid - trend)/scale
    whose sample mean, variance and autocorrelation to lag min(N - 1, W)
    (taken once per report by :func:`assemble_fluctuation`) parameterize
    the fluctuation limit.  Under the stationary shortcut trend is
    identically 0 and scale 1.
    """

    first_day: int
    trend: np.ndarray
    scale: np.ndarray
    std_resid: np.ndarray

    def __post_init__(self):
        n = len(self.trend)
        if self.scale.shape != (n,) or self.std_resid.shape != (n,):
            raise DomainError("trend, scale and standardized residuals must align")
        if np.any(self.scale <= 0.0):
            raise DomainError("scale must be positive everywhere")


def sample_acf(x: np.ndarray, maxlag: int) -> np.ndarray:
    """Autocorrelation at lags 0..maxlag with the 1/N normalization
    (positive semidefinite), one dot product per lag."""
    d = np.asarray(x, dtype=float) - np.mean(x)
    cov = np.array([d[k:] @ d[: len(d) - k] for k in range(maxlag + 1)])
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
    before dividing.  The stationary shortcut takes trend 0 and scale 1,
    which leave the residuals exactly as they are.
    """
    resid = np.asarray(resid, dtype=float)
    if halfwidth < 1:
        raise DomainError("halfwidth must be >= 1")
    if len(resid) <= 2 * halfwidth:
        raise DomainError("series must be longer than twice the halfwidth")
    if stationary:
        trend = np.zeros_like(resid)
        scale = np.ones_like(resid)
    else:
        trend = centered_moving_average(resid, halfwidth)
        dev = np.abs(resid - trend)
        scale = np.maximum(centered_moving_average(dev, halfwidth), SCALE_FLOOR)
    return ResidualDecomposition(first_day, trend, scale, (resid - trend) / scale)


def _poly_fit(x, y, degree: int, at: np.ndarray) -> np.ndarray:
    """The degree-``degree`` least-squares polynomial through (x, y), at
    ``at``: numpy's ``Polynomial.fit(x, y, degree)(at)``, ported with its
    operation order so the bits match.  x is mapped from [min, max] onto
    [-1, 1], the Vandermonde columns are scaled to unit norm for one
    ``lstsq``, whose coefficients, lowest power first, ``np.polyval``
    takes reversed; a rank below degree + 1 is a :class:`FitError`."""
    domain = np.asarray(x, dtype=float)
    lo, hi = domain.min(), domain.max()
    if lo == hi:
        lo, hi = lo - 1, hi + 1
    off, scl = (-hi - lo) / (hi - lo), 2.0 / (hi - lo)
    u = off + scl * x + 0.0
    powers = np.empty((degree + 1, len(u)))
    powers[0] = u * 0 + 1
    for i in range(1, degree + 1):
        powers[i] = powers[i - 1] * u  # 1 * u is u for the finite u here
    norm = np.sqrt(np.square(powers).sum(1))
    norm[norm == 0] = 1
    rcond = len(u) * np.finfo(float).eps
    coef, _, rank, _ = np.linalg.lstsq(powers.T / norm, y + 0.0, rcond)
    if rank != degree + 1:
        raise FitError("rank-deficient polynomial fit: The fit may be poorly conditioned")
    return np.polyval((coef / norm)[::-1], off + scl * at)


def _extend(
    obs_days: np.ndarray,
    obs_values: np.ndarray,
    target_days: np.ndarray,
    degree: int,
    log_domain: bool = False,
) -> np.ndarray:
    """Observed values where available, polynomial fit values elsewhere.

    ``obs_days`` must be consecutive days, as :func:`assemble_fluctuation`
    builds them, so an observed day is looked up by its offset.
    """
    if degree < 0:
        raise DomainError("polynomial degree must be >= 0")
    if degree >= len(obs_days):
        raise FitError("polynomial degree exceeds the observed sample")
    y = np.log(obs_values) if log_domain else obs_values
    out = _poly_fit(obs_days, y, degree, target_days.astype(float))
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
    s^2 * scale_t * scale_s * c(|t-s|), with l, s^2 and c the sample mean,
    unbiased variance and autocorrelation of the N standardized residuals,
    c taken to lag min(N - 1, W) and zero beyond; the record's scale is
    s * scale_t.  Trend and log-scale extend into the forecast window by
    polynomial fit (a stationary decomposition's to exactly 0 and 1).
    """
    w, t, off = horizon.warranty, horizon.period, horizon.offset
    std = dec.std_resid
    obs_days = dec.first_day + np.arange(len(std))
    inc_days = np.arange(-w + 1, t + off + 1)
    trend = _extend(obs_days, dec.trend, inc_days, poly_degree)
    scale = _extend(obs_days, dec.scale, inc_days, poly_degree, log_domain=True)
    scale = np.maximum(scale, SCALE_FLOOR)

    max_lag = min(len(std) - 1, w)
    acf = np.zeros(len(inc_days))
    acf[: max_lag + 1] = sample_acf(std, max_lag)
    return FluctuationIncrements(
        mean=trend + float(np.mean(std)) * scale,
        scale=np.sqrt(float(np.var(std, ddof=1))) * scale,
        acf=acf,
    )


# -- Levenberg-Marquardt: a port of MINPACK's lmder -------------------------
#
# Each routine follows its Fortran original (references in the module
# docstring) statement by statement, with arrays 0-based and a matrix held
# as a list of its columns, so it takes the same steps and rounds the same
# way: every sum of products runs in index order, as the loops do, each
# comparison is the Fortran's so that a nan takes the same branch, and
# division by zero gives inf or nan, not an error.

_EPSMCH = float(np.finfo(float).eps)  # dpmpar(1)
_DWARF = float(np.finfo(float).tiny)  # dpmpar(2)
_RDWARF, _RGIANT = 3.834e-20, 1.304e19  # enorm's small and large thresholds


def _q(a: float, b: float) -> float:
    """a / b with IEEE semantics: inf or nan where Python raises."""
    if b != 0.0:
        return a / b
    if a != a or a == 0.0:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _fmax(a: float, b: float) -> float:
    """C's fmax: a nan argument loses."""
    return b if b > a or a != a else a


def _fmin(a: float, b: float) -> float:
    """C's fmin: a nan argument loses."""
    return b if b < a or a != a else a


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum = sum + a(i)*b(i) over i: a cumulative sum adds in the same order."""
    return float(np.cumsum(a * b)[-1]) + 0.0  # + 0.0: the loop's sum is never -0


def _enorm(x) -> float:
    """Euclidean norm, summed so that no square overflows or underflows."""
    if isinstance(x, np.ndarray):
        ax = np.abs(x)
        # all components intermediate (or 0): the sum of squares in order
        if np.all(((ax > _RDWARF) & (ax < _RGIANT / len(ax))) | (ax == 0.0)):
            return math.sqrt(float(np.cumsum(ax * ax)[-1]))
        x = ax.tolist()
    s1 = s2 = s3 = x1max = x3max = 0.0
    agiant = _q(_RGIANT, float(len(x)))
    for xabs in map(abs, x):
        if _RDWARF < xabs < agiant:
            s2 += xabs * xabs
        elif xabs <= _RDWARF:
            if xabs > x3max:
                t = x3max / xabs
                s3 = 1.0 + s3 * (t * t)
                x3max = xabs
            elif xabs != 0.0:
                t = xabs / x3max
                s3 += t * t
        elif not xabs <= x1max:
            t = x1max / xabs
            s1 = 1.0 + s1 * (t * t)
            x1max = xabs
        else:
            t = xabs / x1max
            s1 += t * t
    if s1 != 0.0:
        return x1max * math.sqrt(s1 + (s2 / x1max) / x1max)
    if s2 != 0.0:
        if s2 >= x3max:
            return math.sqrt(s2 * (1.0 + (x3max / s2) * (x3max * s3)))
        return math.sqrt(x3max * ((s2 / x3max) + (x3max * s3)))
    return x3max * math.sqrt(s3)


def _jacobian(fun, x: list, f: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian, one row per parameter.

    The steps are scipy's 2-point ones (``approx_derivative``, scipy >=
    1.16): sqrt(eps) * sign0(x) * max(1, |x|), divided by the step as it
    rounds, (x + h) - x.
    """
    jt = np.empty((len(x), len(f)))
    for i, xi in enumerate(x):
        h = math.sqrt(_EPSMCH) * (1.0 if xi >= 0.0 else -1.0) * max(1.0, abs(xi))
        shifted = list(x)
        shifted[i] = xi + h
        jt[i] = (fun(np.array(shifted)) - f) / ((xi + h) - xi)
    return jt


def _qrfac(a: np.ndarray):
    """Householder QR with column pivoting, A P = Q R.

    ``a`` holds A's columns as its rows.  It is overwritten with the
    Householder vectors and the strict upper triangle of R; returns R's
    diagonal, the column norms of A and the permutation P.
    """
    n, m = a.shape
    acnorm = [_enorm(column) for column in a]
    rdiag, wa = list(acnorm), list(acnorm)
    ipvt = list(range(n))
    for j in range(min(m, n)):
        kmax = j
        for k in range(j, n):
            if rdiag[k] > rdiag[kmax]:
                kmax = k
        if kmax != j:
            a[[j, kmax]] = a[[kmax, j]]
            rdiag[kmax], wa[kmax] = rdiag[j], wa[j]
            ipvt[j], ipvt[kmax] = ipvt[kmax], ipvt[j]
        v = a[j, j:]
        ajnorm = _enorm(v)
        if ajnorm != 0.0:
            if v[0] < 0.0:
                ajnorm = -ajnorm
            v /= ajnorm
            v[0] += 1.0
            for k in range(j + 1, n):
                w = a[k, j:]
                w -= (_dot(v, w) / float(v[0])) * v
                if rdiag[k] != 0.0:
                    temp = float(w[0]) / rdiag[k]
                    rdiag[k] *= math.sqrt(_fmax(0.0, 1.0 - temp * temp))
                    temp = rdiag[k] / wa[k]
                    if not 0.05 * (temp * temp) > _EPSMCH:
                        rdiag[k] = wa[k] = _enorm(a[k, j + 1 :])
        rdiag[j] = -ajnorm
    return rdiag, acnorm, ipvt


def _qrsolv(r: list, ipvt: list, diag: list, qtb: list):
    """Least-squares solution of A x = b, D x = 0, given A P = Q R.

    ``r`` holds R's columns; its strict lower triangle is overwritten with
    that of S, where P^T (A^T A + D D) P = S^T S.  Returns x and S's
    diagonal.
    """
    n = len(r)
    x = [0.0] * n
    wa = list(qtb)
    sdiag = [0.0] * n
    for j in range(n):
        for i in range(j, n):
            r[j][i] = r[i][j]
        x[j] = r[j][j]
    # eliminate the diagonal matrix D with Givens rotations
    for j in range(n):
        l = ipvt[j]
        if diag[l] != 0.0:
            for k in range(j, n):
                sdiag[k] = 0.0
            sdiag[j] = diag[l]
            qtbpj = 0.0
            for k in range(j, n):
                if sdiag[k] == 0.0:
                    continue
                rk = r[k]
                if not abs(rk[k]) >= abs(sdiag[k]):
                    cotan = _q(rk[k], sdiag[k])
                    sin = 0.5 / math.sqrt(0.25 + 0.25 * (cotan * cotan))
                    cos = sin * cotan
                else:
                    tan = _q(sdiag[k], rk[k])
                    cos = 0.5 / math.sqrt(0.25 + 0.25 * (tan * tan))
                    sin = cos * tan
                rk[k] = cos * rk[k] + sin * sdiag[k]
                temp = cos * wa[k] + sin * qtbpj
                qtbpj = -sin * wa[k] + cos * qtbpj
                wa[k] = temp
                for i in range(k + 1, n):
                    temp = cos * rk[i] + sin * sdiag[i]
                    sdiag[i] = -sin * rk[i] + cos * sdiag[i]
                    rk[i] = temp
        sdiag[j] = r[j][j]
        r[j][j] = x[j]
    # solve S z = Q^T b; a singular S gives a least-squares solution
    nsing = n
    for j in range(n):
        if sdiag[j] == 0.0 and nsing == n:
            nsing = j
        if nsing < n:
            wa[j] = 0.0
    for j in range(nsing - 1, -1, -1):
        total = 0.0
        for i in range(j + 1, nsing):
            total += r[j][i] * wa[i]
        wa[j] = _q(wa[j] - total, sdiag[j])
    for j in range(n):
        x[ipvt[j]] = wa[j]
    return x, sdiag


def _lmpar(r: list, ipvt: list, diag: list, qtb: list, delta: float, par: float):
    """The Levenberg-Marquardt parameter and step for trust radius ``delta``.

    Finds par >= 0 with |D x| within 10% of ``delta`` (or par = 0 when the
    Gauss-Newton step is short enough), where x solves A x = b,
    sqrt(par) D x = 0 in the least-squares sense.  Returns (par, x).
    """
    n = len(r)
    # the Gauss-Newton direction, a least-squares one if R is singular
    wa1 = list(qtb)
    nsing = n
    for j in range(n):
        if r[j][j] == 0.0 and nsing == n:
            nsing = j
        if nsing < n:
            wa1[j] = 0.0
    for j in range(nsing - 1, -1, -1):
        wa1[j] = wa1[j] / r[j][j]
        temp = wa1[j]
        for i in range(j):
            wa1[i] -= r[j][i] * temp
    x = [0.0] * n
    for j in range(n):
        x[ipvt[j]] = wa1[j]
    iteration = 0
    wa2 = [d * xj for d, xj in zip(diag, x)]
    dxnorm = _enorm(wa2)
    fp = dxnorm - delta
    if not fp <= 0.1 * delta:
        # a lower bound parl on par from the Newton step (0 if R is singular)
        parl = 0.0
        if nsing == n:
            for j in range(n):
                l = ipvt[j]
                wa1[j] = diag[l] * _q(wa2[l], dxnorm)
            for j in range(n):
                total = 0.0
                for i in range(j):
                    total += r[j][i] * wa1[i]
                wa1[j] = (wa1[j] - total) / r[j][j]
            temp = _enorm(wa1)
            parl = _q(_q(_q(fp, delta), temp), temp)
        # an upper bound paru from the gradient
        for j in range(n):
            total = 0.0
            for i in range(j + 1):
                total += r[j][i] * qtb[i]
            wa1[j] = _q(total, diag[ipvt[j]])
        gnorm = _enorm(wa1)
        paru = _q(gnorm, delta)
        if paru == 0.0:
            paru = _q(_DWARF, _fmin(delta, 0.1))
        par = _fmin(_fmax(par, parl), paru)
        if par == 0.0:
            par = _q(gnorm, dxnorm)
        while True:
            iteration += 1
            if par == 0.0:
                par = _fmax(_DWARF, 0.001 * paru)
            temp = math.sqrt(par)
            x, sdiag = _qrsolv(r, ipvt, [temp * d for d in diag], qtb)
            wa2 = [d * xj for d, xj in zip(diag, x)]
            dxnorm = _enorm(wa2)
            temp = fp
            fp = dxnorm - delta
            if (
                abs(fp) <= 0.1 * delta
                or (parl == 0.0 and fp <= temp < 0.0)
                or iteration == 10
            ):
                break
            # the Newton correction
            for j in range(n):
                l = ipvt[j]
                wa1[j] = diag[l] * _q(wa2[l], dxnorm)
            for j in range(n):
                wa1[j] = _q(wa1[j], sdiag[j])
                temp = wa1[j]
                for i in range(j + 1, n):
                    wa1[i] -= r[j][i] * temp
            temp = _enorm(wa1)
            parc = _q(_q(_q(fp, delta), temp), temp)
            if fp > 0.0:
                parl = _fmax(parl, par)
            if fp < 0.0:
                paru = _fmin(paru, par)
            par = _fmax(parl, par + parc)
    if iteration == 0:
        par = 0.0
    return par, x


def _lmder(fun, x0, ftol: float, xtol: float, gtol: float, max_nfev: int):
    """Minimize |fun(x)|^2 from ``x0`` by MINPACK's lmder, mode 1, factor 100.

    The Jacobian is :func:`_jacobian`'s forward difference.  A trial point
    equal to the last point evaluated reuses its residuals, as scipy's
    ``least_squares`` does; such a call still counts towards ``max_nfev``.
    Returns (x, residuals at x, info, nfev) with MINPACK's info: 1 ftol,
    2 xtol, 3 both, 4 gtol, 5 max_nfev; 6-8 when a tolerance is below
    machine precision.  The residuals at ``x0`` must be finite.
    """
    x = [float(v) for v in x0]
    n = len(x)
    fvec = fun(np.array(x))
    nfev = 1
    last = (x, fvec)  # the point evaluated last and its residuals
    fnorm = _enorm(fvec)
    par = 0.0
    iteration = 1
    while True:
        fjac = _jacobian(fun, x, fvec)
        rdiag, acnorm, ipvt = _qrfac(fjac)
        if iteration == 1:
            diag = [a if a != 0.0 else 1.0 for a in acnorm]
            xnorm = _enorm([d * xj for d, xj in zip(diag, x)])
            delta = 100.0 * xnorm
            if delta == 0.0:
                delta = 100.0
        # Q^T fvec; its first n entries are qtf
        wa4 = fvec.copy()
        for j in range(n):
            v = fjac[j, j:]
            if v[0] != 0.0:
                temp = -_dot(v, wa4[j:]) / float(v[0])
                wa4[j:] += v * temp
        qtf = wa4[:n].tolist()
        r = fjac[:, :n].tolist()
        for j in range(n):
            r[j][j] = rdiag[j]
        # the norm of the scaled gradient
        gnorm = 0.0
        if fnorm != 0.0:
            for j in range(n):
                l = ipvt[j]
                if acnorm[l] != 0.0:
                    total = 0.0
                    for i in range(j + 1):
                        total += r[j][i] * (qtf[i] / fnorm)
                    gnorm = _fmax(gnorm, abs(total / acnorm[l]))
        if gnorm <= gtol:
            return np.array(x), fvec, 4, nfev
        diag = [_fmax(d, a) for d, a in zip(diag, acnorm)]
        while True:
            par, step = _lmpar(r, ipvt, diag, qtf, delta, par)
            wa1 = [-s for s in step]
            wa2 = [xj + pj for xj, pj in zip(x, wa1)]
            pnorm = _enorm([d * pj for d, pj in zip(diag, wa1)])
            if iteration == 1:
                delta = _fmin(delta, pnorm)
            if wa2 != last[0]:
                last = (wa2, fun(np.array(wa2)))
            wa4 = last[1]
            nfev += 1
            fnorm1 = _enorm(wa4)
            # the actual, predicted and directional reductions
            actred = -1.0
            if 0.1 * fnorm1 < fnorm:
                temp = fnorm1 / fnorm
                actred = 1.0 - temp * temp
            wa3 = [0.0] * n
            for j in range(n):
                temp = wa1[ipvt[j]]
                for i in range(j + 1):
                    wa3[i] += r[j][i] * temp
            temp1 = _enorm(wa3) / fnorm
            temp2 = (math.sqrt(par) * pnorm) / fnorm
            prered = temp1 * temp1 + temp2 * temp2 / 0.5
            dirder = -(temp1 * temp1 + temp2 * temp2)
            ratio = actred / prered if prered != 0.0 else 0.0
            # update the trust radius
            if not ratio > 0.25:
                if actred >= 0.0:
                    temp = 0.5
                else:
                    temp = _q(0.5 * dirder, dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * _fmin(delta, pnorm / 0.1)
                par = par / temp
            elif not (par != 0.0 and ratio < 0.75):
                delta = pnorm / 0.5
                par = 0.5 * par
            if not ratio < 1e-4:  # a successful step
                x = wa2
                xnorm = _enorm([d * xj for d, xj in zip(diag, x)])
                fvec = wa4
                fnorm = fnorm1
                iteration += 1
            converged = abs(actred) <= ftol and prered <= ftol and 0.5 * ratio <= 1.0
            info = 0
            if converged:
                info = 1
            if delta <= xtol * xnorm:
                info = 3 if converged else 2
            if info:
                return np.array(x), fvec, info, nfev
            if nfev >= max_nfev:
                info = 5
            if abs(actred) <= _EPSMCH and prered <= _EPSMCH and 0.5 * ratio <= 1.0:
                info = 6
            if delta <= _EPSMCH * xnorm:
                info = 7
            if gnorm <= _EPSMCH:
                info = 8
            if info:
                return np.array(x), fvec, info, nfev
            if not ratio < 1e-4:
                break
