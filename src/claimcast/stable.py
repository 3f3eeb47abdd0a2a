"""Totally-skewed and symmetric stable laws: parameter maps, CDF, quantiles.

Parameters follow the S1 convention (characteristic exponent
``-sigma^alpha |t|^alpha (1 - i beta sign(t) tan(pi alpha/2)) + i mu t``
for alpha != 1).  CDF evaluation integrates the standard bounded
representation, which is stated in the S0 convention; the S0/S1 location
shift ``mu0 = mu1 + beta sigma tan(pi alpha / 2)`` (log form at alpha = 1)
is applied first and covered by tests.

The CDF integral is cut where its exponent crosses fixed levels, placed by
linear interpolation on a scan grid that is refined where the exponent is
steep.  Every segment gets 16- and 32-point Gauss-Legendre rules in one
vectorized evaluation, and only segments where the two rules disagree are
bisected.  The summed |GL32 - GL16| is the error estimate: above 1e-8 the
CDF raises ``NumericalError`` rather than return the value.

Quantiles invert the CDF by Brent's method (R. P. Brent, *Algorithms for
Minimization without Derivatives*, 1973, ch. 4), one level at a time: each
level is bracketed by geometric expansion around the location, and an
array of levels maps that over its entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma as gamma_fn
from typing import ClassVar

import numpy as np

from .errors import DomainError, NumericalError

__all__ = [
    "StableParams",
    "params_mean_case",
    "params_zero_one_case",
    "params_eq_one_case",
    "stable_cdf",
    "stable_quantile",
]

# below this distance from alpha = 1 the alpha != 1 representation is
# numerically hostile; use the alpha = 1 formulas instead
ALPHA_ONE_GUARD = 1e-4

_CDF_ERROR_BUDGET = 1e-8  # summed |GL32 - GL16| allowed per CDF value
_QUAD_ABS_TOL = 1e-11  # per segment: |GL32 - GL16| above this bisects it
_MAX_BISECTIONS = 40
_QUANTILE_XTOL = 1e-13  # root-finder xtol in units of max(1, sigma)

# Scan grid, as fractions of the integration interval: 127 interior points
# plus the decades 1e-9 ... 1e-3 from either end, where the representations'
# log singularities squeeze far-tail transitions.
_ENDS = 10.0 ** -np.arange(9.0, 2.0, -1.0)
_SCAN = np.concatenate((_ENDS, np.linspace(0.0, 1.0, 129)[1:-1], 1.0 - _ENDS[::-1]))
# A scan cell is split in eight while the exponent s changes across it by
# more than _MAX_SCAN_STEP inside _BAND, where exp(-e^s) is neither 0 nor 1.
_MAX_SCAN_STEP = 8.0
_BAND = (-36.0, 4.0)
_SUBDIVIDE = np.arange(1.0, 8.0) / 8.0
_MAX_SCAN_REFINEMENTS = 16
# exponent levels where the domain is cut
_LEVELS = np.array(
    [-30.0, -20.0, -12.0, -8.0, -5.0, -3.0, -2.0, -1.0, 0.0,
     1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 30.0]
)


def _gauss_legendre(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on the Legendre recurrence, which settles to rounding
    in a few steps from the asymptotic guesses.  (``numpy``'s ``leggauss``
    solves an eigenproblem instead, whose first call sets up LAPACK and
    costs about 1 MB of resident memory in every process importing this.)
    """
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(8):
        p_prev, p = np.ones(n), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return x[::-1], (2.0 / ((1.0 - x * x) * dp * dp))[::-1]


# Gauss-Legendre rules on [-1, 1]: the 16 nodes, then the 32, in one row
_GL16_NODES, _GL16_WEIGHTS = _gauss_legendre(16)
_GL32_NODES, _GL32_WEIGHTS = _gauss_legendre(32)
_GL_NODES = np.concatenate((_GL16_NODES, _GL32_NODES))


@dataclass(frozen=True)
class StableParams:
    """Stable law in the S1 parameterization."""

    alpha: float
    beta: float
    sigma: float
    mu: float
    parameterization: ClassVar[str] = "S1"

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise DomainError("alpha must lie in (0, 2)")
        if not (-1.0 <= self.beta <= 1.0):
            raise DomainError("beta must lie in [-1, 1]")
        if self.sigma <= 0.0:
            raise DomainError("sigma must be positive")


def params_mean_case(alpha: float) -> StableParams:
    """Limit-law parameters when the sizes have a finite mean (1 < alpha < 2).

    mu = 0, beta = 1 and
    sigma = (-Gamma(2 - alpha)/(alpha - 1) * cos(pi alpha / 2))^(1/alpha).
    """
    if not (1.0 < alpha < 2.0):
        raise DomainError("this parameter map needs 1 < alpha < 2")
    sigma = (-gamma_fn(2.0 - alpha) / (alpha - 1.0) * np.cos(np.pi * alpha / 2.0)) ** (
        1.0 / alpha
    )
    return StableParams(alpha=alpha, beta=1.0, sigma=float(sigma), mu=0.0)


def params_zero_one_case(alpha: float, c1: float) -> StableParams:
    """Limit-law parameters for 0 < alpha < 1 at claim intensity c1.

    mu = -c1 alpha / (1 - alpha), beta = 1 and
    sigma = (c1 Gamma(1 - alpha) cos(pi alpha / 2))^(1/alpha).
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError("this parameter map needs 0 < alpha < 1")
    if c1 <= 0.0:
        raise DomainError("c1 must be positive")
    sigma = (c1 * gamma_fn(1.0 - alpha) * np.cos(np.pi * alpha / 2.0)) ** (1.0 / alpha)
    return StableParams(
        alpha=alpha, beta=1.0, sigma=float(sigma), mu=-c1 * alpha / (1.0 - alpha)
    )


def params_eq_one_case(c1: float) -> StableParams:
    """Limit-law parameters at alpha = 1: sigma = c1 pi / 2, beta = 1, and
    mu = c1 * integral_0^inf (sin z - z 1{z <= 1}) z^-2 dz."""
    if c1 <= 0.0:
        raise DomainError("c1 must be positive")
    # integral_0^inf (sin z - z 1{z <= 1}) z^-2 dz = 1 - gamma (Euler's
    # constant); Samorodnitsky & Taqqu, Stable Non-Gaussian Random
    # Processes (1994)
    return StableParams(
        alpha=1.0,
        beta=1.0,
        sigma=c1 * np.pi / 2.0,
        mu=c1 * (1.0 - np.euler_gamma),
    )


def _s1_to_s0_location(alpha: float, beta: float, sigma: float, mu: float) -> float:
    if abs(alpha - 1.0) < ALPHA_ONE_GUARD:
        return mu + beta * (2.0 / np.pi) * sigma * np.log(sigma)
    return mu + beta * sigma * np.tan(np.pi * alpha / 2.0)


def _exponent(log_g: float, log_v, theta: np.ndarray) -> np.ndarray:
    """s = log_g + log_v(theta), with NaN (outside the domain) read as +inf."""
    s = log_g + np.asarray(log_v(theta), dtype=float)
    return np.where(np.isnan(s), np.inf, s)


def _level_cuts(log_g: float, log_v, lo: float, hi: float):
    """Segment edges: lo, hi and where s crosses each of ``_LEVELS``.

    Each crossing is placed by linear interpolation of s between the scan
    points around it.  Scan cells where s is steep inside ``_BAND`` are
    subdivided first, so that the interpolated cuts land close to the true
    crossings.  Returns None when the integrand is 0 on the whole scan.
    """
    grid = lo + (hi - lo) * _SCAN
    s = _exponent(log_g, log_v, grid)
    if np.all(s > 36.0):  # exp(-e^36) == 0 at double precision
        return None
    for _ in range(_MAX_SCAN_REFINEMENTS):
        s0, s1 = s[:-1], s[1:]
        steep = (
            (np.abs(s1 - s0) > _MAX_SCAN_STEP)
            & (np.maximum(s0, s1) > _BAND[0])
            & (np.minimum(s0, s1) < _BAND[1])
            & (np.diff(grid) > 1e-13 * (hi - lo))
        )
        if not steep.any():
            break
        i = np.nonzero(steep)[0]
        extra = (grid[i, None] + (grid[i + 1] - grid[i])[:, None] * _SUBDIVIDE).ravel()
        grid = np.concatenate((grid, extra))
        s = np.concatenate((s, _exponent(log_g, log_v, extra)))
        order = np.argsort(grid, kind="stable")
        grid, s = grid[order], s[order]
    d = s - _LEVELS[:, None]
    finite = np.isfinite(s)
    level, i = np.nonzero((d[:, :-1] * d[:, 1:] < 0.0) & finite[:-1] & finite[1:])
    d0, d1 = d[level, i], d[level, i + 1]
    cuts = grid[i] + (grid[i + 1] - grid[i]) * (d0 / (d0 - d1))
    return np.unique(np.concatenate(([lo, hi], cuts)))


def _exp_neg_exp_integral(log_g: float, log_v, lo: float, hi: float) -> float:
    """integral over (lo, hi) of exp(-exp(log_g + log_v(theta))).

    The integrand is a smoothed step: ~1 where the exponent s = log_g +
    log_v is very negative and ~0 where it is large, with s monotone in
    theta for the representations used here.  The domain is cut where s
    crosses each of ``_LEVELS`` (see ``_level_cuts``).  Every segment then
    gets the 16- and 32-point Gauss-Legendre rules in one vectorized
    evaluation; segments where the two disagree by more than
    ``_QUAD_ABS_TOL`` are bisected and evaluated again, the rest keep the
    32-point value.  The summed |GL32 - GL16| of the kept segments is the
    error estimate checked against ``_CDF_ERROR_BUDGET``.
    """
    if hi - lo <= 0.0:
        return 0.0
    total = 0.0
    total_err = 0.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cuts = _level_cuts(log_g, log_v, lo, hi)
        if cuts is None:
            return 0.0
        a, b = cuts[:-1], cuts[1:]
        for depth in range(_MAX_BISECTIONS + 1):
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            s = _exponent(log_g, log_v, mid[:, None] + half[:, None] * _GL_NODES)
            f = np.exp(-np.exp(s))
            coarse = half * (f[:, : _GL16_NODES.size] @ _GL16_WEIGHTS)
            fine = half * (f[:, _GL16_NODES.size :] @ _GL32_WEIGHTS)
            err = np.abs(fine - coarse)
            keep = err <= _QUAD_ABS_TOL
            if depth == _MAX_BISECTIONS:
                keep[:] = True  # the budget check below judges what is left
            total += float(np.sum(fine[keep]))
            total_err += float(np.sum(err[keep]))
            if keep.all():
                break
            a, mid, b = a[~keep], mid[~keep], b[~keep]
            a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
    if total_err > _CDF_ERROR_BUDGET:
        raise NumericalError(
            f"stable CDF quadrature error estimate {total_err:.2e} exceeds "
            f"{_CDF_ERROR_BUDGET:.0e} (log_g={log_g:.3g}, interval "
            f"[{lo:.3g}, {hi:.3g}])"
        )
    return total


def _cdf_std_alpha_one(x: float, beta: float) -> float:
    """Standardized CDF at alpha = 1 (S0 and S1 coincide up to the log shift
    already applied by the caller)."""
    if beta == 0.0:
        return 0.5 + np.arctan(x) / np.pi
    if beta < 0.0:
        return 1.0 - _cdf_std_alpha_one(-x, -beta)
    log_g = -np.pi * x / (2.0 * beta)

    def log_v(theta):
        theta = np.asarray(theta, dtype=float)
        half_pi = np.pi / 2.0
        return (
            np.log(2.0 / np.pi)
            + np.log(half_pi + beta * theta)
            - np.log(np.cos(theta))
            + (half_pi + beta * theta) * np.tan(theta) / beta
        )

    val = _exp_neg_exp_integral(log_g, log_v, -np.pi / 2.0, np.pi / 2.0)
    return min(max(val / np.pi, 0.0), 1.0)


def _cdf_std_s0(x: float, alpha: float, beta: float) -> float:
    """CDF of the standardized (sigma = 1, location 0) S0 law."""
    if abs(alpha - 1.0) < ALPHA_ONE_GUARD:
        return _cdf_std_alpha_one(x, beta)
    zeta = -beta * np.tan(np.pi * alpha / 2.0)
    theta0 = np.arctan(beta * np.tan(np.pi * alpha / 2.0)) / alpha
    if x == zeta:
        return (np.pi / 2.0 - theta0) / np.pi
    if x < zeta:
        return 1.0 - _cdf_std_s0(-x, alpha, -beta)

    expo = alpha / (alpha - 1.0)
    log_g = expo * np.log(x - zeta)
    cos_a_t0 = np.cos(alpha * theta0)

    def log_v(theta):
        theta = np.asarray(theta, dtype=float)
        return (
            np.log(cos_a_t0) / (alpha - 1.0)
            + expo * (np.log(np.cos(theta)) - np.log(np.sin(alpha * (theta0 + theta))))
            + np.log(np.cos(alpha * theta0 + (alpha - 1.0) * theta))
            - np.log(np.cos(theta))
        )

    integral = _exp_neg_exp_integral(log_g, log_v, -theta0, np.pi / 2.0)
    head = (np.pi / 2.0 - theta0) / np.pi if alpha < 1.0 else 1.0
    val = head + np.sign(1.0 - alpha) * integral / np.pi
    return min(max(val, 0.0), 1.0)


def _cdf_scalar(params: StableParams, x: float) -> float:
    mu0 = _s1_to_s0_location(params.alpha, params.beta, params.sigma, params.mu)
    return _cdf_std_s0((x - mu0) / params.sigma, params.alpha, params.beta)


def stable_cdf(params: StableParams, x):
    """CDF of the S1 stable law at x (scalar or array), to 1e-8 absolute."""
    if np.ndim(x) == 0:
        return _cdf_scalar(params, float(x))
    return np.array([_cdf_scalar(params, float(v)) for v in np.ravel(x)]).reshape(
        np.shape(x)
    )


def _support_edges(params: StableParams):
    """Finite support endpoint for totally skewed laws with alpha < 1.

    In S1 the support of a beta = 1, alpha < 1 law is [mu, inf); mirrored
    for beta = -1.  Everything else is supported on the whole line.
    """
    lo, hi = -np.inf, np.inf
    if params.alpha < 1.0:
        if params.beta == 1.0:
            lo = params.mu
        elif params.beta == -1.0:
            hi = params.mu
    return lo, hi


def stable_quantile(params: StableParams, p):
    """Quantile at level p (scalar or array) with |cdf(q) - p| <= 1e-8.

    Each level is bracketed around mu by geometric expansion and found by
    Brent's method; an array of levels gives an array of its shape, one
    inversion per entry.
    """
    levels = np.asarray(p, dtype=float)
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise DomainError("quantile level must lie in (0, 1)")
    if levels.ndim == 0:
        return _quantile_scalar(params, float(levels))
    out = [_quantile_scalar(params, float(v)) for v in levels.ravel()]
    return np.array(out).reshape(levels.shape)


def _quantile_scalar(params: StableParams, p: float) -> float:
    lo_edge, hi_edge = _support_edges(params)
    center = params.mu
    span = 4.0 * params.sigma
    lo = max(center - span, lo_edge + 1e-12 * params.sigma)
    hi = min(center + span, hi_edge - 1e-12 * params.sigma)
    cdf_lo, cdf_hi = _cdf_scalar(params, lo), _cdf_scalar(params, hi)
    for _ in range(80):
        if cdf_lo <= p:
            break
        lo = max(center - 4.0 * (center - lo), lo_edge + 1e-12 * params.sigma)
        cdf_lo = _cdf_scalar(params, lo)
        if lo == lo_edge:
            break
    for _ in range(80):
        if cdf_hi >= p:
            break
        hi = min(center + 4.0 * (hi - center), hi_edge - 1e-12 * params.sigma)
        cdf_hi = _cdf_scalar(params, hi)
    if not (cdf_lo <= p <= cdf_hi):
        raise NumericalError(
            f"could not bracket the {p:.4g}-quantile (f({lo:.3g})={cdf_lo - p:.3g}, "
            f"f({hi:.3g})={cdf_hi - p:.3g})"
        )
    known = {lo: cdf_lo, hi: cdf_hi}  # _brentq starts from the bracket ends

    def f(x):
        return (known[x] if x in known else _cdf_scalar(params, x)) - p

    xtol = _QUANTILE_XTOL * max(1.0, params.sigma)
    return float(_brentq(f, lo, hi, xtol))


def _brentq(f, xa: float, xb: float, xtol: float, rtol=8.9e-16, maxiter=100):
    """Root of f on [xa, xb] by Brent's method (Brent 1973, ch. 4).

    A line-for-line port of scipy's ``brentq.c``, so it takes the same
    steps: inverse quadratic or secant steps while they shrink the bracket
    fast enough, bisection otherwise, until the bracket's half-width is
    below (xtol + rtol |x|) / 2.  Raises ``NumericalError`` when f does not
    change sign on [xa, xb] or ``maxiter`` steps do not converge.
    """
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericalError(f"no sign change on [{xa:.6g}, {xb:.6g}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre)
                stry /= dblk * dpre * (fblk - fpre)
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise NumericalError(f"Brent's method did not converge in {maxiter} steps")
