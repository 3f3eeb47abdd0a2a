"""Totally-skewed and symmetric stable laws: parameter maps, CDF, quantiles.

Parameters follow the S1 convention (characteristic exponent
``-sigma^alpha |t|^alpha (1 - i beta sign(t) tan(pi alpha/2)) + i mu t``
for alpha != 1).  CDF evaluation integrates the standard bounded
representation, which is stated in the S0 convention; the S0/S1 location
shift ``mu0 = mu1 + beta sigma tan(pi alpha / 2)`` (log form at alpha = 1)
is applied first and covered by tests.

The CDF integrals go through the batched kernel of ``claimcast._quadrature``:
each is cut where its exponent crosses fixed levels, placed by linear
interpolation on a scan grid that is refined where the exponent is steep.
Every segment gets 16- and 32-point Gauss-Legendre rules in one vectorized
evaluation, and only segments where the two rules disagree are bisected.
The summed |GL32 - GL16| is the error estimate: above 1e-8 the CDF raises
``NumericalError`` rather than return the value.  One call integrates all
its points together, both sides of zeta included, in fixed-size chunks;
each point's value is bit for bit what it gets alone.

Quantiles invert the CDF by Brent's method (R. P. Brent, *Algorithms for
Minimization without Derivatives*, 1973, ch. 4): each level is bracketed
by geometric expansion around the location and then searched by a port of
scipy's ``brentq``.  The searches of all levels run in lockstep, as
generators, so that each round (the first: both ends of the shared
starting bracket) evaluates the CDF once at the points they need next.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gamma as gamma_fn

import numpy as np

from . import _quadrature
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
_QUANTILE_XTOL = 1e-13  # root-finder xtol in units of max(1, sigma)


@dataclass(frozen=True)
class StableParams:
    """Stable law in the S1 parameterization."""

    alpha: float
    beta: float
    sigma: float
    mu: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise DomainError("alpha must lie in (0, 2)")
        if not (-1.0 <= self.beta <= 1.0):
            raise DomainError("beta must lie in [-1, 1]")
        if not 0.0 < self.sigma < np.inf:
            raise DomainError(f"sigma must be positive and finite, got {self.sigma}")
        if not -np.inf < self.mu < np.inf:
            raise DomainError(f"mu must be finite, got {self.mu}")


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


@lru_cache(maxsize=16)
def _alpha_one_integrand(beta: float) -> _quadrature.Integrand:
    """The alpha = 1 integrand, for beta > 0."""

    def log_v(theta):
        # log(2 / pi) + log(shifted) - log cos(theta) + shifted tan(theta) /
        # beta with shifted = pi / 2 + beta theta, in place to keep few
        # arrays alive
        shifted = beta * theta
        shifted += np.pi / 2.0
        v = np.log(shifted)
        v += np.log(2.0 / np.pi)
        w = np.cos(theta)
        v -= np.log(w, out=w)
        w = np.tan(theta, out=w)
        w *= shifted
        w /= beta
        v += w
        return v

    return _quadrature.integrand(log_v, -np.pi / 2.0, np.pi / 2.0)


@lru_cache(maxsize=16)
def _s0_integrand(alpha: float, beta: float) -> _quadrature.Integrand:
    """The integrand for x > zeta of the standardized S0 law, alpha != 1."""
    theta0 = np.arctan(beta * np.tan(np.pi * alpha / 2.0)) / alpha
    expo = alpha / (alpha - 1.0)
    cos_a_t0 = np.cos(alpha * theta0)

    def log_v(theta):
        # log(cos_a_t0) / (alpha - 1) + expo (log cos(theta) - log sin(alpha
        # (theta0 + theta))) + log cos(alpha theta0 + (alpha - 1) theta)
        # - log cos(theta), in place to keep few arrays alive
        log_cos = np.log(np.cos(theta))
        v = theta0 + theta
        v *= alpha
        np.log(np.sin(v, out=v), out=v)
        np.subtract(log_cos, v, out=v)
        v *= expo
        v += np.log(cos_a_t0) / (alpha - 1.0)
        u = (alpha - 1.0) * theta
        u += alpha * theta0
        v += np.log(np.cos(u, out=u), out=u)
        v -= log_cos
        return v

    return _quadrature.integrand(log_v, -theta0, np.pi / 2.0)


def _integrals(terms) -> list:
    """``_quadrature.integrals`` of ``terms``, each within ``_CDF_ERROR_BUDGET``."""
    values, errors = _quadrature.integrals(terms)
    for (f, log_g), err in zip(terms, errors):
        over = np.flatnonzero(err > _CDF_ERROR_BUDGET)
        if over.size:
            k = over[0]
            raise NumericalError(
                f"stable CDF quadrature error estimate {err[k]:.2e} exceeds "
                f"{_CDF_ERROR_BUDGET:.0e} (log_g={log_g[k]:.3g}, interval "
                f"[{f.lo:.3g}, {f.hi:.3g}])"
            )
    return values


def _cdf_alpha_one(x: np.ndarray, beta: float) -> np.ndarray:
    """Standardized CDF at alpha = 1 (S0 and S1 coincide up to the log shift
    already applied by the caller)."""
    if beta == 0.0:
        return 0.5 + np.arctan(x) / np.pi
    if beta < 0.0:
        return 1.0 - _cdf_alpha_one(-x, -beta)
    log_g = -np.pi * x / (2.0 * beta)
    (integral,) = _integrals([(_alpha_one_integrand(beta), log_g)])
    return np.minimum(np.maximum(integral / np.pi, 0.0), 1.0)


def _cdf_right_of_zeta(alpha: float, groups) -> list:
    """CDF of the standardized S0 law (alpha != 1) for each (beta, x) of
    ``groups``, all x right of that law's zeta, from one kernel call."""
    expo = alpha / (alpha - 1.0)
    terms = []
    for beta, x in groups:
        zeta = -beta * np.tan(np.pi * alpha / 2.0)
        terms.append((_s0_integrand(alpha, beta), expo * np.log(x - zeta)))
    cdfs = []
    for (f, _), integral in zip(terms, _integrals(terms)):
        theta0 = -f.lo
        head = (np.pi / 2.0 - theta0) / np.pi if alpha < 1.0 else 1.0
        val = head + np.sign(1.0 - alpha) * integral / np.pi
        cdfs.append(np.minimum(np.maximum(val, 0.0), 1.0))
    return cdfs


def _cdf_std_s0(x: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """CDF of the standardized (sigma = 1, location 0) S0 law at every x.

    Points left of zeta read the mirrored law, F(x) = 1 - F(-x; alpha,
    -beta), so both sides go through one call of the quadrature kernel.
    """
    if abs(alpha - 1.0) < ALPHA_ONE_GUARD:
        return _cdf_alpha_one(x, beta)
    zeta = -beta * np.tan(np.pi * alpha / 2.0)
    theta0 = np.arctan(beta * np.tan(np.pi * alpha / 2.0)) / alpha
    left, at, right = x < zeta, x == zeta, x > zeta
    out = np.empty(x.shape)
    out[at] = (np.pi / 2.0 - theta0) / np.pi
    out[right], mirrored = _cdf_right_of_zeta(alpha, [(beta, x[right]), (-beta, -x[left])])
    out[left] = 1.0 - mirrored
    return out


def _cdf(params: StableParams, x: np.ndarray) -> np.ndarray:
    """The CDF at every entry of a 1-D array, NaN at NaN: the kernel behind
    both entry points."""
    mu0 = _s1_to_s0_location(params.alpha, params.beta, params.sigma, params.mu)
    out, known = np.full(x.shape, np.nan), ~np.isnan(x)
    out[known] = _cdf_std_s0((x[known] - mu0) / params.sigma, params.alpha, params.beta)
    return out


def stable_cdf(params: StableParams, x):
    """CDF of the S1 stable law at x (scalar or array), to 1e-8 absolute.

    All points are integrated together; a scalar is a batch of one.
    """
    points = np.asarray(x, dtype=float)
    cdf = _cdf(params, points.ravel())
    return float(cdf[0]) if points.ndim == 0 else cdf.reshape(points.shape)


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

    Each distinct level is bracketed around mu by geometric expansion and
    found by Brent's method.  The searches run in lockstep: each round
    takes every live search's next points and evaluates the distinct ones
    once, in one kernel call.
    """
    levels = np.asarray(p, dtype=float)
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise DomainError("quantile level must lie in (0, 1)")
    distinct, inverse = np.unique(levels.ravel(), return_inverse=True)
    targets = distinct.tolist()
    searches = [_quantile_search(params, target) for target in targets]
    wanted = {k: next(search) for k, search in enumerate(searches)}
    roots = np.empty(len(targets))
    while wanted:
        xs, at = np.unique(np.concatenate(list(wanted.values())), return_inverse=True)
        cdfs = iter(_cdf(params, xs)[at].tolist())
        for k, points in list(wanted.items()):
            try:
                wanted[k] = searches[k].send([next(cdfs) - targets[k] for _ in points])
            except StopIteration as done:
                roots[k] = done.value
                del wanted[k]
    q = roots[inverse]
    return float(q[0]) if levels.ndim == 0 else q.reshape(levels.shape)


def _quantile_search(params: StableParams, p: float):
    """The p-quantile search as a generator: yields a tuple of the points
    where it needs f = cdf - p next (first both bracket ends), takes the
    list of f there sent back, and returns the quantile."""
    lo_edge, hi_edge = _support_edges(params)
    center = params.mu
    lo = max(center - 4.0 * params.sigma, lo_edge + 1e-12 * params.sigma)
    hi = min(center + 4.0 * params.sigma, hi_edge - 1e-12 * params.sigma)
    f_lo, f_hi = yield (lo, hi)
    for _ in range(80):
        if f_lo <= 0.0:
            break
        lo = max(center - 4.0 * (center - lo), lo_edge + 1e-12 * params.sigma)
        (f_lo,) = yield (lo,)
        if lo == lo_edge:
            break
    for _ in range(80):
        if f_hi >= 0.0:
            break
        hi = min(center + 4.0 * (hi - center), hi_edge - 1e-12 * params.sigma)
        (f_hi,) = yield (hi,)
    if not (f_lo <= 0.0 <= f_hi):
        raise NumericalError(
            f"could not bracket the {p:.4g}-quantile "
            f"(f({lo:.3g})={f_lo:.3g}, f({hi:.3g})={f_hi:.3g})"
        )
    xtol = _QUANTILE_XTOL * max(1.0, params.sigma)
    return float((yield from _brent_steps(lo, hi, f_lo, f_hi, xtol)))


def _brent_steps(xa, xb, fa, fb, xtol: float, rtol=8.9e-16, maxiter=100):
    """Brent's method on [xa, xb], where f is fa and fb, as a generator:
    yields each further point where it needs f as a 1-tuple, takes f's
    value there sent back in a list, and returns the root.

    A line-for-line port of scipy's ``brentq.c``, so it takes the same
    steps: inverse quadratic or secant steps while they shrink the bracket
    fast enough, bisection otherwise, until the bracket's half-width is
    below (xtol + rtol |x|) / 2.  Raises ``NumericalError`` when f does not
    change sign on [xa, xb] or ``maxiter`` steps do not converge.
    """
    xpre, xcur, fpre, fcur = xa, xb, fa, fb
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
        (fcur,) = yield (xcur,)
    raise NumericalError(f"Brent's method did not converge in {maxiter} steps")
