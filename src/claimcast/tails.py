"""Claim-size diagnostics: summaries, tail-index estimation, regime choice.

Heavy-tailed claim sizes steer the cost approximation toward a stable
limit; the tail index is read off the slope of the upper order statistics
against exponential quantiles.  The regime picks which limit applies and
:func:`tail_scalers` supplies the stable regimes' normalizing sequences,
scaled to the claim sizes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError

logger = logging.getLogger(__name__)

__all__ = [
    "Regime",
    "TailDiagnosis",
    "sample_quantiles",
    "summary_stats",
    "qq_plot_data",
    "qq_tail_index",
    "select_regime",
    "tail_scalers",
    "diagnose",
]

EQ_ONE_BAND = 0.05


class Regime(str, Enum):
    """Which distributional limit applies to the total cost."""

    FINITE_VARIANCE = "finite_variance"
    STABLE_1_2 = "stable_1_2"
    STABLE_EQ_1 = "stable_eq_1"
    STABLE_0_1 = "stable_0_1"


def sample_quantiles(sample, levels) -> np.ndarray:
    """Linearly interpolated quantiles of ``sample`` at ``levels`` in [0, 1],
    numpy's default method computed from one sort.

    Level q sits at the virtual index (n - 1) q of the sorted sample, between
    its floor i and i + 1; the value interpolates from the nearer side, as
    ``np.quantile`` does, and a sample holding NaN gives NaN.  The values
    equal ``np.quantile``'s.  Only where the sample holds both -0.0 and 0.0
    can the sign of a zero result differ, because numpy partitions where
    this sorts, and the two order tied zeros differently.
    """
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    n = len(x)
    if n == 0:
        raise DomainError("need a non-empty sample")
    q = np.asarray(levels, dtype=float)
    if not np.all((q >= 0.0) & (q <= 1.0)):
        raise DomainError("quantile levels must lie in [0, 1]")
    virtual = (n - 1) * q
    below = np.floor(virtual).astype(np.intp)
    below[virtual >= n - 1] = -1  # the largest value, from both sides
    above = np.where(below < 0, -1, below + 1)
    t = virtual - below
    a, b = x[below], x[above]
    diff = b - a
    out = np.where(t >= 0.5, b - diff * (1.0 - t), a + diff * t)
    return np.full_like(out, np.nan) if np.isnan(x[-1]) else out


def summary_stats(sizes) -> Tuple[float, float, Tuple[float, float, float]]:
    """Sample mean, unbiased variance and the linearly interpolated
    quartiles (q25, q50, q75)."""
    x = np.asarray(sizes, dtype=float)
    if x.size < 2:
        raise DomainError("need at least two claim sizes")
    quartiles = tuple(sample_quantiles(x, (0.25, 0.5, 0.75)).tolist())
    return float(np.mean(x)), float(np.var(x, ddof=1)), quartiles


def qq_plot_data(sizes, k: int) -> np.ndarray:
    """Points (exponential quantile, log upper order statistic) for the top k.

    Row i (1-based) pairs -log(1 - i/(k+1)) with log X_(n-k+i).  A tail
    decaying like a power law with index alpha makes these points a line of
    slope 1/alpha.
    """
    x = np.asarray(sizes, dtype=float)
    if not (2 <= k <= x.size):
        raise DomainError(f"need 2 <= k <= sample size, got k={k}, n={x.size}")
    top = np.sort(x)[-k:]
    if top[0] <= 0.0:
        raise DomainError("top-k claim sizes must be positive to take logs")
    i = np.arange(1, k + 1, dtype=float)
    theo = -np.log(1.0 - i / (k + 1.0))
    return np.column_stack([theo, np.log(top)])


def qq_tail_index(sizes, k: int) -> float:
    """Tail index from the reciprocal slope of the QQ points."""
    pts = qq_plot_data(sizes, k)
    slope = np.polyfit(pts[:, 0], pts[:, 1], 1)[0]
    if slope <= 0.0:
        raise DomainError(
            f"QQ slope {slope:.3g} is not positive; data show no heavy tail"
        )
    return float(1.0 / slope)


def select_regime(
    alpha_hat: float, finite_variance_override: Optional[bool] = None
) -> Regime:
    """Map the tail-index estimate onto a limit regime.

    The exact alpha = 1 case is widened into the band |alpha - 1| < 0.05
    since a point estimate never lands on it exactly.  Estimates of 2 or
    more fall back to the finite-variance limit, as does an explicit
    override from the analyst.
    """
    if alpha_hat <= 0.0:
        raise DomainError("tail index must be positive")
    if finite_variance_override:
        return Regime.FINITE_VARIANCE
    if alpha_hat >= 2.0:
        logger.warning(
            "tail index %.3g >= 2: treating the size distribution as "
            "finite-variance",
            alpha_hat,
        )
        return Regime.FINITE_VARIANCE
    if abs(alpha_hat - 1.0) < EQ_ONE_BAND:
        return Regime.STABLE_EQ_1
    if alpha_hat > 1.0:
        return Regime.STABLE_1_2
    return Regime.STABLE_0_1


def tail_scalers(
    alpha_hat: float, n: int, size_scale: float = 1.0
) -> Tuple[float, Optional[float]]:
    """Pareto plug-in estimates ``(b, e)`` of the stable normalizing
    sequences b(n) and e(n), in the units of sizes with Pareto scale
    ``size_scale`` (xm).

    For 1 < alpha < 2 only b(n) = xm n^(1/alpha) is needed, and e is None.
    For alpha < 1 the Pareto plug-ins give b(n) = xm n^(1/alpha) with
    e(n) = xm alpha/(1-alpha) (n^((1-alpha)/alpha) - 1), degenerating to
    b(n) = xm n, e(n) = xm log n at alpha = 1.  This is the one place the
    sequences are multiplied by the size scale.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if not (0.0 < alpha_hat < 2.0):
        raise DomainError("stable scalers need 0 < alpha < 2")
    if not 0.0 < size_scale < np.inf:
        raise DomainError(f"size scale must be positive and finite, got {size_scale}")
    if alpha_hat == 1.0:
        return float(n) * size_scale, float(np.log(n)) * size_scale
    b = float(n ** (1.0 / alpha_hat)) * size_scale
    if alpha_hat > 1.0:
        return b, None
    e = alpha_hat / (1.0 - alpha_hat) * (n ** ((1.0 - alpha_hat) / alpha_hat) - 1.0)
    return b, float(e) * size_scale


@dataclass(frozen=True)
class TailDiagnosis:
    alpha_hat: float
    regime: Regime
    mean: float
    variance: float
    quartiles: Tuple[float, float, float]


def diagnose(
    sizes, k: int, finite_variance_override: Optional[bool] = None
) -> TailDiagnosis:
    """Summary statistics plus tail index and the regime they imply."""
    mean, variance, quartiles = summary_stats(sizes)
    alpha_hat = qq_tail_index(sizes, k)
    regime = select_regime(alpha_hat, finite_variance_override)
    return TailDiagnosis(alpha_hat, regime, mean, variance, quartiles)
