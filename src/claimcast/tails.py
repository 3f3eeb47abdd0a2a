"""Claim-size diagnostics: summaries, tail-index estimation, regime choice.

Heavy-tailed claim sizes steer the cost approximation toward a stable
limit; the tail index is read off the slope of the upper order statistics
against exponential quantiles.  The regime picks which limit applies and
the scalers supply the stable regimes' normalizing sequences.
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


def summary_stats(sizes) -> Tuple[float, float, Tuple[float, float, float]]:
    """Sample mean, unbiased variance and the linearly interpolated
    quartiles (q25, q50, q75)."""
    x = np.asarray(sizes, dtype=float)
    if x.size < 2:
        raise DomainError("need at least two claim sizes")
    quartiles = tuple(float(q) for q in np.percentile(x, [25, 50, 75]))
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


@dataclass(frozen=True)
class Scalers:
    """Normalizing b(n) and centering e(n) sequences for the stable limits."""

    b_n: float
    e_n: Optional[float] = None


def tail_scalers(alpha_hat: float, n: int) -> Scalers:
    """Pareto plug-in estimates of the stable normalizing sequences.

    For 1 < alpha < 2 only b(n) = n^(1/alpha) is needed.  For alpha < 1
    the Pareto plug-ins give b(n) = n^(1/alpha) with
    e(n) = alpha/(1-alpha) (n^((1-alpha)/alpha) - 1), degenerating to
    b(n) = n, e(n) = log n at alpha = 1.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if not (0.0 < alpha_hat < 2.0):
        raise DomainError("stable scalers need 0 < alpha < 2")
    if alpha_hat == 1.0:
        return Scalers(b_n=float(n), e_n=float(np.log(n)))
    b = float(n ** (1.0 / alpha_hat))
    if alpha_hat > 1.0:
        return Scalers(b_n=b)
    e = alpha_hat / (1.0 - alpha_hat) * (n ** ((1.0 - alpha_hat) / alpha_hat) - 1.0)
    return Scalers(b_n=b, e_n=float(e))


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
