"""Shared vocabulary: clocks, claim-age measures, rebate schedules.

Conventions used throughout the package:

* Time is measured in integer days on a clock where day 0 is the first day
  of the forecast window.  Observed sales live on negative days, the
  forecast window of length ``period`` starts at ``offset`` (0 for the
  first future period, ``period`` for the one after it).
* A sold item's claims are recorded as age offsets (claim day minus sale
  day) inside ``[0, warranty]``.
* A claim raised by an item sold on day ``x`` lands in the forecast window
  exactly when its age falls in a branch-dependent sub-interval of
  ``[0, warranty]``; see :meth:`TimeHorizon.claim_window`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError, ValidationError

__all__ = [
    "TimeHorizon",
    "ClaimWindow",
    "ClaimsMeasure",
    "RebateFunction",
    "MeanClaimsMeasure",
    "WeightedMeasure",
    "window_claim_total",
    "mean_window_claims",
]


class ClaimWindow(NamedTuple):
    """Closed age interval ``[lo, hi]`` whose claims hit the forecast window.

    ``at_zero`` / ``at_warranty`` flag whether the interval is pinned at the
    age-0 / age-W boundary, where the mean claims measure may carry atoms.
    """

    lo: float
    hi: float
    at_zero: bool
    at_warranty: bool


@dataclass(frozen=True)
class TimeHorizon:
    """Clock constants: warranty length W, forecast length T, window offset, scale n."""

    warranty: int
    period: int
    offset: int = 0
    scale: int = 1

    def __post_init__(self):
        if self.warranty <= 0 or self.period <= 0:
            raise DomainError("warranty and period must be positive")
        if 2 * self.period >= self.warranty:
            raise DomainError(
                f"need 2*period < warranty, got T={self.period}, W={self.warranty}"
            )
        if self.offset not in (0, self.period):
            raise DomainError("offset must be 0 or equal to period")
        if self.scale < 1:
            raise DomainError("scale must be a positive integer")

    @property
    def sale_days(self) -> np.ndarray:
        """Integer grid of sale days that can produce claims in the window."""
        return np.arange(-self.warranty + self.offset, self.period + self.offset + 1)

    def shifted(self, offset: int) -> "TimeHorizon":
        return TimeHorizon(self.warranty, self.period, offset, self.scale)

    def claim_window(self, sale_time: float) -> ClaimWindow:
        """Age window, per the three sale-time branches.

        With ``o`` the window offset, a sale at ``x`` contributes claims of
        age ``c`` when ``x + c`` lies in ``[o, T + o]`` and ``c`` in
        ``[0, W]``; the branches below are that intersection, with the
        boundary conventions fixed at ``x = o`` (first branch applies) and
        ``x = T + o - W`` (last branch applies).
        """
        w, t, o = self.warranty, self.period, self.offset
        if not (-w + o <= sale_time <= t + o):
            raise DomainError(
                f"sale time {sale_time} outside [{-w + o}, {t + o}]"
            )
        if sale_time >= o:
            return ClaimWindow(0.0, float(t + o - sale_time), True, False)
        if sale_time <= t + o - w:
            return ClaimWindow(float(o - sale_time), float(w), False, True)
        return ClaimWindow(float(o - sale_time), float(t + o - sale_time), False, False)


@dataclass(frozen=True)
class ClaimsMeasure:
    """Finite point measure of one item's claim-age offsets.

    Stored as a sorted tuple; the empty tuple is the zero measure.
    """

    points: tuple = ()

    def __post_init__(self):
        pts = tuple(sorted(float(p) for p in self.points))
        if pts and pts[0] < 0.0:
            raise DomainError("claim ages must be non-negative")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def count_in(self, lo: float, hi: float) -> int:
        """Number of points in the closed interval [lo, hi]."""
        return sum(1 for p in self.points if lo <= p <= hi)


EMPTY_MEASURE = ClaimsMeasure()


_REBATE_KINDS = ("free_replacement", "linear", "quadratic", "tabulated")


@dataclass(frozen=True)
class RebateFunction:
    """Rebate schedule r(t) on [0, W]: non-increasing, r(0) = 1, 0 <= r <= 1.

    ``unit_price`` is the item price c_b refunded pro rata; it is not used
    by the free-replacement policy.  Polynomial kinds integrate against the
    mean claims measure in closed form; a tabulated schedule (one value per
    integer day) falls back to trapezoid quadrature.
    """

    kind: str
    warranty: int
    unit_price: float = 1.0
    table: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in _REBATE_KINDS:
            raise DomainError(f"unknown rebate kind {self.kind!r}")
        if self.unit_price <= 0.0:
            raise DomainError("unit price must be positive")
        if self.kind == "tabulated":
            if self.table is None or len(self.table) != self.warranty + 1:
                raise ValidationError("tabulated rebate needs one value per day 0..W")
            vals = np.asarray(self.table, dtype=float)
            if abs(vals[0] - 1.0) > 1e-12:
                raise ValidationError("rebate must satisfy r(0) = 1")
            if np.any(vals < -1e-12) or np.any(vals > 1.0 + 1e-12):
                raise ValidationError("rebate values must lie in [0, 1]")
            if np.any(np.diff(vals) > 1e-12):
                raise ValidationError("rebate must be non-increasing")
            object.__setattr__(self, "table", tuple(float(v) for v in vals))
        elif self.table is not None:
            raise ValidationError("only tabulated rebates carry a table")

    @classmethod
    def free_replacement(cls, warranty: int) -> "RebateFunction":
        return cls("free_replacement", warranty)

    @classmethod
    def linear(cls, warranty: int, unit_price: float = 1.0) -> "RebateFunction":
        """r(t) = 1 - t/W."""
        return cls("linear", warranty, unit_price)

    @classmethod
    def quadratic(cls, warranty: int, unit_price: float = 1.0) -> "RebateFunction":
        """r(t) = (1 - t/W)^2."""
        return cls("quadratic", warranty, unit_price)

    @classmethod
    def tabulated(
        cls, values: Sequence[float], unit_price: float = 1.0
    ) -> "RebateFunction":
        values = tuple(float(v) for v in values)
        return cls("tabulated", len(values) - 1, unit_price, values)

    @property
    def poly_coef(self) -> Optional[np.ndarray]:
        """Power-basis coefficients of r, or None for tabulated schedules."""
        w = float(self.warranty)
        if self.kind == "free_replacement":
            return np.array([1.0])
        if self.kind == "linear":
            return np.array([1.0, -1.0 / w])
        if self.kind == "quadratic":
            return np.array([1.0, -2.0 / w, 1.0 / w**2])
        return None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-9) or np.any(t > self.warranty + 1e-9):
            raise DomainError("rebate evaluated outside [0, W]")
        if self.kind == "tabulated":
            out = np.interp(t, np.arange(self.warranty + 1), np.asarray(self.table))
        else:
            out = npoly.polyval(t, self.poly_coef)
        return float(out) if out.ndim == 0 else out

    def squared(self) -> "RebateFunction":
        """The schedule r^2, used for single-claim variance integrals."""
        if self.kind == "free_replacement":
            return self
        if self.kind == "linear":
            return RebateFunction("quadratic", self.warranty, self.unit_price)
        days = np.arange(self.warranty + 1)
        return RebateFunction.tabulated(np.asarray(self(days)) ** 2, self.unit_price)


@dataclass(frozen=True)
class MeanClaimsMeasure:
    """Mean claims measure: density ``slope*x + intercept`` on (0, W) plus
    atoms at 0 and W."""

    slope: float
    intercept: float
    atom0: float = 0.0
    atomW: float = 0.0
    warranty: int = 0

    def __post_init__(self):
        if self.warranty <= 0:
            raise DomainError("warranty must be positive")
        if self.atom0 < 0.0 or self.atomW < 0.0:
            raise ValidationError("atoms must be non-negative")
        # linear density: checking both endpoints of (0, W) suffices
        d0 = self.intercept
        dw = self.slope * self.warranty + self.intercept
        if min(d0, dw) < -1e-15:
            lo, hi = (0, self.warranty) if d0 < 0 else (self.warranty, 0)
            raise ValidationError(
                f"density negative near x={lo if d0 < 0 else hi} "
                f"(values {d0:.3e} at 0, {dw:.3e} at W)"
            )

    def density(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.intercept

    def density_interval(self, lo: float, hi: float) -> float:
        """Integral of the density over [lo, hi]."""
        return self.slope * (hi**2 - lo**2) / 2.0 + self.intercept * (hi - lo)

    def mass(
        self,
        lo: float,
        hi: float,
        include_left_atom: bool = False,
        include_right_atom: bool = False,
    ) -> float:
        if not (0.0 <= lo <= hi <= self.warranty):
            raise DomainError(f"interval [{lo}, {hi}] not inside [0, {self.warranty}]")
        out = self.density_interval(lo, hi)
        if include_left_atom and lo <= 0.0:
            out += self.atom0
        if include_right_atom and hi >= self.warranty:
            out += self.atomW
        return out

    @property
    def total_mass(self) -> float:
        return self.mass(0.0, float(self.warranty), True, True)

    def bin_masses(self) -> np.ndarray:
        """Daily masses m((i-1, i]) for i = 0..W, with bin 0 = m({0}).

        The atom at W is folded into bin W, matching how daily claim counts
        are tallied from records.
        """
        w = self.warranty
        bins = np.empty(w + 1)
        bins[0] = self.atom0
        i = np.arange(1, w + 1, dtype=float)
        bins[1:] = self.slope * i + self.intercept - self.slope / 2.0
        bins[w] += self.atomW
        return bins


@dataclass(frozen=True)
class WeightedMeasure:
    """The measure r(y) m(dy): mean measure reweighted by a rebate schedule."""

    base: MeanClaimsMeasure
    weight: RebateFunction

    def __post_init__(self):
        if self.base.warranty != self.weight.warranty:
            raise ValidationError("measure and rebate must share the warranty length")

    def mass(
        self,
        lo: float,
        hi: float,
        include_left_atom: bool = False,
        include_right_atom: bool = False,
    ) -> float:
        """Integral of r(y) over [lo, hi] against the density, plus flagged atoms.

        Exact for polynomial rebates; trapezoid on the daily grid otherwise.
        """
        w = self.base.warranty
        if not (0.0 <= lo <= hi <= w):
            raise DomainError(f"interval [{lo}, {hi}] not inside [0, {w}]")
        coef = self.weight.poly_coef
        if coef is not None:
            dens = np.array([self.base.intercept, self.base.slope])
            prod = npoly.polymul(coef, dens)
            anti = npoly.polyint(prod)
            out = npoly.polyval(hi, anti) - npoly.polyval(lo, anti)
        else:
            nodes = np.unique(
                np.concatenate(
                    [[lo, hi], np.arange(np.ceil(lo), np.floor(hi) + 1.0)]
                )
            )
            nodes = nodes[(nodes >= lo) & (nodes <= hi)]
            vals = np.asarray(self.weight(nodes)) * self.base.density(nodes)
            out = float(np.trapezoid(vals, nodes)) if len(nodes) > 1 else 0.0
        if include_left_atom and lo <= 0.0:
            out += self.base.atom0 * float(self.weight(0.0))
        if include_right_atom and hi >= w:
            out += self.base.atomW * float(self.weight(float(w)))
        return float(out)

    @property
    def total_mass(self) -> float:
        return self.mass(0.0, float(self.base.warranty), True, True)


def window_claim_total(
    measure: ClaimsMeasure,
    sale_time: float,
    rebate: RebateFunction,
    horizon: TimeHorizon,
) -> float:
    """Rebate-weighted number of claims an item sold at ``sale_time``
    lands in the forecast window.

    With r identically 1 this is a plain claim count; under a pro-rata
    schedule each claim of age c contributes r(c).  Bounded above by the
    measure's total mass.
    """
    win = horizon.claim_window(sale_time)
    if not measure.points:
        return 0.0
    pts = np.fromiter(
        (p for p in measure.points if win.lo <= p <= win.hi), dtype=float
    )
    if pts.size == 0:
        return 0.0
    return float(np.sum(rebate(pts)))


def mean_window_claims(
    weighted: WeightedMeasure, sale_time: float, horizon: TimeHorizon
) -> float:
    """Expected rebate-weighted claims in the window for a sale at ``sale_time``.

    Evaluates the weighted mean measure over the branch-correct age window,
    including the age-0 / age-W atoms exactly when the window touches them.
    """
    win = horizon.claim_window(sale_time)
    return weighted.mass(win.lo, win.hi, win.at_zero, win.at_warranty)
