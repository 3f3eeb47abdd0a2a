"""Shared vocabulary: clocks, claim-age measures, polynomial rebate schedules,
and the fluctuation limit's daily increments (made by ``sales`` from data and
by ``sim`` from a sales law, read by ``engine``).

Conventions used throughout the package:

* Time is measured in integer days on a clock where day 0 is the first day
  of the forecast window.  Observed sales live on negative days, the
  forecast window of length ``period`` starts at ``offset`` (0 for the
  first future period, ``period`` for the one after it).
* A sold item's claims are recorded as age offsets (claim day minus sale
  day) inside ``[0, warranty]``.
* The window rule is stated once, here: a claim of age ``c`` raised by an
  item sold on day ``x`` lands in the forecast window exactly when
  ``0 <= c <= W`` and ``o <= x + c <= T + o``.  :meth:`TimeHorizon.claim_window`
  turns that into a closed age interval ``[lo, hi]`` per sale time (over
  arrays of sale times), :meth:`TimeHorizon.sale_day_range` is its inverse
  over integer sale days, and :meth:`TimeHorizon.lands_in_window` tests its
  bounds claim by claim, a sale outside ``[-W + o, T + o]`` missing.  The
  interval is closed, so it holds the age-0 atom exactly when ``lo == 0``
  and the age-W atom exactly when ``hi == W``; :meth:`MeanClaimsMeasure.mass`
  measures it with no further switch.
* Sums of weights over ranges of integer days go through one kernel,
  :func:`range_sums`, which rejects a non-empty range off its grid; columns
  made in blocks are joined by ``_concat_blocks``.
* Polynomials are coefficient arrays, highest power first, handled by
  numpy's own ``np.polyval``, ``np.polyint`` and ``np.polymul``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "TimeHorizon",
    "RebateFunction",
    "MeanClaimsMeasure",
    "range_sums",
    "FluctuationIncrements",
]


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

    def claim_window(self, sale_time) -> Tuple[np.ndarray, np.ndarray]:
        """Closed age windows ``(lo, hi)`` of sales at ``sale_time`` (a
        scalar or an array; scalars give floats).

        With ``o`` the window offset, a sale at ``x`` contributes claims of
        age ``c`` when ``x + c`` lies in ``[o, T + o]`` and ``c`` in
        ``[0, W]``, i.e. when ``max(0, o - x) <= c <= min(W, T + o - x)``.
        Sale times outside ``[-W + o, T + o]`` raise.
        """
        w, t, o = self.warranty, self.period, self.offset
        x = np.asarray(sale_time, dtype=float)
        outside = ~((x >= -w + o) & (x <= t + o))
        if np.any(outside):
            raise DomainError(
                f"sale time {x[outside].flat[0]} outside [{-w + o}, {t + o}]"
            )
        return np.maximum(0.0, o - x)[()], np.minimum(float(w), t + o - x)[()]

    def sale_day_range(self, a, b) -> Tuple[np.ndarray, np.ndarray]:
        """Inverse of :meth:`claim_window` over integer sale days.

        For ages ``0 <= a <= b <= W`` (arrays), returns the first and last
        integer sale day ``x`` whose claim window contains both ``a`` and
        ``b``; the range is empty when ``start > end``.  The window contains
        them iff ``x >= o - a`` and ``x <= T + o - b``.  Under the
        precondition on the ages that range lies inside the sale grid
        ``[-W + o, T + o]``, so nothing is clamped; :func:`range_sums`
        rejects a non-empty range that leaves its grid.
        """
        t, o = self.period, self.offset
        start = np.ceil(o - np.asarray(a))
        end = np.floor(t + o - np.asarray(b))
        return start.astype(np.int64), end.astype(np.int64)

    def lands_in_window(self, sale_time, age) -> np.ndarray:
        """Whether a claim of age ``c`` from a sale at ``x`` lands in the
        window, element-wise: ``-W + o <= x <= T + o`` and ``max(0, o - x) <=
        c <= min(W, T + o - x)``, so a sale outside that range misses."""
        w, t, o = self.warranty, self.period, self.offset
        x = np.asarray(sale_time, dtype=float)
        hit = (x >= -w + o) & (x <= t + o)
        hit &= np.maximum(0.0, o - x) <= age
        hit &= age <= np.minimum(float(w), t + o - x)
        return hit


# r(t) = p(t / W): p's coefficients, highest power first, exact in t / W
_REBATE_SHAPES = {
    "free_replacement": (1.0,),
    "linear": (-1.0, 1.0),
    "quadratic": (1.0, -2.0, 1.0),
}


@dataclass(frozen=True)
class RebateFunction:
    """Rebate schedule r(t) on [0, W]: non-increasing, r(0) = 1, 0 <= r <= 1.

    ``unit_price`` is the item price c_b refunded pro rata; it is not used
    by the free-replacement policy.  Every kind is a polynomial, so r and
    its powers integrate against the mean claims measure in closed form.
    """

    kind: str
    warranty: int
    unit_price: float = 1.0

    def __post_init__(self):
        if self.kind not in _REBATE_SHAPES:
            raise DomainError(f"unknown rebate kind {self.kind!r}")
        if not 0.0 < self.unit_price < np.inf:
            raise DomainError(
                f"unit price must be positive and finite, got {self.unit_price}"
            )

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

    def poly_coef(self, power: int = 1) -> np.ndarray:
        """Coefficients of r^power in t, highest power first, as
        ``np.polyval`` takes them; ``power`` must be a non-negative integer.

        The power is taken on the integer coefficients in t/W and scaled
        once, so the square of ``linear`` has exactly the coefficients of
        ``quadratic``.
        """
        if power < 0:
            raise DomainError(f"rebate power must be non-negative, got {power}")
        shape = np.ones(1)
        for _ in range(power):
            shape = np.polymul(shape, _REBATE_SHAPES[self.kind])
        return shape / float(self.warranty) ** np.arange(len(shape) - 1, -1, -1)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if not np.all((t >= -1e-9) & (t <= self.warranty + 1e-9)):
            raise DomainError("rebate evaluated outside [0, W]")
        out = np.polyval(self.poly_coef(), t)
        return float(out) if out.ndim == 0 else out


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
        if not np.all(np.isfinite([self.slope, self.intercept, self.atom0, self.atomW])):
            raise ValidationError("density and atoms must be finite")
        if self.atom0 < 0.0 or self.atomW < 0.0:
            raise ValidationError("atoms must be non-negative")
        # linear density: checking both endpoints of (0, W) suffices
        d0 = self.intercept
        dw = self.slope * self.warranty + self.intercept
        if min(d0, dw) < -1e-15:
            raise ValidationError(
                f"density negative near x={0 if d0 < 0 else 'W'} "
                f"(values {d0:.3e} at 0, {dw:.3e} at W)"
            )

    def density(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.intercept

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

    def mass(self, lo, hi, rebate: RebateFunction, power: int = 1):
        """The measure r(y)^power m(dy) of the closed interval [lo, hi]
        (``power`` 2 gives the single-claim variance weights): r^power
        integrated against the density, plus the age-0 atom when ``lo == 0``
        and the age-W atom when ``hi == W``; exact, element-wise over arrays
        of bounds (a float for scalars)."""
        w = self.warranty
        if rebate.warranty != w:
            raise ValidationError("measure and rebate must share the warranty length")
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if not np.all((0.0 <= lo) & (lo <= hi) & (hi <= w)):
            raise DomainError(f"interval [{lo}, {hi}] not inside [0, {w}]")
        coef = rebate.poly_coef(power)
        anti = np.polyint(np.polymul(coef, [self.slope, self.intercept]))
        out = np.polyval(anti, hi) - np.polyval(anti, lo)
        out = out + np.where(lo == 0.0, self.atom0 * np.polyval(coef, 0.0), 0.0)
        out = out + np.where(hi == w, self.atomW * np.polyval(coef, float(w)), 0.0)
        return float(out) if out.ndim == 0 else out


def _concat_blocks(parts: list) -> List[np.ndarray]:
    """Columns joined from blocks, ``parts`` holding one sequence of columns
    per block.  ``parts`` is emptied, and each column's blocks are dropped
    once it is joined, so at most one joined column lives beside the blocks."""
    columns = [list(column) for column in zip(*parts)]
    parts.clear()
    return [np.concatenate(columns.pop(0)) for _ in range(len(columns))]


def range_sums(start, end, weight, first: int, size: int) -> np.ndarray:
    """Per-day sums of weights over closed day ranges.

    Entry k of the result, for day ``first + k`` (k = 0 .. size - 1), sums
    ``weight[i]`` over every range i with ``start[i] <= first + k <=
    end[i]``.  Ranges with ``start > end`` are empty; a non-empty range
    that leaves the ``size`` days from ``first`` raises, the first such
    range named.  One difference array and one cumulative sum, whatever
    the number of ranges.
    """
    start, end = np.asarray(start), np.asarray(end)
    weight = np.asarray(weight, dtype=float)
    keep = start <= end
    if not keep.all():
        start, end, weight = start[keep], end[keep], weight[keep]
    last = first + size - 1
    off = (start < first) | (end > last)
    if off.any():
        i = off.argmax()
        raise DomainError(
            f"day range [{start[i]}, {end[i]}] leaves the grid [{first}, {last}]"
        )
    acc = np.zeros(size + 1)
    np.add.at(acc, start - first, weight)
    np.add.at(acc, end - (first - 1), -weight)
    return np.cumsum(acc)[:size]


@dataclass(frozen=True)
class FluctuationIncrements:
    """Moments of the fluctuation limit's daily increments over one horizon.

    Entry k refers to the increment X(d) - X(d - 1) over day d = k - W + 1,
    so the entries run over days -W+1 .. T+offset, with X anchored at zero
    on day -W.  Increment k has mean ``mean[k]``; increments j and k have
    covariance ``scale[j] * scale[k] * acf[|j - k|]``.  An estimated record
    has ``acf`` zero beyond lag min(N - 1, W), N the observed sale days,
    and is assembled once per report, for its last window.
    """

    mean: np.ndarray
    scale: np.ndarray
    acf: np.ndarray

    def __post_init__(self):
        shape = self.mean.shape
        if len(shape) != 1 or self.scale.shape != shape or self.acf.shape != shape:
            raise DomainError("increment mean, scale and autocorrelation must align")
        if not np.all(self.scale >= 0.0):
            raise DomainError("increment scale must be non-negative")
