"""From sales and claims tables to fitted mean measures and moment grids.

Records travel as numpy columns: a :class:`SalesTable` with one row per sold
item and a :class:`ClaimsTable` with one row per claim.  The chain is: join
each claim onto its item with the age clipped into [0, W], a vehicle's
same-day claims merged in the join's own sort (:func:`join_claims`), tally
the ages into daily bins, fit a linear density plus end atoms, and finally
tabulate, for every forecast window in one call, the per-sale-day mean and
variance of rebate-weighted window claims.  Which claims land in a window
is decided by :class:`claimcast.core.TimeHorizon` alone, the mean grid is
:meth:`claimcast.core.MeanClaimsMeasure.mass` of each window, and the
per-day sums go through :func:`claimcast.core.range_sums`, the one
day-range kernel.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import MeanClaimsMeasure, RebateFunction, TimeHorizon, range_sums
from .errors import DomainError

logger = logging.getLogger(__name__)

__all__ = [
    "SalesTable",
    "ClaimsTable",
    "JoinedClaims",
    "aggregate_daily_claims",
    "join_claims",
    "empirical_mean_measure",
    "fit_mean_measure",
    "moment_grids",
]


def _columns(table, **dtypes) -> None:
    """Coerce a frozen table's columns to arrays and check equal lengths."""
    for name, dtype in dtypes.items():
        object.__setattr__(table, name, np.asarray(getattr(table, name), dtype=dtype))
    if len({getattr(table, name).shape for name in dtypes}) != 1:
        raise DomainError(f"{type(table).__name__} columns differ in length")


@dataclass(frozen=True, eq=False)
class SalesTable:
    """Sold items as columns: vehicle id and sale day, one row per item."""

    vehicle_id: np.ndarray
    day: np.ndarray

    def __post_init__(self):
        _columns(self, vehicle_id=str, day=np.int64)

    def __len__(self) -> int:
        return len(self.day)


@dataclass(frozen=True, eq=False)
class ClaimsTable:
    """Claims as columns: vehicle id, claim day and amount, one row per claim."""

    vehicle_id: np.ndarray
    day: np.ndarray
    amount: np.ndarray

    def __post_init__(self):
        _columns(self, vehicle_id=str, day=np.int64, amount=float)
        if np.any(self.amount < 0.0):
            raise DomainError("claim amount must be non-negative")

    def __len__(self) -> int:
        return len(self.day)


def _id_keys(*columns: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Str arrays of ids as uint64 keys that sort and compare as the ids do.

    An id of at most 8 characters below U+0100 packs into one big-endian
    64-bit word, its Latin-1 bytes then NULs: numpy compares str values
    character by character with NULs past the shorter, so the words keep
    both order and equality.  If any column is wider or holds another
    character, every column comes back unchanged, for the str path.
    """
    keys = []
    for ids in columns:
        ids = np.ascontiguousarray(ids)
        width = ids.itemsize // 4
        codes = ids.view(np.uint32).reshape(len(ids), width)
        if width > 8 or np.any(codes > 0xFF):
            return columns
        chars = np.zeros((len(ids), 8), dtype=np.uint8)
        chars[:, :width] = codes
        keys.append(chars.view(">u8").ravel().astype(np.uint64))
    return tuple(keys)


def _merge_days(owner: np.ndarray, day: np.ndarray, amount: np.ndarray):
    """The first row of each distinct (owner, day), owners being int ranks,
    in that order, and its rows' amounts summed in input order: one stable
    argsort of the key owner * span + day (days ranked if it could overflow)."""
    low, high = day.min(initial=0), day.max(initial=0)
    if (owner.max(initial=0) + 1.0) * (float(high) - float(low) + 1.0) >= 2.0**62:
        low, high, day = 0, len(day), np.unique(day, return_inverse=True)[1]
    key = owner * (high - low + 1) + (day - low)
    order = np.argsort(key, kind="stable")
    new = np.diff(key[order], prepend=-1) != 0
    return order[new], np.bincount(np.cumsum(new) - 1, weights=amount[order])


def aggregate_daily_claims(claims: ClaimsTable) -> ClaimsTable:
    """Merge all of a vehicle's same-day claims into one row.

    A car returning with p claims on one date is treated as a single claim
    whose size is the sum of the p amounts (added in input order).  Output
    is sorted by (vehicle_id, day) for a deterministic downstream order.
    Vehicle ids (as :func:`_id_keys`) are ranked, then merged as
    :func:`join_claims` merges items.
    """
    (keys,) = _id_keys(claims.vehicle_id)
    _, vid_rank = np.unique(keys, return_inverse=True)
    rows, amount = _merge_days(vid_rank, claims.day, claims.amount)
    return ClaimsTable(claims.vehicle_id[rows], claims.day[rows], amount)


@dataclass(frozen=True, eq=False)
class JoinedClaims:
    """Claims of sold items as columns, sorted by (item, age).

    ``item`` indexes the sales table, ``age`` is the claim day minus the
    sale day clipped into [0, W], and ``quarantined`` counts the merged
    claims whose vehicle has no sales row.
    """

    item: np.ndarray
    age: np.ndarray
    amount: np.ndarray
    quarantined: int = 0

    def __post_init__(self):
        _columns(self, item=np.int64, age=float, amount=float)
        step = np.diff(self.item)
        if np.any((step < 0) | ((step == 0) & (np.diff(self.age) < 0))):
            raise DomainError("joined claims must be sorted by (item, age)")


def join_claims(sales: SalesTable, claims: ClaimsTable, warranty: int) -> JoinedClaims:
    """Attach every claim to its sold item, with the age clipped into [0, W].

    Ages below 0 (claims honored before the recorded sale) become 0 and ages
    beyond W (claims honored past warranty) become W.  Claims whose
    vehicle_id has no sales row are quarantined: counted, not dropped
    silently.  Ids are matched as :func:`_id_keys`.  Same-day claims merge
    as in :func:`aggregate_daily_claims`, in one sort on (item, day) that
    also orders the rows by (item, age), unknown vehicles ranked last.
    """
    if warranty < 0:
        raise DomainError("warranty must be non-negative")
    sale_keys, claim_keys = _id_keys(sales.vehicle_id, claims.vehicle_id)
    order = np.argsort(sale_keys, kind="stable")
    ids = sale_keys[order]
    pos = np.searchsorted(ids, claim_keys)
    known = pos < len(ids)
    known[known] = ids[pos[known]] == claim_keys[known]
    owner = np.empty(len(claims), dtype=np.int64)
    owner[known] = order[pos[known]]
    owner[~known] = len(ids) + np.unique(claim_keys[~known], return_inverse=True)[1]
    rows, amount = _merge_days(owner, claims.day, claims.amount)
    kept = int(np.searchsorted(owner[rows], len(ids)))
    item, rows = owner[rows[:kept]], rows[:kept]
    age = np.clip(claims.day[rows] - sales.day[item], 0, warranty)
    quarantined = len(amount) - kept
    if quarantined:
        logger.warning(
            "%d claim records reference unknown vehicles and were quarantined",
            quarantined,
        )
    return JoinedClaims(item, age, amount[:kept], quarantined)


def empirical_mean_measure(ages, n: int, warranty: int) -> np.ndarray:
    """Average daily claim-age histogram over all n sold items.

    ``ages`` holds every claim's age in [0, W]; ``n`` counts every sold
    item, claim-free ones included.  Bin i of the W + 1 bins holds the mean
    number of claims per item aged in (i-1, i], with bin 0 those at age 0.
    """
    if n < 1:
        raise DomainError("need at least one sold item")
    days = np.minimum(np.ceil(np.maximum(ages, 0.0)), warranty).astype(np.int64)
    return np.bincount(days, minlength=warranty + 1) / n


def fit_mean_measure(bins) -> MeanClaimsMeasure:
    """Linear density plus end atoms fitted to the daily bins 0..W of
    :func:`empirical_mean_measure`; W is ``len(bins) - 1``.

    Interior bins satisfy m((i-1, i]) = a*i + (b - a/2) under the density
    a*x + b, so an ordinary least-squares line through bins 1..W-1 yields
    a from the slope and b from intercept + a/2.  The end bins are taken
    directly as the atom masses (the last bin's small density content is
    absorbed into the atom, matching how the bins are tallied).
    """
    bins = np.asarray(bins, dtype=float)
    if bins.ndim != 1:
        raise DomainError("expected one bin per day 0..W")
    if np.any(bins < 0.0):
        raise DomainError("bin masses must be non-negative")
    w = len(bins) - 1
    if w < 3:
        raise DomainError("need at least two interior bins to fit")
    i = np.arange(1, w, dtype=float)
    slope, intercept = np.polyfit(i, bins[1:w], 1)
    return MeanClaimsMeasure(
        slope=float(slope),
        intercept=float(intercept + slope / 2.0),
        atom0=float(bins[0]),
        atomW=float(bins[w]),
        warranty=w,
    )


def _close_pairs(item: np.ndarray, age: np.ndarray, warranty: int, period: int):
    """The ordered pairs (i, j) of one item's claims at most ``period`` apart,
    in (i, j) order, for claims sorted by (item, age).  Claim i's candidates
    run from ``first[i]``, the first claim whose key item * (W + T + 2) + age
    is at most T + 1/2 below i's, to the last j with ``first[j] <= i``; the
    key can round fractional ages, so hi - lo <= T is tested on the ages."""
    key = item * (warranty + period + 2.0) + age
    first = np.searchsorted(key, key - (period + 0.5))
    size = np.cumsum(np.bincount(first, minlength=len(key))) - first
    left = np.repeat(np.arange(len(age)), size)
    right = np.arange(len(left)) - np.repeat(np.cumsum(size) - size - first, size)
    close = np.abs(age[left] - age[right]) <= period
    return left[close], right[close]


def moment_grids(
    claims: JoinedClaims,
    fitted: MeanClaimsMeasure,
    rebate: RebateFunction,
    horizons: Sequence[TimeHorizon],
) -> List[Tuple[np.ndarray, np.ndarray, int]]:
    """Per horizon, the mean and variance grids of per-item window claims
    over ``horizon.sale_days`` and how many variance entries were floored
    at 0; the horizons must share W, T and the item count n (``scale``).

    The mean grid is the rebate-weighted fitted measure of each day's
    window, :meth:`MeanClaimsMeasure.mass`.
    The second moment is the raw per-item average of the squared weighted
    window totals: every ordered pair (i, j) of one item's claims at most
    T apart (no window spans more) adds r(c_i) r(c_j) on the sale days
    whose window holds both ages.  Counted from the first sale day, those
    days are the offset-0 window's, and with whole-day ages (as
    :func:`join_claims` gives) every offset's, so one :func:`range_sums`
    serves all horizons.  For fractional ages this ceil(-lo) form is exact;
    ceil(o - lo) can round differently for lo within o * 2**-52 of a whole
    number.  Mixing the moments can push the variance below 0, hence the floor.
    """
    shapes = {(h.warranty, h.period, h.scale) for h in horizons}
    if len(shapes) != 1:
        raise DomainError("horizons must share one warranty, period and scale")
    ((w, t, n),) = shapes
    age = claims.age
    wts = np.asarray(rebate(age), dtype=float)
    left, right = _close_pairs(claims.item, age, w, t)
    lo, hi = np.minimum(age[left], age[right]), np.maximum(age[left], age[right])
    start, end = TimeHorizon(w, t).sale_day_range(lo, hi)
    second = range_sums(start, end, wts[left] * wts[right], -w, w + t + 1) / n

    grids = []
    for horizon in horizons:
        mean = fitted.mass(*horizon.claim_window(horizon.sale_days), rebate)
        if np.any(mean < 0.0):
            raise DomainError("mean window claims must be non-negative")
        var = second - mean**2
        floored = int(np.sum(var < 0.0))
        if floored:
            logger.info(
                "floored %d negative variance entries (worst %.3e)",
                floored,
                float(var.min()),
            )
        grids.append((mean, np.maximum(var, 0.0), floored))
    return grids
