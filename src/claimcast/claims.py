"""From sales and claims tables to fitted mean measures and moment grids.

Records travel as numpy columns: a :class:`SalesTable` with one row per sold
item and a :class:`ClaimsTable` with one row per claim.  The chain is:
merge same-day claims per vehicle (:func:`aggregate_daily_claims`), join
each claim onto its item with the age clipped into [0, W]
(:func:`join_claims`), tally the ages into daily bins, fit a linear density
plus end atoms, and finally tabulate the per-sale-day mean and variance of
rebate-weighted window claims.  Which claims land in a window is decided by
:class:`claimcast.core.TimeHorizon` alone, and the per-day sums go through
:func:`claimcast.core.range_sums`, the one day-range kernel.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import (
    MeanClaimsMeasure,
    RebateFunction,
    TimeHorizon,
    WeightedMeasure,
    mean_window_claims,
    range_sums,
)
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


def aggregate_daily_claims(claims: ClaimsTable) -> ClaimsTable:
    """Merge all of a vehicle's same-day claims into one row.

    A car returning with p claims on one date is treated as a single claim
    whose size is the sum of the p amounts (added in input order).  Output
    is sorted by (vehicle_id, day) for a deterministic downstream order.
    Vehicle ids and days are each ranked once, so the merge runs on one
    int64 key, vehicle rank * distinct days + day rank, that sorts the same.
    """
    vids, vid_rank = np.unique(claims.vehicle_id, return_inverse=True)
    days, day_rank = np.unique(claims.day, return_inverse=True)
    merged, inverse = np.unique(vid_rank * len(days) + day_rank, return_inverse=True)
    amount = np.bincount(inverse, weights=claims.amount, minlength=len(merged))
    return ClaimsTable(vids[merged // len(days)], days[merged % len(days)], amount)


@dataclass(frozen=True, eq=False)
class JoinedClaims:
    """Claims of sold items as columns, sorted by (item, age).

    ``item`` indexes the sales table, ``age`` is the claim day minus the
    sale day clipped into [0, W], and ``quarantined`` counts the claims whose
    vehicle has no sales row.
    """

    item: np.ndarray
    age: np.ndarray
    amount: np.ndarray
    quarantined: int = 0

    def __post_init__(self):
        _columns(self, item=np.int64, age=float, amount=float)
        if np.any(np.diff(self.item) < 0):
            raise DomainError("joined claims must be sorted by item")


def join_claims(sales: SalesTable, claims: ClaimsTable, warranty: int) -> JoinedClaims:
    """Attach every claim to its sold item, with the age clipped into [0, W].

    Ages below 0 (claims honored before the recorded sale) become 0 and ages
    beyond W (claims honored past warranty) become W.  Claims whose
    vehicle_id has no sales row are quarantined: counted, not dropped
    silently.
    """
    order = np.argsort(sales.vehicle_id, kind="stable")
    ids = sales.vehicle_id[order]
    pos = np.searchsorted(ids, claims.vehicle_id)
    known = pos < len(ids)
    known[known] = ids[pos[known]] == claims.vehicle_id[known]
    item = order[pos[known]]
    age = np.clip(claims.day[known] - sales.day[item], 0, warranty)
    rows = np.lexsort((age, item))
    quarantined = int(len(claims) - np.count_nonzero(known))
    if quarantined:
        logger.warning(
            "%d claim records reference unknown vehicles and were quarantined",
            quarantined,
        )
    return JoinedClaims(item[rows], age[rows], claims.amount[known][rows], quarantined)


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


def moment_grids(
    claims: JoinedClaims,
    fitted: MeanClaimsMeasure,
    rebate: RebateFunction,
    horizon: TimeHorizon,
    n: int,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Mean and variance grids of per-item window claims over
    ``horizon.sale_days``, and how many variance entries were floored at 0.

    The mean grid integrates the fitted measure over each day's window.
    The second moment is the raw per-item average of the squared weighted
    window totals: every ordered pair (i, j) of one item's claims adds
    r(c_i) r(c_j) on the sale days whose window holds both ages, so the
    whole grid costs one pass over the claim pairs.  Mixing the two can
    push the variance slightly negative, hence the floor.
    """
    if n < 1:
        raise DomainError("need at least one sold item")
    age = claims.age
    wts = np.asarray(rebate(age), dtype=float)

    # pair expansion: claim i pairs with every claim of its item, in order
    first = np.searchsorted(claims.item, claims.item, side="left")
    size = np.searchsorted(claims.item, claims.item, side="right") - first
    left = np.repeat(np.arange(len(age)), size)
    right = np.repeat(first, size) + (
        np.arange(len(left)) - np.repeat(np.cumsum(size) - size, size)
    )
    start, end = horizon.sale_day_range(
        np.minimum(age[left], age[right]), np.maximum(age[left], age[right])
    )
    days = horizon.sale_days
    second = range_sums(start, end, wts[left] * wts[right], days[0], len(days)) / n
    mean = mean_window_claims(WeightedMeasure(fitted, rebate), days, horizon)
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
    return mean, np.maximum(var, 0.0), floored
