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

Vehicle ids are byte columns of their UTF-8 encodings, held once per
table.  Each step holds its inputs, its result and at most one block of
work.  The join packs ids of at most 8 bytes into one 8-byte key per row
(longer ones compare as bytes) and drops each index array after its last
use; the grids expand the close claim pairs ``PAIR_BLOCK`` claims at a
time and keep only each pair's sale-day range and weight.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .core import MeanClaimsMeasure, RebateFunction, TimeHorizon, _concat_blocks, range_sums
from .errors import DomainError

logger = logging.getLogger(__name__)

# claims whose close pairs moment_grids expands at a time
PAIR_BLOCK = 2048

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
    """Coerce a frozen table's columns to arrays and check equal lengths; a
    ``bytes`` column holds ids, encoded by :func:`_utf8`."""
    for name, dtype in dtypes.items():
        column = getattr(table, name)
        column = _utf8(column) if dtype is bytes else np.asarray(column, dtype=dtype)
        object.__setattr__(table, name, column)
    if len({getattr(table, name).shape for name in dtypes}) != 1:
        raise DomainError(f"{type(table).__name__} columns differ in length")


def _utf8(ids) -> np.ndarray:
    """Ids as a byte column of their UTF-8 encodings, as wide as the widest.

    A byte column is taken as it is.  UTF-8 orders ids as their code
    points do, so sorts, ranks and merges on bytes order as they would on
    the text.
    """
    column = np.asarray(ids)
    if column.dtype.kind == "S":
        return column
    text = column.astype(str, copy=False).tolist()
    return np.array([v.encode() for v in text], dtype=bytes)


@dataclass(frozen=True, eq=False)
class SalesTable:
    """Sold items as columns: vehicle id and sale day, one row per item.

    ``vehicle_id`` is a byte column (``S<width>``) of UTF-8 ids; str ids
    are encoded once, when the table is built.
    """

    vehicle_id: np.ndarray
    day: np.ndarray

    def __post_init__(self):
        _columns(self, vehicle_id=bytes, day=np.int64)

    def __len__(self) -> int:
        return len(self.day)


@dataclass(frozen=True, eq=False)
class ClaimsTable:
    """Claims as columns: vehicle id, claim day and amount, one row per claim.

    ``vehicle_id`` is a byte column like :class:`SalesTable`'s.
    """

    vehicle_id: np.ndarray
    day: np.ndarray
    amount: np.ndarray

    def __post_init__(self):
        _columns(self, vehicle_id=bytes, day=np.int64, amount=float)
        if np.any(self.amount < 0.0):
            raise DomainError("claim amount must be non-negative")

    def __len__(self) -> int:
        return len(self.day)


def _pack(ids: np.ndarray) -> np.ndarray:
    """uint64 keys of a byte column of ids at most 8 bytes wide.

    Each id packs into one big-endian 64-bit word, its bytes then NULs:
    numpy compares byte strings byte by byte with NULs past the shorter,
    so the words keep both order and equality.  The words are written
    byte-reversed into one (n, 8) byte matrix, which is then read as
    little-endian keys with no further copy.
    """
    width = ids.dtype.itemsize
    codes = np.ascontiguousarray(ids).view(np.uint8).reshape(len(ids), width)
    chars = np.zeros((len(ids), 8), dtype=np.uint8)
    chars[:, 8 - width :] = codes[:, ::-1]
    return chars.view("<u8").ravel()


def _id_keys(*columns: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Byte columns of ids as :func:`_pack` keys, which sort and compare as
    the ids do, if no column is wider than 8 bytes; else every column comes
    back unchanged, to be compared as bytes.
    """
    if any(ids.dtype.itemsize > 8 for ids in columns):
        return columns
    return tuple(_pack(ids) for ids in columns)


def _merge_days(owner: np.ndarray, day: np.ndarray, amount: np.ndarray):
    """The first row of each distinct (owner, day), owners being int ranks,
    in that order, and its rows' amounts summed in input order: one stable
    argsort of the key owner * span + day (days ranked if it could overflow)."""
    low, high = day.min(initial=0), day.max(initial=0)
    if (owner.max(initial=0) + 1.0) * (float(high) - float(low) + 1.0) >= 2.0**62:
        low, high, day = 0, len(day), np.unique(day, return_inverse=True)[1]
    key = owner * (high - low + 1)
    key += day
    key -= low
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    del key
    group = np.cumsum(new)
    group -= 1
    return order[new], np.bincount(group, weights=amount[order])


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

    Ages are clipped day differences and the merge keys on day differences,
    so the result does not move when both tables' days shift by one
    constant: the tables need not share the forecast clock's anchor.
    """
    if warranty < 0:
        raise DomainError("warranty must be non-negative")
    sale_keys, claim_keys = _id_keys(sales.vehicle_id, claims.vehicle_id)
    order = np.argsort(sale_keys, kind="stable")
    ids = sale_keys[order]
    del sale_keys
    sold = len(ids)
    if sold:
        # a claim's id can only sit at its left insertion point, so
        # clamping that point into the ids makes no false match
        pos = np.searchsorted(ids, claim_keys)
        np.minimum(pos, sold - 1, out=pos)
        unknown = ids[pos] != claim_keys
        owner = order[pos]
        del pos
    else:
        unknown = np.ones(len(claim_keys), dtype=bool)
        owner = np.empty(len(claim_keys), dtype=np.int64)
    del ids, order
    owner[unknown] = sold + np.unique(claim_keys[unknown], return_inverse=True)[1]
    del claim_keys, unknown
    rows, amount = _merge_days(owner, claims.day, claims.amount)
    owner = owner[rows]
    kept = int(np.searchsorted(owner, sold))
    item = owner[:kept]
    # clipped as int64, written as float: the same values, one array
    age = np.empty(kept)
    np.clip(claims.day[rows[:kept]] - sales.day[item], 0, warranty, out=age)
    del rows
    quarantined = len(amount) - kept
    if quarantined:
        logger.warning(
            "%d claim records reference unknown vehicles and were quarantined",
            quarantined,
        )
    return JoinedClaims(item, age, amount[:kept], quarantined)


def empirical_mean_measure(ages, n: int, warranty: int) -> np.ndarray:
    """Average daily claim-age histogram over all n sold items.

    ``ages`` holds every claim's finite age in [0, W]; ``n`` counts every sold
    item, claim-free ones included.  Bin i of the W + 1 bins holds the mean
    number of claims per item aged in (i-1, i], with bin 0 those at age 0.
    """
    if n < 1:
        raise DomainError("need at least one sold item")
    if not np.all(np.isfinite(ages)):
        raise DomainError("claim ages must be finite")
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
    in (i, j) order, for claims sorted by (item, age), yielded for one block
    of ``PAIR_BLOCK`` claims i at a time (one empty block if there are no
    claims).  Claim i's candidates run from ``first[i]``, the first claim
    whose key item * (W + T + 2) + age is at most T + 1/2 below i's, to the
    last j with ``first[j] <= i`` (``first`` is non-decreasing); the key
    can round fractional ages, so hi - lo <= T is tested on the ages."""
    key = item * (warranty + period + 2.0) + age
    first = np.searchsorted(key, key - (period + 0.5))
    del key
    for a in range(0, max(len(age), 1), PAIR_BLOCK):
        b = min(a + PAIR_BLOCK, len(age))
        claim = np.arange(a, b)
        count = np.searchsorted(first, claim, side="right") - first[a:b]
        left = np.repeat(claim, count)
        right = np.arange(len(left)) - np.repeat(np.cumsum(count) - count - first[a:b], count)
        close = np.abs(age[left] - age[right]) <= period
        yield left[close], right[close]


def _pair_ranges(claims: JoinedClaims, rebate: RebateFunction, warranty: int, period: int):
    """The sale-day range and weight r(c_i) r(c_j) of every close pair, in
    (i, j) order, as the offset-0 window counts them (see
    :func:`moment_grids`); only these columns outlive a block."""
    age = claims.age
    wts = np.asarray(rebate(age), dtype=float)
    clock = TimeHorizon(warranty, period)
    parts = []
    for left, right in _close_pairs(claims.item, age, warranty, period):
        a, b = age[left], age[right]
        start, end = clock.sale_day_range(np.minimum(a, b), np.maximum(a, b))
        parts.append((start.astype(np.int32), end.astype(np.int32), wts[left] * wts[right]))
    return _concat_blocks(parts)


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

    What stays in memory beside the claims and the grids: the rebate weight
    and first candidate of every claim, one block's expansion, and the
    close pairs' int32 sale-day ranges and float weights (16 bytes a pair),
    which are joined in (i, j) order and summed in that one call, so the
    grids do not depend on ``PAIR_BLOCK``.
    """
    shapes = {(h.warranty, h.period, h.scale) for h in horizons}
    if len(shapes) != 1:
        raise DomainError("horizons must share one warranty, period and scale")
    ((w, t, n),) = shapes
    second = range_sums(*_pair_ranges(claims, rebate, w, t), -w, w + t + 1) / n

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
