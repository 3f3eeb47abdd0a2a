"""CSV ingestion and plot-data/report emission.

Input files carry raw dates, either integer day numbers or ISO-8601
calendar dates (auto-detected per value).  The loaders read a file with
``csv.reader`` in chunks of ``CHUNK_ROWS`` rows and turn each chunk into
numpy columns at once: amounts are cast as a column, day numbers too when
all of a chunk's are plain ASCII integers; only a column holding values
such a cast rejects (ISO dates, signs, padding, bad values) is parsed value
by value.  Ids are stripped as Python strings, and only the accepted ones
become an array, so an id column is as wide as its longest accepted id.  A
row is rejected by the first check it fails, in a fixed order per file, and
reported as a :class:`RowIssue` with its line number; rejected rows are
fatal only past a 1% share, a repeated id always.  Anchoring onto the
forecast clock (day 0 = the day after the last observed sale) happens in
the pipeline so sales and claims share one anchor.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import date
from itertools import compress
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

# loaded on import, so that a first load does not pay for it: np.unique
# loads numpy.ma
import numpy.ma  # noqa: F401

from .claims import ClaimsTable, SalesTable
from .errors import LoadError

__all__ = [
    "RowIssue",
    "load_sales",
    "load_claims",
    "anchor_day_zero",
    "write_series",
    "write_json_report",
]

MAX_BAD_ROW_SHARE = 0.01


@dataclass(frozen=True)
class RowIssue:
    line: int
    message: str


def _parse_day(raw: str) -> int:
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        return date.fromisoformat(raw).toordinal()


CHUNK_ROWS = 2048  # rows converted to numpy columns at a time
_READ_ERRORS = (csv.Error, OSError, UnicodeError)  # raised by a read


def _read_chunks(path, required: Sequence[str]):
    """Yield the data rows of ``path`` as (line numbers, raw columns) chunks.

    The file is read as UTF-8, with or without a byte-order mark.  Each
    chunk holds up to ``CHUNK_ROWS`` rows: an int64 array of each row's
    ``reader.line_num`` (its last physical line) and, per required column, a
    tuple of the raw field strings.  Blank lines are skipped, a repeated
    header name reads its last column and a field missing from a short row
    is ``None``, all as ``csv.DictReader`` would have it.  A read error
    (bytes that are not UTF-8, a field past the csv module's size limit)
    becomes a ``LoadError`` raised from it that names the line the last
    row read ends on; the rows read before it are yielded first.
    """
    path = Path(path)
    try:
        handle = path.open(newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        rows, lines, done = [], [], 0  # done: the line the last chunk ends on
        try:
            header = next(reader, None) or []
            done = reader.line_num
            missing = [c for c in required if c not in header]
            if missing:
                raise LoadError(f"{path}: missing columns {missing} in header {header}")
            where = {name: i for i, name in enumerate(header)}
            index = [where[c] for c in required]
            width = max(index) + 1
            for row in reader:
                if row:
                    rows.append(row)
                    lines.append(reader.line_num)
                    if len(rows) == CHUNK_ROWS:
                        yield _chunk(rows, lines, index, width)
                        done, rows, lines = lines[-1], [], []
        except _READ_ERRORS as exc:
            if rows:  # the rows read before a read error are still checked
                yield _chunk(rows, lines, index, width)
            last = lines[-1] if lines else done
            raise LoadError(f"{path}: read failed after line {last}: {exc}") from exc
        if rows:
            yield _chunk(rows, lines, index, width)


def _chunk(rows, lines, index, width):
    """One chunk of :func:`_read_chunks`: short rows padded with ``None``."""
    if min(map(len, rows)) < width:
        rows = [r + [None] * (width - len(r)) for r in rows]
    columns = list(zip(*rows))
    return np.array(lines, dtype=np.int64), [columns[i] for i in index]


def _ids(raw: tuple) -> Tuple[List[str], np.ndarray]:
    """Stripped ids of one raw column and the mask of the unusable ones.

    A missing field is the empty id.  An id holding a NUL is unusable too:
    a numpy str array drops trailing NULs, so it could not be stored as
    read.  The ids stay Python strings: only the kept ones become an array
    (:func:`_kept`), so a long id in a rejected row does not widen the
    column.
    """
    ids = [(v or "").strip() for v in raw]
    if all(ids) and "\x00" not in "".join(ids):
        return ids, np.zeros(len(ids), dtype=bool)
    return ids, np.array([not v or "\x00" in v for v in ids], dtype=bool)


def _id_issue(name: str, value: str) -> str:
    """The row issue of an id that :func:`_ids` marks unusable."""
    return f"empty {name}" if not value else f"NUL character in {name}"


def _kept(column, keep: np.ndarray) -> np.ndarray:
    """The kept entries of one chunk's column, as an array."""
    if isinstance(column, np.ndarray):
        return column[keep]
    return np.array(column if keep.all() else list(compress(column, keep)), dtype=str)


def _days(raw: tuple) -> Tuple[np.ndarray, np.ndarray]:
    """Day numbers of one raw column and the mask of the usable ones.

    A chunk of plain ASCII integers is cast at once; any other chunk, and
    one that the cast refuses (a value past int's digit limit or past
    int64), goes value by value through :func:`_parse_day`.  A day past
    int64 is unusable like an unparseable one.
    """
    ok = np.ones(len(raw), dtype=bool)
    if all(raw) and (text := "".join(raw)).isascii() and text.isdigit():
        try:
            return np.array(list(map(int, raw)), dtype=np.int64), ok
        except (ValueError, OverflowError):
            pass
    days = np.zeros(len(raw), dtype=np.int64)
    for k, value in enumerate(raw):
        try:
            days[k] = _parse_day(value or "")
        except (ValueError, OverflowError):
            ok[k] = False
    return days, ok


def _amounts(raw: tuple) -> Tuple[np.ndarray, np.ndarray]:
    """Amounts of one raw column and the mask of the parseable ones."""
    ok = np.ones(len(raw), dtype=bool)
    try:
        return np.array(list(map(float, raw)), dtype=float), ok
    except (TypeError, ValueError):
        pass
    amounts = np.empty(len(raw))
    for k, value in enumerate(raw):
        try:
            amounts[k] = float(value or "")
        except ValueError:
            amounts[k] = np.nan
            ok[k] = False
    return amounts, ok


def _load(path, required: Sequence[str], check, key: int, duplicate: str):
    """The accepted rows of ``path`` as columns, and its row issues.

    ``check`` maps one chunk's raw columns to its parsed columns (ids as
    lists, the rest as arrays) and the (row, message) pairs of its rejected
    rows.  Column ``key`` must be unique among accepted rows: a repeat
    raises ``duplicate`` (a message prefix) naming both lines, with the
    issues on earlier lines.  As in a row-at-a-time read, a repeat takes
    precedence over the 1% budget and over a read error further down the
    file; the ``LoadError`` of a read error carries the issues found before
    it.
    """
    parts: List[List[np.ndarray]] = []
    issues: List[RowIssue] = []
    total = 0
    try:
        for lines, raw in _read_chunks(path, required):
            columns, rejected = check(*raw)
            keep = np.ones(len(lines), dtype=bool)
            for k, message in rejected:
                keep[k] = False
                issues.append(RowIssue(int(lines[k]), message))
            parts.append([lines[keep]] + [_kept(c, keep) for c in columns])
            total += len(lines)
    except LoadError as exc:
        _check_unique(path, parts, key, duplicate, issues)
        exc.issues = issues
        raise
    _check_unique(path, parts, key, duplicate, issues)
    _check_bad_share(path, total, issues)
    return [np.concatenate(c) for c in list(zip(*parts))[1:]], issues


def _check_unique(path, parts, key: int, duplicate: str, issues) -> None:
    """Raise the ``LoadError`` for the earliest repeated id, if any."""
    if not parts:
        return
    lines = np.concatenate([part[0] for part in parts])
    ids = np.concatenate([part[1 + key] for part in parts])
    unique, first = np.unique(ids, return_index=True)
    if len(unique) == len(ids):
        return
    again = np.ones(len(ids), dtype=bool)
    again[first] = False
    k = int(np.argmax(again))  # the earliest repeat in file order
    earlier = int(lines[first[np.searchsorted(unique, ids[k])]])
    raise LoadError(
        f"{path}: {duplicate} {str(ids[k])!r} (lines {earlier} and {int(lines[k])})",
        [issue for issue in issues if issue.line < lines[k]],
    )


def _sales_rows(vehicle_id, sale_date):
    """One chunk's checks: sale_date, then vehicle_id."""
    vid, bad_vid = _ids(vehicle_id)
    day, day_ok = _days(sale_date)
    rejected = []
    for k in np.flatnonzero(~day_ok | bad_vid):
        if not day_ok[k]:
            rejected.append((k, f"unparseable sale_date {sale_date[k]!r}"))
        else:
            rejected.append((k, _id_issue("vehicle_id", vid[k])))
    return (vid, day), rejected


def _claim_rows(vehicle_id, claim_date, claim_id, amount):
    """One chunk's checks: vehicle_id, claim_id, claim_date, then amount."""
    vid, bad_vid = _ids(vehicle_id)
    cid, bad_cid = _ids(claim_id)
    day, day_ok = _days(claim_date)
    value, value_ok = _amounts(amount)
    finite = np.isfinite(value)
    rejected = []
    bad = bad_vid | bad_cid | ~day_ok | ~value_ok | ~finite | (value < 0.0)
    for k in np.flatnonzero(bad):
        if bad_vid[k]:
            message = _id_issue("vehicle_id", vid[k])
        elif bad_cid[k]:
            message = _id_issue("claim_id", cid[k])
        elif not day_ok[k]:
            message = f"unparseable claim_date {claim_date[k]!r}"
        elif not value_ok[k]:
            message = f"unparseable amount {amount[k]!r}"
        elif not finite[k]:
            message = f"non-finite amount {float(value[k])}"
        else:
            message = f"negative amount {float(value[k])}"
        rejected.append((k, message))
    return (vid, day, value, cid), rejected


def load_sales(path) -> Tuple[SalesTable, List[RowIssue]]:
    """Parse a sales CSV with columns (vehicle_id, sale_date).

    A row is rejected for an unparseable sale_date (or one past int64),
    else for an empty vehicle_id or one holding a NUL.  Duplicate vehicle
    ids are fatal (both line numbers reported); rejected rows are collected
    and become fatal only past a 1% share.
    """
    (vid, day), issues = _load(
        path,
        ("vehicle_id", "sale_date"),
        _sales_rows,
        0,
        "duplicate sales rows for vehicle",
    )
    return SalesTable(vid, day), issues


def load_claims(path) -> Tuple[ClaimsTable, List[RowIssue]]:
    """Parse a claims CSV with columns (vehicle_id, claim_date, claim_id, amount).

    A row is rejected for the first of: empty vehicle_id (or one holding
    a NUL), empty claim_id (or one holding a NUL), unparseable claim_date
    (or one past int64), unparseable amount, non-finite amount, negative
    amount.  Duplicate claim ids are fatal (both line numbers reported);
    rejected rows are collected and become fatal only past a 1% share.
    """
    (vid, day, amount, _), issues = _load(
        path,
        ("vehicle_id", "claim_date", "claim_id", "amount"),
        _claim_rows,
        3,
        "duplicate claim id",
    )
    return ClaimsTable(vid, day, amount), issues


def _check_bad_share(path, total: int, issues: List[RowIssue]) -> None:
    if total == 0:
        raise LoadError(f"{path}: no data rows")
    if len(issues) > MAX_BAD_ROW_SHARE * total:
        raise LoadError(
            f"{path}: {len(issues)} of {total} rows malformed "
            f"(over the {MAX_BAD_ROW_SHARE:.0%} budget)",
            issues,
        )


def anchor_day_zero(
    sales: SalesTable, claims: ClaimsTable
) -> Tuple[SalesTable, ClaimsTable, int]:
    """Shift raw dates so day 0 is the day after the last observed sale.

    Observed sales then occupy [-span, -1] and the forecast windows
    [0, T], [T, 2T] start immediately after the data ends.
    """
    if len(sales) == 0:
        raise LoadError("cannot anchor an empty sales table")
    anchor = int(sales.day.max()) + 1
    return (
        SalesTable(sales.vehicle_id, sales.day - anchor),
        ClaimsTable(claims.vehicle_id, claims.day - anchor, claims.amount),
        anchor,
    )


def write_series(path, x_name: str, x: np.ndarray, y_name: str, y: np.ndarray) -> None:
    """Two-column CSV with full-precision floats (round-trips exactly)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    x = np.asarray(x, dtype=float).tolist()
    y = np.asarray(y, dtype=float).tolist()
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerow([x_name, y_name])
        # a float's repr never needs quoting; "\r\n" is csv.writer's line end
        handle.write("".join([f"{a!r},{b!r}\r\n" for a, b in zip(x, y)]))


def write_json_report(payload: dict, path) -> None:
    """Machine-readable report: sorted keys, fixed separators, trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
