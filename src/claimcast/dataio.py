"""CSV ingestion and plot-data/report emission.

Input files carry raw dates, either integer day numbers or ISO-8601
calendar dates (auto-detected per value).  A loader reads its file once as
bytes.  A clean file (:func:`_clean`: printable ASCII, one kind of line
end, no quotes, every line as long in fields as the header) is split and
cast in line-aligned blocks of about ``BLOCK_BYTES``, its fields kept as
offsets into the block, so that beside the file and its columns a load
holds one block's work.  Any other file goes through ``csv.reader`` in
chunks of ``CHUNK_ROWS`` rows.  Either way the same row checks see each
block or chunk as whole columns: day numbers and amounts are cast as a
column where they are plain (digits; decimals as a clean file holds them,
or any amount ``float()`` takes in a ``csv.reader`` chunk), and only the
other values are parsed one by one.  Ids are held as the UTF-8 bytes of
the file: a clean file's are cut from its blocks, a ``csv.reader``
chunk's are encoded once.  Only accepted ids become an array, so an id
column is a byte column (``S<width>``) as wide as its longest accepted id
in bytes.  The id column that must not repeat is tested once, after the
blocks are joined.  A row is rejected by the first check it fails, in a
fixed order per file, and reported as a :class:`RowIssue` with its line
number; rejected rows are fatal only past a 1% share, a repeated id
always.  :func:`anchor_day_zero` moves the sales onto the forecast clock
(day 0 = the day after the last observed sale); claims join onto sales by
day differences, so they are never moved.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import date
from itertools import compress
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from .claims import ClaimsTable, SalesTable, _id_keys, _utf8
from .core import _concat_blocks
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


CHUNK_ROWS = 2048  # rows converted between text and numpy columns at a time
BLOCK_BYTES = 1 << 17  # bytes of a clean file split and cast at a time
_READ_ERRORS = (csv.Error, UnicodeError)  # raised by a read
_DAY_WIDTH = 18  # the most digits :func:`_days` casts at once
_AMOUNT_WIDTH = 17  # a plain decimal's most characters: "-", 15 digits, "."
# per column, the most bytes of one field that _days or _plain_decimals reads
_GATHERED = {"sale_date": _DAY_WIDTH, "claim_date": _DAY_WIDTH, "amount": _AMOUNT_WIDTH}


class _NotClean(Exception):
    """Raised by :func:`_clean` where a file is not clean."""


def _clean(data: bytes, required: Sequence[str]):
    """Yield the data rows of a clean file as (line numbers, columns) blocks.

    A clean file is printable ASCII in lines that all end in ``\\n`` or all
    in ``\\r\\n``, with no ``"``, no blank line and the header's field count
    on every line; its header holds the required columns, their fields
    neither start nor end with a space, and they are narrow enough that
    fixed-width copies cost at most about twice the file (a day or amount
    column counted at most as wide as it is gathered).  No line is
    longer than ``csv.reader``'s field limit.  ``csv.reader`` would split
    such a file on every comma and line end, and each of its fields is
    already stripped.

    The checks that are ``bytes`` methods see the whole file; the others
    see one block of whole lines at a time, about ``BLOCK_BYTES`` long,
    which is then yielded as its rows' line numbers and its required
    columns as :class:`_Fields`.  :class:`_NotClean` is raised where the
    file is not clean, at the latest after its last block.  The width rule
    weighs the file's row count against its widest fields so far, so it
    fails at the first block that makes the whole file fail it.
    """
    if not data.isascii() or b'"' in data or b"\x7f" in data:
        raise _NotClean
    end = b"\r\n" if b"\r" in data else b"\n"
    tail = b"" if data.endswith(b"\n") else end  # the last line's missing end
    size = len(data) + len(tail)
    rows = data.count(b"\n") + bool(tail) - 1  # the data rows, if clean
    start = data.find(b"\n") + 1 or len(data)  # where the header line ends
    head = data[:start] + (tail if start == len(data) else b"")
    header = head.removesuffix(end).decode().split(",")
    where = {name: i for i, name in enumerate(header)}
    if any(c not in where for c in required):
        raise _NotClean
    pattern = np.full(len(header), ord(","), dtype=np.uint8)
    pattern[-1] = ord("\n")
    _line_ends(head, pattern, end)
    caps = [_GATHERED.get(name, size) for name in required]
    widest = [0] * len(required)
    done = 0  # the data rows of the blocks before
    while start < len(data):
        # the block ends with the line that holds its BLOCK_BYTES-th byte
        stop = data.find(b"\n", min(start + BLOCK_BYTES, len(data)) - 1) + 1 or len(data)
        block = data[start:stop] + (tail if stop == len(data) else b"")
        ends = _line_ends(block, pattern, end)
        columns = []
        for name in required:
            j = where[name]
            first = ends[:, j - 1] + 1 if j else np.append(0, ends[:-1, -1] + 1)
            last = ends[:, j] - (len(end) - 1 if j == len(header) - 1 else 0)
            columns.append(_Fields(block, first, last))
        widest = [max(w, int(c.widths.max())) for w, c in zip(widest, columns)]
        if rows * sum(map(min, widest, caps)) > 2 * size:
            raise _NotClean  # costly fixed-width columns
        buf = np.frombuffer(block, dtype=np.uint8)
        if b" " in block and any(
            np.any(buf[c.starts] == ord(" ")) or np.any(buf[c.ends - 1] == ord(" "))
            for c in columns
        ):
            raise _NotClean
        yield np.arange(done + 2, done + 2 + len(ends)), columns
        done, start = done + len(ends), stop


def _line_ends(block: bytes, pattern: np.ndarray, end: bytes) -> np.ndarray:
    """The offsets of the commas and line ends of whole lines, a row per line.

    :class:`_NotClean` is raised for a line whose commas and line ends are
    not ``pattern`` (a line with another field count, a blank one), a
    control character or stray ``\\r``, a line that ends in ``\\n`` alone
    where ``end`` is ``\\r\\n``, and a line longer than ``csv.reader``'s
    field limit.
    """
    buf = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    if len(ends) % len(pattern) or np.any(buf[ends].reshape(-1, len(pattern)) != pattern):
        raise _NotClean
    ends = ends.reshape(-1, len(pattern))
    if np.count_nonzero(buf < 0x20) != len(ends) * len(end):
        raise _NotClean
    if len(end) == 2 and np.any(buf[ends[:, -1] - 1] != ord("\r")):
        raise _NotClean
    if np.diff(ends[:, -1], prepend=-1).max() > csv.field_size_limit():
        raise _NotClean
    return ends


class _Fields:
    """One column of a clean file's block: its fields as offsets into the block."""

    def __init__(self, data: bytes, starts: np.ndarray, ends: np.ndarray):
        self.data, self.starts, self.ends = data, starts, ends
        self.widths = ends - starts

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, k) -> str:
        return self.data[self.starts[k] : self.ends[k]].decode()

    def take(self, keep: np.ndarray) -> "_Fields":
        """The fields where ``keep`` is set."""
        return _Fields(self.data, self.starts[keep], self.ends[keep])

    def chars(self, width: int, right: bool = False) -> np.ndarray:
        """The fields as a (width, rows) byte matrix.

        Column k holds field k from the top, NULs below it, or if ``right``
        ending at the bottom, "0"s above it, which keep a number's value; a
        field wider than ``width`` is cut to fit.  Rows, not columns, are
        contiguous, so a test over every field is a few passes over rows.
        """
        buf = np.frombuffer(self.data, dtype=np.uint8)
        first = self.ends - width if right else self.starts
        out = np.empty((width, len(self)), dtype=np.uint8)
        for k, row in enumerate(out):
            buf.take(first + k, out=row, mode="clip")
        at = np.arange(width)[:, None]
        if right:
            np.putmask(out, at < width - self.widths, ord("0"))
        else:
            np.putmask(out, at >= self.widths, 0)
        return out


def _read_chunks(path, data: bytes, required: Sequence[str]):
    """Yield the data rows of ``data`` as (line numbers, raw columns) chunks.

    ``data`` is the file's bytes after any UTF-8 byte-order mark.  Each
    chunk holds up to ``CHUNK_ROWS`` rows: an int64 array of each row's
    ``reader.line_num`` (its last physical line) and, per required column, a
    tuple of the raw field strings.  Blank lines are skipped, a repeated
    header name reads its last column and a field missing from a short row
    is ``None``, all as ``csv.DictReader`` would have it.  A read error
    (bytes that are not UTF-8, a field past the csv module's size limit)
    becomes a ``LoadError`` raised from it that names the line the last
    row read ends on; the rows read before it are yielded first.
    """
    reader = csv.reader(_text_lines(data))
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


def _text_lines(data: bytes):
    """The lines of UTF-8 ``data`` as ``open(newline="")`` yields them.

    Bytes that are not UTF-8 raise the ``UnicodeDecodeError`` in place of
    the line that holds them, after the lines before it.
    """
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        for line in io.StringIO(data[: exc.start].decode(), newline=""):
            if not line.endswith(("\n", "\r")):
                break  # the start of the line that holds the bad bytes
            yield line
        raise
    yield from io.StringIO(text, newline="")


def _chunk(rows, lines, index, width):
    """One chunk of :func:`_read_chunks`: short rows padded with ``None``."""
    if min(map(len, rows)) < width:
        rows = [r + [None] * (width - len(r)) for r in rows]
    columns = list(zip(*rows))
    return np.array(lines, dtype=np.int64), [columns[i] for i in index]


def _ids(raw) -> Tuple[List[str], np.ndarray]:
    """Stripped ids of one raw column and the mask of the unusable ones.

    A missing field is the empty id.  An id holding a NUL is unusable too:
    a numpy byte array drops trailing NULs, so it could not be stored as
    read.  The ids stay Python strings (a clean file's stay
    :class:`_Fields`, already stripped and free of NULs): only the kept
    ones become an array (:func:`_kept`), so a long id in a rejected row
    does not widen the column.
    """
    if isinstance(raw, _Fields):
        return raw, raw.widths == 0
    ids = [(v or "").strip() for v in raw]
    if all(ids) and "\x00" not in "".join(ids):
        return ids, np.zeros(len(ids), dtype=bool)
    return ids, np.array([not v or "\x00" in v for v in ids], dtype=bool)


def _id_issue(name: str, value: str) -> str:
    """The row issue of an id that :func:`_ids` marks unusable."""
    return f"empty {name}" if not value else f"NUL character in {name}"


def _kept(column, keep: np.ndarray) -> np.ndarray:
    """The kept entries of one chunk's column, as an array; ids as a byte
    column as wide as the widest kept one."""
    if isinstance(column, np.ndarray):
        return column[keep]
    if isinstance(column, _Fields):
        kept = column.take(keep)
        width = max(int(kept.widths.max(initial=0)), 1)
        return np.ascontiguousarray(kept.chars(width).T).view(f"S{width}").ravel()
    return _utf8(column if keep.all() else list(compress(column, keep)))


def _days(raw) -> Tuple[np.ndarray, np.ndarray]:
    """Day numbers of one raw column and the mask of the usable ones.

    Plain ASCII digit strings are cast at once: in a clean file each one
    of at most 18 digits, in a chunk of ``csv.reader`` rows all of them if
    every value is one.  Any other value, and a chunk that the cast refuses
    (a value past int's digit limit or past int64), goes value by value
    through :func:`_parse_day`.  A day past int64 is unusable like an
    unparseable one.
    """
    ok = np.ones(len(raw), dtype=bool)
    if isinstance(raw, _Fields):
        width = min(int(raw.widths.max(initial=0)), _DAY_WIDTH)
        digits = raw.chars(width, right=True) - np.uint8(ord("0"))
        plain = (raw.widths > 0) & (raw.widths <= width) & np.all(digits < 10, axis=0)
        days = _horner(digits)
    else:
        days, plain = np.zeros(len(raw), dtype=np.int64), ~ok
        if all(raw) and (text := "".join(raw)).isascii() and text.isdigit():
            try:
                days, plain = np.array(list(map(int, raw)), dtype=np.int64), ok
            except (ValueError, OverflowError):
                pass
    for k in np.flatnonzero(~plain):
        try:
            days[k] = _parse_day(raw[k] or "")
        except (ValueError, OverflowError):
            ok[k] = False
    return days, ok


def _amounts(raw) -> Tuple[np.ndarray, np.ndarray]:
    """Amounts of one raw column and the mask of the parseable ones.

    A value goes through ``float()`` unless it is cast at once: in a clean
    file each plain decimal (:func:`_plain_decimals`), in a chunk of
    ``csv.reader`` rows all values if ``float()`` takes each.
    """
    ok = np.ones(len(raw), dtype=bool)
    if isinstance(raw, _Fields):
        amounts, plain = _plain_decimals(raw)
    else:
        amounts, plain = np.empty(len(raw)), ~ok
        try:
            amounts, plain = np.array(list(map(float, raw)), dtype=float), ok
        except (TypeError, ValueError):
            pass
    for k in np.flatnonzero(~plain):
        try:
            amounts[k] = float(raw[k] or "")
        except ValueError:
            amounts[k] = np.nan
            ok[k] = False
    return amounts, ok


def _plain_decimals(raw: "_Fields") -> Tuple[np.ndarray, np.ndarray]:
    """The plain decimals of a clean file's column, and their mask.

    A plain decimal is an optional ``-``, then at most 15 digits with at
    most one ``.`` among or around them.  It is its digits m over 10**f for
    its f fractional digits: both are exact doubles, so the one rounding of
    the division gives the double nearest the decimal, as ``float()`` does.
    """
    rows, widths = np.arange(len(raw)), raw.widths
    width = max(min(int(widths.max(initial=0)), _AMOUNT_WIDTH), 1)
    chars = raw.chars(width, right=True)
    first = np.clip(width - widths, 0, width - 1)
    minus = (widths > 0) & (chars[first, rows] == ord("-"))
    chars[first[minus], rows[minus]] = ord("0")
    dot = chars == ord(".")
    chars[dot] = ord("0")
    digits = chars - np.uint8(ord("0"))
    dots = np.count_nonzero(dot, axis=0)
    figures = widths - minus - dots
    plain = (
        (widths <= width)
        & np.all(digits < 10, axis=0)
        & (dots <= 1)
        & (figures >= 1)
        & (figures <= 15)
    )
    # the digits read with the point as a 0 digit, then that digit dropped
    whole = _horner(digits)
    point = dots > 0
    scale = 10 ** np.where(point, width - 1 - np.argmax(dot, axis=0), 0)
    mantissa = np.where(point, whole // (10 * scale) * scale + whole % scale, whole)
    amounts = mantissa / scale.astype(float)
    return np.negative(amounts, out=amounts, where=minus), plain


def _horner(digits: np.ndarray) -> np.ndarray:
    """The int64 values of the columns of a (width, rows) digit matrix."""
    values = np.zeros(digits.shape[1], dtype=np.int64)
    for row in digits:
        values *= 10
        values += row
    return values


def _load(path, required: Sequence[str], check, unique: int, duplicate: str):
    """The accepted rows of ``path`` as columns, and its row issues.

    The file is read once as bytes.  A clean one goes through
    :func:`_clean` in line-aligned blocks, any other through
    ``csv.reader`` in chunks (:func:`_read_chunks`).  A file found not to
    be clean after some of its blocks were checked starts again through
    ``csv.reader``.  ``check`` maps one chunk's raw columns to its parsed
    columns (ids as lists or :class:`_Fields`, the rest as arrays) and the
    (row, message) pairs of its rejected rows.  Column ``unique`` must not
    repeat among the accepted rows: a repeat raises ``duplicate`` (a
    message prefix) naming both lines, with the issues on earlier lines.
    As in a row-at-a-time read, a repeat takes precedence over the 1%
    budget and over a read error further down the file; the ``LoadError``
    of a read error carries the issues found before it.
    """
    path = Path(path)
    try:
        data = path.read_bytes().removeprefix(b"\xef\xbb\xbf")
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    try:
        return _accepted(path, _clean(data, required), check, unique, duplicate)
    except _NotClean:
        pass  # the handler's traceback would hold the blocks checked so far
    return _accepted(path, _read_chunks(path, data, required), check, unique, duplicate)


def _accepted(path, chunks, check, unique: int, duplicate: str):
    """:func:`_load` over (line numbers, raw columns) chunks.

    Each chunk's kept columns are held until ``_concat_blocks`` joins them,
    and its kept rows' line numbers until the load ends; the repeat test
    then reads the joined column ``unique``.
    """
    parts: List[List[np.ndarray]] = []
    lines: List[np.ndarray] = []
    issues: List[RowIssue] = []
    total = 0
    try:
        for numbers, raw in chunks:
            columns, rejected = check(*raw)
            keep = np.ones(len(numbers), dtype=bool)
            for k, message in rejected:
                keep[k] = False
                issues.append(RowIssue(int(numbers[k]), message))
            parts.append([_kept(c, keep) for c in columns])
            lines.append(numbers[keep])
            total += len(numbers)
    except LoadError as exc:
        if parts:
            _check_unique(path, _concat_blocks(parts)[unique], lines, duplicate, issues)
        exc.issues = issues
        raise
    columns = _concat_blocks(parts)
    if columns:
        _check_unique(path, columns[unique], lines, duplicate, issues)
    _check_bad_share(path, total, issues)
    return columns, issues


def _check_unique(path, ids: np.ndarray, lines, duplicate: str, issues) -> None:
    """Raise the ``LoadError`` for the earliest repeated id, if any.

    ``ids`` is a joined byte column and ``lines`` its rows' line numbers in
    blocks.  The repeat test sorts the ids' :func:`claimcast.claims._id_keys`
    in place, or a copy of ids too wide to pack, so that ``ids`` keeps its
    order.  Only a file with a repeat finds the earliest, in file order.
    """
    (keys,) = _id_keys(ids)
    if keys is ids:
        keys = ids.copy()
    keys.sort()
    if not np.any(keys[1:] == keys[:-1]):
        return
    (keys,) = _id_keys(ids)
    lines = np.concatenate(lines)
    unique, first = np.unique(keys, return_index=True)
    again = np.ones(len(keys), dtype=bool)
    again[first] = False
    k = int(np.argmax(again))  # the earliest repeat in file order
    earlier = int(lines[first[np.searchsorted(unique, keys[k])]])
    raise LoadError(
        f"{path}: {duplicate} {ids[k].decode()!r} (lines {earlier} and {int(lines[k])})",
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
    """One chunk's checks: vehicle_id, claim_id, claim_date, then amount;
    the claim ids are the last column."""
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


def anchor_day_zero(sales: SalesTable) -> Tuple[SalesTable, int]:
    """The sales with raw dates shifted so day 0 is the day after the last
    observed sale, and that shift (the anchor, a raw day).

    Observed sales then occupy [-span, -1] and the forecast windows
    [0, T], [T, 2T] start immediately after the data ends.  Claims are
    not shifted: :func:`claimcast.claims.join_claims` reads only day
    differences, so it joins the raw tables as loaded.  The anchored table
    shares the vehicle-id column of ``sales``.  Sales whose day 0 is past
    int64, or that span more days than ISO dates can (``date.max``'s
    ordinal), cannot be anchored.
    """
    if len(sales) == 0:
        raise LoadError("cannot anchor an empty sales table")
    first, last = int(sales.day.min()), int(sales.day.max())
    anchor, widest = last + 1, date.max.toordinal()
    if anchor > np.iinfo(np.int64).max:
        raise LoadError(f"cannot anchor sale days {first} to {last}: day 0 is past int64")
    if anchor - first > widest:
        raise LoadError(
            f"cannot anchor sale days {first} to {last}: "
            f"they span more than the {widest} days of ISO dates"
        )
    return SalesTable(sales.vehicle_id, sales.day - anchor), anchor


def write_series(path, x_name: str, x: np.ndarray, y_name: str, y: np.ndarray) -> None:
    """Two-column CSV with full-precision floats (round-trips exactly),
    formatted and written ``CHUNK_ROWS`` rows at a time."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with path.open("w", newline="") as handle:
        csv.writer(handle).writerow([x_name, y_name])
        for k in range(0, min(len(x), len(y)), CHUNK_ROWS):
            rows = zip(x[k : k + CHUNK_ROWS].tolist(), y[k : k + CHUNK_ROWS].tolist())
            # a float's repr never needs quoting; "\r\n" is csv.writer's line end
            handle.write("".join([f"{a!r},{b!r}\r\n" for a, b in rows]))


def write_json_report(payload: dict, path) -> None:
    """Machine-readable report: sorted keys, fixed separators, trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
