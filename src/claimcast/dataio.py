"""CSV ingestion and plot-data/report emission.

Input files carry raw dates, either integer day numbers or ISO-8601
calendar dates (auto-detected per file).  Loading validates rows and
collects malformed ones with their line numbers; anchoring onto the
forecast clock (day 0 = the day after the last observed sale) happens in
the pipeline so sales and claims share one anchor.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

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


def _read_rows(path, required: Sequence[str]):
    path = Path(path)
    try:
        handle = path.open(newline="")
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise LoadError(f"{path}: missing columns {missing} in header {header}")
        yield from ((reader.line_num, row) for row in reader)


def load_sales(path) -> Tuple[SalesTable, List[RowIssue]]:
    """Parse a sales CSV with columns (vehicle_id, sale_date).

    Duplicate vehicle ids are fatal (both line numbers reported); other
    malformed rows are collected and become fatal only past a 1% share.
    """
    days: List[int] = []
    issues: List[RowIssue] = []
    seen: Dict[str, int] = {}  # vehicle id -> line, in file order
    total = 0
    for line, row in _read_rows(path, ("vehicle_id", "sale_date")):
        total += 1
        vid = (row.get("vehicle_id") or "").strip()
        try:
            day = _parse_day(row.get("sale_date") or "")
        except ValueError:
            issues.append(RowIssue(line, f"unparseable sale_date {row.get('sale_date')!r}"))
            continue
        if not vid:
            issues.append(RowIssue(line, "empty vehicle_id"))
            continue
        if vid in seen:
            raise LoadError(
                f"{path}: duplicate sales rows for vehicle {vid!r} "
                f"(lines {seen[vid]} and {line})",
                issues,
            )
        seen[vid] = line
        days.append(day)
    _check_bad_share(path, total, issues)
    return SalesTable(list(seen), days), issues


def load_claims(path) -> Tuple[ClaimsTable, List[RowIssue]]:
    """Parse a claims CSV with columns (vehicle_id, claim_date, claim_id, amount).

    Duplicate claim ids are fatal (both line numbers reported); other
    malformed rows, blank claim ids and non-finite amounts included, are
    collected and become fatal only past a 1% share.
    """
    vids: List[str] = []
    days: List[int] = []
    amounts: List[float] = []
    issues: List[RowIssue] = []
    seen: Dict[str, int] = {}
    total = 0
    for line, row in _read_rows(
        path, ("vehicle_id", "claim_date", "claim_id", "amount")
    ):
        total += 1
        vid = (row.get("vehicle_id") or "").strip()
        if not vid:
            issues.append(RowIssue(line, "empty vehicle_id"))
            continue
        cid = (row.get("claim_id") or "").strip()
        if not cid:
            issues.append(RowIssue(line, "empty claim_id"))
            continue
        try:
            day = _parse_day(row.get("claim_date") or "")
        except ValueError:
            issues.append(
                RowIssue(line, f"unparseable claim_date {row.get('claim_date')!r}")
            )
            continue
        try:
            amount = float(row.get("amount") or "")
        except ValueError:
            issues.append(RowIssue(line, f"unparseable amount {row.get('amount')!r}"))
            continue
        if not math.isfinite(amount):
            issues.append(RowIssue(line, f"non-finite amount {amount}"))
            continue
        if amount < 0.0:
            issues.append(RowIssue(line, f"negative amount {amount}"))
            continue
        if cid in seen:
            raise LoadError(
                f"{path}: duplicate claim id {cid!r} (lines {seen[cid]} and {line})",
                issues,
            )
        seen[cid] = line
        vids.append(vid)
        days.append(day)
        amounts.append(amount)
    _check_bad_share(path, total, issues)
    return ClaimsTable(vids, days, amounts), issues


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


def write_series(path, x_name: str, x: Iterable, y_name: str, y: Iterable) -> None:
    """Two-column CSV with full-precision floats (round-trips exactly)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([x_name, y_name])
        for a, b in zip(x, y):
            writer.writerow([repr(float(a)), repr(float(b))])


def write_json_report(payload: dict, path) -> None:
    """Machine-readable report: sorted keys, fixed separators, trailing newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
