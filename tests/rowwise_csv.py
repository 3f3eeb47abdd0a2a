"""Row-at-a-time CSV loaders: the test oracle for ``claimcast.dataio``.

These are the loaders ``dataio`` used before it read columns in chunks: one
``csv.DictReader`` dict per row, every field parsed in Python.  The property
tests in ``test_dataio.py`` check that the columnar loaders return the same
tables, the same row issues and the same ``LoadError`` as these do.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from claimcast.claims import ClaimsTable, SalesTable
from claimcast.dataio import RowIssue, _check_bad_share, _parse_day
from claimcast.errors import LoadError


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
