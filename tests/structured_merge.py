"""Same-day claim merging on a structured (vehicle_id, day) array: the test
oracle for ``claims.aggregate_daily_claims``, which merges on one int64 key."""

import numpy as np

from claimcast.claims import ClaimsTable


def aggregate_daily_claims(claims: ClaimsTable) -> ClaimsTable:
    """Merge all of a vehicle's same-day claims into one row.

    A car returning with p claims on one date is treated as a single claim
    whose size is the sum of the p amounts (added in input order).  Output
    is sorted by (vehicle_id, day) for a deterministic downstream order.
    """
    keys = np.empty(
        len(claims), dtype=[("vehicle_id", claims.vehicle_id.dtype), ("day", np.int64)]
    )
    keys["vehicle_id"] = claims.vehicle_id
    keys["day"] = claims.day
    merged, inverse = np.unique(keys, return_inverse=True)
    amount = np.bincount(inverse.ravel(), weights=claims.amount, minlength=len(merged))
    return ClaimsTable(merged["vehicle_id"], merged["day"], amount)
