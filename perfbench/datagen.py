"""Seeded paper-scale sales and claims CSVs for the ``report_paper`` workload.

The generator lives in the benchmark, not in ``claimcast``, so that a change
to the package's simulator (its draw layout, its samplers) cannot move the
inputs a benchmark run feeds it.  Every draw comes from one Philox stream
keyed by (DATASET_KEY, dataset index).

Shape of a dataset, following the paper's car study:

* n = 34 807 items sold over raw days 1..1116 on the Bass curve of
  acceptance criterion 8 (p = 4.0149e-4, p + q = 1.6738e-2, adoption
  starting at raw day 0); daily counts are one multinomial draw.
* each item's claim ages form a Poisson random measure with the paper's
  mean claims measure (linear density on (0, W) plus atoms at 0 and W),
  about 1.26 claims per item over its whole warranty;
* claim amounts are Pareto(alpha = 1.5), so the QQ tail index lands near
  1.5 and the pipeline picks the ``stable_1_2`` regime;
* a few claims name unknown vehicles (the pipeline quarantines them) and a
  few rows of each file are malformed (the loaders report them as row
  issues), well inside the loaders' 1% budget.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

DATASET_KEY = 20100806  # fixed stream key; only the dataset index varies

N_ITEMS = 34_807
SALE_DAYS = 1_116
WARRANTY = 1096
PERIOD = 91
BASS_P = 4.0149e-4
BASS_Q = 1.6738e-2 - 4.0149e-4

# the paper's mean claims measure: density SLOPE * x + INTERCEPT on (0, W)
SLOPE = -0.8872e-6
INTERCEPT = 0.1479e-2 - 0.8872e-6 / 2.0
ATOM0 = 0.1330
ATOMW = 0.0420

PARETO_ALPHA = 1.5
PARETO_XM = 10.0

ORPHAN_CLAIMS = 25
BAD_SALES_ROWS = 3
BAD_CLAIM_ROWS = 12


def bass_share(t):
    """Cumulative Bass share at raw day t, adoption starting at raw day 0."""
    tau = np.maximum(np.asarray(t, dtype=float), 0.0)
    e = np.exp(-(BASS_P + BASS_Q) * tau)
    return (1.0 - e) / (1.0 + (BASS_Q / BASS_P) * e)


def _interior_ages(u, mass):
    """Inverse CDF of the linear density on (0, W) at uniforms ``u``.

    Solves SLOPE/2 x^2 + INTERCEPT x = u * mass in the cancellation-free form.
    """
    um = u * mass
    return 2.0 * um / (INTERCEPT + np.sqrt(INTERCEPT**2 + 2.0 * SLOPE * um))


def _insert(rows, extra, rng):
    """Place ``extra`` rows at random positions among ``rows``."""
    out = list(rows)
    for row in extra:
        out.insert(int(rng.integers(0, len(out) + 1)), row)
    return out


def generate(index: int, out_dir, n_items: int = N_ITEMS) -> dict:
    """Write ``sales.csv`` and ``claims.csv`` for dataset ``index`` into
    ``out_dir`` and return its summary (row counts, content hash, and the
    number of within-item claim pairs the moment grids will expand)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([DATASET_KEY, index])))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    weights = np.diff(bass_share(np.arange(SALE_DAYS + 1)))
    daily = rng.multinomial(n_items, weights / weights.sum())
    sale_day = np.repeat(np.arange(1, SALE_DAYS + 1), daily)

    mass = INTERCEPT * WARRANTY + SLOPE * WARRANTY**2 / 2.0
    k_int = rng.poisson(mass, size=n_items)
    k_zero = rng.poisson(ATOM0, size=n_items)
    k_end = rng.poisson(ATOMW, size=n_items)
    owner = np.concatenate(
        [
            np.repeat(np.arange(n_items), k_int),
            np.repeat(np.arange(n_items), k_zero),
            np.repeat(np.arange(n_items), k_end),
        ]
    )
    age = np.concatenate(
        [
            _interior_ages(rng.uniform(size=int(k_int.sum())), mass),
            np.zeros(int(k_zero.sum())),
            np.full(int(k_end.sum()), float(WARRANTY)),
        ]
    )
    claim_day = sale_day[owner] + np.rint(age).astype(np.int64)
    amount = PARETO_XM * rng.uniform(size=len(owner)) ** (-1.0 / PARETO_ALPHA)
    order = np.lexsort((claim_day, owner))
    owner, claim_day, amount = owner[order], claim_day[order], amount[order]

    sales_rows = [f"V{i:06d},{d}" for i, d in enumerate(sale_day)]
    bad_sales = [f",{int(rng.integers(1, SALE_DAYS + 1))}" for _ in range(BAD_SALES_ROWS)]
    sales_rows = _insert(sales_rows, bad_sales, rng)

    claim_rows = [
        f"V{o:06d},{d},{amt:.2f}" for o, d, amt in zip(owner, claim_day, amount)
    ]
    orphans = [
        f"U{j:06d},{int(rng.integers(1, SALE_DAYS + WARRANTY))},"
        f"{PARETO_XM * float(rng.uniform()) ** (-1.0 / PARETO_ALPHA):.2f}"
        for j in range(ORPHAN_CLAIMS)
    ]
    bad_claims = [
        f"V{int(rng.integers(0, n_items)):06d},{int(rng.integers(1, SALE_DAYS + 1))},n/a"
        if j % 2 == 0
        else f"V{int(rng.integers(0, n_items)):06d},day-{j},1.00"
        for j in range(BAD_CLAIM_ROWS)
    ]
    claim_rows = _insert(claim_rows + orphans, bad_claims, rng)

    sales_text = "vehicle_id,sale_date\n" + "\n".join(sales_rows) + "\n"
    claims_text = "vehicle_id,claim_date,claim_id,amount\n" + "".join(
        f"{vid},{day},C{j:07d},{amt}\n"
        for j, (vid, day, amt) in enumerate(r.split(",") for r in claim_rows)
    )
    (out_dir / "sales.csv").write_text(sales_text)
    (out_dir / "claims.csv").write_text(claims_text)

    # within-item pairs after same-day aggregation, as moment_grids expands them
    per_item = np.bincount(np.unique(owner * (SALE_DAYS + WARRANTY + 2) + claim_day)
                           // (SALE_DAYS + WARRANTY + 2), minlength=n_items)
    return {
        "index": index,
        "sales_rows": len(sales_rows),
        "claim_rows": len(claim_rows),
        "sha256": dataset_hash(out_dir),
        "pairs": int(np.sum(per_item.astype(np.int64) ** 2)),
    }


def dataset_hash(out_dir) -> str:
    """SHA-256 over the bytes of both CSV files, sales first."""
    h = hashlib.sha256()
    for name in ("sales.csv", "claims.csv"):
        h.update((Path(out_dir) / name).read_bytes())
    return h.hexdigest()
