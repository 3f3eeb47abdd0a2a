"""End-to-end calibration study: the report's forecast laws scored against
the totals that later landed in each window.

For each dataset of two fixed families, ``run_pipeline`` fits the whole
model and reports, per window, the CDF of its forecast laws at the realized
count and cost (the ``sanity`` block).  Those values are probability
integral transforms (PITs), uniform on (0, 1) for a calibrated forecast
(Dawid, "Statistical theory: the prequential approach", JRSS A 147, 1984).
Per family, window and column the study prints the PIT count, the KS
distance of the PITs from uniform beside its 95% DKW band 1.36 / sqrt(n),
the shares of PITs below 0.05 and above 0.95, and the mean and standard
deviation of z = Phi^-1(PIT) (0 and 1 when calibrated).  A PIT of exactly
0 or 1 enters z as Phi^-1 of 2^-53 from that end, about -/+8.2.

The families, and their datasets, are fixed before any run:

* ``datagen``: ``perfbench/datagen.generate`` at indices 1000, 1001, ...
  (n = 34 807, Pareto sizes with alpha = 1.5, the ``stable_1_2`` regime),
  under ``RunConfig()``;
* ``synthesize``: ``synthesize_dataset`` at seeds 0, 1, ... and n = 5 000
  (lognormal sizes), under ``RunConfig(regime_override="finite_variance")``
  and under ``RunConfig(policy="prorata")``.

A count only truncates that list.  The study has no gate; pytest does not
collect it.  Run it from the repository root:

    PYTHONPATH=src python tests/calibration_study.py [--datagen 100] [--synthesize 300]
"""

import argparse
import logging
import sys
import tempfile
from pathlib import Path
from statistics import NormalDist

import numpy as np

from claimcast.dataio import load_claims, load_sales
from claimcast.pipeline import RunConfig, run_pipeline, synthesize_dataset

DATAGEN_FIRST = 1000  # the benchmark pool uses indices 0..15
SYNTH_N = 5000
CONFIGS = {
    "datagen": {"default": RunConfig()},
    "synthesize": {
        "finite_variance": RunConfig(regime_override="finite_variance"),
        "prorata": RunConfig(policy="prorata"),
    },
}
COLUMNS = ("count", "normal", "stable", "prorata")
HEADER = ("family", "config", "window", "column", "n", "ks", "dkw",
          "below_05", "above_95", "z_mean", "z_sd")


def _datagen():
    """``perfbench/datagen`` imported read-only: no bytecode cache is
    written beside it."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    before, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import datagen
    finally:
        sys.dont_write_bytecode = before
        sys.path.pop(0)
    return datagen


def _datasets(family: str, count: int, root: Path):
    """The first ``count`` datasets of a family, as (sales, claims) tables."""
    for k in range(count):
        out = root / f"{family}_{k}"
        if family == "datagen":
            _datagen().generate(DATAGEN_FIRST + k, out)
        else:
            synthesize_dataset(out / "sales.csv", out / "claims.csv", n=SYNTH_N, seed=k)
        sales, _ = load_sales(out / "sales.csv")
        claims, _ = load_claims(out / "claims.csv")
        yield sales, claims


def collect_pits(family: str, count: int) -> dict:
    """PITs by (config, window offset, column), in dataset order."""
    pits = {}
    with tempfile.TemporaryDirectory() as tmp:
        for sales, claims in _datasets(family, count, Path(tmp)):
            for name, config in CONFIGS[family].items():
                for period in run_pipeline(config, sales, claims)["periods"]:
                    sanity = period["sanity"]
                    for column in COLUMNS:
                        key = "count_cdf" if column == "count" else f"cost_cdf_{column}"
                        if key in sanity:
                            pits.setdefault((name, period["offset"], column), []).append(
                                sanity[key]
                            )
    return pits


def summarize(pit) -> dict:
    """KS from uniform with its DKW band, tail shares and z moments."""
    u = np.sort(np.asarray(pit, dtype=float))
    n = len(u)
    ks = max(np.max(np.arange(1, n + 1) / n - u), np.max(u - np.arange(n) / n))
    edge = 2.0**-53
    z = np.array([NormalDist().inv_cdf(p) for p in np.clip(u, edge, 1.0 - edge)])
    return {
        "n": n,
        "ks": float(ks),
        "dkw": 1.36 / np.sqrt(n),
        "below_05": float(np.mean(u < 0.05)),
        "above_95": float(np.mean(u > 0.95)),
        "z_mean": float(np.mean(z)),
        "z_sd": float(np.std(z, ddof=1)) if n > 1 else float("nan"),
    }


def study(counts: dict) -> list:
    """One row per family, config, window and column, families in
    ``counts`` order (family -> number of datasets)."""
    rows = []
    for family, count in counts.items():
        if count < 1:
            continue
        for (config, offset, column), pit in collect_pits(family, count).items():
            rows.append(dict(family=family, config=config, window=offset,
                             column=column, **summarize(pit)))
    return rows


def format_table(rows) -> str:
    lines = ["| " + " | ".join(HEADER) + " |", "|" + "---|" * len(HEADER)]
    for row in rows:
        cells = [f"{row[h]:.3f}" if isinstance(row[h], float) else str(row[h])
                 for h in HEADER]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--datagen", type=int, default=100,
                        help="datasets from perfbench/datagen, indices 1000 on")
    parser.add_argument("--synthesize", type=int, default=300,
                        help="synthesize_dataset seeds, 0 on, at n = 5000")
    args = parser.parse_args(argv)
    print(format_table(study({"datagen": args.datagen, "synthesize": args.synthesize})))
    return 0


if __name__ == "__main__":
    # the loaders log each malformed row the datagen files hold on purpose
    logging.getLogger("claimcast").setLevel(logging.ERROR)
    sys.exit(main())
