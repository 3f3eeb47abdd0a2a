"""One benchmark operation in a fresh interpreter.

Usage: ``python3 worker.py SPEC`` where SPEC is a JSON object with keys
``workload``, ``src`` (the ``src`` directory ``claimcast`` must come from),
``setup_only``, and for an operation ``seed``, ``data`` (dataset directory),
``out`` (report directory), ``trace`` (0/1), ``trace_file`` and ``op``.

The worker imports what the workload calls, prints one ``ready`` line with
its versions and a CLOCK_MONOTONIC reading (the parent times
spawn-to-ready as set-up), runs the
operation once and prints its result as one JSON line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

import datagen

VALIDATE_REPS = 100
VALIDATE_N = 500
THEOREMS = {"validate_normal": "normal", "validate_stable": "stable_1_2"}


def _import_workload(workload: str) -> None:
    """Import the modules ``workload`` calls, so that set-up time covers them."""
    if workload == "report_paper":
        import claimcast.dataio
        import claimcast.pipeline  # noqa: F401
    else:
        import claimcast.sim  # noqa: F401


def report_paper(data: Path, out: Path) -> dict:
    """What ``claimcast report`` calls: CSV paths in, report files out."""
    from claimcast import dataio
    from claimcast.pipeline import RunConfig, run_pipeline

    sales, sales_issues = dataio.load_sales(data / "sales.csv")
    claims, claim_issues = dataio.load_claims(data / "claims.csv")
    run_pipeline(RunConfig(), sales, claims, out_dir=out)
    return {
        "rows": len(sales) + len(claims) + len(sales_issues) + len(claim_issues),
        "row_issues": len(sales_issues) + len(claim_issues),
    }


def validation_study(theorem: str):
    """The Monte Carlo study of ``validate_normal`` / ``validate_stable``."""
    from claimcast import sim
    from claimcast.core import MeanClaimsMeasure, RebateFunction, TimeHorizon

    w, t = datagen.WARRANTY, datagen.PERIOD
    measure = MeanClaimsMeasure(
        slope=datagen.SLOPE,
        intercept=datagen.INTERCEPT,
        atom0=datagen.ATOM0,
        atomW=datagen.ATOMW,
        warranty=w,
    )
    sizes = sim.LognormalSizes(0.0, 0.5) if theorem == "normal" else sim.ParetoSizes(1.5)
    return sim.MonteCarloStudy(
        sales=sim.NhppSales(sim.LinearShare(w, w + t)),
        claims=sim.PoissonClaims(measure),
        rebate=RebateFunction.free_replacement(w),
        horizon=TimeHorizon(w, t, 0, VALIDATE_N),
        theorem=theorem,
        sizes=sizes,
    )


def main(argv) -> int:
    spec = json.loads(argv[1])
    workload = spec["workload"]
    import claimcast

    src = Path(spec["src"]).resolve()
    if src not in Path(claimcast.__file__).resolve().parents:
        print(f"claimcast imported from {claimcast.__file__}, not {src}", file=sys.stderr)
        return 2
    _import_workload(workload)
    import numpy
    import scipy

    print(
        "ready "
        + json.dumps(
            {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "t": time.clock_gettime(time.CLOCK_MONOTONIC),
            }
        ),
        flush=True,
    )
    if spec["setup_only"]:
        return 0

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer(spec["op"])
        tracer.install()

    if workload == "report_paper":
        def op():
            return report_paper(Path(spec["data"]), Path(spec["out"]))
    else:
        from claimcast.sim import monte_carlo_validate

        study = validation_study(THEOREMS[workload])

        def op():
            return asdict(monte_carlo_validate(study, VALIDATE_REPS, spec["seed"], workers=1))

    if tracer is not None:
        op = tracer.wrap("bench", op)
    t0 = time.perf_counter()
    result = op()
    op_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.write(spec["trace_file"])
    print(
        json.dumps(
            {
                "op_s": op_s,
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "result": result,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
