"""Record ``refs.json``, the outputs every benchmark run is checked against.

Usage (from the repository root): ``python3 perfbench/record_refs.py``.

For each of the POOL ``report_paper`` datasets it stores the dataset's
summary (row counts, content hash, claim pairs) and the full ``report.json``
payload; for each validate workload it stores the limit-law quantiles,
which depend only on the study, not on the draws.  Record only on a commit
whose outputs are known to be right: a later commit is checked against it.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    refs = {name: {} for name in run.WORKLOADS}
    bench = run.Run("report_paper", 0, {})
    for index in range(run.POOL):
        data = bench.dataset(index)
        out = bench.dir / f"d{index:02d}"
        rec = run.spawn(
            {"workload": "report_paper", "seed": index, "op": index, "data": data["dir"],
             "out": str(out)}
        )
        if "error" in rec:
            print(rec["error"], file=sys.stderr)
            return 1
        summary = {k: data[k] for k in ("index", "sales_rows", "claim_rows", "sha256", "pairs")}
        refs["report_paper"][str(index)] = {
            "dataset": summary,
            "report": json.loads((out / "report.json").read_text()),
        }
    for name in run.WORKLOADS[1:]:
        rec = run.spawn({"workload": name, "seed": 0, "op": 0})
        if "error" in rec:
            print(rec["error"], file=sys.stderr)
            return 1
        refs[name] = {"limit_quantiles": rec["result"]["limit_quantiles"]}
        print(f"{name}: limit quantiles {rec['result']['limit_quantiles']}")
    run.REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
