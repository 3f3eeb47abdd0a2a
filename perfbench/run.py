"""claimcast benchmark: paper-scale report latency and Monte Carlo throughput.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report_paper --seed 1 --seconds 35 --trace 0

``--workload`` is one of WORKLOADS or ``all``.  One client runs operations
in a closed loop: each operation runs in a fresh interpreter (worker.py,
at most one at a time, BLAS/OpenMP threads pinned to 1) and the next starts
only after the previous one has ended, until ``--seconds`` have passed.
Every output is checked against ``refs.json``.  With ``--trace 1`` each
operation is run twice, untraced and traced in alternating order, the two
outputs must be byte-identical, and the per-layer figures come from the
traced copy.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json, or its per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import datagen
import spans
import worker

WORKLOADS = ("report_paper", "validate_normal", "validate_stable")
POOL = 16  # report_paper draws its datasets from this many recorded ones
SETUP_PROBES = 4  # extra spawn-import-exit runs per benchmark run, for setup_s
OP_TIMEOUT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFS = HERE / "refs.json"

COUNTS = (
    "claims.pairs",
    "claims.quarantined",
    "claims.var_floored",
    "dataio.rows",
    "dataio.row_issues",
)

# tolerances against refs.json: estimates follow the 1e-10 relative contract;
# stable figures follow the stable CDF's 1e-8 absolute contract
EST_RTOL = 1e-10
STABLE_Q_TOL = 1e-6  # times max(1, |q|): a 1e-8 CDF error over a small density
STABLE_CDF_ATOL = 5e-8


def op_seed(seed: int, k: int) -> int:
    """Seed of operation ``k`` of a run, derived from the workload seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{k}".encode()).digest()[:4], "little")


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(spec: dict) -> dict:
    """Run worker.py on ``spec``; return set-up time, ready info and result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    spec = dict({"src": str(ROOT / "src"), "setup_only": False, "trace": 0}, **spec)
    t0 = _monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"timed out after {OP_TIMEOUT_S:.0f} s"}
    lines = out.splitlines()
    ready = [json.loads(line[6:]) for line in lines if line.startswith("ready ")]
    if proc.returncode != 0 or not ready:
        return {"error": f"exit {proc.returncode}: {err.strip()[-2000:]}"}
    got = {"setup_s": ready[0].pop("t") - t0, "versions": ready[0]}
    if not spec["setup_only"]:
        got.update(json.loads(lines[-1]))
    return got


# --------------------------------------------------------------------------
# output checks


def _close(ref, got, tol: float) -> bool:
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    return abs(ref - got) <= tol


def compare(ref, got, path: str = "") -> list:
    """Differences between a reference and an output, as readable strings."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        return [d for key in sorted(ref) for d in compare(ref[key], got[key], f"{path}/{key}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [d for i, (r, g) in enumerate(zip(ref, got)) for d in compare(r, g, f"{path}/{i}")]
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        ok = _close(ref, got, _tolerance(path, ref))
        return [] if ok else [f"{path}: {got!r} != reference {ref!r}"]
    return [] if ref == got else [f"{path}: {got!r} != reference {ref!r}"]


def _tolerance(path: str, ref: float) -> float:
    if "stable" in path and "quantiles" in path:
        return STABLE_Q_TOL * max(1.0, abs(ref))
    if "stable" in path:
        return STABLE_CDF_ATOL
    if path.startswith("/limit_quantiles"):  # standardized scale, may be 0
        return EST_RTOL * max(1.0, abs(ref))
    return EST_RTOL * abs(ref)


def check_report(payload: dict, ref: dict) -> list:
    problems = []
    if payload["tail"]["regime"] != "stable_1_2":
        problems.append(f"regime {payload['tail']['regime']!r}, expected 'stable_1_2'")
    for period in payload["periods"]:
        columns = period["quantiles"]
        if set(columns) != {"normal", "stable"}:
            problems.append(f"period {period['offset']}: quantile columns {sorted(columns)}")
        for kind, column in columns.items():
            values = [column[p] for p in sorted(column, key=float)]
            if any(b <= a for a, b in zip(values, values[1:])):
                problems.append(f"period {period['offset']}: {kind} quantiles not increasing")
    return problems + compare(ref, payload)


def check_validation(result: dict, ref: dict) -> list:
    problems = []
    ks = result["ks_distance"]
    if result["degenerate"] or result["reps"] != worker.VALIDATE_REPS:
        problems.append(f"degenerate report or wrong reps: {result['reps']}")
    if not (math.isfinite(ks) and 0.0 <= ks <= 1.0):
        problems.append(f"KS distance {ks!r} outside [0, 1]")
    if not all(math.isfinite(q) for q in result["empirical_quantiles"]):
        problems.append("non-finite empirical quantiles")
    tag = "stable" if result["theorem"].startswith("stable") else "normal"
    return problems + compare(
        ref["limit_quantiles"], result["limit_quantiles"], f"/limit_quantiles/{tag}"
    )


# --------------------------------------------------------------------------
# one operation


class Run:
    """Runs the operations of one workload and keeps their records."""

    def __init__(self, workload: str, seed: int, refs: dict):
        self.workload = workload
        self.seed = seed
        self.refs = refs.get(workload, {})
        self.dir = WORK / f"run-{workload}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.datasets = {}

    def dataset(self, index: int) -> dict:
        """Generate (or reuse the cached copy of) pool dataset ``index``."""
        if index not in self.datasets:
            where = WORK / "data" / f"d{index:02d}"
            ref = self.refs.get(str(index), {}).get("dataset")
            meta = where / "dataset.json"
            summary = json.loads(meta.read_text()) if meta.is_file() else None
            if summary is None or datagen.dataset_hash(where) != summary["sha256"]:
                summary = datagen.generate(index, where)
                meta.write_text(json.dumps(summary))
            summary["dir"] = str(where)
            summary["matches_reference"] = ref is not None and ref == {
                k: summary[k] for k in ref
            }
            print(
                f"dataset d{index:02d}: sales_rows={summary['sales_rows']} "
                f"claim_rows={summary['claim_rows']} pairs={summary['pairs']} "
                f"sha256={summary['sha256']}"
            )
            self.datasets[index] = summary
        return self.datasets[index]

    def op(self, k: int, traced: bool) -> dict:
        """Operation ``k``; returns its record with ``problems`` (empty if ok)."""
        tag = f"op{k}{'-traced' if traced else ''}"
        spec = {"workload": self.workload, "seed": op_seed(self.seed, k), "op": k}
        spec.update(trace=int(traced), trace_file=str(self.dir / f"trace-{tag}.json"))
        if self.workload == "report_paper":
            data = self.dataset(spec["seed"] % POOL)
            spec.update(data=data["dir"], out=str(self.dir / tag))
        rec = spawn(spec)
        rec["problems"] = [rec["error"]] if "error" in rec else []
        if not rec["problems"]:
            try:
                self._check(rec, spec)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                rec["problems"].append(f"unreadable output: {exc!r}")
        return rec

    def _check(self, rec: dict, spec: dict) -> None:
        """Check an operation's output; add its identity, counts and layers."""
        if self.workload == "report_paper":
            data = self.datasets[spec["seed"] % POOL]
            raw = (Path(spec["out"]) / "report.json").read_bytes()
            rec["identity"] = hashlib.sha256(raw).hexdigest()
            payload = json.loads(raw)
            ref = self.refs.get(str(data["index"]))
            if ref is None or not data["matches_reference"]:
                rec["problems"].append(f"no reference for dataset d{data['index']:02d}")
            else:
                rec["problems"] += check_report(payload, ref["report"])
            rec["counts"] = {
                "claims.pairs": data["pairs"],
                "claims.quarantined": payload["rejected_claims"],
                "claims.var_floored": payload["variance_floor_count"],
                "dataio.rows": rec["result"]["rows"],
                "dataio.row_issues": rec["result"]["row_issues"],
            }
        else:
            rec["identity"] = json.dumps(rec["result"], sort_keys=True)
            if "limit_quantiles" not in self.refs:
                rec["problems"].append("no reference limit quantiles")
            else:
                rec["problems"] += check_validation(rec["result"], self.refs)
            rec["counts"] = dict.fromkeys(COUNTS, 0)
        if spec["trace"]:
            rec["layers"] = spans.layer_metrics(json.loads(Path(spec["trace_file"]).read_text()))


# --------------------------------------------------------------------------
# reporting


def describe(values, unit: str) -> str:
    """Median, the highest percentile with at least ten samples beyond it, n."""
    xs = sorted(values)
    n = len(xs)
    text = f"median {statistics.median(xs):.6g} {unit}"
    if n >= 11:
        p = math.floor(100.0 * (n - 10) / n)
        text += f", p{p} {xs[math.ceil(p / 100.0 * n) - 1]:.6g} {unit}"
    else:
        text += ", no percentile has 10 samples beyond it"
    return text + f" (n={n})"


def environment(versions: dict) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return dict(
        nproc=os.cpu_count(),
        cpu=cpu,
        **versions,
        commit=_git_commit(),
        src_sha256=digest.hexdigest(),
        blas_threads=1,
        workers=1,
    )


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, refs: dict,
                 units: dict):
    """Measure one workload; print its summary; return (attempted, failed, metrics)."""
    run = Run(workload, seed, refs)
    warm = spawn({"workload": workload, "setup_only": True})  # fills the bytecode cache
    if "error" in warm:
        raise SystemExit(f"{workload}: the program cannot be set up: {warm['error']}")
    print("env " + json.dumps(environment(warm["versions"]), sort_keys=True))
    setups = []
    for _ in range(SETUP_PROBES):
        probe = spawn({"workload": workload, "setup_only": True})
        if "error" in probe:
            raise SystemExit(f"{workload}: the program cannot be set up: {probe['error']}")
        setups.append(probe["setup_s"])

    plain, traced, failed = [], [], []
    start = _monotonic()
    k, cost = 0, 0.0
    while k == 0 or _monotonic() - start + cost <= seconds:  # start none that would end late
        t0 = _monotonic()
        if trace:  # alternate which copy runs first, so order does not bias overhead
            order = (False, True) if k % 2 == 0 else (True, False)
            by_mode = {mode: run.op(k, traced=mode) for mode in order}
            rec, twin = by_mode[False], by_mode[True]
            records = list(by_mode.values())
            if not (rec["problems"] or twin["problems"]) and twin["identity"] != rec["identity"]:
                twin["problems"].append("traced output differs from the untraced output")
            traced.append(twin)
        else:
            rec = run.op(k, traced=False)
            records = [rec]
        plain.append(rec)
        for r in records:
            if r["problems"]:
                failed.append(r)
                print(f"op {k} FAILED: " + "; ".join(r["problems"][:5]))
        line = " ".join(f"{r['op_s']:.4f} s" for r in records if not r["problems"])
        if workload != "report_paper" and not rec["problems"]:
            line += f", KS {rec['result']['ks_distance']:.4f}"
        print(f"op {k}: {line}")
        cost = _monotonic() - t0
        k += 1

    good = [r for r in plain if not r["problems"]]
    good_traced = [r for r in traced if not r["problems"]]
    attempted = len(plain) + len(traced)
    ops = [r["op_s"] for r in good]
    setups += [r["setup_s"] for r in good]
    print(f"{workload} seed={seed} trace={int(trace)}: {attempted} operations in "
          f"{_monotonic() - start:.1f} s, single client, closed loop")
    if workload == "report_paper":
        print("  report_s     " + describe(ops, "s"))
    elif ops:
        print("  reps_per_s   " + describe([worker.VALIDATE_REPS / t for t in ops], "1/s")
              + f", {worker.VALIDATE_REPS} replications per operation")
    print("  setup_s      " + describe(setups, "s"))
    if good:
        print("  peak_rss_mb  " + describe([r["rss_mb"] for r in good], "MB"))
    print(f"  failed_share {len(failed)}/{attempted} = {len(failed) / attempted:.4g} ratio")

    if not trace:
        metrics = (
            {"op_s": (statistics.median(ops), "s"),
             "setup_s": (statistics.median(setups), "s"),
             "peak_rss_mb": (statistics.median(r["rss_mb"] for r in good), "MB")}
            if good else {}
        )
        return attempted, len(failed), metrics
    metrics = {}
    if good_traced and ops:
        for name in good_traced[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in good_traced)
        for name in COUNTS:
            metrics[name] = statistics.median(r["counts"][name] for r in good_traced)
        metrics["trace.overhead"] = (
            statistics.median(r["op_s"] for r in good_traced) / statistics.median(ops) - 1.0
        )
        for name in sorted(metrics):
            print(f"  {name:<22s} {metrics[name]:.6g} {units[name]}")
    return attempted, len(failed), {name: (v, units[name]) for name, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "claimcast" / "__init__.py").is_file():
        print(f"no claimcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    refs = json.loads(REFS.read_text()) if REFS.is_file() else {}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(name, args.seed, args.seconds, bool(args.trace), refs, units)
        attempted += a
        failed += f
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + key: {"value": v, "unit": u} for key, (v, u) in m.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
