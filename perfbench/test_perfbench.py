"""Tests of the benchmark itself: inputs, tracer transparency, output checks
and the result line's contract.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import datagen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
REFS = json.loads(run.REFS.read_text())


def test_same_seed_same_dataset(tmp_path):
    first = datagen.generate(3, tmp_path / "a")
    second = datagen.generate(3, tmp_path / "b")
    other = datagen.generate(4, tmp_path / "c")
    assert first == second
    for name in ("sales.csv", "claims.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert other["sha256"] != first["sha256"]
    assert first == REFS["report_paper"]["3"]["dataset"]


def _report_bytes(data, out, config):
    from claimcast import dataio
    from claimcast.pipeline import run_pipeline

    sales, _ = dataio.load_sales(data / "sales.csv")
    claims, _ = dataio.load_claims(data / "claims.csv")
    run_pipeline(config, sales, claims, out_dir=out)
    return (out / "report.json").read_bytes()


def test_tracer_leaves_report_unchanged(tmp_path):
    from claimcast.pipeline import RunConfig, run_pipeline

    datagen.generate(0, tmp_path / "data", n_items=3000)
    config = RunConfig(qq_k=1000)
    plain = _report_bytes(tmp_path / "data", tmp_path / "plain", config)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _report_bytes(tmp_path / "data", tmp_path / "traced", config)
    finally:
        tracer.uninstall()
    assert traced == plain
    layers = {s[0] for s in tracer.spans}
    assert layers == set(spans.LAYERS) - {"sim"}
    from claimcast import pipeline

    assert pipeline.run_pipeline is run_pipeline  # uninstall restores every binding
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["stable.quantile_calls"] == 14
    assert metrics["stable.cdf_calls"] == 2


def test_tracer_leaves_validation_unchanged():
    from dataclasses import asdict

    from claimcast import sim

    study = worker.validation_study("normal")
    plain = asdict(sim.monte_carlo_validate(study, 100, 7))
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = asdict(sim.monte_carlo_validate(study, 100, 7))
    finally:
        tracer.uninstall()
    assert json.dumps(traced) == json.dumps(plain)
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["sim.replications"] == 100
    assert metrics["sim.theory_s"] > 0.0


def test_check_flags_a_moved_estimate():
    ref = REFS["report_paper"]["0"]["report"]
    assert run.check_report(copy.deepcopy(ref), ref) == []
    near = copy.deepcopy(ref)
    near["sales_curve"]["p"] *= 1.0 + 1e-12
    assert run.check_report(near, ref) == []
    moved = copy.deepcopy(ref)
    moved["sales_curve"]["p"] *= 1.0 + 1e-9
    assert run.check_report(moved, ref) == [
        f"/sales_curve/p: {moved['sales_curve']['p']!r} != reference {ref['sales_curve']['p']!r}"
    ]
    swapped = copy.deepcopy(ref)
    column = swapped["periods"][0]["quantiles"]["stable"]
    column["0.5"], column["0.75"] = column["0.75"], column["0.5"]
    assert any("not increasing" in p for p in run.check_report(swapped, ref))


def _result_line(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_declaration(trace, section):
    line = _result_line("--workload", "validate_normal", "--seed", "5", "--seconds", "0",
                        "--trace", trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report_paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
