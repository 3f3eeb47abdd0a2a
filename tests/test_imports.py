"""The import boundary: no claimcast module loads scipy, and none loads a
library it does not use.

Each check imports in a fresh interpreter, so that modules loaded by other
tests cannot hide an import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import claimcast

SRC = Path(claimcast.__file__).resolve().parents[1]


def modules_after(statement):
    """Names in ``sys.modules`` after ``statement`` runs in a new interpreter."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    code = f"{statement}\nimport json, sys\nprint(json.dumps(list(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def scipy_modules(statement):
    loaded = modules_after(statement)
    return sorted(m for m in loaded if m == "scipy" or m.startswith("scipy."))


def test_sim_loads_no_scipy():
    assert scipy_modules("import claimcast.sim") == []


def test_pipeline_loads_no_scipy():
    assert scipy_modules("import claimcast.pipeline") == []


def test_cli_loads_no_scipy():
    assert scipy_modules("import claimcast.cli") == []


# none is needed: polynomials are evaluated, multiplied and integrated by
# numpy's np.polyval, np.polymul and np.polyint, which load with numpy itself,
# and engine computes its own normal quantile (statistics loads fractions and
# decimal)
UNUSED_LIBRARIES = ("numpy.polynomial", "statistics", "fractions", "decimal")


def unused_libraries(loaded):
    return sorted(
        m for m in loaded if any(m == u or m.startswith(u + ".") for u in UNUSED_LIBRARIES)
    )


@pytest.mark.parametrize("module", ["claimcast.pipeline", "claimcast.sim"])
def test_imports_load_no_unused_library(module):
    assert unused_libraries(modules_after(f"import {module}")) == []


def test_sim_loads_what_its_operation_uses():
    # numpy.random is loaded on import, so that a first validation does not
    # pay for it; numpy.ma is on no path (see the operation test below)
    loaded = modules_after("import claimcast.sim")
    assert "numpy.random" in loaded
    assert "numpy.ma" not in loaded


def test_pipeline_loads_what_its_operation_uses():
    assert "numpy.ma" not in modules_after("import claimcast.pipeline")


def test_operations_load_no_numpy_ma(tmp_path):
    # a bare np.unique, np.quantile or np.percentile loads numpy.ma (about
    # 20 ms); neither a report nor a validation calls one, nor loads one of
    # UNUSED_LIBRARIES on the way
    small = ["--warranty", "200", "--period", "30"]
    commands = [
        ["simulate", "--out-dir", str(tmp_path), "--n-items", "2000",
         "--warranty", "200", "--span", "240"],
        ["report", "--sales", str(tmp_path / "sales.csv"), "--claims",
         str(tmp_path / "claims.csv"), *small, "--qq-k", "300",
         "--out-dir", str(tmp_path / "out")],
        *(["validate", "--theorem", theorem, *small, "--n-scale", "150", "--reps", "100"]
          for theorem in ("count", "normal", "stable_1_2", "prorata")),
    ]
    run = (
        "import contextlib, io\n"
        "from claimcast import cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
    )
    loaded = modules_after(run)
    assert "numpy.ma" not in loaded
    assert unused_libraries(loaded) == []
