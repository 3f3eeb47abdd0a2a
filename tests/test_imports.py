"""The import boundary: no claimcast module loads scipy.

Each check imports in a fresh interpreter, so that modules loaded by other
tests cannot hide an import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_sim_loads_what_its_operation_uses():
    # loaded on import, so that a first validation does not pay for them
    assert {"numpy.random", "numpy.ma"} <= modules_after("import claimcast.sim")


def test_pipeline_loads_what_its_operation_uses():
    # np.unique loads numpy.ma; a first report should not pay for it
    assert "numpy.ma" in modules_after("import claimcast.pipeline")
