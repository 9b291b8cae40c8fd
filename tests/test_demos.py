"""Run each narrative demo the README documents, end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sfofr

_DEMOS = Path(__file__).resolve().parent.parent / "demos"
# Absolute, so the child finds the same package from any working directory.
_PACKAGE_ROOT = str(Path(sfofr.__file__).resolve().parent.parent)


@pytest.mark.parametrize(
    "script",
    [
        "01_smoothing_and_basis.py",
        "02_spatial_weights_and_moran.py",
        "03_functional_pca.py",
        "04_fit_and_predict.py",
        "05_monte_carlo_benchmark.py",
    ],
)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(_DEMOS / script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
