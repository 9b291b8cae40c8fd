"""Run the benchmark's self-test, which re-makes library calls by name, so a
library change that breaks the benchmark fails here too."""

import os
import subprocess
import sys
from pathlib import Path

import sfofr

_REPO = Path(__file__).resolve().parent.parent
# Absolute, so the child finds the same package from any working directory.
_PACKAGE_ROOT = str(Path(sfofr.__file__).resolve().parent.parent)


def test_bench_selftest_passes(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            str(_REPO / "bench" / "selftest.py"),
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
