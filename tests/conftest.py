"""Test-session setup: one BLAS thread per process.

The suite's linear algebra is small, so a BLAS thread pool costs more in
hand-offs than it saves: on a shared 2-core host the two acceptance
benchmarks took 53 s and 40 s with threads unlimited, and 16 s and 13 s with
one thread. BLAS reads these variables once, when it is loaded, so they reach
scipy's BLAS, loaded later by the tests, and every child process the tests
start. A value already set in the environment wins.

numpy is loaded before this file runs: pytest imports it to resolve the numpy
warning class that pyproject.toml's ``filterwarnings`` names. numpy's own BLAS
in this process therefore keeps its default thread count.
"""

import os
import sys
import warnings

if "scipy" in sys.modules:
    warnings.warn("scipy was imported before tests/conftest.py; its BLAS ignores the limit")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
