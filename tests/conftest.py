"""Test-session setup: one BLAS thread per process.

The suite's linear algebra is small, so a BLAS thread pool costs more in
hand-offs than it saves: on a shared 2-core host the two acceptance
benchmarks took 53 s and 40 s with threads unlimited, and 16 s and 13 s with
one thread. BLAS reads these variables once, when it is loaded, so they reach
numpy's and scipy's BLAS, loaded later by the tests, and every child process
the tests start. A value already set in the environment wins. numpy stays
unloaded until then because the root conftest.py, not pyproject.toml, names
numpy's warning class.

The ``traced_peak`` fixture below is the one ``tracemalloc`` harness that the
memory tests share.
"""

import os
import sys
import tracemalloc
import warnings

import pytest

for _module in ("numpy", "scipy"):
    if _module in sys.modules:
        warnings.warn(
            f"{_module} was imported before tests/conftest.py; its BLAS ignores the limit"
        )
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` calls fn() and returns its result and its
    ``tracemalloc`` peak: the most bytes traced during the call above those
    traced when it began. Tracing starts at the first call, and stops after
    the test unless it was already on."""
    was_tracing = tracemalloc.is_tracing()

    def run(fn):
        tracemalloc.start()  # a no-op when already tracing
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base

    yield run
    if not was_tracing:
        tracemalloc.stop()
