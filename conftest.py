"""Warning filters for every pytest run in this repository.

pyproject.toml's ``filterwarnings`` holds the filters on built-in warning
classes. A filter naming a numpy class is added here instead: pytest resolves
ini filters before it loads ``tests/conftest.py``, so naming numpy there would
import numpy, and its BLAS, before that file limits the BLAS threads. Filters
added at configure time are first resolved when collection starts. This file
sits at the rootdir, so it also serves runs of ``bench/selftest.py``.
"""


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error::numpy.exceptions.ComplexWarning")
