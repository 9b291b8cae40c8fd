"""A fixed job that measures how fast the host runs at the moment.

The host this benchmark was built on changes its effective speed within
seconds and minutes: the same op takes from 0.7x to 1.5x its typical time,
in CPU time as well as wall time, and over hours the typical time itself
moved by 2x. So raw times of identical runs taken minutes apart do not
repeat. The run therefore times this job between its ops and reports op and
set-up times rescaled to a host on which the job takes ``REF_S`` seconds:
``t * REF_S / trimmed_mean(job times)``.

The job uses numpy and Python only, never ``sfofr``, so no change to the
library moves it. Its parts are the kinds of work the ops spend their time
on: a non-symmetric eigenvalue problem (the dense spectral-radius fallback
of the Monte Carlo ops), a dense LAPACK solve (their reduced-form solves),
and writing and parsing 17-digit CSV text in Python (the CLI's files). Its
inputs are fixed and do not depend on ``--seed``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.2  # nominal job time that defines one reference second

_rng = np.random.default_rng(20261018)
_E = _rng.standard_normal((400, 400))
_A = _rng.standard_normal((1000, 1000)) + 1000.0 * np.eye(1000)
_B = _rng.standard_normal((1000, 10))
_M = _rng.standard_normal((120, 200)).tolist()


def job() -> float:
    """The fixed work; returns a number that depends on all of it."""
    ev = np.linalg.eigvals(_E)
    x = np.linalg.solve(_A, _B)
    text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in _M)
    parsed = [[float(t) for t in line.split(",")] for line in text.splitlines()]
    return float(abs(ev).max()) + float(x[0, 0]) + parsed[-1][-1]


def time_once() -> float:
    t0 = time.perf_counter()
    job()
    return time.perf_counter() - t0


def host_time(samples: list[float]) -> float:
    """Mean job time with the slowest and fastest tenth of samples left out.

    A mean, not a median: the host's speed switches back and forth within a
    run, an op's time averages over those switches, and so does a mean of
    the samples, while a median jumps to whichever speed held most often.
    """
    cut = len(samples) // 10
    return statistics.mean(sorted(samples)[cut:len(samples) - cut])
