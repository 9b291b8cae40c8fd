"""Exception hierarchy for the sfofr package.

Two broad families matter to callers (and to the CLI exit codes):
``DataError`` covers everything wrong with inputs — bad parameters, malformed
files, dimension mismatches, violated preconditions — while ``NumericalError``
covers failures of the numerics themselves — divergent solves, singular
systems, non-finite objectives.

Count, finite-scalar and share arguments are checked by ``_check_count``,
``_check_finite`` and ``_check_share`` below, so each range rule and its
message live in one place.
"""

import math
import numbers


class SfofrError(Exception):
    """Base class for all errors raised by this package."""


class DataError(SfofrError, ValueError):
    """Invalid input data or arguments (CLI exit code 1)."""


class ParameterError(DataError):
    """An argument violates its documented range or consistency requirement."""


def _check_count(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int when it is a whole number in [low, high] (no upper bound
    without ``high``); integral floats pass. Anything else raises ``ParameterError``."""
    whole = isinstance(value, numbers.Real) and math.isfinite(value) and int(value) == value
    if not whole or value < low or (high is not None and value > high):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ParameterError(f"{name} must be an integer {span}, got {value!r}")
    return int(value)


def _check_finite(name: str, value, positive: bool = False) -> None:
    """Require a finite real ``value`` >= 0, or > 0 when ``positive``; anything
    else, non-numbers and arrays included, raises ``ParameterError``."""
    real = isinstance(value, numbers.Real)
    if not (real and (0 < value < math.inf if positive else 0 <= value < math.inf)):
        sign = ">" if positive else ">="
        raise ParameterError(f"{name} must be finite and {sign} 0, got {value!r}")


def _check_share(name: str, value) -> None:
    """Require a real ``value`` in (0, 1]; anything else raises ``ParameterError``."""
    if not (isinstance(value, numbers.Real) and 0 < value <= 1):
        raise ParameterError(f"{name} must be in (0, 1], got {value!r}")


class DomainError(DataError):
    """A point lies outside the function domain [0, 1]."""


class PreconditionError(DataError):
    """A documented operation precondition does not hold (e.g. non-centered input)."""


class UndefinedStatisticError(DataError):
    """A statistic is undefined for the given data (e.g. zero variance in Moran's I)."""


class NumericalError(SfofrError, ArithmeticError):
    """Numerical failure: non-convergence, non-finite values (CLI exit code 2)."""


class SingularityError(NumericalError):
    """A linear system is singular or numerically rank-deficient."""


class DivergenceError(NumericalError):
    """A spectral-radius condition fails, so the requested solve diverges."""


class GenerationError(NumericalError):
    """Generated simulation responses fail their residual certificate."""
