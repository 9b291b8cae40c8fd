"""Exception hierarchy for the sfofr package.

Two broad families matter to callers (and to the CLI exit codes):
``DataError`` covers everything wrong with inputs — bad parameters, malformed
files, dimension mismatches, violated preconditions — while ``NumericalError``
covers failures of the numerics themselves — divergent solves, singular
systems, non-finite objectives.
"""


class SfofrError(Exception):
    """Base class for all errors raised by this package."""


class DataError(SfofrError, ValueError):
    """Invalid input data or arguments (CLI exit code 1)."""


class ParameterError(DataError):
    """An argument violates its documented range or consistency requirement."""


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
