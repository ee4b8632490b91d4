"""Exception types shared across the package, and the check of integer
parameters that raises one of them."""

import numbers


class InforateError(Exception):
    """Base class for all package-specific errors."""


class OutOfDomainError(InforateError, ValueError):
    """Point lies outside the domain of a piecewise function."""


class ConstantBranchError(InforateError, ValueError):
    """Operation requires an injective branch but hit a constant piece."""


class RangeMismatchError(InforateError, ValueError):
    """Range of the inner function is not covered by the outer domain."""


class NotNormalizedError(InforateError, ValueError):
    """Density does not integrate to one within tolerance."""


class BadParameterError(InforateError, ValueError):
    """Parameter outside its admissible set."""


class TooFewSamplesError(InforateError, ValueError):
    """Sample size below the minimum required by an estimator."""


class NoConvergenceError(InforateError, RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NotLumpableError(InforateError, RuntimeError):
    """Output process is not verifiably Markov; exact rate refused."""


class ParseError(InforateError, ValueError):
    """Malformed declarative configuration."""


class IncompatibleSpecError(InforateError, ValueError):
    """Function and process specs cannot be analyzed together."""


def check_int(name, value, lo, hi=None):
    """Raise BadParameterError unless ``value`` is an integer (a numpy one
    counts, a bool does not) in lo..hi, or >= lo when hi is None."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integral or value < lo or (hi is not None and value > hi):
        wanted = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise BadParameterError(f"{name} must be an integer {wanted}, got {value!r}")
