"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`IphError` so callers
can catch one base class.  The CLI maps subclasses onto process exit codes:
configuration problems exit 2, data problems exit 3, numerical failures 4.
"""

from __future__ import annotations

__all__ = [
    "IphError",
    "ValidationError",
    "DomainError",
    "SingularMatrixError",
    "NonConvergenceError",
    "IntegrationError",
    "DegenerateConditioningError",
    "UnsupportedRepresentationError",
    "DivergentMomentError",
    "DegenerateStateError",
    "DegenerateStateWarning",
    "ShiftError",
    "DataFileError",
    "ConfigError",
    "ModelDocumentError",
]


class IphError(Exception):
    """Base class for all library errors."""


class ValidationError(IphError, ValueError):
    """A constructor argument violates a structural invariant.

    The message names the violated constraint (and the offending entry
    where that makes sense).
    """


class DomainError(IphError, ValueError):
    """An evaluation point lies outside the domain of the operation."""


class SingularMatrixError(IphError):
    """A matrix that must be invertible is singular to working precision."""


class NonConvergenceError(IphError):
    """An iterative computation failed to converge.

    Carries the magnitude of the last correction so callers can judge how
    far off the result is.
    """

    def __init__(self, message: str, last_term: float | None = None):
        if last_term is not None:
            message = f"{message} (last term magnitude {last_term:.3e})"
        super().__init__(message)
        self.last_term = last_term


class IntegrationError(IphError):
    """Adaptive quadrature or ODE integration could not reach tolerance."""

    def __init__(self, message: str, achieved: float | None = None):
        if achieved is not None:
            message = f"{message} (achieved error estimate {achieved:.3e})"
        super().__init__(message)
        self.achieved = achieved


class DegenerateConditioningError(IphError):
    """Conditioning a matrix-exponential (non-Markov) law on X > u where
    P(X > u) is not above 1e-300.  A Markov law takes its conditioned
    start from the anchored walk and has no such floor."""


class UnsupportedRepresentationError(IphError):
    """The operation needs a probabilistic (Markov) representation."""


class DivergentMomentError(IphError):
    """The requested moment or transform is infinite for these parameters."""


class DegenerateStateError(IphError):
    """A state received zero expected sojourn time; its rates are undefined."""


class DegenerateStateWarning(UserWarning):
    """A fitted state received essentially zero expected sojourn time."""


class ShiftError(IphError, ValueError):
    """A shift makes one or more transformed data points nonpositive.

    ``indices`` lists the offending sample positions (0-based, data order).
    """

    def __init__(self, message: str, indices=None):
        super().__init__(message)
        self.indices = list(indices) if indices is not None else []


class DataFileError(IphError, ValueError):
    """An input data file could not be parsed; message names the line."""


class ConfigError(IphError, ValueError):
    """Command line or config file arguments are inconsistent."""


class ModelDocumentError(IphError, ValueError):
    """A saved parameter document is malformed; message names the field."""
