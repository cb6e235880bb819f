"""Exception types shared by all gfsl modules, and the finiteness check
of scalar parameters that names them."""

import cmath


class GfslError(Exception):
    """Base class for all library errors; carries the input at fault when
    the raiser knows it."""

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class PoleError(GfslError):
    """An input sits on a pole of the requested function."""


class DomainError(GfslError):
    """Input outside the mathematical domain of the operation."""


class AccuracyError(GfslError):
    """Requested tolerance could not be reached; carries the achieved bound."""

    def __init__(self, message, achieved=None, value=None):
        super().__init__(message, value)
        self.achieved = achieved


class ConsistencyError(GfslError):
    """Two routes that must agree numerically do not."""


class ConstructionError(GfslError):
    """A constructed object failed its own defining checks."""


def check_finite(where, **params):
    """DomainError naming `where` and the first of `params` (name=value,
    real or complex) that is not finite, carrying that value."""
    for name, value in params.items():
        if not cmath.isfinite(value):
            raise DomainError(
                f"{where}: {name} must be finite, got {value!r}", value)
