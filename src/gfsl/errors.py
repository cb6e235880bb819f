"""Exception types shared by all gfsl modules."""


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
