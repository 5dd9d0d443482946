"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class CapExceededError(DomainError):
    """A field, or a scan over one, would exceed the 2^16 cardinality cap."""


class RecurrenceBreakdownError(ArithmeticError):
    """A division required by a coefficient recurrence was not exact."""


class ConsistencyError(RuntimeError):
    """An internal invariant that theory guarantees failed to hold."""


class AmbientTooSmallError(RuntimeError):
    """The ambient field does not contain all roots required by a construction."""

    def __init__(self, message, needed_degree=None):
        super().__init__(message)
        self.needed_degree = needed_degree
