"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class CapExceededError(DomainError):
    """A field would exceed the 2^16 cardinality cap."""


class RecurrenceBreakdownError(ArithmeticError):
    """A division required by a coefficient recurrence was not exact."""


class ConsistencyError(RuntimeError):
    """An internal invariant that theory guarantees failed to hold."""


class AmbientTooSmallError(RuntimeError):
    """The ambient field does not contain all roots required by a construction."""
