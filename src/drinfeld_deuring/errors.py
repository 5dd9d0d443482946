"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class CapExceededError(DomainError):
    """An input would exceed a size cap: a field over the 2^16 cardinality
    cap, a base field over the q budget of the tower identities, or a
    generic term map of u_i or U_i whose s-exponents would reach its 2^32
    key stride."""


class RecurrenceBreakdownError(ArithmeticError):
    """A division required by a coefficient recurrence was not exact."""


class ConsistencyError(RuntimeError):
    """An internal invariant that theory guarantees failed to hold."""


class AmbientTooSmallError(RuntimeError):
    """The ambient field does not contain all roots required by a construction."""
