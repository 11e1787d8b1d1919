"""Exception types shared across the testbed."""


class ValidationError(ValueError):
    """A value violates a structural invariant (bad shape, NaN, arity mismatch)."""


class RangeError(ValueError):
    """A time or index falls outside its permitted interval."""


class DegenerateFiringError(ArithmeticError):
    """All fuzzy rules fired with zero strength; normalization is undefined."""

    def __init__(self, message: str, rows=()):
        super().__init__(message)
        self.rows = rows  # indices of the input rows that fired no rule


class SimulationError(RuntimeError):
    """A scenario run aborted; the message carries the offending tick/event."""
