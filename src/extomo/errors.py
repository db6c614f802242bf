"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument is outside the documented domain of an operation."""


class PreconditionError(RuntimeError):
    """Input data violates a precondition that cannot be checked cheaply
    at construction time (support margins, decay at grid boundaries...)."""


class NonFiniteObjectiveError(RuntimeError):
    """An optimization objective evaluated to NaN or infinity; the
    message carries the offending iterate for diagnosis."""

