"""Exception types shared across the package."""


class PulsecalError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PulsecalError):
    """A parameter point lies outside the gate family's domain."""


class OptimizationError(PulsecalError):
    """The optimizer encountered a non-finite cost or gradient.

    ``problem`` numbers the failing problem of a lockstep batch, and is
    None for a single problem.
    """

    def __init__(self, message: str, problem=None):
        super().__init__(message)
        self.problem = problem


class FormatError(PulsecalError):
    """A landscape file is malformed, truncated, or version-incompatible."""
