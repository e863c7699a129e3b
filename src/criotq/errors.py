"""Exception types shared across the package."""


class CriotqError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(CriotqError, ValueError):
    """A parameter record or argument violates its documented constraints."""


class NoConvergenceError(CriotqError, RuntimeError):
    """The direct stationary solve gave no vector within the residual bound.

    Raised when the balance equations are singular, as when the chain's
    stationary law is not unique, or when the cleaned-up answer misses
    ||mu P - mu||_inf <= 1e-10.

    Attributes:
        residual: infinity-norm of mu @ P - mu of the rejected answer;
            inf when the equations were singular.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class DegenerateDistributionError(CriotqError, ValueError):
    """A conditional distribution was requested but its normalizer is zero."""


class MetricRangeError(CriotqError, ValueError):
    """A probability-valued metric landed outside [0, 1] beyond numerical tolerance."""
