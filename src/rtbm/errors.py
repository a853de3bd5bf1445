"""Exception types shared across the package."""


class RtbmError(Exception):
    """Base class for all errors raised by this package."""


class NotPositiveDefiniteError(RtbmError):
    """A matrix required to be symmetric positive definite is not.

    Carries the smallest eigenvalue estimate when available.
    """

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class ThetaTruncationError(RtbmError):
    """The lattice sum cannot be certified within the radius or work cap."""


class InsufficientSamplesError(RtbmError):
    """Too few samples survive a conditioning window."""


class GridError(RtbmError):
    """A quadrature or evaluation grid is unusable (e.g. heavy edge mass)."""


class FitError(RtbmError):
    """Density fitting failed to produce a valid model."""
