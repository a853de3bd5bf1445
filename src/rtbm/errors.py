"""Exception types shared across the package."""


class RtbmError(Exception):
    """Base class for all errors raised by this package."""


class NotPositiveDefiniteError(RtbmError):
    """A matrix required to be symmetric positive definite is not.

    Carries the smallest eigenvalue estimate when available, and then its
    message ends with it.  The estimate may be given as a function of no
    arguments, called once when ``min_eigenvalue`` or the message is first
    read: a caller that discards the error pays for no eigenvalue.  It
    pickles (say, from a worker process) with the estimate computed.
    """

    def __init__(self, message, min_eigenvalue=None):
        super().__init__(message)
        self._min_eigenvalue = min_eigenvalue

    @property
    def min_eigenvalue(self):
        if callable(self._min_eigenvalue):
            self._min_eigenvalue = self._min_eigenvalue()
        return self._min_eigenvalue

    def __str__(self):
        lam = self.min_eigenvalue
        message = super().__str__()
        return message if lam is None else f"{message} (min eigenvalue ~ {lam:.6g})"

    def __reduce__(self):
        return type(self), (super().__str__(), self.min_eigenvalue)


class ThetaTruncationError(RtbmError):
    """The lattice sum cannot be certified within the radius or work cap."""


class InsufficientSamplesError(RtbmError):
    """Too few samples survive a conditioning window."""


class FitError(RtbmError):
    """Density fitting failed to produce a valid model."""
