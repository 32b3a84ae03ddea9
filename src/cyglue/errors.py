"""Exception types shared across the package."""


class CyglueError(Exception):
    """Base class for package errors."""


class DimensionMismatch(CyglueError, ValueError):
    """Operands live in different dimensions or have incompatible degrees."""


class DegenerateMetric(CyglueError, ValueError):
    """A candidate metric is not symmetric positive definite."""


class _SampleError(CyglueError):
    """A failure at one sample of a batch; sample_index is its index in
    the batch, or None."""

    def __init__(self, message, sample_index=None):
        super().__init__(message)
        self.sample_index = sample_index


class NotStable(_SampleError):
    """The 3-form quartic invariant is nonnegative, so no almost complex
    structure can be extracted."""


class NotPositive(_SampleError):
    """The (1,1) part of the 2-form fails positivity against the recovered
    almost complex structure."""


class NotPositive3Form(CyglueError):
    """A 3-form in dimension seven is outside the open orbit that induces a
    Riemannian metric."""


class NotClosed(CyglueError):
    """A form that must be closed has a finite-difference exterior derivative
    above tolerance."""


class RateOutOfRange(CyglueError):
    """A requested growth/decay rate is outside the range where the radial
    integral converges."""


class Degenerate(_SampleError):
    """A 2-form became numerically degenerate (smallest singular value below
    1e-6 of the largest)."""


class DomainEscape(_SampleError):
    """A flow trajectory left the coordinate chart."""


class ConfigInvalid(CyglueError, ValueError):
    """A run configuration failed validation."""
