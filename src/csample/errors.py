"""Exception and warning types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes or orders."""


class NotPositiveDefinite(ValueError):
    """A matrix required to be SPD has a non-positive (or too small) pivot.

    ``pivot_index`` is the zero-based index of the offending pivot.
    """

    def __init__(self, pivot_index, message=None):
        self.pivot_index = int(pivot_index)
        super().__init__(message or f"matrix is not positive definite (pivot {pivot_index})")

    def __reduce__(self):
        # A worker returns it pickled; the default would pass the message
        # alone as the pivot index.
        return NotPositiveDefinite, (self.pivot_index, *self.args)


class DegenerateComponent(RuntimeError):
    """A mixture component collapsed onto fewer than two effective points."""


class ChainFailed(RuntimeError):
    """A Markov chain of the multi-chain sampler raised; its samples are lost."""


class InsufficientSamples(ValueError):
    """Too few samples for the requested diagnostic."""


class ZeroReference(ValueError):
    """Relative error requested against a zero reference vector."""


class ImageIoError(OSError):
    """Malformed or unreadable image file."""


class ConfigError(ValueError):
    """Invalid, incomplete, or unknown experiment configuration."""


class BudgetInfeasibleWarning(UserWarning):
    """Ensemble size below the chain count; zero-budget chains were allowed."""


class DegenerateCurveWarning(UserWarning):
    """L-curve curvature is flat; the selected parameter is a fallback."""


class SolverConvergenceWarning(UserWarning):
    """An iterative solve stopped before meeting its convergence test."""


class OversubscribedWarning(UserWarning):
    """Benchmark requested more workers than available logical processors."""
