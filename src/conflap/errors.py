"""Exception types shared across the package."""


class ConflapError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(ConflapError, ValueError):
    """A mathematical parameter is outside the domain of the requested operation."""


class SingularityError(ConflapError, ValueError):
    """A kernel or symbol was evaluated at a singular point."""


class SupportError(ConflapError, ValueError):
    """Input violates a compact-support precondition."""


class NonConvergenceError(ConflapError, RuntimeError):
    """An iterative scheme exhausted its budget without meeting its tolerance."""


class NewtonDivergenceError(NonConvergenceError):
    """Newton iteration failed; carries the last residual norm seen and the
    Newton and Krylov step counts, summed over every start tried."""

    def __init__(self, message, last_residual=None, newton_steps=None, krylov_steps=None):
        super().__init__(message)
        self.last_residual = last_residual
        self.newton_steps = newton_steps
        self.krylov_steps = krylov_steps
