"""Exception and warning types shared across the package."""


class RotvecError(Exception):
    """Base class for all package errors."""


class InvalidPoint(RotvecError):
    """A phase-space point has non-finite or malformed coordinates."""


class DimensionError(RotvecError):
    """Vector/covector/matrix dimensions do not match the phase space."""


class DegenerateForm(RotvecError):
    """The symplectic coefficient matrix is (numerically) singular."""


class StiffStep(RotvecError):
    """Fixed-point iteration of the implicit step failed to converge.

    Usually cured by a smaller step size.
    """


class BlowUp(RotvecError):
    """Integration produced a non-finite state."""


class EmptyTrajectory(RotvecError):
    """An empirical measure was requested from an empty trajectory."""


class InfeasiblePins(RotvecError):
    """Profile pin constraints are contradictory (same point, different values)."""


class InternalInconsistency(RotvecError):
    """Two mathematically equivalent evaluation routes disagreed.

    Signals a sign/convention bug, not a user error.
    """


class InfeasibleFamily(RotvecError):
    """A bracket candidate F fails its region constraints (F <= 0 on X, F >= 1 on X')."""


class ConfigError(RotvecError):
    """An experiment configuration failed validation.

    Carries a JSON-pointer-style ``path`` locating the offending entry ("" for
    the config as a whole) and the ``message`` without it.
    """

    def __init__(self, path: str, message: str):
        self.path, self.message = path, message
        super().__init__(f"{path}: {message}")


class QuadratureWarning(UserWarning):
    """Two quadrature routes for the same integral disagree beyond tolerance."""
