"""Exception types shared across the package.

Everything derives from :class:`FluxmetError` so callers can catch the
package's failures with a single except clause.  Input/validation problems
subclass ``ValueError``; numerical failures detected at runtime subclass
``RuntimeError``.
"""

from __future__ import annotations


class FluxmetError(Exception):
    pass


class DimensionError(FluxmetError, ValueError):
    """Operand has the wrong matrix/vector dimension."""


class DomainError(FluxmetError, ValueError):
    """Scalar argument outside its allowed range (e.g. negative rate)."""


class NonHermitianError(FluxmetError, ValueError):
    """Matrix expected to be Hermitian is not, beyond tolerance."""


class NotPsdError(FluxmetError, ValueError):
    """Matrix expected to be positive semidefinite has a negative eigenvalue."""


class StepError(FluxmetError, ValueError):
    """Integrator step size incompatible with the requested duration."""


class InstabilityError(FluxmetError, RuntimeError):
    """Integration drifted beyond the trace tolerance."""


class LeakageError(FluxmetError, RuntimeError):
    """Recovery lost trace: the state had weight outside code + error space."""


class QecConditionError(FluxmetError, RuntimeError):
    """Code fails the error-correction conditions for the given noise.

    Carries ``residuals``, a list of (label, residual) pairs naming the
    offending operators.
    """

    def __init__(self, message: str, residuals: list[tuple[str, float]] | None = None):
        super().__init__(message)
        self.residuals = residuals or []


class DegenerateErrorSpaceError(FluxmetError, RuntimeError):
    """An error operator has zero weight (d_kk ~ 0) yet couples to the
    second-order dynamics, so the 1/sqrt(d_kk) term is singular."""


class NumericError(FluxmetError, RuntimeError):
    """A numerical consistency check failed (fidelity > 1, finite-difference
    derivative not converged, ...)."""


class CrossCheckError(FluxmetError, RuntimeError):
    """Two independent computation routes disagree beyond tolerance."""


class ConfigError(FluxmetError, ValueError):
    """Configuration document is malformed.  ``field`` names the culprit."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field
