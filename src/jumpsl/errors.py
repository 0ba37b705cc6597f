"""Exception hierarchy.

Two families: `ValidationError` for rejected inputs (bad problem data,
bad configs, out-of-domain arguments) and `NumericalError` for failures
of the numerical machinery itself.
"""


class JumpSLError(Exception):
    """Base class for all package errors."""


class ValidationError(JumpSLError):
    """Invalid input data or arguments."""


class NumericalError(JumpSLError):
    """A numerical procedure failed to meet its contract."""


# -- validation ---------------------------------------------------------

class JumpOrderError(ValidationError):
    """Jump points are not strictly increasing inside (0, pi)."""


class JumpSignError(ValidationError):
    """A jump has a*b <= 0."""


class BoundaryConstraintError(ValidationError):
    """Eigenparameter boundary data violates r1 > 0 or r2 > 0."""


class PotentialError(ValidationError):
    """Potential contains non-finite or otherwise unusable data."""


class DomainError(ValidationError):
    """A position or parameter lies outside its admissible domain."""


class MismatchError(ValidationError):
    """Two objects that must share data (e.g. the same lambda) do not."""


class VariantError(ValidationError):
    """Operation called on the wrong boundary-condition variant."""


class ConfigParseError(ValidationError):
    """A configuration file could not be parsed or failed schema checks."""


# -- numerics -----------------------------------------------------------

class ToleranceError(NumericalError):
    """Step control or refinement failed to reach the requested tolerance."""


class MissedEigenvalueError(NumericalError):
    """Too few eigenvalues located, or the oscillation index disagrees."""


class ContourTooCloseError(NumericalError):
    """A zero of Delta lies too close to the requested contour."""


class QuadratureError(NumericalError):
    """Composite quadrature failed to converge to the requested tolerance."""


class PoleError(NumericalError):
    """Evaluation requested at (or too close to) a pole."""


class InterlacingError(NumericalError):
    """Two spectra fail the interlacing requirement."""


class NonconvergenceError(NumericalError):
    """Least-squares iteration stopped without meeting its tolerance."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result
