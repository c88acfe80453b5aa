"""Exception hierarchy.

Validation errors (bad inputs, malformed files) and numerical failures
(no root in bracket, degenerate fits) are kept distinct so the CLI can
map them to different exit codes.
"""


class JobFitError(Exception):
    """Base class for all library errors."""


class ValidationError(JobFitError):
    """Invalid parameters, shapes, or input documents."""


class ParameterError(ValidationError):
    """A scalar parameter is outside its domain or a knob name is unknown."""


class ShapeError(ValidationError):
    """Array dimensions do not match the job specification."""


class SchemaError(ValidationError):
    """A fixture document violates the documented schema."""


class NotLinearError(ValidationError):
    """Operation requires a linear error model but a max component is present."""


class HypothesisViolationError(ValidationError):
    """Inputs violate the analytic result's hypotheses (e.g. mismatched families)."""


class NumericalError(JobFitError):
    """A numerical procedure could not produce a result."""


class NoRootError(NumericalError):
    """Target value is outside the attainable range of the objective."""


class DegenerateFitError(NumericalError):
    """Least-squares fit is underdetermined (e.g. all difficulties identical)."""


class CapacityError(NumericalError):
    """Problem size exceeds what the exact method can handle."""


class UndefinedThresholdError(NumericalError):
    """A probability threshold is never attained by the supplied curve."""
