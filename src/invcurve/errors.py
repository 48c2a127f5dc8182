"""Exception types shared across the package."""


class InvcurveError(Exception):
    """Base class for package-specific failures."""


class MapFormatError(InvcurveError):
    """A map-spec text stream could not be parsed."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class MapValidationError(InvcurveError):
    """Coefficients violate the required quadratic structure."""


class GuardError(InvcurveError):
    """A structural guard failed while transporting a curve."""


class ConvergenceError(InvcurveError):
    """An iterative solve did not reach its tolerance."""

    def __init__(self, message: str, history=None):
        super().__init__(message)
        self.history = history


class ConjugacyError(InvcurveError):
    """The conjugacy coefficient equations could not be solved."""


class SeriesError(InvcurveError, ValueError):
    """A truncated-series operation got operands outside its domain."""
