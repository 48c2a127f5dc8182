"""Exception types shared across the package."""

from numbers import Integral


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


class ConjugacyError(InvcurveError, ValueError):
    """The conjugacy coefficient equations could not be solved, or were
    given a series or an order outside their domain."""


class SeriesError(InvcurveError, ValueError):
    """A truncated-series operation got operands outside its domain."""


class DomainError(InvcurveError, ValueError):
    """An argument lies outside the domain its function accepts; the message
    names the argument and its value."""


def require_integers(**values) -> None:
    """Raise a `DomainError` naming the first of `values`, given as argument
    name = value, that is not an integer."""
    for name, value in values.items():
        # a plain int skips the ABC check, which is slow; series constructors call this
        if type(value) is not int and not isinstance(value, Integral):
            raise DomainError(f"{name} = {value!r} must be an integer")


def power_overflow(name: str, x: float, power: int) -> DomainError:
    """The error for an argument whose float power overflows (float `**`
    raises OverflowError there); `name` names the argument."""
    return DomainError(f"{name} = {x:g} is too large: its power {power} overflows")
