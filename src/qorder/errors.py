"""Exception hierarchy shared across the package."""


class QorderError(Exception):
    """Base class for all qorder errors."""


class DomainError(QorderError):
    """An argument is outside the mathematical domain (e.g. p not in (0,1))."""


class ModelIntegrityError(QorderError):
    """A quantile model violated one of its structural invariants."""


class ValidationError(QorderError):
    """User-supplied parameters or specs failed validation."""


class ParseError(QorderError):
    """Expression or spec-string syntax error (carries a byte offset)."""


class NonFiniteMeanError(QorderError):
    """The model mean does not exist or is not finite."""


class QuadratureError(QorderError):
    """Numerical integration failed to reach the requested tolerance."""


class TooOscillatoryError(QorderError):
    """A function showed more derivative sign changes than allowed."""

    def __init__(self, msg, modes=None):
        super().__init__(msg)
        self.modes = modes or []


class InternalConsistencyError(QorderError):
    """Two routes that must agree produced contradictory answers (bug trap)."""
