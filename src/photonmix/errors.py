"""Exception types shared across the package."""

from __future__ import annotations


class PhotonmixError(Exception):
    """Base class for package-specific errors."""


class InvalidParameterError(PhotonmixError, ValueError):
    """A physical parameter or option is outside its valid range."""


class TruncationError(PhotonmixError):
    """Fock-space cutoff is too small for the requested coherent amplitude."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class UndefinedCorrelationError(PhotonmixError, ZeroDivisionError):
    """A correlation ratio has a vanishing normalization."""


class DataFormatError(PhotonmixError, ValueError):
    """An input file violates the declared format."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class IllConditionedFitError(PhotonmixError):
    """The fit abscissae cannot constrain the model parameter."""


class ConfigError(PhotonmixError, ValueError):
    """A run configuration failed schema validation."""
