"""Exception hierarchy shared across the package."""

from __future__ import annotations

__all__ = ["TascError", "ParseError", "ConfigError", "NumericalError", "FitError", "SolverError"]


class TascError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TascError):
    """Malformed input data (ragged CSV rows, non-numeric cells, ...)."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ConfigError(TascError):
    """Invalid configuration or arguments (bad dimensions, ranges, permutations)."""


class NumericalError(TascError):
    """A linear-algebra operation failed or hit its conditioning limit.

    ``step`` carries the time index at which a filtering/smoothing pass failed,
    when applicable.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class FitError(TascError):
    """Model fitting failed across all attempts; ``causes`` lists per-restart errors."""

    def __init__(self, message: str, causes: list[Exception] | None = None):
        super().__init__(message)
        self.causes = causes or []


class SolverError(TascError):
    """An iterative or direct solver did not produce an acceptable solution."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
