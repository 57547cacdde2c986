"""Exception types shared across the package."""

from __future__ import annotations


class StarBundleError(Exception):
    """Base class for all errors raised by this package."""


class ChartError(StarBundleError):
    """Chart mismatch, unknown variable, or incompatible chart kind."""


class WeightFactorError(StarBundleError):
    """Incompatible weight factors on the operands of a product or sum."""


class ObservableError(StarBundleError):
    """An operation required a classical observable and got something else."""


class PolarizationError(StarBundleError):
    """A wave function failed a polarization condition.

    Carries the offending direction and the nonzero remainder so the
    failure can be reported rather than hidden.
    """

    def __init__(self, message, direction=None, remainder=None):
        super().__init__(message)
        self.direction = direction
        self.remainder = remainder


class ExtractionError(StarBundleError):
    """A quantum operator could not be expressed in the requested representation."""


class ParseError(StarBundleError):
    """Syntax or lowering error in an input expression."""

    def __init__(self, message, line=1, column=None):
        location = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + location)
        self.line = line
        self.column = column


class LimitError(StarBundleError):
    """A value exceeds a documented size limit."""


class ConfigError(StarBundleError):
    """Invalid run configuration (flag combination)."""
