"""Exception kinds shared across the package.

Each error class marks a distinct failure contract: callers (and the CLI's
exit-code mapping) dispatch on the class, never on message text.
"""

from __future__ import annotations


class TauberlabError(Exception):
    """Base class for all package-specific failures."""


class DomainError(TauberlabError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class BelowRangeError(DomainError):
    """A requested inverse value sits below the function's minimum."""


class UnboundedSearchError(TauberlabError, RuntimeError):
    """A bracketing search exhausted its expansion cap without success."""


class ConfigurationError(TauberlabError, ValueError):
    """User-supplied configuration (spec strings, flags, files) is invalid."""


class OutOfRangeError(ConfigurationError, DomainError):
    """A parameter lies beyond the range the implementation supports."""


class ConstructionError(TauberlabError, RuntimeError):
    """A constructed object failed one of its own build-time verifications."""


class AlignmentError(TauberlabError, ValueError):
    """Sample grids do not line up as the operation requires."""


class UnsupportedInputError(TauberlabError, TypeError):
    """The input lacks data (e.g. a certified transform) the operation needs."""


class FitError(TauberlabError, ValueError):
    """Too little or degenerate data for a requested fit."""


class EvaluationOverflowError(TauberlabError, OverflowError):
    """An evaluation would overflow double precision; carries diagnostics."""
