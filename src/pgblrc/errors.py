"""Exception types shared across the package."""

from __future__ import annotations

import operator

__all__ = [
    "DegenerateCodeError",
    "GuardExceededError",
    "IncidenceFileError",
    "NotInformationSetError",
    "NotLocallyRepairableError",
    "ParameterError",
    "PgValidationError",
]


class PgValidationError(ValueError):
    """A partial-geometry axiom failed.

    ``kind`` names the failed check (point-degree, line-size,
    line-intersection, alpha) and ``witness`` points at the offending
    point/line indices when there is one.
    """

    def __init__(self, kind: str, message: str, witness=None):
        super().__init__(message)
        self.kind = kind
        self.witness = witness


class IncidenceFileError(ValueError):
    """Malformed incidence file; carries the 1-based source line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DegenerateCodeError(ValueError):
    """The geometry cannot carry a code (no message symbols survive)."""


class ParameterError(ValueError):
    """An argument lies outside the range a constructor or routine accepts."""


def _as_index(value, name: str) -> int:
    """value by ``operator.index``: a float or a string is no integer, even
    one that ``int`` would truncate or parse."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


class NotInformationSetError(ValueError):
    """The chosen coordinates do not determine the message uniquely."""


class GuardExceededError(RuntimeError):
    """An exhaustive search would exceed its configured work guard."""


class NotLocallyRepairableError(RuntimeError):
    """No repair alternative survives the given unavailability pattern."""
