"""Exception hierarchy shared across the package."""

from __future__ import annotations

from numbers import Real

import numpy as np


class GenmineError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidInputError(GenmineError, ValueError):
    """An argument violates a documented precondition."""


def check_count(name: str, value: int, minimum: int = 1) -> None:
    """Reject a count or seed that is not an integer >= ``minimum``; a bool
    is not one.  An exact ``int``, the common case, skips the type checks."""
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, (int, np.integer))):
        raise InvalidInputError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}")


def check_real(name: str, value: float, interval: str | None = None) -> None:
    """Reject a real-valued setting that is not a real number; a bool is not one.

    ``interval`` is ``"[0,1]"`` (closed) or ``"(0,1)"`` (open), written as the
    message prints it; a value outside it, NaN included, is rejected."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    inside = {None: True, "[0,1]": 0.0 <= value <= 1.0, "(0,1)": 0.0 < value < 1.0}[interval]
    if not inside:
        raise InvalidInputError(f"{name} must be in {interval}, got {value}")


class DegenerateInputError(InvalidInputError):
    """A statistical routine received a sample it cannot operate on
    (constant values, all-zero differences, too few observations)."""


class BudgetExceededError(GenmineError):
    """A bounded search ran out of its expansion budget.

    Attributes:
        partial_count: number of results collected before the budget ran out.
    """

    def __init__(self, message: str, partial_count: int = 0):
        super().__init__(message)
        self.partial_count = partial_count


class TrainingDivergedError(GenmineError):
    """Training produced a non-finite loss; carries last diagnostics."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class BuildError(GenmineError):
    """A net builder could not satisfy its constraints (e.g. label budget)."""
