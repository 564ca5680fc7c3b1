"""Exception types raised by the library.

Every failure mode that callers may want to handle separately gets its own
class.  Each class carries the CLI exit code it maps to: 4 for an input
file or unit parse error, 5 (the default) for invalid or degenerate
parameters, 6 for a numerical failure.  The validity rules for numeric
parameters and time grids are written here once, for every module.
"""

import math

import numpy as np


class QpdynError(Exception):
    """Base class for all library errors."""

    exit_code = 5


class InvalidParameterError(QpdynError, ValueError):
    """A physical parameter violates its documented constraints."""


class DomainError(QpdynError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class DegenerateSystemError(QpdynError, ValueError):
    """The rate system has no decay channel (r = s = 0)."""


class NegativeRateError(QpdynError, ValueError):
    """Solution parameters imply a negative rate (inconsistent fit).

    Carries the name and value of the offending rate.
    """

    def __init__(self, name: str, value: float):
        self.name = name
        self.value = value
        super().__init__(f"extracted {name} = {value:.6g} 1/s is negative; "
                         "solution parameters are inconsistent")


class StepSizeUnderflowError(QpdynError, RuntimeError):
    """Adaptive integrator cannot meet its tolerance at any step size."""

    exit_code = 6


class InsufficientDataError(QpdynError, ValueError):
    """Too few samples remain for the requested fit."""


class DegenerateTraceError(QpdynError, ValueError):
    """The trace does not determine the model: it is constant within noise
    or rising, or r' = 1 lies within one standard deviation."""


class NonConvergenceError(QpdynError, RuntimeError):
    """Iteration limit reached.  Carries the best parameters seen so far."""

    exit_code = 6

    def __init__(self, message: str, best_params=None, best_cost: float | None = None):
        self.best_params = best_params
        self.best_cost = best_cost
        super().__init__(message)


class InsufficientSpreadError(QpdynError, ValueError):
    """Independent variable range too narrow for a stable regression."""


class InvalidGeometryError(QpdynError, ValueError):
    """Geometry violates one or more invariants; lists all violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid geometry: " + "; ".join(self.violations))


class NoRootFoundError(QpdynError, RuntimeError):
    """Root scan found no sign change.  Carries scan diagnostics."""

    exit_code = 6

    def __init__(self, message: str, diagnostics: dict | None = None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class InvalidResolutionError(QpdynError, ValueError):
    """Requested spatial resolution is too coarse."""


class TraceParseError(QpdynError, ValueError):
    """A data file does not conform to its format.  Carries the line number."""

    exit_code = 4

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(message + where)


class UnitParseError(QpdynError, ValueError):
    """A quantity string is missing a unit or carries an unknown one."""

    exit_code = 4


_WITHIN = {"": lambda v: True, ">": lambda v: v > 0, ">=": lambda v: v >= 0}


def finite_violation(name: str, value, bound: str = "") -> str | None:
    """Why ``value`` breaks the rule for numeric parameters, or None.

    The rule: a scalar, or every element of an array, is finite and, with
    ``bound`` ">" or ">=", also > 0 or >= 0.  The message reads
    "<name> must be finite and > 0, got <v>", v the first offending value.
    """
    within = _WITHIN[bound]
    if isinstance(value, (int, float)):
        if math.isfinite(value) and within(value):
            return None
        bad = value
    else:
        arr = np.asarray(value, dtype=float)
        ok = np.isfinite(arr) & within(arr)
        if ok.all():
            return None
        bad = arr[~ok].flat[0]
    return f"{name} must be finite{bound and f' and {bound} 0'}, got {bad}"


def check_finite(name: str, value, bound: str = "") -> None:
    """Raise InvalidParameterError unless ``value`` obeys the rule of
    finite_violation."""
    message = finite_violation(name, value, bound)
    if message:
        raise InvalidParameterError(message)


def check_time_grid(name: str, t, from_zero: bool = False) -> np.ndarray:
    """``t`` as a 1-D float array, finite and strictly increasing; with
    ``from_zero`` also non-empty and starting at t >= 0.  Raises
    InvalidParameterError otherwise."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise InvalidParameterError(f"{name} must be a 1-D sequence")
    check_finite(name, t)
    if np.any(np.diff(t) <= 0):
        raise InvalidParameterError(f"{name} must be strictly increasing")
    if from_zero and not (t.size and t[0] >= 0):
        raise InvalidParameterError(
            f"{name} must be non-empty and start at t >= 0")
    return t
