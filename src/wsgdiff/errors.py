"""Exception types shared across the package, and the count and real-number checks."""

import numbers

import numpy as np

__all__ = ["ParameterError", "SolverError"]


class ParameterError(ValueError):
    """An argument is outside the range an operation accepts."""


class SolverError(RuntimeError):
    """A linear solve or time-stepping run failed (e.g. singular system)."""


def count_at_least(name: str, value, least: int, what: str) -> int:
    """``value`` as an ``int``; a non-numeric, non-finite, fractional or too
    small one is a ParameterError that names the argument."""
    need = f"need at least {name}={least} {what}"
    try:
        finite = bool(np.isfinite(value))
        whole = finite and int(value) == value
        enough = finite and value >= least
    except (TypeError, ValueError):
        raise ParameterError(f"{need}, got {value!r} (not a number)") from None
    if finite and not whole:
        raise ParameterError(f"{need}, got {value} (not a whole number)")
    if not enough:
        raise ParameterError(f"{need}, got {value}")
    return int(value)


def real_number(name: str, value, positive: bool = False) -> float:
    """``value`` as a ``float``; a non-real (a string, ``None``, a complex), non-finite
    or, given ``positive``, non-positive one is a ParameterError naming the argument."""
    need = f"{name} must be {'positive and ' if positive else ''}finite"
    if not isinstance(value, numbers.Real):
        raise ParameterError(f"{need}, got {value!r} (not a real number)")
    if not (np.isfinite(value) and (value > 0 or not positive)):
        raise ParameterError(f"{need}, got {value}")
    return float(value)
