"""Exception types shared across the package, and the one count check."""

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
