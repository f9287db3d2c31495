"""Exception types shared across the package, and the one count check."""

import numpy as np

__all__ = ["ParameterError", "SolverError"]


class ParameterError(ValueError):
    """An argument is outside the range an operation accepts."""


class SolverError(RuntimeError):
    """A linear solve or time-stepping run failed (e.g. singular system)."""


def count_at_least(name: str, value, least: int, what: str) -> int:
    """``value`` as an ``int``; a non-finite, fractional or too small one is a ParameterError."""
    if not np.isfinite(value) or int(value) != value or value < least:
        raise ParameterError(f"need at least {name}={least} {what}, got {value}")
    return int(value)
