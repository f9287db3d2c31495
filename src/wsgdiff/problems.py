"""Built-in benchmark problems, error norms, and convergence rates.

Each benchmark is a manufactured solution: an exact solution is chosen,
substituted into the governing equation, and the resulting closed-form
source term is transcribed with gamma-function coefficients evaluated
numerically.  Solving the discrete problem and comparing against the known
exact solution then measures the error directly, which is what the
convergence studies and the acceptance suite feed on.

The catalog:

- ``ex0`` — steady two-point problem with exact solution ``x**(2+alpha)``,
  driving the third-order operator.
- ``ex1`` — left-sided diffusion only, exact ``exp(-t) * x**(1+alpha)``,
  nonzero right boundary value.
- ``ex2`` — symmetric two-sided diffusion, exact
  ``exp(-t) * x**3 (1-x)**3``, homogeneous boundary.
- ``ex3`` — variable coefficients ``x**alpha`` and ``(1-x)**alpha``, same
  exact solution as ``ex2``.
- ``ex4`` — two-dimensional two-sided diffusion with orders ``alpha`` in x
  and ``beta`` in y, exact ``exp(-t) * x**3 (1-x)**3 * y**3 (1-y)**3``.

All callables are vectorized over numpy arrays and accept scalars.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from math import gamma, log2
from typing import Callable, Optional, Union

import numpy as np

from . import weights as wt
from .errors import ParameterError

__all__ = [
    "ExampleId",
    "Problem1D",
    "Problem2D",
    "ErrorRecord",
    "make_example",
    "max_norm",
    "l2_norm",
    "convergence_rate",
    "attach_rates",
]

Diffusivity = Union[float, Callable[[np.ndarray], np.ndarray]]


class ExampleId(enum.Enum):
    """Identifiers of the built-in benchmark problems."""

    STEADY = "ex0"
    LEFT_SIDED = "ex1"
    TWO_SIDED = "ex2"
    VARIABLE_COEFF = "ex3"
    TWO_DIMENSIONAL = "ex4"

    @classmethod
    def from_tag(cls, tag: "ExampleId | str") -> "ExampleId":
        if isinstance(tag, cls):
            return tag
        try:
            return cls(str(tag).lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise ParameterError(f"unknown example {tag!r}; expected one of: {valid}") from None


@dataclass(frozen=True)
class Problem1D:
    """A one-dimensional two-sided fractional diffusion problem.

    The governing equation is

        du/dt = dl(x) * (left derivative of order alpha of u)
              + dr(x) * (right derivative of order alpha of u)
              + source(x, t)

    on ``(a, b)`` with Dirichlet data ``left_boundary(t)``/``right_boundary(t)``
    and initial state ``initial(x)``.  ``dl``/``dr`` are the two diffusivities,
    either nonnegative constants or callables of ``x`` (both must be the same
    kind).  ``steady=True`` marks the time-independent variant
    ``-(left derivative of u) = source``, where only the left diffusivity,
    boundary values at ``t=0``, and a one-argument reading of the source
    matter.  ``exact`` is the known solution when available (``None`` for
    user-supplied problems without one).
    """

    name: str
    alpha: float
    left_diffusivity: Diffusivity
    right_diffusivity: Diffusivity
    source: Callable[[np.ndarray, float], np.ndarray]
    initial: Optional[Callable[[np.ndarray], np.ndarray]]
    left_boundary: Callable[[float], float]
    right_boundary: Callable[[float], float]
    exact: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    steady: bool = False
    a: float = 0.0
    b: float = 1.0
    allow_nonzero_boundary: bool = False

    def __post_init__(self) -> None:
        wt._check_alpha(self.alpha, 1.0, 2.0)
        if not self.b > self.a:
            raise ParameterError(f"domain must satisfy b > a, got [{self.a}, {self.b}]")
        lcall = callable(self.left_diffusivity)
        rcall = callable(self.right_diffusivity)
        if lcall != rcall:
            raise ParameterError("diffusivities must be both constants or both callables")
        if not lcall:
            kl = float(self.left_diffusivity)
            kr = float(self.right_diffusivity)
            if kl < 0.0 or kr < 0.0:
                raise ParameterError("diffusivities must be nonnegative")
            if kl == 0.0 and kr == 0.0:
                raise ParameterError("at least one diffusivity must be positive")
        if not self.steady and self.initial is None:
            raise ParameterError("time-dependent problems need an initial state")
        if not self.allow_nonzero_boundary:
            self._check_boundary_compatibility()

    def _check_boundary_compatibility(self) -> None:
        """Reject boundary data incompatible with an active one-sided operator.

        An active left-sided derivative needs a vanishing left boundary value
        (and symmetrically on the right): the operator's memory extends to
        the endpoint, and nonzero data there falls outside the setting the
        time-dependent theory covers.  ``allow_nonzero_boundary=True`` skips
        the check for problems (like the steady benchmark) that use the end
        values purely as stencil data.
        """
        lcall = callable(self.left_diffusivity)
        left_active = lcall or float(self.left_diffusivity) != 0.0
        right_active = lcall or float(self.right_diffusivity) != 0.0
        for t in (0.0, 0.5, 1.0):
            if left_active and abs(float(self.left_boundary(t))) > 1e-14:
                raise ParameterError(
                    "an active left-sided derivative requires zero left boundary data"
                    " (set allow_nonzero_boundary=True to override)"
                )
            if right_active and abs(float(self.right_boundary(t))) > 1e-14:
                raise ParameterError(
                    "an active right-sided derivative requires zero right boundary data"
                    " (set allow_nonzero_boundary=True to override)"
                )

    @property
    def has_variable_coefficients(self) -> bool:
        return callable(self.left_diffusivity)

    def diffusivity_values(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate both diffusivities on a grid, validating nonnegativity."""
        if self.has_variable_coefficients:
            dl = np.asarray(self.left_diffusivity(x), dtype=float)
            dr = np.asarray(self.right_diffusivity(x), dtype=float)
            if np.any(dl < 0.0) or np.any(dr < 0.0):
                raise ParameterError("variable diffusivities must be nonnegative on the grid")
        else:
            dl = np.full_like(np.asarray(x, dtype=float), float(self.left_diffusivity))
            dr = np.full_like(np.asarray(x, dtype=float), float(self.right_diffusivity))
        return dl, dr


@dataclass(frozen=True)
class Problem2D:
    """A two-dimensional two-sided fractional diffusion problem.

    The equation couples a two-sided derivative of order ``alpha`` in x
    (diffusivities ``x_left_diffusivity``/``x_right_diffusivity``) with a
    two-sided derivative of order ``beta`` in y, plus ``source(x, y, t)``,
    on the rectangle ``(ax, bx) x (ay, by)`` with Dirichlet data
    ``boundary(x, y, t)`` and initial state ``initial(x, y)``.  All grid
    callables broadcast over numpy arrays; the 2D solvers pass broadcast axes
    ``x[:, None]``, ``y[None, :]`` and fill the grid from a one-axis result.
    """

    name: str
    alpha: float
    beta: float
    x_left_diffusivity: float
    x_right_diffusivity: float
    y_left_diffusivity: float
    y_right_diffusivity: float
    source: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    initial: Callable[[np.ndarray, np.ndarray], np.ndarray]
    boundary: Callable[[np.ndarray, np.ndarray, float], np.ndarray]
    exact: Optional[Callable[[np.ndarray, np.ndarray, float], np.ndarray]] = None
    ax: float = 0.0
    bx: float = 1.0
    ay: float = 0.0
    by: float = 1.0

    def __post_init__(self) -> None:
        wt._check_alpha(self.alpha, 1.0, 2.0)
        wt._check_alpha(self.beta, 1.0, 2.0)
        if not (self.bx > self.ax and self.by > self.ay):
            raise ParameterError("domain must satisfy bx > ax and by > ay")
        for label, k in (
            ("x_left", self.x_left_diffusivity),
            ("x_right", self.x_right_diffusivity),
            ("y_left", self.y_left_diffusivity),
            ("y_right", self.y_right_diffusivity),
        ):
            if float(k) < 0.0:
                raise ParameterError(f"{label} diffusivity must be nonnegative, got {k}")
        if self.x_left_diffusivity == 0.0 and self.x_right_diffusivity == 0.0:
            raise ParameterError("x direction needs at least one positive diffusivity")
        if self.y_left_diffusivity == 0.0 and self.y_right_diffusivity == 0.0:
            raise ParameterError("y direction needs at least one positive diffusivity")


@dataclass(frozen=True)
class ErrorRecord:
    """One row of a convergence table: resolutions, errors, optional rates."""

    N: int
    M: int
    max_err: float
    l2_err: float
    rate_max: Optional[float] = None
    rate_l2: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_err < 0.0 or self.l2_err < 0.0:
            raise ParameterError("error norms are nonnegative by definition")


# ---------------------------------------------------------------------------
# Example factories
# ---------------------------------------------------------------------------


def _steady_monomial(alpha: float) -> Problem1D:
    """Steady problem with exact solution x**(2+alpha) on [0, 1]."""
    scale = gamma(3.0 + alpha) / 2.0

    def source(x, t=0.0):
        return -scale * np.asarray(x, dtype=float) ** 2

    def exact(x, t=0.0):
        return np.asarray(x, dtype=float) ** (2.0 + alpha)

    return Problem1D(
        name="steady monomial",
        alpha=alpha,
        left_diffusivity=1.0,
        right_diffusivity=0.0,
        source=source,
        initial=None,
        left_boundary=lambda t: 0.0,
        right_boundary=lambda t: 1.0,
        exact=exact,
        steady=True,
        allow_nonzero_boundary=True,
    )


def _left_sided_monomial(alpha: float) -> Problem1D:
    """Left-sided diffusion with exact solution exp(-t) * x**(1+alpha)."""
    c = gamma(2.0 + alpha)

    def source(x, t):
        x = np.asarray(x, dtype=float)
        return -np.exp(-t) * (x ** (1.0 + alpha) + c * x)

    def exact(x, t):
        return np.exp(-t) * np.asarray(x, dtype=float) ** (1.0 + alpha)

    return Problem1D(
        name="left-sided monomial",
        alpha=alpha,
        left_diffusivity=1.0,
        right_diffusivity=0.0,
        source=source,
        initial=lambda x: np.asarray(x, dtype=float) ** (1.0 + alpha),
        left_boundary=lambda t: 0.0,
        right_boundary=lambda t: float(np.exp(-t)),
        exact=exact,
    )


def _cubic_bump(x):
    x = np.asarray(x, dtype=float)
    return x**3 * (1.0 - x) ** 3


def _mirrored_fractional_profile(order: float, shift: float):
    """Profile of the two-sided order-``order`` derivative of the cubic bump.

    The mirrored powers carry exponent ``k - shift``: ``shift = order`` for
    constant diffusivities, ``shift = 0`` for the variable-coefficient case,
    whose diffusivity profiles absorb the fractional scaling.
    """
    c3 = gamma(4.0) / gamma(4.0 - order)
    c4 = 3.0 * gamma(5.0) / gamma(5.0 - order)
    c5 = 3.0 * gamma(6.0) / gamma(6.0 - order)
    c6 = gamma(7.0) / gamma(7.0 - order)

    def profile(s):
        s = np.asarray(s, dtype=float)

        def mirrored(k):
            return s ** (k - shift) + (1.0 - s) ** (k - shift)

        return c3 * mirrored(3) - c4 * mirrored(4) + c5 * mirrored(5) - c6 * mirrored(6)

    return profile


def _cubic_bump_source(profile):
    """Source of the 1D cubic-bump examples for a given derivative profile."""
    return lambda x, t: -np.exp(-t) * (_cubic_bump(x) + profile(x))


def _two_sided_cubic(alpha: float) -> Problem1D:
    """Two-sided diffusion with exact solution exp(-t) * x**3 (1-x)**3."""
    return Problem1D(
        name="two-sided cubic bump",
        alpha=alpha,
        left_diffusivity=1.0,
        right_diffusivity=1.0,
        source=_cubic_bump_source(_mirrored_fractional_profile(alpha, alpha)),
        initial=_cubic_bump,
        left_boundary=lambda t: 0.0,
        right_boundary=lambda t: 0.0,
        exact=lambda x, t: np.exp(-t) * _cubic_bump(x),
    )


def _variable_coeff_cubic(alpha: float) -> Problem1D:
    """Variable-coefficient diffusion, exact solution exp(-t) * x**3 (1-x)**3."""
    return Problem1D(
        name="variable-coefficient cubic bump",
        alpha=alpha,
        left_diffusivity=lambda x: np.asarray(x, dtype=float) ** alpha,
        right_diffusivity=lambda x: (1.0 - np.asarray(x, dtype=float)) ** alpha,
        source=_cubic_bump_source(_mirrored_fractional_profile(alpha, 0.0)),
        initial=_cubic_bump,
        left_boundary=lambda t: 0.0,
        right_boundary=lambda t: 0.0,
        exact=lambda x, t: np.exp(-t) * _cubic_bump(x),
    )


def _two_dim_cubic(alpha: float, beta: float) -> Problem2D:
    """2D two-sided diffusion, exact exp(-t) x**3 (1-x)**3 y**3 (1-y)**3."""
    xprofile = _mirrored_fractional_profile(alpha, alpha)
    yprofile = _mirrored_fractional_profile(beta, beta)

    def source(x, y, t):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return -np.exp(-t) * (
            _cubic_bump(x) * _cubic_bump(y)
            + xprofile(x) * _cubic_bump(y)
            + yprofile(y) * _cubic_bump(x)
        )

    def exact(x, y, t):
        return np.exp(-t) * _cubic_bump(x) * _cubic_bump(y)

    return Problem2D(
        name="two-dimensional cubic bump",
        alpha=alpha,
        beta=beta,
        x_left_diffusivity=1.0,
        x_right_diffusivity=1.0,
        y_left_diffusivity=1.0,
        y_right_diffusivity=1.0,
        source=source,
        initial=lambda x, y: exact(x, y, 0.0),
        boundary=lambda x, y, t: np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape),
        exact=exact,
    )


def make_example(
    example: "ExampleId | str",
    alpha: Optional[float] = None,
    beta: Optional[float] = None,
) -> "Problem1D | Problem2D":
    """Build a catalog problem by id.

    ``alpha`` is required for the one-dimensional examples.  The 2D example
    defaults to orders (1.2, 1.8) but accepts overrides for either axis.
    """
    example = ExampleId.from_tag(example)
    if example is ExampleId.TWO_DIMENSIONAL:
        return _two_dim_cubic(1.2 if alpha is None else alpha, 1.8 if beta is None else beta)
    if alpha is None:
        raise ParameterError(f"example {example.value!r} requires alpha")
    if beta is not None:
        raise ParameterError(f"example {example.value!r} is one-dimensional; beta does not apply")
    factory = {
        ExampleId.STEADY: _steady_monomial,
        ExampleId.LEFT_SIDED: _left_sided_monomial,
        ExampleId.TWO_SIDED: _two_sided_cubic,
        ExampleId.VARIABLE_COEFF: _variable_coeff_cubic,
    }[example]
    return factory(alpha)


# ---------------------------------------------------------------------------
# Norms and rates
# ---------------------------------------------------------------------------


def max_norm(v) -> float:
    """Maximum absolute entry of a (possibly multidimensional) grid function."""
    arr = np.asarray(v, dtype=float)
    if arr.size == 0:
        raise ParameterError("max_norm of an empty grid function is undefined")
    return float(np.max(np.abs(arr)))


def l2_norm(v, h: float, h2: Optional[float] = None) -> float:
    """Grid-weighted discrete L2 norm: sqrt(h * sum v^2), or h*h2 in 2D."""
    arr = np.asarray(v, dtype=float)
    if arr.size == 0:
        raise ParameterError("l2_norm of an empty grid function is undefined")
    weight = float(h) if h2 is None else float(h) * float(h2)
    if weight <= 0.0:
        raise ParameterError("grid weights must be positive")
    return float(np.sqrt(weight * np.sum(arr * arr)))


def convergence_rate(err_coarse: float, err_fine: float) -> float:
    """Observed order under grid doubling: log2(err_coarse / err_fine)."""
    if err_coarse <= 0.0 or err_fine <= 0.0:
        raise ParameterError("convergence rates need strictly positive errors")
    return log2(err_coarse / err_fine)


def attach_rates(records: list[ErrorRecord]) -> list[ErrorRecord]:
    """Fill the rate columns of successive records (resolution doubling).

    The first record keeps ``None`` rates; each later one gets
    ``log2(previous error / its error)`` per norm.
    """
    return [replace(rec, rate_max=None, rate_l2=None) for rec in records[:1]] + [
        replace(
            rec,
            rate_max=convergence_rate(prev.max_err, rec.max_err),
            rate_l2=convergence_rate(prev.l2_err, rec.l2_err),
        )
        for prev, rec in zip(records, records[1:])
    ]
