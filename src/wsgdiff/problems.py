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
from .errors import ParameterError, real_number

__all__ = [
    "ExampleId",
    "Problem1D",
    "Problem2D",
    "SeparableSource",
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


def on_grid(problem: "Problem1D | Problem2D", name: str, *axes) -> np.ndarray:
    """``problem.<name>(*axes)`` as floats of the shape of ``axes`` broadcast
    together.

    Every solver reads a problem's grid callables through this function.  A
    result that does not broadcast to that shape is a :class:`ParameterError`
    naming the callable and both shapes, and so is a result with some of the
    axes but not all of them, which would broadcast along the missing axes
    whatever it holds.  A 0-d result (a constant) fills the grid.  A result
    that is not real numbers (complex, text) is a :class:`ParameterError` too.
    """
    return _sample(f"problem.{name}", getattr(problem, name), axes)


def _sample(label: str, fn: Callable, axes) -> np.ndarray:
    """``fn(*axes)`` under :func:`on_grid`'s checks, its errors naming ``label``."""
    shape = np.broadcast_shapes(*map(np.shape, axes))
    value = np.asarray(fn(*axes))
    if value.dtype.kind not in "biuf":
        raise ParameterError(f"{label} returned {value.dtype} values, not real numbers")
    value = value.astype(float, copy=False)
    if value.shape == shape:
        return value
    if value.ndim in (0, len(shape)):
        try:
            return np.broadcast_to(value, shape)
        except ValueError:
            pass
    raise ParameterError(
        f"{label} returned shape {value.shape}, which does not broadcast to"
        f" {shape}, the broadcast shape of its arguments {[np.shape(a) for a in axes]}"
    )


def _store_reals(record, *names: str) -> None:
    """Store each field ``names`` of the frozen ``record`` as a float, through
    :func:`~wsgdiff.errors.real_number`: a non-real or non-finite value is a
    :class:`ParameterError` naming the field."""
    for name in names:
        object.__setattr__(record, name, real_number(f"problem.{name}", getattr(record, name)))


@dataclass(frozen=True)
class Problem1D:
    """A one-dimensional two-sided fractional diffusion problem.

    The governing equation is

        du/dt = dl(x) * (left derivative of order alpha of u)
              + dr(x) * (right derivative of order alpha of u)
              + source(x, t)

    on ``(a, b)`` with Dirichlet data ``left_boundary(t)``/``right_boundary(t)``
    and initial state ``initial(x)``.  ``dl``/``dr`` are the two diffusivities,
    either nonnegative finite constants or callables of ``x`` (both must be
    the same kind).  ``steady=True`` marks the time-independent variant
    ``-(left derivative of u) = source``, where only the left diffusivity,
    boundary values at ``t=0``, and a one-argument reading of the source
    matter.  ``exact`` is the known solution when available (``None`` for
    user-supplied problems without one).

    The grid callables ``source(x, t)``, ``exact(x, t)``, ``initial(x)``
    and callable diffusivities broadcast over numpy arrays and follow the one
    shape rule of :func:`on_grid`: the time stepper passes the broadcast
    axes ``x[None, :]`` and ``t[:, None]``, the steady solve the nodes ``x``
    and ``t = 0``.  A ``source`` given as a :class:`SeparableSource`,
    ``time(t) space(x)`` (as in ``ex1``-``ex3``), is read by the time
    stepper once a run instead: ``time`` on the vector of its level (or
    midpoint) times and ``space`` on ``x[None, :]``.  The boundary callables
    take a scalar ``t`` and return a scalar.
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", wt._check_alpha(self.alpha, 1.0, 2.0))
        _store_reals(self, "a", "b")
        if not self.b > self.a:
            raise ParameterError(f"domain must have b > a, got [{self.a}, {self.b}]")
        lcall = callable(self.left_diffusivity)
        rcall = callable(self.right_diffusivity)
        if lcall != rcall:
            raise ParameterError("diffusivities must be both constants or both callables")
        if not lcall:
            _store_reals(self, "left_diffusivity", "right_diffusivity")
            kl, kr = self.left_diffusivity, self.right_diffusivity
            if not (kl >= 0.0 and kr >= 0.0):
                raise ParameterError(f"diffusivities must be nonnegative, got {kl} and {kr}")
            if kl == 0.0 and kr == 0.0:
                raise ParameterError("at least one diffusivity must be positive")
        if not self.steady and self.initial is None:
            raise ParameterError("time-dependent problems need an initial state")
        # t = 0 is the one level every run has; a run checks all its own
        self.boundary_values(np.zeros(1))

    def boundary_values(self, times: np.ndarray) -> np.ndarray:
        """Both Dirichlet data at each of ``times``, one scalar call each, as
        the rows of a ``(2, len(times))`` array: left end, then right end.
        A result that is not one real number (complex, text, an array) is a
        :class:`ParameterError` naming the callable.

        Rejects data incompatible with an active one-sided operator: an
        active left-sided derivative needs a vanishing left boundary value
        (and symmetrically on the right), because the operator's memory
        extends to the endpoint, and nonzero data there fall outside the
        setting the time-dependent theory covers.  Data above ``1e-14`` at an
        active end are a :class:`ParameterError` naming the end and the time.
        """
        g = np.empty((2, len(times)))
        for row, name in zip(g, ("left_boundary", "right_boundary")):
            fn = getattr(self, name)
            data = np.array([fn(t) for t in times])
            if data.dtype.kind not in "biuf" or data.shape != row.shape:
                raise ParameterError(
                    f"problem.{name} returned {data.dtype} values of shape {data.shape[1:]},"
                    " not one real number a time"
                )
            row[:] = data
        lcall = callable(self.left_diffusivity)
        active = [lcall or k != 0.0 for k in (self.left_diffusivity, self.right_diffusivity)]
        for side, on, data in zip(("left", "right"), active, g):
            bad = np.flatnonzero(~(np.abs(data) <= 1e-14)) if on else []
            if len(bad):
                raise ParameterError(
                    f"an active {side}-sided derivative requires zero {side} boundary data;"
                    f" it is {data[bad[0]]:.3g} at t = {times[bad[0]]:g}"
                )
        return g

    @property
    def has_variable_coefficients(self) -> bool:
        return callable(self.left_diffusivity)

    def diffusivity_values(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate both diffusivities on a grid, validating that they are
        finite and nonnegative."""
        if self.has_variable_coefficients:
            dl = on_grid(self, "left_diffusivity", x)
            dr = on_grid(self, "right_diffusivity", x)
            if not all(np.all((0.0 <= d) & (d < np.inf)) for d in (dl, dr)):
                raise ParameterError(
                    "variable diffusivities must be finite and nonnegative on the grid"
                )
        else:
            dl = np.full_like(np.asarray(x, dtype=float), self.left_diffusivity)
            dr = np.full_like(np.asarray(x, dtype=float), self.right_diffusivity)
        return dl, dr


@dataclass(frozen=True)
class SeparableSource:
    """A source that is one time factor times one space function,
    ``time(t) * space(*axes)``, on any number of space axes: ``space(x)`` in
    1D, ``space(x, y)`` in 2D.

    Both factors broadcast over numpy arrays, like any grid callable, and are
    read through :func:`on_grid`'s checks by :func:`_factors`: ``time`` on
    the axis ``t``, ``space`` on the space axes, which its result must carry
    all of.  A factor that returns anything but real numbers of that shape
    is a :class:`ParameterError` naming it.

    The record is itself the callable ``source(*axes, t)``, the product of
    its two reads on any broadcast axes, so every reader that does not know
    the split reads it as any other source.  A 1D run
    (:func:`~wsgdiff.solve1d.cn_wsgd_run`) reads ``time`` once on its level
    (or midpoint) times and ``space`` once on its interior nodes, and the
    eigenbasis steps of :func:`~wsgdiff.solve2d.run_2d` read ``space`` once a
    run and ``time`` once on every step's midpoint time, so a step reads no
    callable.
    """

    time: Callable[[np.ndarray], np.ndarray]
    space: Callable[..., np.ndarray]

    def __post_init__(self) -> None:
        if not (callable(self.time) and callable(self.space)):
            raise ParameterError(
                "a separable source needs a callable time factor and a callable space factor"
            )

    def __call__(self, *args) -> np.ndarray:
        *axes, t = args
        s, g = _factors(self, t, *axes)
        return s * g


def _factors(source: SeparableSource, times, *axes) -> tuple[np.ndarray, np.ndarray]:
    """``(time(times), space(*axes))`` of ``source``, each read through
    :func:`on_grid`'s checks; the one read of a separable source's factors."""
    return (
        _sample("problem.source time factor", source.time, (times,)),
        _sample("problem.source space factor", source.space, axes),
    )


@dataclass(frozen=True)
class Problem2D:
    """A two-dimensional two-sided fractional diffusion problem.

    The equation couples a two-sided derivative of order ``alpha`` in x
    (diffusivities ``x_left_diffusivity``/``x_right_diffusivity``) with a
    two-sided derivative of order ``beta`` in y, plus ``source(x, y, t)``,
    on the rectangle ``(ax, bx) x (ay, by)`` with initial state
    ``initial(x, y)`` and zero Dirichlet data on all four sides: the paper
    proves its 2D schemes stable only for homogeneous data, so the record
    has no field for any other.  All grid callables broadcast over numpy
    arrays and follow the one shape rule of :func:`on_grid`: the 2D solvers
    pass the broadcast axes ``x[:, None]``, ``y[None, :]`` of the interior,
    and ``lod`` also reads the source on the y-lines ``y = ay, by``.  A
    ``source`` given as a :class:`SeparableSource`, ``time(t) space(x, y)``,
    lets a problem with equal left and right diffusivities on each axis step
    in the eigenbasis of its operators.
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
    exact: Optional[Callable[[np.ndarray, np.ndarray, float], np.ndarray]] = None
    ax: float = 0.0
    bx: float = 1.0
    ay: float = 0.0
    by: float = 1.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            object.__setattr__(self, name, wt._check_alpha(getattr(self, name), 1.0, 2.0))
        sides = ("x_left", "x_right", "y_left", "y_right")
        _store_reals(self, "ax", "bx", "ay", "by", *(f"{side}_diffusivity" for side in sides))
        if not (self.bx > self.ax and self.by > self.ay):
            ends = [self.ax, self.bx, self.ay, self.by]
            raise ParameterError(f"domain must have bx > ax and by > ay, got {ends}")
        for side in sides:
            k = getattr(self, f"{side}_diffusivity")
            if not k >= 0.0:
                raise ParameterError(f"{side} diffusivity must be nonnegative, got {k}")
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
        if not (0.0 <= self.max_err < np.inf and 0.0 <= self.l2_err < np.inf):
            raise ParameterError(
                "error norms are nonnegative and finite by definition,"
                f" got max_err={self.max_err!r} and l2_err={self.l2_err!r}"
            )


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
    )


def _decay(t):
    """``-exp(-t)``, the time factor of every time-dependent catalog source."""
    return -np.exp(-t)


def _left_sided_monomial(alpha: float) -> Problem1D:
    """Left-sided diffusion with exact solution exp(-t) * x**(1+alpha)."""
    c = gamma(2.0 + alpha)

    def space(x):
        x = np.asarray(x, dtype=float)
        return x ** (1.0 + alpha) + c * x

    def exact(x, t):
        return np.exp(-t) * np.asarray(x, dtype=float) ** (1.0 + alpha)

    return Problem1D(
        name="left-sided monomial",
        alpha=alpha,
        left_diffusivity=1.0,
        right_diffusivity=0.0,
        source=SeparableSource(_decay, space),
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


def _cubic_bump_source(profile) -> SeparableSource:
    """Source of the 1D cubic-bump examples for a given derivative profile."""
    return SeparableSource(_decay, lambda x: _cubic_bump(x) + profile(x))


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

    def space(x, y):
        bx, by = _cubic_bump(x), _cubic_bump(y)
        return (bx + xprofile(x)) * by + bx * yprofile(y)

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
        source=SeparableSource(_decay, space),
        initial=lambda x, y: exact(x, y, 0.0),
        exact=exact,
    )


#: The orders ``(alpha, beta)`` of ``ex4`` unless given; the 2D tables use them.
EX4_ORDERS = (1.2, 1.8)


def make_example(
    example: "ExampleId | str",
    alpha: Optional[float] = None,
    beta: Optional[float] = None,
) -> "Problem1D | Problem2D":
    """Build a catalog problem by id.

    ``alpha`` is required for the one-dimensional examples.  The 2D example
    defaults to the orders ``EX4_ORDERS`` but accepts overrides for either axis.
    """
    example = ExampleId.from_tag(example)
    if example is ExampleId.TWO_DIMENSIONAL:
        alpha, beta = (d if v is None else v for v, d in zip((alpha, beta), EX4_ORDERS))
        return _two_dim_cubic(alpha, beta)
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
    if not 0.0 < weight < np.inf:
        raise ParameterError(f"grid weights must be positive and finite, got {weight!r}")
    return float(np.sqrt(weight * np.sum(arr * arr)))


def convergence_rate(err_coarse: float, err_fine: float) -> float:
    """Observed order under grid doubling: log2(err_coarse / err_fine)."""
    if not (0.0 < err_coarse < np.inf and 0.0 < err_fine < np.inf):
        raise ParameterError(
            "convergence rates need strictly positive, finite errors,"
            f" got {err_coarse!r} and {err_fine!r}"
        )
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
