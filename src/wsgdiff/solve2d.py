"""Two-dimensional splitting solvers for two-sided fractional diffusion.

The 2D problem couples one-dimensional two-sided operators in x and y.  A
trapezoidal two-level scheme in time factors (up to a commuting
second-order-in-time perturbation) into one-dimensional solves along rows
and columns.  This module implements that factored scheme once, plus a
locally-one-dimensional variant:

- ``pr``       : the factored scheme as two half-step sweeps (x then y),
                 source split evenly;
- ``douglas``, ``dyakonov`` : names for the same factored scheme.  The
                 correction form and the product-right-hand-side form are
                 algebraically identical to ``pr``, so both names run its
                 stepper; they are kept so that the paper's tables, which
                 list each name, reproduce;
- ``lod``      : fully decoupled sweeps with source terms swept along, the
                 only variant whose factorization error shows up in the
                 source handling.

Each splitting is a factory ``stepper(problem, config)`` that checks its
preconditions and does its setup once — directional operators, and the
factorization of each direction's implicit matrix — and returns
``step(U, t_n) -> U_next``, which reuses that setup across steps and
right-hand-side columns.  Interior unknowns are stored as arrays of shape
``(Nx-1, Ny-1)`` with the x index on axis 0, so a vectorization with x
varying fastest corresponds to column-major flattening.

Each ``pr``/``lod`` step stays inside scipy's BLAS/LAPACK (``dgemm``/``dgemv``
on operators stored in Fortran order at setup, then ``dgetrs`` through
``solve1d.lu_solver``): numpy's ``@`` would bring a second OpenBLAS thread
pool that contends with scipy's.  Grid callables are evaluated on the
broadcast axes ``x[:, None]``, ``y[None, :]``.

Boundary handling: all splittings require vanishing Dirichlet data on the
x-boundaries (the sweep order makes intermediate variables carry their
values there, which only stays consistent when those lines hold zero).  The
factored scheme accepts time-dependent data on the y-boundaries through the
stencil's boundary columns; LOD requires fully homogeneous data and one
spacing shared by both axes.  The source term is sampled at the half-step
midpoint throughout.

Error norms for reference-table reproduction are evaluated at the final
time (both maximum and grid-weighted L2), over interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import blas

from . import weights as wt
from .errors import ParameterError
from .operators import assemble_wsgd_matrix, boundary_columns
from .problems import Problem2D, l2_norm, max_norm
from .solve1d import Solution, Stepper, lu_solver, march

__all__ = [
    "SPLITTINGS",
    "SolverConfig2D",
    "build_directional_operators",
    "pr_adi_stepper",
    "lod_stepper",
    "run_2d",
]

#: Splitting strategies: the factored scheme under its three names, and the
#: LOD scheme.
SPLITTINGS = ("pr", "douglas", "dyakonov", "lod")


@dataclass(frozen=True)
class SolverConfig2D:
    """Resolution, scheme, and splitting selection for a 2D run."""

    Nx: int
    Ny: int
    M: int
    scheme: str = wt.P1Q0
    splitting: str = "pr"
    T: float = 1.0

    def __post_init__(self) -> None:
        for label, value in (("Nx", self.Nx), ("Ny", self.Ny)):
            if int(value) != value or value < 4:
                raise ParameterError(f"need at least {label}=4 intervals, got {value}")
        if int(self.M) != self.M or self.M < 1:
            raise ParameterError(f"need at least M=1 time steps, got {self.M}")
        if self.scheme not in wt.PAIR_SCHEMES:
            raise ParameterError(
                f"unsupported scheme {self.scheme!r} for the 2D steppers;"
                f" expected one of {wt.PAIR_SCHEMES!r}"
            )
        if self.splitting not in SPLITTINGS:
            raise ParameterError(
                f"unknown splitting {self.splitting!r}; expected one of {SPLITTINGS!r}"
            )
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ParameterError(f"final time must be positive and finite, got {self.T}")

    @property
    def tau(self) -> float:
        return self.T / self.M


def build_directional_operators(
    problem: Problem2D, config: SolverConfig2D
) -> tuple[np.ndarray, np.ndarray]:
    """Dense one-dimensional operators for the x and y directions.

    Returns ``(Dx, Dy)`` of orders ``Nx-1`` and ``Ny-1``: each combines the
    left- and right-sided stencil matrices with the direction's
    diffusivities and the ``1/h**order`` scaling.  The full 2D actions are
    ``identity (x) Dx`` and ``Dy (x) identity`` under x-fastest vectorization
    and are applied row-/column-wise rather than materialized.
    """
    hx = (problem.bx - problem.ax) / config.Nx
    hy = (problem.by - problem.ay) / config.Ny
    ax_mat = assemble_wsgd_matrix(problem.alpha, config.scheme, config.Nx - 1).to_dense()
    ay_mat = assemble_wsgd_matrix(problem.beta, config.scheme, config.Ny - 1).to_dense()
    dx = (problem.x_left_diffusivity * ax_mat + problem.x_right_diffusivity * ax_mat.T) / (
        hx**problem.alpha
    )
    dy = (problem.y_left_diffusivity * ay_mat + problem.y_right_diffusivity * ay_mat.T) / (
        hy**problem.beta
    )
    return dx, dy


def _grid(problem: Problem2D, config: SolverConfig2D):
    """Spacings, interior x-nodes and broadcast axes ``(hx, hy, xi, xi[:, None], yj[None, :])``."""
    hx = (problem.bx - problem.ax) / config.Nx
    hy = (problem.by - problem.ay) / config.Ny
    xi = problem.ax + hx * np.arange(1, config.Nx)
    yj = problem.ay + hy * np.arange(1, config.Ny)
    return hx, hy, xi, xi[:, None], yj[None, :]


def _on_grid(fn: Callable[..., np.ndarray], x, y, *t: float) -> np.ndarray:
    """``fn(x, y, *t)`` as floats of the shape of ``x`` and ``y`` broadcast together."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    return np.broadcast_to(np.asarray(fn(x, y, *t), dtype=float), shape)


def _boundary_is_zero(problem: Problem2D, axis: str, T: float) -> bool:
    """Sample the Dirichlet data on one pair of sides at the start, middle and end."""
    nprobe = 13
    if axis == "x":
        span = np.linspace(problem.ay, problem.by, nprobe)
        lines = ((np.full(nprobe, problem.ax), span), (np.full(nprobe, problem.bx), span))
    else:
        span = np.linspace(problem.ax, problem.bx, nprobe)
        lines = ((span, np.full(nprobe, problem.ay)), (span, np.full(nprobe, problem.by)))
    for t in (0.0, 0.5 * T, T):
        for xs, ys in lines:
            if np.max(np.abs(np.asarray(problem.boundary(xs, ys, t), dtype=float))) > 1e-14:
                return False
    return True


def _check_x_boundaries(problem: Problem2D, T: float) -> None:
    """Reject nonzero Dirichlet data on the x-boundaries."""
    if not _boundary_is_zero(problem, "x", T):
        raise ParameterError(
            "the splitting steppers require vanishing Dirichlet data on the x-boundaries"
        )


def _sweeps(problem: Problem2D, config: SolverConfig2D):
    """Build both directional operators (in Fortran order, so no BLAS call copies
    them) and factor both half-step systems once; return the operators, the
    x-sweep, the y-sweep and the y-direction boundary columns ``(cy0, cyN)``."""
    dx, dy = build_directional_operators(problem, config)
    a = 0.5 * config.tau
    solve_x = lu_solver(np.eye(config.Nx - 1) - a * dx, "x-direction")
    solve_dy = lu_solver(np.eye(config.Ny - 1) - a * dy, "y-direction")

    def solve_y(rhs: np.ndarray) -> np.ndarray:
        """Solve (I - tau/2 Dy) along axis 1 for every x-row at once."""
        return solve_dy(np.ascontiguousarray(rhs.T)).T

    hy_beta = ((problem.by - problem.ay) / config.Ny) ** problem.beta
    left0, right0, left1, right1 = boundary_columns(problem.beta, config.scheme, config.Ny - 1)
    cy0 = (problem.y_left_diffusivity * left0 + problem.y_right_diffusivity * right0) / hy_beta
    cyN = (problem.y_left_diffusivity * left1 + problem.y_right_diffusivity * right1) / hy_beta
    return np.asfortranarray(dx), np.asfortranarray(dy), solve_x, solve_y, cy0, cyN


def pr_adi_stepper(problem: Problem2D, config: SolverConfig2D) -> Stepper:
    """Set up the two-half-sweep splitting once; return its ``step(U, t_n)``.

    Stage 1 solves ``(I - tau/2 dx) V = (I + tau/2 dy) U + tau/2 F`` down
    the x direction; stage 2 solves ``(I - tau/2 dy) U_next =
    (I + tau/2 dx) V + tau/2 F`` across y, with the midpoint source shared
    by both stages.  This is the stepper of all three names of the factored
    scheme: ``pr``, ``douglas`` and ``dyakonov``.  Accepts unequal spacings
    and time-dependent data on the y-boundaries.
    """
    _, _, xi, X, Y = _grid(problem, config)
    _check_x_boundaries(problem, config.T)
    dx, dy, solve_x, solve_y, cy0, cyN = _sweeps(problem, config)
    tau = config.tau
    a = 0.5 * tau
    y_low, y_high = np.full_like(xi, problem.ay), np.full_like(xi, problem.by)

    def y_boundary_terms(t: float) -> np.ndarray:
        """Boundary-column contribution of the y-direction Dirichlet data."""
        g0 = _on_grid(problem.boundary, xi, y_low, t)
        g1 = _on_grid(problem.boundary, xi, y_high, t)
        return g0[:, None] * cy0[None, :] + g1[:, None] * cyN[None, :]

    def step(U: np.ndarray, t_n: float) -> np.ndarray:
        F = _on_grid(problem.source, X, Y, t_n + a)
        V = solve_x(U + a * (blas.dgemm(1.0, U, dy, trans_b=1) + y_boundary_terms(t_n)) + a * F)
        return solve_y(V + a * blas.dgemm(1.0, dx, V) + a * F + a * y_boundary_terms(t_n + tau))

    return step


def lod_stepper(problem: Problem2D, config: SolverConfig2D) -> Stepper:
    """Set up the fully decoupled splitting once; return its ``step(U, t_n)``.

    Stage 1 solves ``(I - tau/2 dx) V = (I + tau/2 dx)(U + tau/2 F)`` down
    x; stage 2 solves ``(I - tau/2 dy) U_next = (I + tau/2 dy) V + tau/2
    (I - tau/2 dy) F`` across y.  The x-sweep inside the source terms uses
    the interior stencil only, while stage 2's y-operator is boundary-aware:
    stage 1 is also applied along the two y-boundary lines (where the
    solution vanishes but the source does not), and those swept lines feed
    the y-direction boundary columns of stage 2.  Requires one spacing for
    both axes and fully homogeneous Dirichlet data.
    """
    hx, hy, xi, X, Y = _grid(problem, config)
    if abs(hx - hy) > 1e-13 * max(hx, hy):
        raise ParameterError(
            f"splitting 'lod' assumes one spacing for both axes; got hx={hx!r}, hy={hy!r}"
        )
    _check_x_boundaries(problem, config.T)
    if not _boundary_is_zero(problem, "y", config.T):
        raise ParameterError("splitting 'lod' requires fully homogeneous Dirichlet data")
    dx, dy, solve_x, solve_y, cy0, cyN = _sweeps(problem, config)
    a = 0.5 * config.tau
    y_low, y_high = np.full_like(xi, problem.ay), np.full_like(xi, problem.by)

    def step(U: np.ndarray, t_n: float) -> np.ndarray:
        t_mid = t_n + a
        F = _on_grid(problem.source, X, Y, t_mid)
        f_low = _on_grid(problem.source, xi, y_low, t_mid)
        f_high = _on_grid(problem.source, xi, y_high, t_mid)
        V = solve_x(U + a * blas.dgemm(1.0, dx, U) + a * (F + a * blas.dgemm(1.0, dx, F)))
        v_low = solve_x(a * (f_low + a * blas.dgemv(1.0, dx, f_low)))
        v_high = solve_x(a * (f_high + a * blas.dgemv(1.0, dx, f_high)))
        dy_v = blas.dgemm(1.0, V, dy, trans_b=1) + v_low[:, None] * cy0 + v_high[:, None] * cyN
        dy_f = blas.dgemm(1.0, F, dy, trans_b=1) + f_low[:, None] * cy0 + f_high[:, None] * cyN
        return solve_y(V + a * dy_v + a * (F - a * dy_f))

    return step


_STEPPERS: dict[str, Callable[[Problem2D, SolverConfig2D], Stepper]] = {
    "pr": pr_adi_stepper,
    "douglas": pr_adi_stepper,
    "dyakonov": pr_adi_stepper,
    "lod": lod_stepper,
}


def run_2d(problem: Problem2D, config: SolverConfig2D) -> Solution:
    """Integrate a 2D problem from its initial state to the final time."""
    step = _STEPPERS[config.splitting](problem, config)
    hx, hy, _, X, Y = _grid(problem, config)
    U = np.array(_on_grid(problem.initial, X, Y))
    U, norm_history, _ = march(step, U, config, lambda V: l2_norm(V, hx, hy))
    t_next = config.M * config.tau
    x_full = problem.ax + hx * np.arange(config.Nx + 1)
    y_full = problem.ay + hy * np.arange(config.Ny + 1)
    values = np.empty((config.Nx + 1, config.Ny + 1))
    values[1 : config.Nx, 1 : config.Ny] = U
    values[0, :] = problem.boundary(np.full_like(y_full, problem.ax), y_full, t_next)
    values[-1, :] = problem.boundary(np.full_like(y_full, problem.bx), y_full, t_next)
    values[:, 0] = problem.boundary(x_full, np.full_like(x_full, problem.ay), t_next)
    values[:, -1] = problem.boundary(x_full, np.full_like(x_full, problem.by), t_next)
    sol = Solution(
        x=x_full,
        y=y_full,
        values=values,
        problem_name=problem.name,
        t_final=t_next,
        config=config,
        norm_history=norm_history,
    )
    if problem.exact is not None:
        e = U - _on_grid(problem.exact, X, Y, t_next)
        sol.max_err_final = max_norm(e)
        sol.l2_err_final = l2_norm(e, hx, hy)
    return sol
