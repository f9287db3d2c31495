"""Two-dimensional splitting solvers for two-sided fractional diffusion.

The 2D problem couples one-dimensional two-sided operators in x and y.  A
trapezoidal two-level scheme in time factors (up to a commuting
second-order-in-time perturbation) into one-dimensional solves along rows
and columns.  This module implements that factored scheme once, plus a
locally-one-dimensional variant and a dense small-grid oracle:

- ``pr``       : the factored scheme as two half-step sweeps (x then y),
                 source split evenly;
- ``douglas``, ``dyakonov`` : names for the same factored scheme.  The
                 correction form and the product-right-hand-side form are
                 algebraically identical to ``pr``, so both names run its
                 stepper; they are kept so that the paper's tables, which
                 list each name, reproduce;
- ``lod``      : fully decoupled sweeps with source terms swept along, the
                 only variant whose factorization error shows up in the
                 source handling;
- ``full``     : dense Kronecker-product assembly of the unfactored
                 two-level scheme, restricted to small grids and used as an
                 equivalence oracle by the test suite.

Interior unknowns are stored as arrays of shape ``(Nx-1, Ny-1)`` with the
x index on axis 0, so a vectorization with x varying fastest corresponds to
column-major flattening.  Each direction's implicit matrix is factored once
per run and reused across steps and right-hand-side columns.

Boundary handling: all splittings require vanishing Dirichlet data on the
x-boundaries (the sweep order makes intermediate variables carry their
values there, which only stays consistent when those lines hold zero).  The
factored scheme accepts time-dependent data on the y-boundaries through the
stencil's boundary columns; the LOD and dense variants require fully
homogeneous data, and LOD also one spacing shared by both axes.  The source
term is sampled at the half-step midpoint throughout.

Error norms for reference-table reproduction are evaluated at the final
time (both maximum and grid-weighted L2), over interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import lapack

from . import weights as wt
from .errors import ParameterError, SolverError
from .operators import assemble_wsgd_matrix, boundary_columns
from .problems import Problem2D, l2_norm, max_norm

__all__ = [
    "SPLITTINGS",
    "SolverConfig2D",
    "Solution2D",
    "build_directional_operators",
    "pr_adi_step",
    "lod_step",
    "full_cn_kron_solve",
    "run_2d",
]

SOLVER_SCHEMES = wt.PAIR_SCHEMES

#: Splitting strategies: the factored scheme under its three names, the LOD
#: scheme, and the dense unfactored oracle.
SPLITTINGS = ("pr", "douglas", "dyakonov", "lod", "full")

#: Grid-size cap for the dense Kronecker oracle.
_FULL_MAX_N = 16


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
        if self.scheme not in SOLVER_SCHEMES:
            raise ParameterError(
                f"unsupported scheme {self.scheme!r} for the 2D steppers;"
                f" expected one of {SOLVER_SCHEMES!r}"
            )
        if self.splitting not in SPLITTINGS:
            raise ParameterError(
                f"unknown splitting {self.splitting!r}; expected one of {SPLITTINGS!r}"
            )
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ParameterError(f"final time must be positive and finite, got {self.T}")
        if self.splitting == "full" and max(self.Nx, self.Ny) > _FULL_MAX_N:
            raise ParameterError(
                f"the dense oracle is capped at N={_FULL_MAX_N} per axis"
                f" (got {self.Nx}x{self.Ny}); use a splitting stepper instead"
            )

    @property
    def tau(self) -> float:
        return self.T / self.M


@dataclass
class Solution2D:
    """Result of a 2D run: full final-time grid plus error diagnostics."""

    x: np.ndarray
    y: np.ndarray
    values: np.ndarray
    problem_name: str
    t_final: float
    config: Optional[SolverConfig2D] = None
    max_err_final: Optional[float] = None
    l2_err_final: Optional[float] = None
    norm_history: Optional[np.ndarray] = None


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


@dataclass
class _Workspace2D:
    """Per-run factorizations and grid data shared by the step functions."""

    hx: float
    hy: float
    tau: float
    xi: np.ndarray
    yj: np.ndarray
    Xg: np.ndarray
    Yg: np.ndarray
    Dx: np.ndarray
    Dy: np.ndarray
    lu_x: np.ndarray
    piv_x: np.ndarray
    lu_y: np.ndarray
    piv_y: np.ndarray
    cy0: np.ndarray
    cyN: np.ndarray


def _factor(matrix: np.ndarray, context: str):
    lu, piv, info = lapack.dgetrf(matrix)
    if info > 0:
        raise SolverError(f"{context}: singular system (zero pivot at index {info})")
    if info < 0:  # pragma: no cover - illegal argument, not reachable via API
        raise SolverError(f"{context}: factorization rejected argument {-info}")
    return lu, piv


def _solve_x(ws: _Workspace2D, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - tau/2 Dx) along axis 0 for every y-column at once."""
    out, info = lapack.dgetrs(ws.lu_x, ws.piv_x, rhs)
    if info != 0:  # pragma: no cover
        raise SolverError(f"x-direction solve failed (code {info})")
    return out


def _solve_y(ws: _Workspace2D, rhs: np.ndarray) -> np.ndarray:
    """Solve (I - tau/2 Dy) along axis 1 for every x-row at once."""
    out, info = lapack.dgetrs(ws.lu_y, ws.piv_y, np.ascontiguousarray(rhs.T))
    if info != 0:  # pragma: no cover
        raise SolverError(f"y-direction solve failed (code {info})")
    return out.T


def _boundary_is_zero(problem: Problem2D, axis: str, times) -> bool:
    """Sample the Dirichlet data on one pair of sides at a few times."""
    nprobe = 13
    if axis == "x":
        span = np.linspace(problem.ay, problem.by, nprobe)
        lines = ((np.full(nprobe, problem.ax), span), (np.full(nprobe, problem.bx), span))
    else:
        span = np.linspace(problem.ax, problem.bx, nprobe)
        lines = ((span, np.full(nprobe, problem.ay)), (span, np.full(nprobe, problem.by)))
    for t in times:
        for xs, ys in lines:
            if np.max(np.abs(np.asarray(problem.boundary(xs, ys, t), dtype=float))) > 1e-14:
                return False
    return True


def _build_workspace(problem: Problem2D, config: SolverConfig2D) -> _Workspace2D:
    hx = (problem.bx - problem.ax) / config.Nx
    hy = (problem.by - problem.ay) / config.Ny
    if config.splitting == "lod" and abs(hx - hy) > 1e-13 * max(hx, hy):
        raise ParameterError(
            f"splitting {config.splitting!r} assumes one spacing for both axes;"
            f" got hx={hx!r}, hy={hy!r}"
        )
    times = (0.0, 0.5 * config.T, config.T)
    if not _boundary_is_zero(problem, "x", times):
        raise ParameterError(
            "the splitting steppers require vanishing Dirichlet data on the x-boundaries"
        )
    if config.splitting in ("lod", "full") and not _boundary_is_zero(problem, "y", times):
        raise ParameterError(
            f"splitting {config.splitting!r} requires fully homogeneous Dirichlet data"
        )
    xi = problem.ax + hx * np.arange(1, config.Nx)
    yj = problem.ay + hy * np.arange(1, config.Ny)
    Xg, Yg = np.meshgrid(xi, yj, indexing="ij")
    dx_op, dy_op = build_directional_operators(problem, config)
    a = 0.5 * config.tau
    lu_x, piv_x = _factor(np.eye(config.Nx - 1) - a * dx_op, "x-direction factor")
    lu_y, piv_y = _factor(np.eye(config.Ny - 1) - a * dy_op, "y-direction factor")
    left0, right0, left1, right1 = boundary_columns(problem.beta, config.scheme, config.Ny - 1)
    cy0 = (problem.y_left_diffusivity * left0 + problem.y_right_diffusivity * right0) / (
        hy**problem.beta
    )
    cyN = (problem.y_left_diffusivity * left1 + problem.y_right_diffusivity * right1) / (
        hy**problem.beta
    )
    return _Workspace2D(
        hx=hx,
        hy=hy,
        tau=config.tau,
        xi=xi,
        yj=yj,
        Xg=Xg,
        Yg=Yg,
        Dx=dx_op,
        Dy=dy_op,
        lu_x=lu_x,
        piv_x=piv_x,
        lu_y=lu_y,
        piv_y=piv_y,
        cy0=cy0,
        cyN=cyN,
    )


def _y_boundary_terms(ws: _Workspace2D, problem: Problem2D, t: float) -> np.ndarray:
    """Boundary-column contribution of the y-direction Dirichlet data."""
    g0 = np.asarray(problem.boundary(ws.xi, np.full_like(ws.xi, problem.ay), t), dtype=float)
    g1 = np.asarray(problem.boundary(ws.xi, np.full_like(ws.xi, problem.by), t), dtype=float)
    return g0[:, None] * ws.cy0[None, :] + g1[:, None] * ws.cyN[None, :]


def _dy_apply(ws: _Workspace2D, problem: Problem2D, W: np.ndarray, t: float) -> np.ndarray:
    """Full y-direction operator action, boundary data included."""
    return W @ ws.Dy.T + _y_boundary_terms(ws, problem, t)


def _midpoint_source(ws: _Workspace2D, problem: Problem2D, t_n: float) -> np.ndarray:
    return np.asarray(problem.source(ws.Xg, ws.Yg, t_n + 0.5 * ws.tau), dtype=float)


def pr_adi_step(
    U: np.ndarray,
    t_n: float,
    problem: Problem2D,
    config: SolverConfig2D,
    *,
    workspace: Optional[_Workspace2D] = None,
) -> np.ndarray:
    """One step of the two-half-sweep splitting.

    Stage 1 solves ``(I - tau/2 dx) V = (I + tau/2 dy) U + tau/2 F`` down
    the x direction; stage 2 solves ``(I - tau/2 dy) U_next =
    (I + tau/2 dx) V + tau/2 F`` across y, with the midpoint source shared
    by both stages.  This is the stepper of all three names of the factored
    scheme: ``pr``, ``douglas`` and ``dyakonov``.
    """
    ws = workspace if workspace is not None else _build_workspace(problem, config)
    a = 0.5 * ws.tau
    t_next = t_n + ws.tau
    F = _midpoint_source(ws, problem, t_n)
    V = _solve_x(ws, U + a * _dy_apply(ws, problem, U, t_n) + a * F)
    rhs2 = V + a * (ws.Dx @ V) + a * F + a * _y_boundary_terms(ws, problem, t_next)
    return _solve_y(ws, rhs2)


def lod_step(
    U: np.ndarray,
    t_n: float,
    problem: Problem2D,
    config: SolverConfig2D,
    *,
    workspace: Optional[_Workspace2D] = None,
) -> np.ndarray:
    """One step of the fully decoupled splitting.

    Stage 1 solves ``(I - tau/2 dx) V = (I + tau/2 dx)(U + tau/2 F)`` down
    x; stage 2 solves ``(I - tau/2 dy) U_next = (I + tau/2 dy) V + tau/2
    (I - tau/2 dy) F`` across y.  The x-sweep inside the source terms uses
    the interior stencil only, while stage 2's y-operator is boundary-aware:
    stage 1 is also applied along the two y-boundary lines (where the
    solution vanishes but the source does not), and those swept lines feed
    the y-direction boundary columns of stage 2.  Requires fully
    homogeneous Dirichlet data.
    """
    ws = workspace if workspace is not None else _build_workspace(problem, config)
    a = 0.5 * ws.tau
    t_mid = t_n + a
    F = _midpoint_source(ws, problem, t_n)
    f_low = np.asarray(
        problem.source(ws.xi, np.full_like(ws.xi, problem.ay), t_mid), dtype=float
    )
    f_high = np.asarray(
        problem.source(ws.xi, np.full_like(ws.xi, problem.by), t_mid), dtype=float
    )
    V = _solve_x(ws, U + a * (ws.Dx @ U) + a * (F + a * (ws.Dx @ F)))
    v_low = _solve_x(ws, a * (f_low + a * (ws.Dx @ f_low)))
    v_high = _solve_x(ws, a * (f_high + a * (ws.Dx @ f_high)))
    dy_v = V @ ws.Dy.T + v_low[:, None] * ws.cy0[None, :] + v_high[:, None] * ws.cyN[None, :]
    dy_f = F @ ws.Dy.T + f_low[:, None] * ws.cy0[None, :] + f_high[:, None] * ws.cyN[None, :]
    rhs2 = V + a * dy_v + a * (F - a * dy_f)
    return _solve_y(ws, rhs2)


def full_cn_kron_solve(
    U: np.ndarray,
    t_n: float,
    problem: Problem2D,
    config: SolverConfig2D,
    *,
    workspace: Optional[_Workspace2D] = None,
) -> np.ndarray:
    """One step of the unfactored two-level scheme via dense Kronecker assembly.

    Builds ``(I - tau/2 Kx)(I - tau/2 Ky)`` and ``(I + tau/2 Kx)(I + tau/2
    Ky)`` as dense matrices of order ``(Nx-1)(Ny-1)`` — where ``Kx``/``Ky``
    are the Kronecker liftings of the directional operators under x-fastest
    vectorization — and solves directly.  Capped at 16 intervals per axis;
    requires fully homogeneous Dirichlet data.
    """
    if max(config.Nx, config.Ny) > _FULL_MAX_N:
        raise ParameterError(
            f"the dense oracle is capped at N={_FULL_MAX_N} per axis"
            f" (got {config.Nx}x{config.Ny})"
        )
    ws = workspace if workspace is not None else _build_workspace(problem, config)
    times = (t_n, t_n + ws.tau)
    if not (_boundary_is_zero(problem, "x", times) and _boundary_is_zero(problem, "y", times)):
        raise ParameterError("the dense oracle requires fully homogeneous Dirichlet data")
    nx = config.Nx - 1
    ny = config.Ny - 1
    a = 0.5 * ws.tau
    kx = np.kron(np.eye(ny), ws.Dx)
    ky = np.kron(ws.Dy, np.eye(nx))
    eye = np.eye(nx * ny)
    lhs = (eye - a * kx) @ (eye - a * ky)
    rhs_mat = (eye + a * kx) @ (eye + a * ky)
    F = _midpoint_source(ws, problem, t_n)
    u_vec = U.flatten(order="F")
    rhs = rhs_mat @ u_vec + ws.tau * F.flatten(order="F")
    lu, piv = _factor(lhs, "dense two-level solve")
    out, info = lapack.dgetrs(lu, piv, rhs)
    if info != 0:  # pragma: no cover
        raise SolverError(f"dense two-level solve failed (code {info})")
    return out.reshape((nx, ny), order="F")


_STEPPERS: dict[str, Callable] = {
    "pr": pr_adi_step,
    "douglas": pr_adi_step,
    "dyakonov": pr_adi_step,
    "lod": lod_step,
    "full": full_cn_kron_solve,
}


def run_2d(problem: Problem2D, config: SolverConfig2D) -> Solution2D:
    """Integrate a 2D problem from its initial state to the final time."""
    ws = _build_workspace(problem, config)
    step = _STEPPERS[config.splitting]
    U = np.empty((config.Nx - 1, config.Ny - 1))
    U[:, :] = problem.initial(ws.Xg, ws.Yg)
    norm_history = np.empty(config.M + 1)
    norm_history[0] = l2_norm(U, ws.hx, ws.hy)
    t_next = 0.0
    for n in range(config.M):
        U = step(U, n * ws.tau, problem, config, workspace=ws)
        t_next = (n + 1) * ws.tau
        norm_history[n + 1] = l2_norm(U, ws.hx, ws.hy)
        if not np.isfinite(norm_history[n + 1]):
            raise SolverError(f"non-finite solution at step {n + 1} (t={t_next!r})")

    x_full = problem.ax + ws.hx * np.arange(config.Nx + 1)
    y_full = problem.ay + ws.hy * np.arange(config.Ny + 1)
    values = np.empty((config.Nx + 1, config.Ny + 1))
    values[1 : config.Nx, 1 : config.Ny] = U
    values[0, :] = problem.boundary(np.full_like(y_full, problem.ax), y_full, t_next)
    values[-1, :] = problem.boundary(np.full_like(y_full, problem.bx), y_full, t_next)
    values[:, 0] = problem.boundary(x_full, np.full_like(x_full, problem.ay), t_next)
    values[:, -1] = problem.boundary(x_full, np.full_like(x_full, problem.by), t_next)
    sol = Solution2D(
        x=x_full,
        y=y_full,
        values=values,
        problem_name=problem.name,
        t_final=t_next,
        config=config,
        norm_history=norm_history,
    )
    if problem.exact is not None:
        e = U - np.asarray(problem.exact(ws.Xg, ws.Yg, t_next), dtype=float)
        sol.max_err_final = max_norm(e)
        sol.l2_err_final = l2_norm(e, ws.hx, ws.hy)
    return sol
