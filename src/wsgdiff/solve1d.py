"""One-dimensional solvers, and the time loop that every 1D and 2D run shares.

Two entry points cover the 1D catalog, and both return a :class:`Solution`:

- :func:`steady_solve_3wsgd` solves the time-independent problem
  ``-(left derivative of order alpha) u = s`` with the third-order
  three-shift operator and Dirichlet end values folded in through the
  stencil's boundary columns.
- :func:`cn_wsgd_run` integrates the time-dependent diffusion problem, with
  constant or variable diffusivities, using second-order shifted weights in
  space and a theta-weighted two-level scheme in time (theta = 1/2 is the
  trapezoidal scheme used for all reference tables).  It is
  :func:`cn_stepper`, whose ``step(U, t_n)`` is the contract of the 2D
  splittings too, stepped by :func:`march`, the one time loop of every run.

The steady solve factors its system once by dense partial-pivoting LU.
The time stepper sets up its two step matrices once per run and then makes
one right-hand-side product and one solve per step, with one of two
backends chosen from the input alone:

- dense LU (the default, and the oracle): both matrices assembled densely,
  the left one factored once with partial pivoting;
- Gohberg–Semencul, for constant diffusivities, ``theta >= 0`` and
  ``N >= 384``: both matrices are then Toeplitz, and the left one, whose
  symmetric part is positive definite, is inverted through two Levinson
  solves and its Gohberg–Semencul formula, so a step is eight real FFTs
  instead of two O(N^2) dense passes (Gohberg & Semencul 1972; Wang, Wang
  & Sircar, J. Comput. Phys. 229 (2010) 8095).

Error-norm conventions (matching the reference convergence tables): the
maximum norm is tracked as a running maximum over *all* time levels, while
the grid-weighted L2 norm is evaluated at the final time only.  Solutions
carry both a running and a final-time maximum error so reports can choose
either convention explicitly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from . import weights as wt
from .errors import ParameterError, SolverError
from .operators import assemble_wsgd_matrix, boundary_columns
from .problems import Problem1D, l2_norm, max_norm

__all__ = [
    "SolverConfig1D",
    "Solution",
    "steady_solve_3wsgd",
    "assemble_cn_system",
    "cn_wsgd_run",
]

#: How the source term is sampled on each time slab: trapezoidal average of
#: the endpoint values, or the midpoint value.
SOURCE_SAMPLING = ("average", "midpoint")

#: Smallest N at which a constant-coefficient run steps with the
#: Gohberg–Semencul inverse: the measured crossover with dense LU lies
#: between N=256 and N=512 on a 2-vCPU x86-64 machine.
_GS_MIN_N = 384

#: ``(rhs_product, solve)`` of a set-up time-stepping system: ``rhs_product(U)``
#: applies the explicit matrix, ``solve(rhs)`` the inverse of the implicit one.
Steps = tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]

#: One time step ``step(U, t_n) -> U_next`` of a set-up scheme, 1D or 2D.
Stepper = Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class SolverConfig1D:
    """Resolution and scheme selection for a 1D time-dependent run."""

    N: int
    M: int
    theta: float = 0.5
    scheme: str = wt.P1Q0
    T: float = 1.0
    source_sampling: str = "average"

    def __post_init__(self) -> None:
        if int(self.N) != self.N or self.N < 4:
            raise ParameterError(f"need at least N=4 spatial intervals, got {self.N}")
        if int(self.M) != self.M or self.M < 1:
            raise ParameterError(f"need at least M=1 time steps, got {self.M}")
        if self.scheme not in wt.PAIR_SCHEMES:
            raise ParameterError(
                f"unsupported scheme {self.scheme!r} for the time stepper;"
                f" expected one of {wt.PAIR_SCHEMES!r}"
            )
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ParameterError(f"final time must be positive and finite, got {self.T}")
        if self.source_sampling not in SOURCE_SAMPLING:
            raise ParameterError(
                f"unknown source sampling {self.source_sampling!r};"
                f" expected one of {SOURCE_SAMPLING!r}"
            )
        if not np.isfinite(self.theta):
            raise ParameterError(f"theta must be finite, got {self.theta}")
        if not 0.5 <= self.theta <= 1.0:
            warnings.warn(
                f"theta={self.theta} lies outside the proven stability window"
                " [1/2, 1]; the run proceeds without stability guarantees",
                stacklevel=3,
            )

    @property
    def tau(self) -> float:
        return self.T / self.M


@dataclass
class Solution:
    """Result of a 1D or 2D solve: final-time grid values plus error diagnostics.

    ``values`` holds every node including the boundary entries at the final
    time, on ``x`` in 1D and on ``x`` by ``y`` in 2D (steady solves report
    their single level with ``t_final=None``).  When the problem has a known
    exact solution, ``max_err_final``/``l2_err_final`` are measured at the
    final time and, in 1D, ``max_err_running`` is the maximum-norm error
    maximized over every time level, all over interior nodes.
    ``norm_history`` records the discrete L2 norm of the interior solution
    at each time level.
    """

    x: np.ndarray
    values: np.ndarray
    problem_name: str
    t_final: Optional[float]
    config: Optional[object] = None
    y: Optional[np.ndarray] = None
    max_err_running: Optional[float] = None
    max_err_final: Optional[float] = None
    l2_err_final: Optional[float] = None
    norm_history: Optional[np.ndarray] = None


def _grid(problem: Problem1D, N: int):
    h = (problem.b - problem.a) / N
    x = problem.a + h * np.arange(N + 1)
    return h, x, x[1:N]


def lu_solver(matrix: np.ndarray, context: str) -> Callable[[np.ndarray], np.ndarray]:
    """Factor ``matrix`` once by partial-pivoting LU; return ``solve(rhs)``.

    ``solve`` takes one right-hand side or a block of columns.  Both LAPACK
    calls go through this module's ``lapack``, so the 1D and 2D solvers
    share one factor/solve path.
    """
    lu, piv, info = lapack.dgetrf(matrix)
    if info > 0:
        raise SolverError(f"{context}: singular system (zero pivot at index {info})")
    if info < 0:  # pragma: no cover - illegal argument, not reachable via API
        raise SolverError(f"{context}: factorization rejected argument {-info}")

    def solve(rhs: np.ndarray) -> np.ndarray:
        out, code = lapack.dgetrs(lu, piv, rhs)
        if code != 0:  # pragma: no cover - dgetrs only fails on bad arguments
            raise SolverError(f"{context}: triangular solve failed (code {code})")
        return out

    return solve


def steady_solve_3wsgd(problem: Problem1D, N: int) -> Solution:
    """Solve the steady problem with the third-order three-shift operator.

    Discretizes ``-(left derivative of order alpha) u = source`` on ``N``
    intervals, moving the known end values to the right-hand side through
    the stencil's boundary columns, and solves the dense interior system by
    partial-pivoting LU.
    """
    if not problem.steady:
        raise ParameterError("steady_solve_3wsgd expects a problem built with steady=True")
    if not 1.0 < problem.alpha < 2.0:
        raise ParameterError(
            f"the steady solver covers orders strictly between 1 and 2, got {problem.alpha}"
        )
    if int(N) != N or N < 4:
        raise ParameterError(f"need at least N=4 intervals, got {N}")
    N = int(N)
    h, x, xi = _grid(problem, N)
    n = N - 1
    G = assemble_wsgd_matrix(problem.alpha, wt.PQR, n).to_dense()
    col_left, _, col_right, _ = boundary_columns(problem.alpha, wt.PQR, n)
    ua = float(problem.left_boundary(0.0))
    ub = float(problem.right_boundary(0.0))
    s = np.asarray(problem.source(xi, 0.0), dtype=float)
    rhs = -(h**problem.alpha) * s - col_left * ua - col_right * ub
    u_int = lu_solver(G, "steady solve")(rhs)
    values = np.concatenate(([ua], u_int, [ub]))
    sol = Solution(x=x, values=values, problem_name=problem.name, t_final=None)
    if problem.exact is not None:
        e = u_int - np.asarray(problem.exact(xi, 0.0), dtype=float)
        sol.max_err_final = max_norm(e)
        sol.max_err_running = sol.max_err_final
        sol.l2_err_final = l2_norm(e, h)
    return sol


def assemble_cn_system(problem: Problem1D, config: SolverConfig1D):
    """Assemble the two time-stepping matrices ``(I - theta*B, I + (1-theta)*B)``.

    ``B`` scales the spatial operator by ``tau / h**alpha`` and weights the
    left/right-sided stencils row-wise by the diffusivities, which covers
    the constant-coefficient case (rows all weighted alike) and the
    variable-coefficient case through one code path.
    """
    h, _, xi = _grid(problem, config.N)
    n = config.N - 1
    A = assemble_wsgd_matrix(problem.alpha, config.scheme, n).to_dense()
    dl, dr = problem.diffusivity_values(xi)
    B = (config.tau / h**problem.alpha) * (dl[:, None] * A + dr[:, None] * A.T)
    eye = np.eye(n)
    return eye - config.theta * B, eye + (1.0 - config.theta) * B


def _dense_steps(problem: Problem1D, config: SolverConfig1D) -> Steps:
    """Both step matrices dense, the left one LU-factored once."""
    lhs, rhs_matrix = assemble_cn_system(problem, config)
    return (lambda U: rhs_matrix @ U), lu_solver(lhs, "time step")


def _gs_steps(problem: Problem1D, config: SolverConfig1D) -> Steps:
    """Both step matrices as Toeplitz spectra; constant diffusivities, ``theta >= 0``.

    With ``x = L^-1 e_1`` and ``y = L^-1 e_n`` from two Levinson solves, the
    Gohberg–Semencul formula writes the inverse of the left matrix as
    ``(low(x) up(Jy) - low(Zy) up(ZJx)) / x_0``, where ``low``/``up`` are
    the lower/upper triangular Toeplitz matrices with the given first
    column/row, ``J`` reverses and ``Z`` shifts down by one.  The spectra of
    the four generators and of the right-hand-side matrix's circulant
    embedding are cached at one power-of-two length ``>= 2n - 1``, so a
    solve is six real FFTs and a product two.  The symmetric part of ``L``
    is positive definite, so every leading minor is nonsingular and
    ``x_0 > 0``.
    """
    h, _, _ = _grid(problem, config.N)
    n = config.N - 1
    theta = config.theta
    A = assemble_wsgd_matrix(problem.alpha, config.scheme, n)
    kl, kr = float(problem.left_diffusivity), float(problem.right_diffusivity)
    scale = config.tau / h**problem.alpha
    b_col = scale * (kl * A.first_col + kr * A.first_row)
    b_row = scale * (kl * A.first_row + kr * A.first_col)
    unit = np.zeros(n)
    unit[0] = 1.0
    ends = np.zeros((n, 2))
    ends[0, 0] = ends[-1, 1] = 1.0
    try:
        xy = scipy.linalg.solve_toeplitz((unit - theta * b_col, unit - theta * b_row), ends)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - definite, see above
        raise SolverError(f"time step: Levinson solve failed ({exc})") from None
    x, y = xy[:, 0], xy[:, 1]

    size = 1 << (2 * n - 2).bit_length()
    rfft, irfft = np.fft.rfft, np.fft.irfft
    upper = rfft(np.stack((y[::-1], np.concatenate(([0.0], x[:0:-1])))), size)
    lower = rfft(np.stack((x, -np.concatenate(([0.0], y[:-1])))) / x[0], size)
    embedding = np.zeros(size)
    embedding[:n] = unit + (1.0 - theta) * b_col
    embedding[size - n + 1 :] = (1.0 - theta) * b_row[:0:-1]
    rhs_spectrum = rfft(embedding)

    def rhs_product(U: np.ndarray) -> np.ndarray:
        return irfft(rfft(U, size) * rhs_spectrum, size)[:n]

    def solve(rhs: np.ndarray) -> np.ndarray:
        up = irfft(rfft(rhs[::-1], size) * upper, size)[:, n - 1 :: -1]
        return irfft((rfft(up, size) * lower).sum(axis=0), size)[:n]

    return rhs_product, solve


def _cn_steps(problem: Problem1D, config: SolverConfig1D) -> Steps:
    """Set up the step system once, Gohberg–Semencul where it applies and pays."""
    if (
        not problem.has_variable_coefficients
        and config.theta >= 0.0
        and config.N >= _GS_MIN_N
    ):
        return _gs_steps(problem, config)
    return _dense_steps(problem, config)


def march(
    step: Stepper,
    U: np.ndarray,
    config,
    norm: Callable[[np.ndarray], float],
    exact: Optional[Callable[[float], np.ndarray]] = None,
) -> tuple[np.ndarray, np.ndarray, Optional[float]]:
    """Step ``U`` from ``t = 0`` through the ``config.M`` steps of a 1D or 2D run.

    Returns the final state, ``norm`` at every time level and, given the
    exact interior values ``exact(t)``, the maximum-norm error maximized
    over every level (else ``None``).  A non-finite norm is a
    :class:`SolverError`.
    """
    norm_history = np.empty(config.M + 1)
    norm_history[0] = norm(U)
    running_max = None if exact is None else max_norm(U - exact(0.0))
    for n in range(config.M):
        U = step(U, n * config.tau)
        t_next = (n + 1) * config.tau
        norm_history[n + 1] = norm(U)
        if not np.isfinite(norm_history[n + 1]):
            raise SolverError(f"non-finite solution at step {n + 1} (t={t_next!r})")
        if exact is not None:
            running_max = max(running_max, max_norm(U - exact(t_next)))
    return U, norm_history, running_max


def cn_stepper(problem: Problem1D, config: SolverConfig1D) -> Stepper:
    """Set up the theta-weighted scheme once; return its ``step(U, t_n)``.

    Each step solves ``(I - theta*B) U_next = (I + (1-theta)*B) U + tau*F +
    boundary terms`` with the system set up once by :func:`_cn_steps`.
    With ``"average"`` sampling a slab's right-end source value is kept and
    reused as the left-end value of the next call that starts at that time.
    """
    if problem.steady:
        raise ParameterError("time stepping expects a time-dependent problem")
    h, _, xi = _grid(problem, config.N)
    n = config.N - 1
    tau = config.tau
    theta = config.theta
    rhs_product, solve = _cn_steps(problem, config)

    # Known-end-value coefficient columns, diffusivity-weighted per row.
    left_u0, right_u0, left_uN, right_uN = boundary_columns(
        problem.alpha, config.scheme, n
    )
    dl, dr = problem.diffusivity_values(xi)
    col_a = dl * left_u0 + dr * right_u0
    col_b = dl * left_uN + dr * right_uN
    scale = tau / h**problem.alpha

    average = config.source_sampling == "average"
    t_end, f_end = None, None

    def step(U: np.ndarray, t_n: float) -> np.ndarray:
        nonlocal t_end, f_end
        t_next = t_n + tau
        if average:
            f_now = f_end if t_n == t_end else np.asarray(problem.source(xi, t_n), dtype=float)
            t_end, f_end = t_next, np.asarray(problem.source(xi, t_next), dtype=float)
            fv = 0.5 * (f_now + f_end)
        else:
            fv = np.asarray(problem.source(xi, t_n + 0.5 * tau), dtype=float)
        ga_now = float(problem.left_boundary(t_n))
        ga_next = float(problem.left_boundary(t_next))
        gb_now = float(problem.right_boundary(t_n))
        gb_next = float(problem.right_boundary(t_next))
        bvec = scale * (
            col_a * (theta * ga_next + (1.0 - theta) * ga_now)
            + col_b * (theta * gb_next + (1.0 - theta) * gb_now)
        )
        return solve(rhs_product(U) + tau * fv + bvec)

    return step


def cn_wsgd_run(problem: Problem1D, config: SolverConfig1D) -> Solution:
    """Integrate a (constant- or variable-coefficient) 1D problem in time."""
    step = cn_stepper(problem, config)
    h, x, xi = _grid(problem, config.N)
    U = np.empty(config.N - 1)
    U[:] = problem.initial(xi)  # accepts per-node arrays or a constant
    exact = None if problem.exact is None else partial(problem.exact, xi)
    U, norm_history, running_max = march(step, U, config, lambda V: l2_norm(V, h), exact)
    t_final = config.M * config.tau
    values = np.empty(config.N + 1)
    values[1:-1] = U
    values[0], values[-1] = problem.left_boundary(t_final), problem.right_boundary(t_final)
    sol = Solution(
        x=x,
        values=values,
        problem_name=problem.name,
        t_final=t_final,
        config=config,
        max_err_running=running_max,
        norm_history=norm_history,
    )
    if exact is not None:
        e = U - exact(t_final)
        sol.max_err_final = max_norm(e)
        sol.l2_err_final = l2_norm(e, h)
    return sol
