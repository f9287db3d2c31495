"""One-dimensional solvers, and the time loop that every 1D and 2D run shares.

Two entry points cover the 1D catalog, and both return a :class:`Solution`:

- :func:`steady_solve_3wsgd` solves the time-independent problem
  ``-(left derivative of order alpha) u = s`` with the third-order
  three-shift operator and Dirichlet end values folded in through the
  stencil's boundary columns.
- :func:`cn_wsgd_run` integrates the time-dependent diffusion problem, with
  constant or variable diffusivities, using second-order shifted weights in
  space and a theta-weighted two-level scheme in time (theta = 1/2 is the
  trapezoidal scheme used for all reference tables).  It sets the scheme
  up once (:func:`_cn_setup`), through the factory of its backend, which
  returns the backend's step and its :data:`Basis` ``(into, back)``, and
  iterates the block stepper ``steps(U, k)``, which yields the levels
  ``k+1 ... M`` a block at a time, by :func:`march`, the one time loop of
  every 1D and 2D run.

The steady solve is one dense partial-pivoting LU solve.  The time
stepper sets up its two step matrices ``L = I - theta*B`` (implicit) and
``R = I + (1-theta)*B`` (explicit) once per run.  Both are polynomials in
``B``, so ``theta R = I - (1-theta) L`` and each backend steps in that
Cayley form.  :func:`_backend` picks it from the input alone, and the
:class:`Solution` names it:

- ``"dense"`` (the default, and the oracle): ``C = L^-1 R`` formed by one
  solve, so ``L^-1 = theta C + (1-theta) I`` and a step ``U_next = C (U +
  theta v) + (1-theta) v`` is one matrix-vector product, exact for every
  ``theta``.  ``"dense-halves"`` is that step when the sampled
  diffusivities mirror each other, as in the paper's two-sided examples:
  ``L`` and ``R`` are centrosymmetric, and the run steps in their even/odd
  basis, two half-order blocks of each from the top ``ceil(n/2)`` stencil
  rows, one half-order solve for each block of ``C`` (:func:`_cayley`, of
  which the grid is the one-block case), and two half-order products a step;
- ``"gs"``, Gohberg–Semencul, for constant diffusivities, ``theta >= 1/2``
  and ``N >= 384``, or ``N >= 768`` when they mirror each other: ``L`` is
  then Toeplitz, and, with its symmetric part positive definite, is
  inverted through one Levinson recursion and its Gohberg–Semencul
  formula (Gohberg & Semencul 1972; Wang, Wang & Sircar, J. Comput.
  Phys. 229 (2010) 8095).  ``L^-1 R = (L^-1 - (1-theta) I) /
  theta``, so a step is one such solve, six real FFTs, plus an axpy
  instead of O(N^2) dense work.  Below ``theta = 1/2`` that form's
  rounding grows like ``eps/theta`` a step, so those runs step densely,
  and a run with ``theta < 1/2`` and ``N > 8192`` meets the dense cap.

Everything a step needs besides ``U`` is known before the run starts, so a
run, 1D or 2D, steps a block of ``B`` levels a pass, with ``B*n <= 2**15``
on ``n`` unknowns a state (:func:`_blocks`).  A 1D run reads its boundary
data once per level, and a :class:`~wsgdiff.problems.SeparableSource` source
once a run, each factor in one call.  It samples any other source (and, for
the running error, the exact solution) for a block in one call on the
broadcast axes ``x[None, :]``, ``t[:, None]``, one row a level; the block's
states, written into one ``(B, n)`` buffer, get their norms and running
error in one reduction each.  Every
grid callable is read through :func:`~wsgdiff.problems.on_grid`.  All linear
algebra is numpy's.

Error-norm conventions (matching the reference convergence tables): the
maximum norm is tracked as a running maximum over *all* time levels, while
the grid-weighted L2 norm is evaluated at the final time only.  Solutions
carry both a running and a final-time maximum error so reports can choose
either convention explicitly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from numbers import Integral
from typing import Callable, Iterator, Optional

import numpy as np

from . import weights as wt
from .errors import ParameterError, SolverError, count_at_least, real_number
from .operators import _MirrorHalves, assemble_wsgd_matrix, boundary_columns
from .problems import Problem1D, SeparableSource, _factors, l2_norm, max_norm, on_grid

__all__ = [
    "SolverConfig1D",
    "Solution",
    "steady_solve_3wsgd",
    "cn_wsgd_run",
]

#: How the source term is sampled on each time slab: trapezoidal average of
#: the endpoint values, or the midpoint value.
SOURCE_SAMPLING = ("average", "midpoint")

#: Smallest N at which a constant-coefficient run steps with the
#: Gohberg–Semencul inverse: the measured crossover with dense LU lies
#: between N=256 and N=512 on a 2-vCPU x86-64 machine.  Mirrored
#: diffusivities take it from twice that, since their dense step on the
#: even/odd halves does half the work; the two measured at par near N=768.
_GS_MIN_N = 384

#: Float64 entries of one block: a run samples its known terms, steps and
#: reduces ``B = 2**15 // n`` levels at a time on ``n`` interior unknowns a
#: state (256 KiB an array), at most ``M``.  Blocks of 1 MiB raised the peak
#: RSS of a run of the paper's small tables by 8%.
_BLOCK_ENTRIES = 2**15

#: ``advance(U, terms)`` of a set-up time-stepping system: the states stepped
#: from ``U`` through the slabs whose known right-hand-side terms ``v =
#: tau*F + boundary terms`` are the rows of the array ``terms``, as the rows
#: of one C-ordered buffer of its shape, all in the backend's :data:`Basis`.
Advance = Callable[[np.ndarray, np.ndarray], np.ndarray]

#: ``(into, back)``: the change of basis a backend steps in, ``into(v)``
#: mapping grid vectors on the last axis of ``v`` to the backend's states and
#: ``back(states)`` mapping a block of those states to C-ordered grid rows.
Basis = tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]

#: The grid, the :data:`Basis` of every backend but the mirrored dense one.
_GRID: Basis = (lambda v: v,) * 2

#: ``steps(U, k)`` of a set-up scheme: a generator of the states of the levels
#: ``k+1 ... M`` stepped from ``U`` at level ``k``, as the rows of read-only
#: C-ordered ``(count, *U.shape)`` blocks of :func:`_blocks`.  Each call owns
#: what it carries from step to step.
BlockStepper = Callable[[np.ndarray, int], Iterator[np.ndarray]]


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
        for name, least, what in (("N", 4, "spatial intervals"), ("M", 1, "time steps")):
            object.__setattr__(self, name, count_at_least(name, getattr(self, name), least, what))
        if self.scheme not in wt.PAIR_SCHEMES:
            raise ParameterError(
                f"unsupported scheme {self.scheme!r} for the time stepper;"
                f" expected one of {wt.PAIR_SCHEMES!r}"
            )
        object.__setattr__(self, "T", real_number("final time T", self.T, positive=True))
        object.__setattr__(self, "theta", real_number("theta", self.theta))
        if self.source_sampling not in SOURCE_SAMPLING:
            raise ParameterError(
                f"unknown source sampling {self.source_sampling!r};"
                f" expected one of {SOURCE_SAMPLING!r}"
            )
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
    at each time level.  ``backend`` names the path the input picked, and no
    option sets it: ``"dense"``, ``"dense-halves"`` or ``"gs"`` in 1D,
    ``"eigen"`` or ``"dense"`` in 2D.
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
    backend: Optional[str] = None


def _grid(problem: Problem1D, N: int):
    h = (problem.b - problem.a) / N
    x = problem.a + h * np.arange(N + 1)
    return h, x, x[1:N]


def solve(matrix: np.ndarray, rhs: np.ndarray, context: str) -> np.ndarray:
    """``matrix^-1 rhs`` by partial-pivoting LU, for one right-hand side or
    a block of columns; a singular ``matrix`` is a :class:`SolverError`.

    Every dense solve of the 1D and 2D solvers goes through here, and each
    factorization serves one call.
    """
    try:
        return np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        raise SolverError(f"{context}: singular system") from None


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
    N = count_at_least("N", N, 4, "intervals")
    h, x, xi = _grid(problem, N)
    n = N - 1
    G = assemble_wsgd_matrix(problem.alpha, wt.PQR, n).to_dense()
    col_left, col_right = boundary_columns(problem.alpha, wt.PQR, n, 1.0, 0.0)
    ua, ub = problem.boundary_values(np.zeros(1))[:, 0]
    s = on_grid(problem, "source", xi, 0.0)
    rhs = -(h**problem.alpha) * s - col_left * ua - col_right * ub
    u_int = solve(G, rhs, "steady solve")
    if not np.isfinite(u_int).all():
        raise SolverError("steady solve: non-finite solution")
    values = np.concatenate(([ua], u_int, [ub]))
    sol = Solution(x=x, values=values, problem_name=problem.name, t_final=None, backend="dense")
    if problem.exact is not None:
        e = u_int - on_grid(problem, "exact", xi, 0.0)
        sol.max_err_final = max_norm(e)
        sol.max_err_running = sol.max_err_final
        sol.l2_err_final = l2_norm(e, h)
    return sol


def _backend(problem: Problem1D, config: SolverConfig1D, dl: np.ndarray, dr: np.ndarray) -> str:
    """The backend a run of ``problem`` steps on, for diffusivities ``dl, dr``
    sampled on the interior nodes; the only place a 1D run picks one.
    ``"gs"`` (:func:`_gs_steps`) takes constant diffusivities, ``theta >=
    1/2`` and ``N >= _GS_MIN_N``, or twice that when ``dl, dr`` mirror each
    other exactly, ``dl = J dr``, so that every step matrix is
    centrosymmetric; any other run steps densely, on the even/odd halves when
    mirrored (``"dense-halves"``), else on the grid (``"dense"``)."""
    mirrored = np.array_equal(dl, dr[::-1])
    if (
        not problem.has_variable_coefficients
        and config.theta >= 0.5
        and config.N >= _GS_MIN_N * (2 if mirrored else 1)
    ):
        return "gs"
    return "dense-halves" if mirrored else "dense"


def _cayley(blocks: np.ndarray, theta: float, context: str) -> np.ndarray:
    """Turn each ``(p, p)`` block ``B`` of the stack ``blocks`` into ``C = (I
    - theta B)^-1 (I + (1-theta) B)`` in place, by one :func:`solve` a block,
    holding its ``R = I + (1-theta) B`` and the solve beside the stack and no
    identity; returns ``blocks``.  Forms both 1D dense steps and both 2D
    Cayley factors, ``Cx`` and ``Cy``."""
    p = blocks.shape[-1]
    for block in blocks:
        rhs_matrix = np.multiply(block, 1.0 - theta)
        block *= -theta
        for matrix in (block, rhs_matrix):
            matrix.reshape(-1)[:: p + 1] += 1.0
        block[...] = solve(block, rhs_matrix, context)
    return blocks


def _dense_steps(
    problem: Problem1D, config: SolverConfig1D, dl: np.ndarray, dr: np.ndarray, mirrored: bool
) -> tuple[Advance, Basis]:
    """The dense Cayley step ``C = L^-1 R`` for sampled diffusivities ``dl,
    dr``, on the grid or, when they mirror each other, on its even/odd halves.

    ``L^-1 = theta C + (1-theta) I``, so a step ``U_next = C U + L^-1 v`` is
    ``C (U + theta v) + (1-theta) v``: one matrix-vector product, and no
    solve after setup.  A block's terms are scaled by ``theta`` and
    ``1-theta`` once, elementwise, so a step is three numpy calls and its
    bits do not depend on the block width.

    Setup reads the top ``p`` rows of ``B`` off the stencils and turns each
    block of ``B`` into its block of ``C`` in place (:func:`_cayley`), so it
    holds no identity and no second stack.  On the grid ``p = n``, and the
    stack is ``B`` alone.  When ``dl, dr`` mirror each other (``mirrored``),
    ``L`` and ``R`` are centrosymmetric, ``p = ceil(n/2)``, and the step runs
    in the even/odd basis of :class:`~wsgdiff.operators._MirrorHalves`: two
    half-order products, the odd block padded with an identity row.  The
    halves never mix, so each steps through a whole block before the other
    starts, and its block of ``C`` stays in cache.
    """
    h = _grid(problem, config.N)[0]
    n = config.N - 1
    theta = config.theta
    halves = _MirrorHalves(n)
    p = halves.p if mirrored else n
    A = assemble_wsgd_matrix(problem.alpha, config.scheme, n)
    top = np.multiply(dl[:p, None], A.rows(p))
    top += dr[:p, None] * A.T.rows(p)
    c = halves.blocks(top) if mirrored else top[None]
    del top
    c *= config.tau / h**problem.alpha
    _cayley(c, theta, "time step")
    basis, parts = _GRID, ((c[0], ...),)
    if mirrored:
        # states and terms as (2, p, 1) columns, stepped one half at a time
        basis = (lambda v: halves.split(v)[..., None], lambda s: halves.join(s[..., 0]))
        parts = ((c[0], 0), (c[1], 1))

    def advance(U: np.ndarray, terms: np.ndarray) -> np.ndarray:
        lifted = np.multiply(terms, theta, order="C")
        kept = np.multiply(terms, 1.0 - theta, order="C")
        out = np.empty(terms.shape)
        for matrix, part in parts:
            u = U[part]
            for row, up, rest in zip(out[:, part], lifted[:, part], kept[:, part]):
                u = np.add(np.matmul(matrix, np.add(up, u, out=up), out=row), rest, out=row)
        return out

    return advance, basis


def _levinson_ends(col: np.ndarray, row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``x = T^-1 e_1`` and ``y = T^-1 e_n`` of the Toeplitz matrix ``T`` with
    first column ``col`` and first row ``row``, by the Levinson recursion.

    At order ``m`` the two rows of one ``(2, n)`` array hold the forward
    vector ``f`` (``T_m f = e_1``) and the reversed backward vector ``b``
    (``T_m b = e_m``), so both inner products, ``eps``, are one product and
    one pairwise sum, and both updates ``([f; 0] - eps_f [0; b]) / d`` and
    ``([0; b] - eps_b [f; 0]) / d`` are one array expression, where ``d = 1
    - eps_f eps_b`` is the order's pivot.  When ``col`` equals ``row`` (a
    symmetric ``T``, as equal diffusivities give) the two rows are bitwise
    equal at every order, so the recursion carries ``f`` alone and ``y`` is
    ``x`` reversed.  A vanishing pivot, the sign of a singular leading
    minor, is a :class:`SolverError`.
    """
    n = col.size
    gen = col[None] if np.array_equal(col, row) else np.stack((col, row))
    w = np.zeros(gen.shape)
    if col[0] == 0.0:
        raise SolverError("time step: Levinson recursion broke down at order 1")
    w[:, 0] = 1.0 / col[0]
    for m in range(1, n):
        eps = (gen[:, m:0:-1] * w[:, :m]).sum(axis=1)
        d = 1.0 - eps[0] * eps[-1]
        if d == 0.0:
            raise SolverError(f"time step: Levinson recursion broke down at order {m + 1}")
        head = w[:, : m + 1]
        head -= eps[:, None] * w[::-1, m::-1]
        head /= d
    return w[0], w[-1, ::-1]


def _gs_steps(problem: Problem1D, config: SolverConfig1D) -> tuple[Advance, Basis]:
    """The Gohberg–Semencul step for constant diffusivities, on the grid.

    With ``x = L^-1 e_1`` and ``y = L^-1 e_n`` from one Levinson recursion,
    the Gohberg–Semencul formula writes the inverse of the left matrix as
    ``(low(x) up(Jy) - low(Zy) up(ZJx)) / x_0``, where ``low``/``up`` are
    the lower/upper triangular Toeplitz matrices with the given first
    column/row, ``J`` reverses and ``Z`` shifts down by one.  The spectra of
    the four generators are cached at one power-of-two length ``>= 2n - 1``,
    so a solve is six real FFTs.  For ``theta >= 0`` the symmetric part of
    ``L`` is positive definite, so every leading minor is nonsingular and
    ``x_0 > 0``.

    The right matrix is never formed: ``theta R = I - (1-theta) L``, so a
    step is ``U_next = L^-1 (U/theta + v) - ((1-theta)/theta) U``, one solve
    and an axpy.  Its rounding grows like ``(2-theta)/theta`` units of ``eps
    |U|`` a step, 3 at ``theta = 1/2``, so :func:`_backend` picks it only
    inside the stability window ``theta >= 1/2``.  A call of ``advance``
    allocates its work arrays once, and each step writes its elementwise
    passes into them through ``out=``; numpy's FFTs take ``out=`` only from
    numpy 2.0, so the transforms still return their own arrays.
    """
    h, _, _ = _grid(problem, config.N)
    n = config.N - 1
    theta = config.theta
    A = assemble_wsgd_matrix(problem.alpha, config.scheme, n)
    kl, kr = problem.left_diffusivity, problem.right_diffusivity
    scale = config.tau / h**problem.alpha
    b_col = scale * (kl * A.first_col + kr * A.first_row)
    b_row = scale * (kl * A.first_row + kr * A.first_col)
    unit = np.zeros(n)
    unit[0] = 1.0
    x, y = _levinson_ends(unit - theta * b_col, unit - theta * b_row)

    size = 1 << (2 * n - 2).bit_length()  # the least power of two >= 2n - 1
    rfft, irfft = np.fft.rfft, np.fft.irfft
    upper = rfft(np.stack((y[::-1], np.concatenate(([0.0], x[:0:-1])))), size)
    lower = rfft(np.stack((x, -np.concatenate(([0.0], y[:-1])))) / x[0], size)

    inv, ratio = 1.0 / theta, (1.0 - theta) / theta

    def advance(U: np.ndarray, terms: np.ndarray) -> np.ndarray:
        out = np.empty(terms.shape)
        rhs, kept = np.empty((2, n))
        spectra = np.empty(upper.shape, upper.dtype)
        for row, v in zip(out, terms):
            np.add(np.multiply(U, inv, out=rhs), v, out=rhs)
            # L^-1 rhs: both upper factors, then both lower ones, summed
            np.multiply(rfft(rhs[::-1], size), upper, out=spectra)
            low = rfft(irfft(spectra, size)[:, n - 1 :: -1], size)
            low *= lower
            solved = irfft(np.add(low[0], low[1], out=spectra[0]), size)[:n]
            U = np.subtract(solved, np.multiply(U, ratio, out=kept), out=row)
        return out

    return advance, _GRID


def _blocks(k: int, M: int, entries: int) -> Iterator[tuple[int, int]]:
    """``(start, count)`` of each block of the levels ``k+1 ... M`` of states of
    ``entries`` floats each, ``count*entries <= _BLOCK_ENTRIES`` or one level;
    a start outside ``0 <= k < M`` is a :class:`ParameterError`, at the call."""
    if not (isinstance(k, Integral) and 0 <= k < M):
        raise ParameterError(f"a run of levels 0 ... {M} cannot step from level {k!r}")
    width = max(1, _BLOCK_ENTRIES // entries)
    return ((start, min(width, M - start)) for start in range(k, M, width))


def march(
    steps: BlockStepper,
    initial: Callable[[], np.ndarray],
    config,
    norm: Callable[[np.ndarray], np.ndarray],
    exact: Optional[Callable[[int, int], np.ndarray]] = None,
) -> tuple[np.ndarray, np.ndarray, Optional[float], Optional[np.ndarray]]:
    """Step the state ``initial()`` from ``t = 0`` through the ``config.M``
    steps of a 1D or 2D run, one block of ``steps(U, 0)`` at a time; the loop
    holds the only reference to that first state, so it is freed once the
    first block returns, and each block once the next block returns.

    ``norm`` maps a ``(count, *U.shape)`` block of states to their
    ``count`` norms, and ``exact(k, count)``, if given, gives the exact
    interior values of the levels ``k ... k+count-1`` in the same layout.
    Both reduce a block at once, and level 0 as a block of one.  Returns
    the final state, the norm at every level and, given ``exact``, the
    maximum-norm error maximized over every level and the error at the
    final level (else ``None`` twice).  A non-finite norm, level 0's
    included, is a :class:`SolverError` naming the first such step.
    """
    norm_history = np.empty(config.M + 1)
    running_max = None

    def reduce(levels: np.ndarray, k: int) -> Optional[np.ndarray]:
        """Norms and running error of the levels ``k ... k+len(levels)-1``;
        returns their exact values, if any."""
        nonlocal running_max
        expected = None if exact is None else exact(k, len(levels))
        # a blow-up overflows here; it is reported below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            norm_history[k : k + len(levels)] = norm(levels)
            if exact is not None:
                # a NaN level's error stays NaN, whatever block it falls in
                running_max = float(np.max(np.abs(levels - expected), initial=running_max))
        finite = np.isfinite(norm_history[k : k + len(levels)])
        if not finite.all():
            n = k + int(np.argmin(finite))
            raise SolverError(f"non-finite solution at step {n} (t={n * config.tau!r})")
        return expected

    levels = initial()[None]
    expected = reduce(levels, 0)
    k = 1
    for levels in steps(levels[-1], 0):
        expected = reduce(levels, k)
        k += len(levels)
    error = None if exact is None else levels[-1] - expected[-1]
    return levels[-1], norm_history, running_max, error


def _cn_setup(problem: Problem1D, config: SolverConfig1D) -> tuple[BlockStepper, np.ndarray, str]:
    """Set up the theta-weighted scheme once; return its ``steps(U, k)``, the
    checked Dirichlet data of the final level, left end then right end, and
    the name of its backend.

    Each step solves ``(I - theta*B) U_next = (I + (1-theta)*B) U + tau*F +
    boundary terms`` with the system set up once by the factory of the
    :func:`_backend` it names, :func:`_gs_steps` or :func:`_dense_steps`.
    The boundary data are read once per level ``k*tau``, at setup, and
    checked there (:meth:`~wsgdiff.problems.Problem1D.boundary_values`); an
    end's boundary column enters the known terms only if its data are
    nonzero at some level.  A :class:`~wsgdiff.problems.SeparableSource`
    source is read once too, at setup: ``time`` on the ``M + 1`` level
    times ``k*tau`` (``"average"``) or the ``M`` midpoints ``k*tau + tau/2``
    (``"midpoint"``), giving ``s``, and ``space`` on ``xi[None, :]``,
    giving ``S``.  A block of ``count`` steps from level ``k`` forms its
    known terms ``tau*F + boundary terms`` at once, its source as
    ``s[k:k+count+1, None] * S`` (``count`` rows at midpoints), which
    rounds as ``time(t) * space(x)`` does, or, for any other source, from
    one call at the block's levels or midpoints, and hands them to the
    backend's ``advance`` in its basis.  A call of
    ``steps`` moves ``U`` into that basis once and carries the backend's
    state from block to block; each block returns to the grid once, as the
    rows of the yielded block.  The steps run under ``np.errstate``, so a
    blow-up is left to :func:`march` to name; the sampling runs outside it,
    so a problem callable's own warnings still show.
    """
    if problem.steady:
        raise ParameterError("time stepping expects a time-dependent problem")
    h, _, xi = _grid(problem, config.N)
    n = config.N - 1
    tau = config.tau
    theta = config.theta
    dl, dr = problem.diffusivity_values(xi)
    backend = _backend(problem, config, dl, dr)
    if backend == "gs":
        advance, (into, back) = _gs_steps(problem, config)
    else:
        advance, (into, back) = _dense_steps(problem, config, dl, dr, backend == "dense-halves")
    scale = tau / h**problem.alpha
    average = config.source_sampling == "average"
    levels = tau * np.arange(config.M + 1)
    g = problem.boundary_values(levels)
    # each end's data mixed over every slab, kept with the end's column only
    # where the data are nonzero at some level
    mix = theta * g[:, 1:] + (1.0 - theta) * g[:, :-1]
    columns = boundary_columns(problem.alpha, config.scheme, n, dl, dr)
    live = [(m, col) for m, data, col in zip(mix, g, columns) if data.any()]
    separable = isinstance(problem.source, SeparableSource)
    if separable:
        times = levels if average else levels[:-1] + 0.5 * tau
        s, S = _factors(problem.source, times, xi[None, :])

    def block(k: int, count: int) -> np.ndarray:
        """``tau*F`` plus the boundary terms of the ``count`` slabs from level
        ``k``, one row a slab."""
        if separable:
            f = s[k : k + count + 1 if average else k + count, None] * S
        else:
            ends = tau * np.arange(k, k + count + 1)[:, None]
            f = on_grid(problem, "source", xi[None, :], ends if average else ends[:-1] + 0.5 * tau)
        terms = tau * (0.5 * (f[:-1] + f[1:]) if average else f)
        if live:
            terms += scale * reduce(np.add, (m[k : k + count, None] * col for m, col in live))
        return terms

    def steps(U: np.ndarray, k: int) -> Iterator[np.ndarray]:
        blocks = _blocks(k, config.M, n)  # checks k before any read
        with np.errstate(over="ignore", invalid="ignore"):
            U = into(U)
        for start, count in blocks:
            terms = block(start, count)
            with np.errstate(over="ignore", invalid="ignore"):
                states = advance(U, into(terms))
                U = states[-1]
                levels = back(states)
            levels.flags.writeable = False
            yield levels

    return steps, g[:, -1], backend


def cn_wsgd_run(problem: Problem1D, config: SolverConfig1D) -> Solution:
    """Integrate a (constant- or variable-coefficient) 1D problem in time."""
    steps, ends, backend = _cn_setup(problem, config)
    h, x, xi = _grid(problem, config.N)
    initial = lambda: np.array(on_grid(problem, "initial", xi))
    exact = None
    if problem.exact is not None:
        levels = lambda k, count: config.tau * np.arange(k, k + count)[:, None]
        exact = lambda k, count: on_grid(problem, "exact", xi[None, :], levels(k, count))
    norm = lambda V: np.sqrt(h * np.sum(V * V, axis=1))
    U, norm_history, running_max, error = march(steps, initial, config, norm, exact)
    t_final = config.M * config.tau
    values = np.empty(config.N + 1)
    values[1:-1] = U
    values[0], values[-1] = ends
    sol = Solution(
        x=x,
        values=values,
        problem_name=problem.name,
        t_final=t_final,
        config=config,
        max_err_running=running_max,
        norm_history=norm_history,
        backend=backend,
    )
    if error is not None:
        sol.max_err_final = max_norm(error)
        sol.l2_err_final = l2_norm(error, h)
    return sol
