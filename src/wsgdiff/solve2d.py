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

Each splitting is one factory ``stepper(problem, config)`` that checks its
preconditions and does its setup once — the dense directional operators of
:func:`build_directional_operators`, and each direction's half-step
matrices — and returns a block stepper ``steps(U, k)``
of ``solve1d.BlockStepper``'s contract: a generator of the levels ``k+1 ...
M`` stepped from ``U`` at level ``k``, as the rows of read-only C-ordered
``(count, Nx-1, Ny-1)`` blocks; :func:`run_2d` hands it to
``solve1d.march``.  Interior unknowns are stored as C-ordered arrays of
shape ``(Nx-1, Ny-1)`` with the x index on axis 0, so a vectorization with x
varying fastest corresponds to column-major flattening.

With ``a = tau/2``, setup forms both Cayley factors ``Cx = (I - a Dx)^-1
(I + a Dx)`` and ``Cy``, once per run, each in place on ``tau Dx`` or ``tau
Dy`` by one solve in the 1D dense setup ``solve1d._cayley``, with no
identity.  A stepper reads ``(I - a Dy)^-1 = (Cy + I)/2`` off ``Cy``, so a
run makes these two solves and no other.  Each Cayley factor is a
contraction, so these matrices are well conditioned, and a step is then two
matrix products into C-ordered work arrays, allocated by each call of
``steps``, and its row of the block: no triangular solve.  A ``pr`` call of
``steps`` makes one more product, before its first step, to seed the
operand it carries (see :func:`pr_adi_stepper`).  ``lod``'s rank-2
boundary-column terms ride in a product, on two extra columns of one operand
and two extra rows of the other.

Two backends, picked by the problem alone in one function, :func:`_backend`,
and named on the run's ``Solution``: :func:`run_2d` steps in the eigenbasis
of ``Dx`` and ``Dy`` (``"eigen"``) when each axis has equal left and right
diffusivities, so that both operators are exactly symmetric, and the
source is a :class:`~wsgdiff.problems.SeparableSource`, one time factor
times one space function, as in the paper's 2D example; any other problem
steps in the grid basis with the dense
Cayley steppers above (``"dense"``).  In the eigenbasis (the fast
diagonalization method of Lynch, Rice & Thomas, 1964) ``Dx = Qx diag(lam)
Qx^T`` with ``Qx`` orthogonal.  A symmetric Toeplitz combination is also
centrosymmetric, so setup reads each axis's operator as its top
``ceil(n/2)`` rows, off the stencils (:func:`_top_rows`), with no
``n``-by-``n`` operator, and takes two half-order ``eigh`` calls per axis,
one for each of its even and odd halves (Cantoni & Butler, 1976), and
assembles ``Qx`` from their eigenvectors.  The run marches ``Qx^T U Qy``:
the space function is transformed once, so both splittings step in one
elementwise form with no product (:func:`_eigen_stepper`), O(n^2), reading
no callable, and each level's norm needs no transform.  Like every backend, 1D and 2D, the
eigenbasis factory returns its ``(into, back)`` basis beside its stepper,
and :func:`run_2d` maps the initial state through ``into`` and the final
state through ``back``; the dense steppers step on the grid.  A step
multiplier ``(1 + tau/2 lam)/(1 - tau/2 lam)`` of modulus above 1, which a
positive eigenvalue gives against the paper's stability condition unless
it rounds to 1, is a ``SolverError`` at setup.  Grid callables are read through :func:`~wsgdiff.problems.on_grid`,
on the broadcast axes ``x[1:-1, None]``, ``y[None, 1:-1]`` of the interior;
``lod`` reads its source on ``x[1:-1, None]`` and the row ``[ay, y[1:-1],
by]``, the interior and its two y-lines in one call.

Boundary handling: the paper proves its 2D schemes stable for homogeneous
Dirichlet data, and a :class:`~wsgdiff.problems.Problem2D` has no other, so
no run reads data and the frame of a run's ``values`` is zero.  LOD needs
one spacing for both axes.  The source term is sampled at the half-step
midpoint throughout.

Error norms for reference-table reproduction are evaluated at the final
time (both maximum and grid-weighted L2), over interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import weights as wt
from .errors import ParameterError, SolverError, count_at_least, real_number
from .operators import _MirrorHalves, assemble_wsgd_matrix, boundary_columns
from .problems import Problem2D, SeparableSource, _factors, l2_norm, max_norm, on_grid
from .solve1d import _GRID, Basis, BlockStepper, Solution, _blocks, _cayley, march

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
        counts = (("Nx", 4, "intervals"), ("Ny", 4, "intervals"), ("M", 1, "time steps"))
        for name, least, what in counts:
            object.__setattr__(self, name, count_at_least(name, getattr(self, name), least, what))
        if self.scheme not in wt.PAIR_SCHEMES:
            raise ParameterError(
                f"unsupported scheme {self.scheme!r} for the 2D steppers;"
                f" expected one of {wt.PAIR_SCHEMES!r}"
            )
        if self.splitting not in SPLITTINGS:
            raise ParameterError(
                f"unknown splitting {self.splitting!r}; expected one of {SPLITTINGS!r}"
            )
        object.__setattr__(self, "T", real_number("final time T", self.T, positive=True))

    @property
    def tau(self) -> float:
        return self.T / self.M


def _axes(problem: Problem2D, config: SolverConfig2D):
    """Per axis, x then y: its order, interval count, length and left and
    right diffusivities."""
    p = problem
    return (
        (p.alpha, config.Nx, p.bx - p.ax, p.x_left_diffusivity, p.x_right_diffusivity),
        (p.beta, config.Ny, p.by - p.ay, p.y_left_diffusivity, p.y_right_diffusivity),
    )


def build_directional_operators(
    problem: Problem2D, config: SolverConfig2D
) -> tuple[np.ndarray, np.ndarray]:
    """Dense one-dimensional operators for the x and y directions, those of
    the dense Cayley steppers.

    Returns ``(Dx, Dy)`` of orders ``Nx-1`` and ``Ny-1``: each combines the
    left- and right-sided stencil matrices with the direction's
    diffusivities and the ``1/h**order`` scaling.  The full 2D actions are
    ``identity (x) Dx`` and ``Dy (x) identity`` under x-fastest vectorization
    and are applied row-/column-wise rather than materialized.

    An axis with equal diffusivities ``k`` is ``k (A + A^T)/h**order``, the
    stencils summed before scaling: near order 1 ``A + A^T`` vanishes, and
    ``k A + k A^T`` leaves rounding noise there that can move an eigenbasis
    step multiplier a few ulps above 1.  The eigenbasis reads the same
    rule's top rows (:func:`_top_rows`), so both backends run such a
    problem.
    """

    def axis(order, n, length, left, right):
        a = assemble_wsgd_matrix(order, config.scheme, n - 1).to_dense()
        d = left * (a + a.T) if left == right else left * a + right * a.T
        return d / (length / n) ** order

    return tuple(axis(*v) for v in _axes(problem, config))


def _top_rows(problem: Problem2D, config: SolverConfig2D) -> tuple[np.ndarray, np.ndarray]:
    """The top ``p = ceil(n/2)`` rows of each symmetric directional operator
    of order ``n``, x then y: ``k (A.rows(p) + A^T.rows(p))/h**order``, the
    rows :func:`build_directional_operators` forms of an axis with equal
    diffusivities ``k``, read off the stencils with no ``n``-by-``n`` array.
    A centrosymmetric operator's even and odd halves need no more
    (:class:`~wsgdiff.operators._MirrorHalves`)."""

    def axis(order, n, length, k, _):
        a = assemble_wsgd_matrix(order, config.scheme, n - 1)
        p = _MirrorHalves(n - 1).p
        return k * (a.rows(p) + a.T.rows(p)) / (length / n) ** order

    return tuple(axis(*v) for v in _axes(problem, config))


def _grid(problem: Problem2D, config: SolverConfig2D, lod: bool):
    """Spacings, all nodes ``x``, ``y``, interior axes ``X = x[1:-1, None]``,
    ``Y = y[None, 1:-1]`` and the row ``[ay, y[1:-1], by]``: with ``X`` it
    spans the interior and the two y-lines ``y = ay, by`` at the interior
    x-nodes, where ``lod`` reads the source, in one read.  ``lod=True``
    first checks its one precondition, one spacing for both axes, and raises
    ``ParameterError`` otherwise."""
    hx = (problem.bx - problem.ax) / config.Nx
    hy = (problem.by - problem.ay) / config.Ny
    if lod and abs(hx - hy) > 1e-13 * max(hx, hy):
        raise ParameterError(
            f"splitting 'lod' assumes one spacing for both axes; got hx={hx!r}, hy={hy!r}"
        )
    x = problem.ax + hx * np.arange(config.Nx + 1)
    y = problem.ay + hy * np.arange(config.Ny + 1)
    y_row = np.concatenate(([problem.ay], y[1:-1], [problem.by]))[None, :]
    return hx, hy, x, y, x[1:-1, None], y[None, 1:-1], y_row


def _y_columns(problem: Problem2D, config: SolverConfig2D) -> np.ndarray:
    """The y-direction boundary columns ``[cy0, cyN]``, of shape ``(Ny-1, 2)``."""
    hy_beta = ((problem.by - problem.ay) / config.Ny) ** problem.beta
    kl, kr = problem.y_left_diffusivity, problem.y_right_diffusivity
    cols = boundary_columns(problem.beta, config.scheme, config.Ny - 1, kl, kr)
    return np.column_stack(cols) / hy_beta


def _sweeps(problem: Problem2D, config: SolverConfig2D):
    """Setup shared by both dense steppers, with ``a = tau/2``: the
    x-direction Cayley factor ``Cx = (I - a Dx)^-1 (I + a Dx)``, formed in
    place on ``tau Dx`` by ``solve1d._cayley`` at ``theta = 1/2``, since ``a
    Dx`` is ``tau Dx`` halved, exactly; and ``tau Dy``, scaled in place.

    Each stepper turns ``tau Dy`` into ``Cy`` in place the same way, and
    reads the inverse it needs off it: ``(I + a Dy) + (I - a Dy) = 2I``, so
    ``(I - a Dy)^-1 = (Cy + I)/2``."""
    dx, dy = build_directional_operators(problem, config)
    dx *= config.tau
    dy *= config.tau
    return _cayley(dx[None], 0.5, "x-direction")[0], dy


def pr_adi_stepper(problem: Problem2D, config: SolverConfig2D) -> BlockStepper:
    """Set up the two-half-sweep splitting once; return its ``steps(U, k)``.

    Stage 1 solves ``(I - tau/2 dx) V = (I + tau/2 dy) U + tau/2 F`` down
    the x direction; stage 2 solves ``(I - tau/2 dy) U_next =
    (I + tau/2 dx) V + tau/2 F`` across y, with the midpoint source shared
    by both stages.  With ``a = tau/2`` and ``W`` the right side of stage
    1, stage 2's right side is ``W2 = Cx W + a F`` and ``U_next = W2 (I - a
    Dy)^-T``.  This is the stepper of all three names of the factored
    scheme: ``pr``, ``douglas`` and ``dyakonov``.  Accepts unequal spacings.

    Since ``(I + a Dy) = 2I - (I - a Dy)`` and ``W2 = U_next (I - a
    Dy)^T``, ``W/a = 2U/a - W2/a + F`` takes three elementwise passes over
    the ``W2/a`` of the step before, so a step is two products.  Each call
    of ``steps`` seeds ``W2/a = U (I - a Dy)^T / a`` from its ``U`` by one
    product, and carries ``W2/a`` from step to step.

    Setup takes the seed's ``(I - a Dy)^T / a`` off ``tau Dy`` by a diagonal
    add, then turns ``tau Dy`` into ``Cy`` in place and ``Cy`` into ``a (I -
    a Dy)^-T = (a/2)(Cy + I)^T``: no identity and no solve of its own.
    """
    *_, X, Y, _ = _grid(problem, config, lod=False)
    cx, tdy = _sweeps(problem, config)
    nx, ny = config.Nx - 1, config.Ny - 1
    tau = config.tau
    a = 0.5 * tau
    # W2 is carried divided by a, so F joins it unscaled: seed = (I - a Dy)^T / a
    seed = np.multiply(tdy.T, -0.5)
    seed.flat[:: ny + 1] += 1.0
    seed /= a
    # last = a (I - a Dy)^-T = (a/2) (Cy + I)^T
    last = _cayley(tdy[None], 0.5, "y-direction")[0].T
    last.flat[:: ny + 1] += 1.0
    last *= 0.5 * a

    def steps(U: np.ndarray, k: int) -> Iterator[np.ndarray]:
        blocks = _blocks(k, config.M, nx * ny)  # checks k before the seed product
        with np.errstate(over="ignore", invalid="ignore"):
            w2 = np.matmul(U, seed)
        w = np.empty((nx, ny))
        for start, count in blocks:
            out = np.empty((count, nx, ny))
            for j, row in zip(range(start, start + count), out):
                F = on_grid(problem, "source", X, Y, j * tau + a)
                with np.errstate(over="ignore", invalid="ignore"):
                    np.add(np.subtract(np.multiply(U, 2.0 / a, out=w), w2, out=w), F, out=w)
                    np.add(np.matmul(cx, w, out=w2), F, out=w2)
                    U = np.matmul(w2, last, out=row)
            out.flags.writeable = False
            yield out

    return steps


def lod_stepper(problem: Problem2D, config: SolverConfig2D) -> BlockStepper:
    """Set up the fully decoupled splitting once; return its ``steps(U, k)``.

    Stage 1 solves ``(I - tau/2 dx) V = (I + tau/2 dx)(U + tau/2 F)`` down
    x; stage 2 solves ``(I - tau/2 dy) U_next = (I + tau/2 dy) V + tau/2
    (I - tau/2 dy) F`` across y.  The x-sweep inside the source terms uses
    the interior stencil only, while stage 2's y-operator is boundary-aware:
    stage 1 is also applied along the two y-boundary lines (where the
    solution vanishes but the source does not), and those swept lines feed
    the y-direction boundary columns of stage 2.  In Cayley form, with
    ``a = tau/2``, a step is ``V = Cx (U + a F)`` and ``U_next = V Cy^T + a F
    + g_low (x) (I - a Dy)^-1 cy0 + g_high (x) (I - a Dy)^-1 cyN``, where
    ``g = a^2 (Cx f - f)`` on each boundary line: two products, the first
    sweeping the two lines ``f^T`` along with ``U + a F`` and the second
    carrying the ``g`` terms on their two columns.  Setup forms ``Cy`` in
    place on ``tau Dy`` and reads ``(I - a Dy)^-1 [cy0, cyN] = (Cy [cy0, cyN]
    + [cy0, cyN])/2`` off it.  Requires one spacing for both axes.
    """
    *_, X, _, y_row = _grid(problem, config, lod=True)
    cx, tdy = _sweeps(problem, config)
    cols = _y_columns(problem, config)
    cy = _cayley(tdy[None], 0.5, "y-direction")[0]
    # last = [Cy^T; ((I - a Dy)^-1 cols)^T], with (I - a Dy)^-1 = (Cy + I)/2
    last = np.vstack((cy.T, (0.5 * (cy @ cols + cols)).T))
    tau = config.tau
    a = 0.5 * tau
    nx, ny = config.Nx - 1, config.Ny - 1

    def steps(U: np.ndarray, k: int) -> Iterator[np.ndarray]:
        af = np.empty((nx, ny))
        # [U + a F | f^T] swept by Cx into [V | Cx f^T]
        w_aug, v_aug = np.empty((2, nx, ny + 2))
        for start, count in _blocks(k, config.M, nx * ny):
            out = np.empty((count, nx, ny))
            for j, row in zip(range(start, start + count), out):
                # the source on the interior and, in its end columns, the y-lines
                read = on_grid(problem, "source", X, y_row, j * tau + a)
                F, f = read[:, 1:-1], read[:, [0, -1]]
                with np.errstate(over="ignore", invalid="ignore"):
                    np.multiply(F, a, out=af)
                    np.add(U, af, out=w_aug[:, :ny])
                    w_aug[:, ny:] = f
                    np.matmul(cx, w_aug, out=v_aug)
                    g = v_aug[:, ny:]
                    g -= f
                    g *= a * a
                    U = np.add(np.matmul(v_aug, last, out=row), af, out=row)
            out.flags.writeable = False
            yield out

    return steps


def _backend(problem: Problem2D) -> str:
    """The basis :func:`run_2d` steps ``problem`` in, from its structure
    alone: ``"eigen"``, the eigenbasis of ``Dx``, ``Dy``, for equal left and
    right diffusivities on each axis, so that both operators are exactly
    symmetric, and a :class:`SeparableSource`, whose space function the
    basis transforms once a run and whose time factor scales each step;
    ``"dense"``, the splitting's dense Cayley stepper, for any other.  The
    only place a 2D run picks its backend."""
    eigen = (
        problem.x_left_diffusivity == problem.x_right_diffusivity
        and problem.y_left_diffusivity == problem.y_right_diffusivity
        and isinstance(problem.source, SeparableSource)
    )
    return "eigen" if eigen else "dense"


def _spectrum(top: np.ndarray, axis: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthogonal eigenvectors of the symmetric directional
    operator whose top rows are ``top`` (:func:`_top_rows`), one ``eigh``
    for each of its even and odd halves
    (:class:`~wsgdiff.operators._MirrorHalves`): a symmetric Toeplitz
    combination is centrosymmetric.  The eigenvalues come even half first,
    and the eigenvectors are the columns of the returned matrix."""
    n = top.shape[1]
    halves = _MirrorHalves(n)
    m, p = halves.m, halves.p
    blocks = halves.blocks(top)
    try:
        (even, qe), (odd, qo) = np.linalg.eigh(blocks[0]), np.linalg.eigh(blocks[1, :m, :m])
    except np.linalg.LinAlgError:
        raise SolverError(f"{axis}-direction: the eigensolver did not converge") from None
    lam = np.concatenate((even, odd))
    # each eigenvector in the half basis, one a row, back on the grid
    vectors = np.zeros((n, 2, p))
    vectors[:p, 0], vectors[p:, 1, :m] = qe.T, qo.T
    return lam, halves.join(vectors).T


def _eigen_stepper(problem: Problem2D, config: SolverConfig2D) -> tuple[BlockStepper, Basis]:
    """Set up the splitting of ``config`` in the eigenbasis of symmetric
    ``Dx = Qx diag(lam) Qx^T`` and ``Dy = Qy diag(mu) Qy^T``; return
    ``(steps, (into, back))``, ``steps(V, k)`` the block stepper of the state
    ``V = into(U) = Qx^T U Qy`` and ``back(V) = Qx V Qy^T``.  The problem's
    source is a :class:`SeparableSource` (:func:`_backend`).

    With ``a = tau/2`` and ``c = (1 + a lam)/(1 - a lam)`` (``d`` likewise
    from ``mu``), both splittings step ``V <- G o V + H o F^ + E``, with ``G
    = c d^T`` and ``F^`` the source in the basis: the factored scheme has
    ``H = a (c + 1)(1/(1 - a mu))^T`` and ``E = 0``; ``lod`` has ``H = a (G +
    1)`` and the source's swept y-lines ``f`` in ``E = a^2 ((c - 1) o Qx^T f)
    e^T``, with ``e = (Qy^T [cy0, cyN]) / (1 - a mu)``.  The source is
    ``s_j space``, so setup reads the time factor once on every step's
    midpoint time, giving ``s_j``, and the space function once on the
    interior (for ``lod`` on the row ``[ay, y[1:-1], by]`` of :func:`_grid`,
    so also on the y-lines, as a dense ``lod`` step reads), transforms it,
    and fixes ``P = H o F^ + E`` at ``s_j = 1``.  A step is ``V <- G o V +
    s_j P``, three elementwise passes: it reads no problem callable and
    makes no product.

    Some ``|c|`` or ``|d|`` that is not at most 1 (NaN included) would grow
    the state, and is a :class:`SolverError` naming the axis and its largest
    eigenvalue, before either factor is read.  On valid input it is a guard:
    the paper's stability theory makes each symmetric operator negative
    definite for orders in ``(1, 2]``.  Near order 1 the operator vanishes
    and its eigenvalues are rounding noise of either sign, which
    :func:`_top_rows` keeps small by summing the stencils before scaling,
    so that each multiplier rounds to at most 1 and such a problem runs, as
    on the dense steppers.
    """
    lod = config.splitting == "lod"
    *_, X, Y, y_row = _grid(problem, config, lod)
    # the top rows are freed with the map, before the run's arrays are allocated
    (lam, qx), (mu, qy) = map(_spectrum, _top_rows(problem, config), "xy")
    nx, ny, tau = config.Nx - 1, config.Ny - 1, config.tau
    a = 0.5 * tau
    c, d = ((1.0 + a * v) / (1.0 - a * v) for v in (lam, mu))
    for axis, v, gain in (("x", lam, c), ("y", mu, d)):
        if not np.all(np.abs(gain) <= 1.0):
            raise SolverError(
                f"{axis}-direction: the operator is not negative definite; its largest"
                f" eigenvalue is {np.max(v):.6g}"
            )
    G, c = np.outer(c, d), c[:, None]
    # the source's time factor at every step's midpoint, and its space
    # factor on the interior, for lod's y-lines also on y = ay, by
    s, g = _factors(problem.source, tau * np.arange(config.M) + a, X, y_row if lod else Y)
    # a non-finite factor gives a non-finite state, which march reports, so
    # the setup and the steps raise no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        if lod:
            e = (qy.T @ _y_columns(problem, config)) / (1.0 - a * mu)[:, None]
            P = a * (G + 1.0) * (qx.T @ g[:, 1:-1] @ qy)
            P += (a * a * (c - 1.0) * (qx.T @ g[:, [0, -1]])) @ e.T
        else:
            P = a * (c + 1.0) * (qx.T @ g @ qy) / (1.0 - a * mu)

    def steps(V: np.ndarray, k: int) -> Iterator[np.ndarray]:
        w = np.empty((nx, ny))
        for start, count in _blocks(k, config.M, nx * ny):
            out = np.empty((count, nx, ny))
            for j, row in zip(range(start, start + count), out):
                with np.errstate(over="ignore", invalid="ignore"):
                    np.multiply(G, V, out=row)
                    row += np.multiply(P, s[j], out=w)
                    V = row
            out.flags.writeable = False
            yield out

    return steps, (lambda U: qx.T @ U @ qy, lambda V: qx @ V @ qy.T)


def run_2d(problem: Problem2D, config: SolverConfig2D) -> Solution:
    """Integrate a 2D problem from its initial state to the final time.

    A :class:`~wsgdiff.problems.Problem2D` has zero Dirichlet data, so the
    run reads none and the frame of ``values`` is zero; ``lod`` checks its
    one spacing first (:func:`_grid`).  A problem with equal left and right
    diffusivities on each axis and a
    :class:`~wsgdiff.problems.SeparableSource`, ``time(t) space(x, y)``,
    steps in the eigenbasis of
    ``Dx``, ``Dy`` (:func:`_eigen_stepper`), any other on the splitting's
    dense stepper; :func:`_backend` picks which, and the solution's
    ``backend`` names it.  Each backend steps in its
    :data:`~wsgdiff.solve1d.Basis` ``(into, back)``, the grid for the dense
    steppers: the run maps the initial state through ``into`` and the final
    state through ``back``.  The block stepper goes straight to
    :func:`~wsgdiff.solve1d.march`, and yields
    blocks of ``B`` levels with ``B (Nx-1)(Ny-1) <= 2**15``: 8 at ``N = 64``,
    2 at 128 and 1 from 256.  The run drops the stepper once ``march``
    returns, so its factors are freed before ``back`` and the error read.
    Each level's norm is the grid-weighted L2 norm of
    :func:`~wsgdiff.problems.l2_norm`, ``sqrt(hx hy sum U^2)``, taken as one
    dot product of the state with itself (in either basis, since ``Qx`` and
    ``Qy`` are orthogonal), so it makes no squared temporary; a non-finite
    state still gives a non-finite norm.
    """
    lod = config.splitting == "lod"
    hx, hy, x, y, X, Y, _ = _grid(problem, config, lod)
    backend = _backend(problem)
    if backend == "eigen":
        steps, (into, back) = _eigen_stepper(problem, config)
    else:
        steps, (into, back) = (lod_stepper if lod else pr_adi_stepper)(problem, config), _GRID

    def initial() -> np.ndarray:
        # on_grid's array is fresh, or a constant's broadcast view, which
        # steps as a C-ordered copy like any other state
        U = np.ascontiguousarray(on_grid(problem, "initial", X, Y))
        with np.errstate(over="ignore", invalid="ignore"):  # march reports it
            return into(U)

    norm = lambda V: [np.sqrt(hx * hy * np.vdot(S, S)) for S in V]
    U, norm_history, _, _ = march(steps, initial, config, norm)
    del steps  # and its factors, before back and the error read
    U = back(U)
    t_next = config.M * config.tau
    values = np.zeros((config.Nx + 1, config.Ny + 1))
    values[1:-1, 1:-1] = U
    sol = Solution(
        x=x,
        y=y,
        values=values,
        problem_name=problem.name,
        t_final=t_next,
        config=config,
        norm_history=norm_history,
        backend=backend,
    )
    if problem.exact is not None:
        e = U - on_grid(problem, "exact", X, Y, t_next)
        sol.max_err_final = max_norm(e)
        sol.l2_err_final = l2_norm(e, hx, hy)
    return sol
