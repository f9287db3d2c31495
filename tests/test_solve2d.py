"""Two-dimensional splitting solvers: every splitting step against a dense
Kronecker two-level oracle, classical heat limit, per-direction contraction,
discrete stability, and the frozen 2D benchmark anchors."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest

from wsgdiff import operators, problems, solve1d, solve2d
from wsgdiff import (
    P1Q0,
    ParameterError,
    Problem2D,
    SolverError,
    SolverConfig1D,
    SolverConfig2D,
    build_directional_operators,
    convergence_rate,
    l2_norm,
    lod_stepper,
    make_example,
    pr_adi_stepper,
    run_2d,
)

from oracles import (
    classical_pr_adi_heat_step,
    kron_two_level_step,
    lod_boundary_swept_step,
    pair_weights_from_binomial,
    pr_boundary_lines_step,
    tridiag_second_difference,
)
from _tables import EX4

_STEPPER = {"pr": pr_adi_stepper, "lod": lod_stepper}


@pytest.fixture
def dense(monkeypatch):
    """Step every problem on the dense Cayley steppers, those the eigenbasis
    would take too."""
    monkeypatch.setattr(solve2d, "_backend", lambda *_: "dense")


def _interior_grid(problem, nx, ny):
    hx = (problem.bx - problem.ax) / nx
    hy = (problem.by - problem.ay) / ny
    xi = problem.ax + hx * np.arange(1, nx)
    yj = problem.ay + hy * np.arange(1, ny)
    return np.meshgrid(xi, yj, indexing="ij")


def _custom_2d(alpha=1.5, beta=1.5, source=None, **overrides):
    kwargs = dict(
        name="custom",
        alpha=alpha,
        beta=beta,
        x_left_diffusivity=1.0,
        x_right_diffusivity=1.0,
        y_left_diffusivity=1.0,
        y_right_diffusivity=1.0,
        source=source or (lambda x, y, t: np.zeros(np.broadcast(x, y).shape)),
        initial=lambda x, y: np.sin(np.pi * x) * np.sin(2.0 * np.pi * y),
    )
    kwargs.update(overrides)
    return Problem2D(**kwargs)


# ---------------------------------------------------------------------------
# Directional operators
# ---------------------------------------------------------------------------


def test_directional_operators_classical_limit():
    p = _custom_2d(alpha=2.0, beta=2.0)
    cfg = SolverConfig2D(Nx=8, Ny=8, M=4)
    dx, dy = build_directional_operators(p, cfg)
    t = tridiag_second_difference(7)
    np.testing.assert_allclose(dx, 2.0 * t * 64.0, rtol=0, atol=1e-10)
    np.testing.assert_allclose(dy, 2.0 * t * 64.0, rtol=0, atol=1e-10)


def test_directional_operators_respect_orders_and_spacing():
    p = make_example("ex4", 1.2, 1.8)
    cfg = SolverConfig2D(Nx=8, Ny=8, M=4)
    dx, dy = build_directional_operators(p, cfg)
    assert dx.shape == (7, 7) and dy.shape == (7, 7)
    # different orders in the two directions produce different operators
    assert np.max(np.abs(dx - dy)) > 1.0


# ---------------------------------------------------------------------------
# One-step equivalence with the dense Kronecker two-level oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("step_fn", [pr_adi_stepper])
def test_adi_steps_match_independent_kron_oracle(step_fn):
    p = make_example("ex4", 1.5, 1.3)
    cfg = SolverConfig2D(Nx=8, Ny=8, M=8)
    dx, dy = build_directional_operators(p, cfg)
    rng = np.random.default_rng(12)
    u0 = rng.standard_normal((7, 7))
    k = 1
    xg, yg = _interior_grid(p, 8, 8)
    f_mid = p.source(xg, yg, k * cfg.tau + 0.5 * cfg.tau)
    got = next(step_fn(p, cfg)(u0, k))[0]
    want = kron_two_level_step(dx, dy, u0, f_mid, cfg.tau)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)


def test_lod_step_matches_corrected_kron_oracle():
    # a manufactured source that vanishes on the y-boundary lines makes the
    # swept boundary corrections of the decoupled splitting drop out, leaving
    # exactly the factored system plus the third-order source term
    def source(x, y, t):
        return np.sin(np.pi * x) * (y * (1.0 - y)) ** 2 * (1.0 + t)

    p = _custom_2d(alpha=1.4, beta=1.7, source=source)
    cfg = SolverConfig2D(Nx=8, Ny=8, M=10, splitting="lod")
    dx, dy = build_directional_operators(p, cfg)
    rng = np.random.default_rng(13)
    u0 = rng.standard_normal((7, 7))
    k = 2
    xg, yg = _interior_grid(p, 8, 8)
    f_mid = p.source(xg, yg, k * cfg.tau + 0.5 * cfg.tau)
    got = next(lod_stepper(p, cfg)(u0, k))[0]
    want = kron_two_level_step(dx, dy, u0, f_mid, cfg.tau, lod_source_correction=True)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)
    # without the correction the two disagree beyond roundoff
    plain = kron_two_level_step(dx, dy, u0, f_mid, cfg.tau)
    assert np.max(np.abs(got - plain)) > 1e-9


def test_lod_boundary_sweep_matters_when_source_touches_boundary():
    # the catalog 2D problem's source does NOT vanish on the y-boundaries,
    # so the decoupled splitting must differ from the uncorrected and the
    # plainly corrected factored forms
    p = make_example("ex4", 1.2, 1.8)
    cfg = SolverConfig2D(Nx=8, Ny=8, M=10, splitting="lod")
    dx, dy = build_directional_operators(p, cfg)
    u0 = np.zeros((7, 7))
    xg, yg = _interior_grid(p, 8, 8)
    f_mid = p.source(xg, yg, 0.5 * cfg.tau)
    got = next(lod_stepper(p, cfg)(u0, 0))[0]
    naive = kron_two_level_step(dx, dy, u0, f_mid, cfg.tau, lod_source_correction=True)
    assert np.max(np.abs(got - naive)) > 1e-12


@pytest.mark.parametrize("scheme,shifts", [("p1q0", (1, 0)), ("p1qm1", (1, -1))])
def test_lod_boundary_line_sweep_matches_dense_oracle(scheme, shifts):
    # unequal x left/right diffusivities make dx nonsymmetric, and the
    # source is nonzero on both y-boundary lines, so the sweep of f_low and
    # f_high through stage 1 is visible in the step
    def source(x, y, t):
        return (1.0 + t) * np.sin(np.pi * x) * (1.0 + 2.0 * y)

    n = 10
    p = _custom_2d(
        alpha=1.3,
        beta=1.7,
        source=source,
        x_left_diffusivity=1.6,
        x_right_diffusivity=0.2,
        y_left_diffusivity=0.5,
        y_right_diffusivity=1.1,
    )
    cfg = SolverConfig2D(Nx=n, Ny=n, M=5, scheme=scheme, splitting="lod")
    rng = np.random.default_rng(21)
    u0 = rng.standard_normal((n - 1, n - 1))
    k = 2
    h = 1.0 / n
    x = h * np.arange(1, n)[:, None]
    y_lines = h * np.arange(0, n + 1)[None, :]
    f_lines = source(x, y_lines, k * cfg.tau + 0.5 * cfg.tau)
    assert np.min(np.abs(f_lines[:, [0, -1]])) > 0.1
    want = lod_boundary_swept_step(
        pair_weights_from_binomial(1.3, *shifts, n + 1),
        pair_weights_from_binomial(1.7, *shifts, n + 1),
        (1.6, 0.2),
        (0.5, 1.1),
        1.3,
        1.7,
        h,
        u0,
        f_lines,
        cfg.tau,
    )
    got = next(lod_stepper(p, cfg)(u0, k))[0]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def _y_line_source(x, y, t):
    # nonzero on both y-boundary lines
    return (1.0 + t) * np.sin(np.pi * x) * (1.0 + y)


@pytest.mark.parametrize("scheme,shifts", [("p1q0", (1, 0)), ("p1qm1", (1, -1))])
def test_pr_step_with_unequal_spacings_matches_dense_oracle(scheme, shifts):
    # unequal spacings and diffusivities and a source that is nonzero on
    # both y-boundary lines, against the factored step with literal boundary
    # rows fed zero data
    nx, ny = 10, 8
    p = _custom_2d(
        alpha=1.3,
        beta=1.7,
        source=_y_line_source,
        by=2.0,
        x_left_diffusivity=1.6,
        x_right_diffusivity=0.2,
        y_left_diffusivity=0.5,
        y_right_diffusivity=1.1,
    )
    cfg = SolverConfig2D(Nx=nx, Ny=ny, M=5, scheme=scheme)
    hx, hy = 1.0 / nx, 2.0 / ny
    rng = np.random.default_rng(22)
    u0 = rng.standard_normal((nx - 1, ny - 1))
    k = 2
    zero = np.zeros((nx - 1, 2))
    xg, yg = _interior_grid(p, nx, ny)
    want = pr_boundary_lines_step(
        pair_weights_from_binomial(1.3, *shifts, nx + 1),
        pair_weights_from_binomial(1.7, *shifts, ny + 1),
        (1.6, 0.2),
        (0.5, 1.1),
        1.3,
        1.7,
        hx,
        hy,
        u0,
        _y_line_source(xg, yg, k * cfg.tau + 0.5 * cfg.tau),
        zero,
        zero,
        cfg.tau,
    )
    got = next(pr_adi_stepper(p, cfg)(u0, k))[0]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("splitting", ["pr", "lod"])
def test_steps_match_kron_oracle_at_the_largest_time_step(splitting):
    # M=1 is the largest tau a run can take, where I - tau/2 D is worst
    # conditioned; the source vanishes on the y-boundary lines so that the
    # decoupled splitting's swept boundary terms drop out
    def source(x, y, t):
        return np.sin(np.pi * x) * (y * (1.0 - y)) ** 2 * (1.0 + t)

    p = _custom_2d(alpha=1.4, beta=1.7, source=source, x_right_diffusivity=0.3)
    cfg = SolverConfig2D(Nx=16, Ny=16, M=1, splitting=splitting)
    dx, dy = build_directional_operators(p, cfg)
    u0 = np.random.default_rng(16).standard_normal((15, 15))
    xg, yg = _interior_grid(p, 16, 16)
    got = next(_STEPPER[splitting](p, cfg)(u0, 0))[0]
    want = kron_two_level_step(
        dx, dy, u0, source(xg, yg, 0.5), cfg.tau, lod_source_correction=splitting == "lod"
    )
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def _y_vanishing_source(x, y, t):
    return np.sin(np.pi * x) * (y * (1.0 - y)) ** 2 * (1.0 + t)


@pytest.mark.parametrize("start", ["last_row", "fresh", "edited", "first_row"])
@pytest.mark.parametrize("splitting", ["pr", "lod"])
def test_continuation_block_matches_kron_oracle(splitting, start):
    # a call of steps owns what it carries, so a fresh call from any state at
    # level 3 steps from that state: the row of level 3 another call yielded,
    # a fresh state, an edited copy or the row of level 2
    p = _custom_2d(alpha=1.4, beta=1.7, source=_y_vanishing_source, x_right_diffusivity=0.3)
    # lod needs one spacing for both axes
    cfg = SolverConfig2D(Nx=8, Ny=8 if splitting == "lod" else 10, M=6, splitting=splitting)
    dx, dy = build_directional_operators(p, cfg)
    steps = _STEPPER[splitting](p, cfg)
    rng = np.random.default_rng(23)
    out = next(steps(rng.standard_normal((7, cfg.Ny - 1)), 1))[:2]
    fresh = rng.standard_normal((7, cfg.Ny - 1))
    U = dict(last_row=out[-1], fresh=fresh, edited=out[-1] + 1.0, first_row=out[0])[start]
    got = next(steps(U, 3))[0]
    xg, yg = _interior_grid(p, cfg.Nx, cfg.Ny)
    f_mid = _y_vanishing_source(xg, yg, 3 * cfg.tau + 0.5 * cfg.tau)
    want = kron_two_level_step(dx, dy, U, f_mid, cfg.tau, lod_source_correction=splitting == "lod")
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)


def test_pr_continuation_block_carries_the_y_sweep_product(monkeypatch):
    # in blocks of two levels, the second block steps from the product W2
    # its call carried from level 3, with unequal spacings and diffusivities
    nx, ny = 10, 8
    p = _custom_2d(
        alpha=1.3,
        beta=1.7,
        source=_y_line_source,
        by=2.0,
        x_left_diffusivity=1.6,
        x_right_diffusivity=0.2,
        y_left_diffusivity=0.5,
        y_right_diffusivity=1.1,
    )
    cfg = SolverConfig2D(Nx=nx, Ny=ny, M=5)
    monkeypatch.setattr(solve1d, "_BLOCK_ENTRIES", 2 * (nx - 1) * (ny - 1))
    blocks = pr_adi_stepper(p, cfg)(np.random.default_rng(24).standard_normal((nx - 1, ny - 1)), 1)
    out = next(blocks)
    got = next(blocks)[0]
    hx, hy = 1.0 / nx, 2.0 / ny
    xg, yg = _interior_grid(p, nx, ny)
    zero = np.zeros((nx - 1, 2))
    want = pr_boundary_lines_step(
        pair_weights_from_binomial(1.3, 1, 0, nx + 1),
        pair_weights_from_binomial(1.7, 1, 0, ny + 1),
        (1.6, 0.2),
        (0.5, 1.1),
        1.3,
        1.7,
        hx,
        hy,
        out[-1],
        _y_line_source(xg, yg, 3.5 * cfg.tau),
        zero,
        zero,
        cfg.tau,
    )
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def _oracle_norms(levels, hx, hy):
    return np.array([np.sqrt(hx * hy * np.sum(U * U)) for U in levels])


@pytest.mark.parametrize("scheme,shifts", [("p1q0", (1, 0)), ("p1qm1", (1, -1))])
def test_pr_run_matches_stepping_the_dense_oracle_over_every_level(scheme, shifts):
    # a whole dense run, each step seeded or carried, against the factored
    # step with literal boundary rows fed zero data, with unequal spacings
    # and diffusivities and a source that is nonzero on both y-lines
    nx, ny, M = 10, 8, 7
    p = _custom_2d(
        alpha=1.3,
        beta=1.7,
        source=_y_line_source,
        by=2.0,
        x_left_diffusivity=1.6,
        x_right_diffusivity=0.2,
        y_left_diffusivity=0.5,
        y_right_diffusivity=1.1,
    )
    cfg = SolverConfig2D(Nx=nx, Ny=ny, M=M, scheme=scheme)
    sol = run_2d(p, cfg)
    hx, hy, tau = 1.0 / nx, 2.0 / ny, cfg.tau
    zero = np.zeros((nx - 1, 2))
    xg, yg = _interior_grid(p, nx, ny)
    wx = pair_weights_from_binomial(1.3, *shifts, nx + 1)
    wy = pair_weights_from_binomial(1.7, *shifts, ny + 1)
    levels = [p.initial(xg, yg)]
    for k in range(M):
        levels.append(
            pr_boundary_lines_step(
                wx,
                wy,
                (1.6, 0.2),
                (0.5, 1.1),
                1.3,
                1.7,
                hx,
                hy,
                levels[-1],
                _y_line_source(xg, yg, k * tau + 0.5 * tau),
                zero,
                zero,
                tau,
            )
        )
    want, norms = levels[-1], _oracle_norms(levels, hx, hy)
    np.testing.assert_allclose(
        sol.values[1:-1, 1:-1], want, rtol=0, atol=1e-12 * np.max(np.abs(want))
    )
    np.testing.assert_allclose(sol.norm_history, norms, rtol=0, atol=1e-12 * np.max(norms))


@pytest.mark.parametrize("scheme,shifts", [("p1q0", (1, 0)), ("p1qm1", (1, -1))])
def test_lod_run_matches_stepping_the_dense_oracle_over_every_level(scheme, shifts):
    # a whole dense lod run against the step swept along every y-line, with
    # unequal diffusivities and a source that is nonzero on both y-lines
    def source(x, y, t):
        return (1.0 + t) * np.sin(np.pi * x) * (1.0 + 2.0 * y)

    n, M = 10, 7
    p = _custom_2d(
        alpha=1.3,
        beta=1.7,
        source=source,
        x_left_diffusivity=1.6,
        x_right_diffusivity=0.2,
        y_left_diffusivity=0.5,
        y_right_diffusivity=1.1,
    )
    cfg = SolverConfig2D(Nx=n, Ny=n, M=M, scheme=scheme, splitting="lod")
    sol = run_2d(p, cfg)
    h, tau = 1.0 / n, cfg.tau
    x, y_lines = h * np.arange(1, n)[:, None], h * np.arange(0, n + 1)[None, :]
    wx = pair_weights_from_binomial(1.3, *shifts, n + 1)
    wy = pair_weights_from_binomial(1.7, *shifts, n + 1)
    levels = [p.initial(*_interior_grid(p, n, n))]
    for k in range(M):
        f_lines = source(x, y_lines, k * tau + 0.5 * tau)
        levels.append(
            lod_boundary_swept_step(
                wx, wy, (1.6, 0.2), (0.5, 1.1), 1.3, 1.7, h, levels[-1], f_lines, tau
            )
        )
    want, norms = levels[-1], _oracle_norms(levels, h, h)
    np.testing.assert_allclose(
        sol.values[1:-1, 1:-1], want, rtol=0, atol=1e-12 * np.max(np.abs(want))
    )
    np.testing.assert_allclose(sol.norm_history, norms, rtol=0, atol=1e-12 * np.max(norms))


def test_classical_limit_matches_heat_adi_oracle():
    def source(x, y, t):
        return np.exp(-t) * x * (1.0 - x) * np.sin(np.pi * y)

    p = _custom_2d(
        alpha=2.0,
        beta=2.0,
        source=source,
        x_left_diffusivity=0.5,
        x_right_diffusivity=0.5,
        y_left_diffusivity=0.5,
        y_right_diffusivity=0.5,
    )
    cfg = SolverConfig2D(Nx=8, Ny=8, M=10)
    rng = np.random.default_rng(14)
    u0 = rng.standard_normal((7, 7))
    k = 3
    xg, yg = _interior_grid(p, 8, 8)
    f_mid = p.source(xg, yg, k * cfg.tau + 0.5 * cfg.tau)
    got = next(pr_adi_stepper(p, cfg)(u0, k))[0]
    want = classical_pr_adi_heat_step(u0, f_mid, cfg.tau, 0.125, 0.125)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)


def test_three_adi_variants_agree_at_every_step():
    # douglas and dyakonov name the factored scheme that pr runs, so their
    # runs must match it bit for bit, norm history included, also with
    # unequal spacings and diffusivities
    for p, nx, ny in ((make_example("ex4", 1.2, 1.8), 16, 16), (_skewed_problem(), 16, 12)):
        runs = {
            name: run_2d(p, SolverConfig2D(Nx=nx, Ny=ny, M=nx, splitting=name))
            for name in ("pr", "douglas", "dyakonov")
        }
        for name in ("douglas", "dyakonov"):
            np.testing.assert_array_equal(runs[name].values, runs["pr"].values)
            np.testing.assert_array_equal(runs[name].norm_history, runs["pr"].norm_history)
            assert runs[name].max_err_final == runs["pr"].max_err_final


def _skewed_problem():
    """Unequal spacings and diffusivities, with zero data."""
    return _custom_2d(alpha=1.3, beta=1.7, by=2.0, y_right_diffusivity=0.3)


def _public_pr_levels(p, cfg):
    """The final interior state and the norm of every level, stepped level by
    level from a freshly seeded product: each level is the first step of a
    fresh call, in blocks of one level."""
    steps = pr_adi_stepper(p, cfg)
    hx, hy = (p.bx - p.ax) / cfg.Nx, (p.by - p.ay) / cfg.Ny
    U = np.array(p.initial(*_interior_grid(p, cfg.Nx, cfg.Ny)), dtype=float)
    norms = [np.sqrt(hx * hy * np.sum(U * U))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solve1d, "_BLOCK_ENTRIES", 1)
        for k in range(cfg.M):
            U = next(steps(U, k))[0]
            norms.append(np.sqrt(hx * hy * np.sum(U * U)))
    return U, np.array(norms)


@pytest.mark.parametrize(
    "case,nx,ny,M", [("ex4", 64, 64, 64), ("skewed", 64, 48, 200), ("skewed", 12, 16, 9)]
)
def test_pr_run_matches_stepping_the_public_stepper(dense, case, nx, ny, M):
    # run_2d carries the y-sweep product W2 from one step into the next
    # instead of seeding it from U again; that differs from a fresh call's
    # seeded step by roundoff only
    p = make_example("ex4", 1.2, 1.8) if case == "ex4" else _skewed_problem()
    cfg = SolverConfig2D(Nx=nx, Ny=ny, M=M)
    sol = run_2d(p, cfg)
    U, norms = _public_pr_levels(p, cfg)
    scale = np.max(np.abs(U))
    assert np.max(np.abs(sol.values[1:-1, 1:-1] - U)) <= 1e-13 * scale
    assert np.max(np.abs(sol.norm_history - norms)) <= 1e-13 * np.max(norms)


@pytest.mark.parametrize("n,M", [(16, 9), (64, 64)])
def test_lod_run_norms_are_the_l2_norms_of_its_levels(dense, n, M):
    # run_2d takes each level's norm as one dot product; stepping the public
    # lod stepper and taking l2_norm of each level gives the same history
    p = make_example("ex4", 1.2, 1.8)
    cfg = SolverConfig2D(Nx=n, Ny=n, M=M, splitting="lod")
    h = 1.0 / n
    U = np.array(p.initial(*_interior_grid(p, n, n)), dtype=float)
    levels = np.concatenate([U[None], *lod_stepper(p, cfg)(U, 0)])
    norms = [l2_norm(V, h, h) for V in levels]
    history = run_2d(p, cfg).norm_history
    assert np.max(np.abs(history - norms)) <= 1e-14 * max(norms)


@pytest.mark.parametrize("alpha,beta", [(1.2, 1.8), (1.5, 1.5), (1.9, 1.1)])
@pytest.mark.parametrize("ratio", [1.0, 10.0])
def test_pr_run_norms_never_increase(alpha, beta, ratio):
    # zero data, a random start: every level's norm is at most the one
    # before, on the carried path as on the public stepper
    n, steps = 16, 200
    start = np.random.default_rng(19).standard_normal((n - 1, n - 1))
    p = _custom_2d(alpha=alpha, beta=beta, initial=lambda x, y: start)
    sol = run_2d(p, SolverConfig2D(Nx=n, Ny=n, M=steps, T=steps * ratio / n))
    history = sol.norm_history
    assert np.all(history[1:] <= history[:-1] * (1.0 + 1e-10))


@pytest.mark.parametrize("M", [1, 2, 7])
def test_pr_run_makes_one_product_a_step_after_the_first(monkeypatch, M):
    # one n-by-n product seeds W2 from the initial state, and every step
    # reuses the previous W2, so a run makes M + 1 besides the M solves
    # against I - a Dy, while a fresh call's first step makes three
    nx, ny = 8, 12
    shapes = []
    matmul = np.matmul

    def spy(*args, **kwargs):
        out = matmul(*args, **kwargs)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(np, "matmul", spy)
    p = _skewed_problem()
    cfg = SolverConfig2D(Nx=nx, Ny=ny, M=M)
    run_2d(p, cfg)
    assert shapes.count((nx - 1, ny - 1)) == 2 * M + 1
    shapes.clear()
    _public_pr_levels(p, cfg)
    assert shapes.count((nx - 1, ny - 1)) == 3 * M


@pytest.mark.parametrize("splitting", ["pr", "lod"])
def test_run_matches_a_run_of_blocks_of_one_level(monkeypatch, splitting):
    # blocks of B = 16 levels (the whole run) against blocks of one level;
    # the pr stepper carries W2 across blocks as within
    p = make_example("ex4", 1.2, 1.8)
    cfg = SolverConfig2D(Nx=16, Ny=16, M=16, splitting=splitting)
    assert list(solve1d._blocks(0, cfg.M, 15 * 15)) == [(0, 16)]
    blocked = run_2d(p, cfg)
    monkeypatch.setattr(solve1d, "_BLOCK_ENTRIES", 15 * 15)
    assert next(solve1d._blocks(0, cfg.M, 15 * 15)) == (0, 1)
    stepped = run_2d(p, cfg)
    for field in ("values", "norm_history", "max_err_final", "l2_err_final"):
        assert np.array_equal(getattr(blocked, field), getattr(stepped, field)), field


@pytest.mark.parametrize("splitting", solve2d.SPLITTINGS)
def test_one_axis_callables_fill_the_grid(splitting):
    # on the broadcast axes x[:, None], y[None, :] each of these returns an
    # (Nx-1, 1) or (1, Ny-1) array; the run must equal one whose callables
    # are evaluated on the full meshgrids
    def source(x, y, t):
        return np.exp(-t) * x * (1.0 - x)

    def initial(x, y):
        return np.sin(np.pi * y)

    def exact(x, y, t):
        return np.exp(-t) * np.sin(np.pi * x)

    def on_mesh(fn):
        return lambda x, y, *t: fn(*np.broadcast_arrays(x, y), *t)

    thin = _custom_2d(source=source, initial=initial, exact=exact)
    mesh = _custom_2d(source=on_mesh(source), initial=on_mesh(initial), exact=on_mesh(exact))
    cfg = SolverConfig2D(Nx=8, Ny=8, M=4, splitting=splitting)
    got, want = run_2d(thin, cfg), run_2d(mesh, cfg)
    np.testing.assert_array_equal(got.values, want.values)
    np.testing.assert_array_equal(got.norm_history, want.norm_history)
    assert (got.max_err_final, got.l2_err_final) == (want.max_err_final, want.l2_err_final)


# ---------------------------------------------------------------------------
# Per-direction contraction of the half-step transfer operators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ratio", [1.0, 10.0])
def test_half_step_transfer_is_contractive(ratio):
    p = make_example("ex4", 1.2, 1.8)
    n = 16
    tau = ratio / n
    cfg = SolverConfig2D(Nx=n, Ny=n, M=max(1, round(1.0 / tau)), T=max(1.0, tau))
    dx, dy = build_directional_operators(p, cfg)
    a = 0.5 * tau
    rng = np.random.default_rng(15)
    eye = np.eye(n - 1)
    for d in (dx, dy):
        move = np.linalg.solve(eye - a * d, eye + a * d)
        for _ in range(100):
            v = rng.standard_normal(n - 1)
            assert np.linalg.norm(move @ v) <= (1.0 + 1e-10) * np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Discrete stability and trivial states
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha,beta", [(1.2, 1.8), (1.9, 1.1)])
@pytest.mark.parametrize("splitting", ["pr", "lod"])
def test_zero_source_norms_never_grow(alpha, beta, splitting):
    p = _custom_2d(alpha=alpha, beta=beta)
    n, steps = 12, 50
    cfg = SolverConfig2D(Nx=n, Ny=n, M=steps, splitting=splitting, T=steps * (10.0 / n))
    sol = run_2d(p, cfg)
    history = sol.norm_history
    assert history.size == steps + 1
    assert np.all(history <= history[0] * (1.0 + 1e-10))


def test_zero_problem_stays_zero():
    p = _custom_2d(initial=lambda x, y: np.zeros(np.broadcast(x, y).shape))
    sol = run_2d(p, SolverConfig2D(Nx=8, Ny=8, M=5))
    np.testing.assert_array_equal(sol.values, np.zeros((9, 9)))
    np.testing.assert_array_equal(sol.norm_history, np.zeros(6))


@pytest.mark.parametrize("basis", ["eigen", "dense"])
@pytest.mark.parametrize("splitting", ["pr", "lod"])
def test_run_assembles_boundary_frame(monkeypatch, splitting, basis):
    # a 2D problem has zero Dirichlet data, so all four sides of the frame
    # are exactly zero, sign bits included, whatever the interior holds
    monkeypatch.setattr(solve2d, "_backend", lambda *_: basis)
    p = make_example("ex4", 1.2, 1.8)
    sol = run_2d(p, SolverConfig2D(Nx=8, Ny=8, M=4, splitting=splitting, T=0.5))
    assert sol.values.shape == (9, 9) and sol.backend == basis
    frame = np.ones((9, 9), dtype=bool)
    frame[1:-1, 1:-1] = False
    assert np.all(sol.values[frame] == 0.0) and not np.any(np.signbit(sol.values[frame]))
    assert np.all(sol.values[~frame] != 0.0)
    assert sol.t_final == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Frozen benchmark anchors and the observed order band
# ---------------------------------------------------------------------------


def test_two_dimensional_anchor_rows():
    p = make_example("ex4", 1.2, 1.8)
    pr_l2_32 = EX4["pr"][P1Q0][2][3]
    lod_l2_32 = EX4["lod"][P1Q0][2][3]
    sol_pr = run_2d(p, SolverConfig2D(Nx=32, Ny=32, M=32, splitting="pr"))
    assert sol_pr.l2_err_final == pytest.approx(pr_l2_32, rel=1e-3)
    sol_lod = run_2d(p, SolverConfig2D(Nx=32, Ny=32, M=32, splitting="lod"))
    assert sol_lod.l2_err_final == pytest.approx(lod_l2_32, rel=1e-2)


def test_observed_order_in_band():
    p = make_example("ex4", 1.2, 1.8)
    errs = [
        run_2d(p, SolverConfig2D(Nx=n, Ny=n, M=n, splitting="pr")).l2_err_final
        for n in (16, 32)
    ]
    rate = convergence_rate(errs[0], errs[1])
    assert 1.6 <= rate <= 2.3, (errs, rate)


# ---------------------------------------------------------------------------
# The step contract: inverses formed once, fresh C-ordered results
# ---------------------------------------------------------------------------


def _record_solves(monkeypatch) -> list[str]:
    """Record the context of each dense solve a 2D run makes, all of them
    through ``solve1d._cayley``."""
    calls = []
    solve = solve1d.solve

    def spy(*args, **kwargs):
        calls.append(args[-1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(solve1d, "solve", spy)
    return calls


@pytest.mark.parametrize("M", [1, 7])
@pytest.mark.parametrize("splitting", ["pr", "lod"])
def test_run_makes_two_triangular_solves_at_setup(dense, monkeypatch, splitting, M):
    # setup forms the half-step matrices with one solve per direction; a
    # step is products only
    calls = _record_solves(monkeypatch)
    run_2d(make_example("ex4", 1.2, 1.8), SolverConfig2D(Nx=8, Ny=8, M=M, splitting=splitting))
    assert calls == ["x-direction", "y-direction"]


@pytest.mark.parametrize("splitting", ["pr", "lod"])
def test_callables_are_read_only_on_the_nodes_a_splitting_uses(monkeypatch, splitting):
    # the steps used to read the source on both pairs of sides, and a lod
    # step read its y-lines in a second call; now the factory reads none,
    # and a step reads the source once, on the interior, for lod also on
    # its y-lines: one read of all those points a step
    base = make_example("ex4", 1.2, 1.8)
    reads = []

    def source(*args):
        reads.append(np.broadcast(*args).size)
        return base.source(*args)

    p = dataclasses.replace(base, source=source)
    nx, ny = (8, 12) if splitting == "pr" else (8, 8)
    cfg = SolverConfig2D(Nx=nx, Ny=ny, M=3, splitting=splitting)
    steps = _STEPPER[splitting](p, cfg)
    assert reads == []
    monkeypatch.setattr(solve1d, "_BLOCK_ENTRIES", (nx - 1) * (ny - 1))
    blocks = steps(np.zeros((nx - 1, ny - 1)), 1)
    y_lines, interior = 2 * (nx - 1), (nx - 1) * (ny - 1)
    step = interior + (y_lines if splitting == "lod" else 0)
    for _ in range(2):
        reads.clear()
        next(blocks)
        assert reads == [step]


@pytest.mark.parametrize("splitting", ["pr", "lod"])
def test_step_returns_a_fresh_c_ordered_array(splitting):
    p = make_example("ex4", 1.2, 1.8)
    cfg = SolverConfig2D(Nx=12, Ny=12, M=4, splitting=splitting)
    steps = _STEPPER[splitting](p, cfg)
    U = np.random.default_rng(17).standard_normal((11, 11))
    kept = U.copy()
    first = next(steps(U, 1))
    np.testing.assert_array_equal(U, kept)
    assert first.flags.c_contiguous and first.shape == (3, 11, 11)
    second = next(steps(U, 1))
    assert not np.shares_memory(first, second)
    np.testing.assert_array_equal(first, second)
    # each call is fresh, whatever the stepper stepped before
    np.testing.assert_array_equal(next(steps(U, 2)), next(_STEPPER[splitting](p, cfg)(U, 2)))


# ---------------------------------------------------------------------------
# Symmetric operators: steps in the eigenbasis of Dx, Dy
# ---------------------------------------------------------------------------


def _symmetric_spacings():
    """Equal left and right diffusivities on each axis, a separable source,
    a y-side twice as long as the x-side and zero data: a problem for the
    eigenbasis, with unequal spacings unless ``Ny = 2 Nx``."""
    diffusivities = dict(x_left_diffusivity=0.7, x_right_diffusivity=0.7)
    diffusivities.update(y_left_diffusivity=1.3, y_right_diffusivity=1.3)
    source = problems.SeparableSource(np.exp, lambda x, y: np.sin(x) * y * y)
    return _custom_2d(alpha=1.3, beta=1.7, source=source, by=2.0, **diffusivities)


def _sin_cos():
    """``exp(t) sin(x) cos(y)`` as a separable source."""
    return problems.SeparableSource(np.exp, lambda x, y: np.sin(x) * np.cos(y))


def _plain_source(x, y, t):
    # no separable structure, and nonzero on the y-boundary lines
    return np.exp(-t) * np.cos(3.0 * np.asarray(x) * np.asarray(y) + t)


def _time_separable_source():
    # a time factor times a space function that is not separable in x and y,
    # and nonzero on the y-boundary lines
    return problems.SeparableSource(
        lambda t: np.exp(-t), lambda x, y: np.cos(3.0 * np.asarray(x) * np.asarray(y) + 1.0)
    )


_AGREEMENT_CASES = [
    *((name, "ex4", n, n, n) for name in ("pr", "lod") for n in (16, 64, 128)),
    ("pr", "spacings", 16, 12, 10),
    ("pr", "spacings", 64, 48, 100),
    *((name, "time-separable", 24, 24, 16) for name in ("pr", "lod")),
]


@pytest.mark.parametrize("splitting,case,nx,ny,M", _AGREEMENT_CASES)
def test_eigenbasis_runs_agree_with_the_dense_path(monkeypatch, splitting, case, nx, ny, M):
    # a symmetric problem steps in the eigenbasis; forced onto the dense
    # Cayley steppers it must give the same run to roundoff
    p = {
        "ex4": lambda: make_example("ex4", 1.2, 1.8),
        "spacings": _symmetric_spacings,
        "time-separable": lambda: _custom_2d(alpha=1.4, beta=1.6, source=_time_separable_source()),
    }[case]()
    cfg = SolverConfig2D(Nx=nx, Ny=ny, M=M, splitting=splitting)
    got = run_2d(p, cfg)
    monkeypatch.setattr(solve2d, "_backend", lambda *_: "dense")
    want = run_2d(p, cfg)
    assert (got.backend, want.backend) == ("eigen", "dense")
    gap = np.max(np.abs(got.values - want.values)) / np.max(np.abs(want.values))
    assert gap <= 1e-12, gap
    norms = np.max(np.abs(got.norm_history - want.norm_history) / want.norm_history)
    assert norms <= 1e-12, norms


@pytest.mark.parametrize(
    "diffusivities,symmetric",
    [
        ((1.0, 1.0, 1.0, 1.0), True),
        ((0.3, 0.3, 2.0, 2.0), True),
        ((1.0, 0.5, 1.0, 1.0), False),
        ((1.0, 1.0, 0.0, 1.0), False),
    ],
)
@pytest.mark.parametrize("source", ["separable", "plain"])
@pytest.mark.parametrize("splitting", ["pr", "lod"])
def test_symmetry_and_a_separable_source_select_the_eigenbasis(
    monkeypatch, splitting, source, diffusivities, symmetric
):
    # the dense steppers make their two solves at setup; the eigenbasis makes
    # none, and the dense steppers run bit-identically to their own factory
    eigenbasis = symmetric and source == "separable"
    names = ("x_left", "x_right", "y_left", "y_right")
    p = _custom_2d(
        source=_plain_source if source == "plain" else _time_separable_source(),
        **{f"{k}_diffusivity": v for k, v in zip(names, diffusivities)},
    )
    cfg = SolverConfig2D(Nx=8, Ny=8, M=3, splitting=splitting)
    calls = _record_solves(monkeypatch)
    sol = run_2d(p, cfg)
    assert sol.backend == ("eigen" if eigenbasis else "dense")
    assert calls == ([] if eigenbasis else ["x-direction", "y-direction"])
    if not eigenbasis:
        U = np.array(p.initial(*_interior_grid(p, 8, 8)), dtype=float)
        levels = np.concatenate(list(_STEPPER[splitting](p, cfg)(U, 0)))
        np.testing.assert_array_equal(sol.values[1:-1, 1:-1], levels[-1])


@pytest.mark.parametrize("order", [1.0 + 2.0**-52, 1.3, 1.7, 2.0])
@pytest.mark.parametrize("nx,ny", [(8, 9), (17, 16), (64, 100)])
def test_top_rows_are_the_dense_operators_top_rows(nx, ny, order):
    # the eigenbasis reads each symmetric operator off its stencils, summed
    # before scaling as the dense operator is, so its halves keep every bit
    p = dataclasses.replace(_symmetric_spacings(), alpha=order, beta=order)
    cfg = SolverConfig2D(Nx=nx, Ny=ny, M=1)
    for top, d in zip(solve2d._top_rows(p, cfg), build_directional_operators(p, cfg)):
        assert top.shape == ((len(d) + 1) // 2, len(d))
        np.testing.assert_array_equal(top, d[: len(top)])


@pytest.mark.parametrize("splitting", ["pr", "lod"])
def test_the_eigenbasis_forms_no_square_operator(monkeypatch, splitting):
    def forbidden(*args, **kwargs):
        raise AssertionError("the eigenbasis must not form an n-by-n operator")

    monkeypatch.setattr(solve2d, "build_directional_operators", forbidden)
    monkeypatch.setattr(operators.ToeplitzOperator, "to_dense", forbidden)
    cfg = SolverConfig2D(Nx=16, Ny=16, M=4, splitting=splitting)
    sol = run_2d(make_example("ex4", 1.2, 1.8), cfg)
    assert sol.backend == "eigen" and sol.max_err_final < 1e-3


@pytest.mark.parametrize("splitting", ["pr", "lod"])
def test_an_eigenbasis_run_frees_its_factors_before_the_final_state(splitting):
    # a run used to hold G, P and the work array beside the final transform
    # and the error read, 9.04 grids at N=256; now the steps' own arrays set
    # the peak, about 7
    p = make_example("ex4", 1.2, 1.8)
    cfg = SolverConfig2D(Nx=256, Ny=256, M=4, splitting=splitting)
    run_2d(p, cfg)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        assert run_2d(p, cfg).backend == "eigen"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = (cfg.Nx - 1) * (cfg.Ny - 1) * 8
    assert peak <= 7.25 * grid, peak / grid


@pytest.mark.parametrize(
    "setup,x_right,bound",
    [
        pytest.param(setup, x_right, bound, id=f"{case}{name}")
        for name, setup, bound in [
            ("", solve2d._sweeps, 4.25),
            ("-pr", pr_adi_stepper, 5.25),
            ("-lod", lod_stepper, 4.25),
        ]
        for case, x_right in [("ex4", 1.0), ("unequal-x", 0.5)]
    ],
)
def test_dense_setup_forms_the_x_factor_in_place(setup, x_right, bound):
    # the x-direction setup used to hold Dx, Dy, an identity, both half-step
    # matrices and the solve, 6.0 grids at N=256; it now turns tau Dx into Cx
    # in place, so Dx, Dy, the right-hand matrix and the solve set the peak.
    # Each stepper turns tau Dy into Cy in place the same way, with no
    # identity: pr's setup used to peak at 7.02 grids and lod's at 6.04, and
    # now Cx, tau Dy, pr's seed, the right-hand matrix and the solve set
    # pr's peak, about 5
    p = dataclasses.replace(make_example("ex4", 1.2, 1.8), x_right_diffusivity=x_right)
    cfg = SolverConfig2D(Nx=256, Ny=256, M=4)
    setup(p, cfg)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        setup(p, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = (cfg.Nx - 1) * (cfg.Ny - 1) * 8
    assert peak <= bound * grid, peak / grid


@pytest.mark.parametrize("backend", ["eigen", "dense"])
@pytest.mark.parametrize("splitting", ["pr", "lod"])
def test_a_constant_initial_state_runs_on_both_backends(monkeypatch, splitting, backend):
    # on_grid returns a constant as a read-only broadcast view; it steps as
    # the same state filled in does
    monkeypatch.setattr(solve2d, "_backend", lambda *_: backend)
    cfg = SolverConfig2D(Nx=12, Ny=12, M=3, splitting=splitting)
    runs = [
        run_2d(_custom_2d(source=_sin_cos(), initial=initial), cfg)
        for initial in (lambda x, y: 0.25, lambda x, y: np.full(np.broadcast(x, y).shape, 0.25))
    ]
    assert [r.backend for r in runs] == [backend] * 2
    np.testing.assert_array_equal(runs[0].values, runs[1].values)
    np.testing.assert_array_equal(runs[0].norm_history, runs[1].norm_history)
    assert runs[0].norm_history[0] > 0.0


@pytest.mark.parametrize("splitting,y_nodes", [("pr", 7), ("lod", 9)])
def test_separable_factors_are_read_once_a_run(splitting, y_nodes):
    # the eigenbasis reads each factor once, at setup: the time factor on
    # every step's midpoint time, the space factor on the interior, for lod
    # also on its y-lines y = ay, by; a step reads none
    reads = []

    def time(t):
        reads.append(("time", np.shape(t)))
        return np.exp(t)

    def space(x, y):
        reads.append(("space", np.shape(x), np.shape(y)))
        return np.sin(x) * np.cos(y)

    p = _custom_2d(source=problems.SeparableSource(time, space))
    cfg = SolverConfig2D(Nx=8, Ny=8, M=5, splitting=splitting)
    steps, _ = solve2d._eigen_stepper(p, cfg)
    assert sorted(reads) == [("space", (7, 1), (1, y_nodes)), ("time", (5,))]
    assert len(np.concatenate(list(steps(np.ones((7, 7)), 0)))) == 5
    assert len(reads) == 2
    # and a run sets up once
    run_2d(p, cfg)
    assert len(reads) == 4


def _inject_top_rows(monkeypatch, change):
    """Step the eigenbasis on ``change(axis, D)`` of each dense directional
    operator ``D``, handed to it as the top rows it reads."""

    def top_rows(problem, config):
        ops = map(change, "xy", build_directional_operators(problem, config))
        return tuple(d[: len(d) - len(d) // 2] for d in ops)

    monkeypatch.setattr(solve2d, "_top_rows", top_rows)


@pytest.mark.parametrize("axis", ["x", "y"])
def test_an_operator_that_is_not_negative_definite_fails_at_setup(monkeypatch, axis):
    # the stability condition, read off the eigenvalues before any step
    def shifted(name, d):
        if name != axis:
            return d
        return d + (0.5 - np.max(np.linalg.eigvalsh(d))) * np.eye(len(d))

    _inject_top_rows(monkeypatch, shifted)
    reads = []
    time = lambda t: reads.append(t) or np.exp(t)
    space = lambda x, y: reads.append((x, y)) or np.sin(x) * np.cos(y)
    p = _custom_2d(source=problems.SeparableSource(time, space))
    message = rf"{axis}-direction: .*not negative definite; its largest eigenvalue is 0\.5$"
    with pytest.raises(SolverError, match=message):
        run_2d(p, SolverConfig2D(Nx=8, Ny=8, M=2))
    assert reads == []


@pytest.mark.parametrize("half", ["even", "odd"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_a_non_negative_eigenvalue_of_either_half_fails_at_setup(monkeypatch, axis, half):
    # the spectrum comes from one eigh per half, so the check reads both: a
    # rank-one lift along w = e_0 +- e_last (J w = +-w) keeps the operator
    # symmetric and centrosymmetric and, by interlacing, makes exactly one
    # eigenvalue positive, in the half of w; x has odd order 7, y even order 8
    peaks = []

    def lifted(name, d):
        if name != axis:
            return d
        w = np.zeros(len(d))
        w[0], w[-1] = 1.0, 1.0 if half == "even" else -1.0
        d = d + np.max(np.sum(np.abs(d), axis=1)) * np.outer(w, w)
        lam = np.linalg.eigvalsh(d)
        assert lam[-2] < 0.0 < lam[-1]
        peaks.append(lam[-1])
        return d

    _inject_top_rows(monkeypatch, lifted)
    p = _custom_2d(source=_sin_cos())
    with pytest.raises(SolverError, match=rf"{axis}-direction: .*not negative definite") as info:
        run_2d(p, SolverConfig2D(Nx=8, Ny=9, M=2))
    assert str(info.value).endswith(f"its largest eigenvalue is {peaks[0]:.6g}")


@pytest.mark.parametrize("splitting", ["pr", "lod"])
def test_an_order_one_ulp_above_1_steps_in_the_eigenbasis(monkeypatch, splitting):
    # at order 1 the symmetric operator vanishes, so here its largest
    # eigenvalue is rounding noise, 2.5e-18; the eigenbasis used to refuse its
    # sign, while the dense steppers ran the problem; each step multiplier
    # rounds to 1, so both run it now, and agree
    p = _custom_2d(
        beta=1.0 + 2.0**-52,
        source=_sin_cos(),
        y_left_diffusivity=0.1,
        y_right_diffusivity=0.1,
    )
    cfg = SolverConfig2D(Nx=5, Ny=5, M=4, splitting=splitting)
    eigen = run_2d(p, cfg)
    monkeypatch.setattr(solve2d, "_backend", lambda *_: "dense")
    dense = run_2d(p, cfg)
    assert (eigen.backend, dense.backend) == ("eigen", "dense")
    scale = np.max(np.abs(dense.values))
    np.testing.assert_allclose(eigen.values, dense.values, rtol=0, atol=1e-12 * scale)


def test_a_symmetric_axis_near_order_1_is_summed_before_scaling(monkeypatch):
    # with the x-stencils scaled before they were summed, 1.5 A + 1.5 A^T,
    # the rounding noise of the vanishing operator moved an x multiplier past
    # 1 and the eigenbasis refused this problem, which the dense steppers run
    p = _custom_2d(
        alpha=1.0 + 2.0**-52,
        beta=1.0 + 2.0**-52,
        source=_sin_cos(),
        initial=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
        x_left_diffusivity=1.5,
        x_right_diffusivity=1.5,
    )
    cfg = SolverConfig2D(Nx=5, Ny=5, M=1, splitting="lod")
    eigen = run_2d(p, cfg)
    monkeypatch.setattr(solve2d, "_backend", lambda *_: "dense")
    dense = run_2d(p, cfg)
    assert (eigen.backend, dense.backend) == ("eigen", "dense")
    scale = np.max(np.abs(dense.values))
    np.testing.assert_allclose(eigen.values, dense.values, rtol=0, atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# Guards and validation
# ---------------------------------------------------------------------------


def test_only_lod_requires_one_spacing():
    # only the decoupled splitting assumes one spacing; douglas and dyakonov
    # run the two-half-sweep stepper, which supports unequal spacings
    p = _custom_2d(by=2.0)
    with pytest.raises(ParameterError, match="one spacing"):
        run_2d(p, SolverConfig2D(Nx=8, Ny=8, M=2, splitting="lod"))
    for splitting in ("pr", "douglas", "dyakonov"):
        sol = run_2d(p, SolverConfig2D(Nx=8, Ny=8, M=2, splitting=splitting))
        assert sol.values.shape == (9, 9)


@pytest.mark.parametrize("splitting", ["pr", "lod"])
def test_non_finite_solution_raises_with_step_and_time(splitting):
    base = make_example("ex4", 1.2, 1.8)
    p = dataclasses.replace(
        base, source=lambda x, y, t: np.where(t > 0.6, np.nan, base.source(x, y, t))
    )
    with pytest.raises(SolverError, match=r"step 3 \(t=0\.75\)"):
        run_2d(p, SolverConfig2D(Nx=8, Ny=8, M=4, splitting=splitting))


@pytest.mark.parametrize("bad,step", [("time", r"step 3 \(t=0\.75\)"), ("x", r"step 1 ")])
@pytest.mark.parametrize("splitting", ["pr", "lod"])
def test_non_finite_separable_factors_raise_with_step_and_time(splitting, bad, step):
    # the eigenbasis reads the factors at setup; a non-finite one still ends
    # the run at the first step it reaches, with no numpy warning
    def time(t):
        return np.where(t > 0.6, np.nan, np.exp(-t)) if bad == "time" else np.exp(-t)

    def space(x, y):
        f = np.sin(np.pi * x) * np.cos(y)
        return np.where(x > 0.5, np.inf, f) if bad == "x" else f

    source = problems.SeparableSource(time, space)
    with pytest.raises(SolverError, match=step):
        run_2d(_custom_2d(source=source), SolverConfig2D(Nx=8, Ny=8, M=4, splitting=splitting))


@pytest.mark.parametrize("splitting", ["pr", "lod"])
def test_non_finite_initial_state_is_step_zero(splitting):
    # level 0 used to go unchecked, so a NaN start was named as step 1
    p = _custom_2d(initial=lambda x, y: np.full(np.broadcast(x, y).shape, np.nan))
    with pytest.raises(SolverError, match=r"step 0 \(t=0\.0\)"):
        run_2d(p, SolverConfig2D(Nx=8, Ny=8, M=4, splitting=splitting))


@pytest.mark.parametrize("splitting", ["pr", "lod"])
def test_2d_block_must_lie_within_the_run(splitting):
    cfg = SolverConfig2D(Nx=8, Ny=8, M=4, splitting=splitting)
    steps = _STEPPER[splitting](make_example("ex4", 1.2, 1.8), cfg)
    U = np.zeros((7, 7))
    assert next(steps(U, 3)).shape == (1, 7, 7)
    for k in (4, 5, -1, 0.5):
        with pytest.raises(ParameterError, match=rf"cannot step from level {k}"):
            next(steps(U, k))


@pytest.mark.parametrize("kind", ["dense", "gs", "pr", "lod"])
def test_block_stepper_contract(monkeypatch, kind):
    # steps(U, k) yields the levels k+1 ... M once each, in read-only
    # C-ordered blocks; a call owns what it carries (pr's y-sweep product),
    # so two interleaved calls of one stepper give the blocks
    # of each call alone, and a bad start fails before any callable is read
    if kind in ("dense", "gs"):
        backend = "dense-halves" if kind == "dense" else "gs"
        monkeypatch.setattr(solve1d, "_backend", lambda *_: backend)
    reads = []

    def counted(fn):
        def read(*args):
            reads.append(args)
            return fn(*args)

        return read

    if kind in ("dense", "gs"):
        base, cfg = make_example("ex2", 1.5), SolverConfig1D(N=16, M=8)
        p = dataclasses.replace(base, source=counted(base.source))
        steps, shape = solve1d._cn_setup(p, cfg)[0], (cfg.N - 1,)
    else:
        base = _skewed_problem() if kind == "pr" else make_example("ex4", 1.2, 1.8)
        cfg = SolverConfig2D(Nx=8, Ny=12 if kind == "pr" else 8, M=8, splitting=kind)
        p = dataclasses.replace(base, source=counted(base.source))
        steps, shape = _STEPPER[kind](p, cfg), (cfg.Nx - 1, cfg.Ny - 1)
    monkeypatch.setattr(solve1d, "_BLOCK_ENTRIES", 3 * int(np.prod(shape)))
    rng = np.random.default_rng(25)
    starts = {0: rng.standard_normal(shape), 2: rng.standard_normal(shape)}
    alone = {k: list(steps(U, k)) for k, U in starts.items()}
    for k, blocks in alone.items():
        assert [len(b) for b in blocks] == {0: [3, 3, 2], 2: [3, 3]}[k]
        for b in blocks:
            assert b.flags.c_contiguous and not b.flags.writeable and b.shape[1:] == shape
    calls = {k: steps(U, k) for k, U in starts.items()}
    interleaved = {0: [], 2: []}
    for k in (0, 2, 0, 2, 0):
        interleaved[k].append(next(calls[k]))
    for k in (0, 2):
        assert next(calls[k], None) is None
        for got, want in zip(interleaved[k], alone[k], strict=True):
            np.testing.assert_array_equal(got, want)
    reads.clear()
    for k in (cfg.M, -1, 0.5):
        call = steps(starts[0], k)
        with pytest.raises(ParameterError, match=rf"cannot step from level {k}"):
            next(call)
    assert reads == []


@pytest.mark.parametrize("splitting", ["pr", "douglas", "dyakonov", "lod"])
def test_steppers_check_their_own_preconditions(splitting):
    # each factory checks what its own scheme needs, whatever splitting the
    # config names: only lod needs one spacing
    cfg = SolverConfig2D(Nx=8, Ny=8, M=2, splitting=splitting)
    skewed = _custom_2d(by=2.0)
    with pytest.raises(ParameterError, match="one spacing"):
        lod_stepper(skewed, cfg)
    assert next(pr_adi_stepper(skewed, cfg)(np.zeros((7, 7)), 0)).shape == (2, 7, 7)


def test_config_validation():
    with pytest.raises(ParameterError, match="Nx=4"):
        SolverConfig2D(Nx=3, Ny=8, M=2)
    with pytest.raises(ParameterError, match="M=1"):
        SolverConfig2D(Nx=8, Ny=8, M=0)
    with pytest.raises(ParameterError, match="scheme"):
        SolverConfig2D(Nx=8, Ny=8, M=2, scheme="pqr")
    with pytest.raises(ParameterError, match="splitting"):
        SolverConfig2D(Nx=8, Ny=8, M=2, splitting="adi")
    for T in (float("inf"), float("nan")):
        with pytest.raises(ParameterError, match="final time"):
            SolverConfig2D(Nx=8, Ny=8, M=2, T=T)
    assert SolverConfig2D(Nx=8, Ny=8, M=4, T=2.0).tau == pytest.approx(0.5)


def test_non_real_final_time_names_the_field():
    # it used to escape as numpy's TypeError from np.isfinite
    with pytest.raises(ParameterError, match=r"final time T .*None \(not a real"):
        SolverConfig2D(Nx=8, Ny=8, M=2, T=None)


def test_config_stores_integral_floats_as_int():
    # Nx=8.0 used to pass the checks and then fail the run with an
    # IndexError, and M=4.0 with a TypeError
    config = SolverConfig2D(Nx=8.0, Ny=8.0, M=4.0)
    assert (type(config.Nx), type(config.Ny), type(config.M)) == (int, int, int)
    p = make_example("ex4")
    got = run_2d(p, config)
    np.testing.assert_array_equal(got.values, run_2d(p, SolverConfig2D(Nx=8, Ny=8, M=4)).values)
    for bad, message in (
        (dict(Nx=8.5, Ny=8, M=4), "need at least Nx=4 intervals, got 8.5"),
        (dict(Nx=8, Ny=2.0, M=4), "need at least Ny=4 intervals, got 2.0"),
        (dict(Nx=8, Ny=8, M=0.5), "need at least M=1 time steps, got 0.5"),
        (dict(Nx=float("nan"), Ny=8, M=4), "need at least Nx=4 intervals, got nan"),
    ):
        with pytest.raises(ParameterError, match=message):
            SolverConfig2D(**bad)
