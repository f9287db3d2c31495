"""Two-dimensional splitting solvers: every splitting step against a dense
Kronecker two-level oracle, classical heat limit, per-direction contraction,
discrete stability, and the frozen 2D benchmark anchors."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from wsgdiff import solve2d
from wsgdiff import (
    P1Q0,
    ParameterError,
    Problem2D,
    SolverError,
    SolverConfig2D,
    build_directional_operators,
    convergence_rate,
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
    tridiag_second_difference,
)
from _tables import EX4


def _interior_grid(problem, nx, ny):
    hx = (problem.bx - problem.ax) / nx
    hy = (problem.by - problem.ay) / ny
    xi = problem.ax + hx * np.arange(1, nx)
    yj = problem.ay + hy * np.arange(1, ny)
    return np.meshgrid(xi, yj, indexing="ij")


def _zero_boundary(x, y, t):
    return np.zeros(np.broadcast(np.asarray(x), np.asarray(y)).shape)


def _custom_2d(alpha=1.5, beta=1.5, source=None, boundary=_zero_boundary, **overrides):
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
        boundary=boundary,
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
    t_n = 0.125
    xg, yg = _interior_grid(p, 8, 8)
    f_mid = p.source(xg, yg, t_n + 0.5 * cfg.tau)
    got = step_fn(p, cfg)(u0, t_n)
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
    t_n = 0.2
    xg, yg = _interior_grid(p, 8, 8)
    f_mid = p.source(xg, yg, t_n + 0.5 * cfg.tau)
    got = lod_stepper(p, cfg)(u0, t_n)
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
    got = lod_stepper(p, cfg)(u0, 0.0)
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
    t_n = 0.4
    h = 1.0 / n
    x = h * np.arange(1, n)[:, None]
    y_lines = h * np.arange(0, n + 1)[None, :]
    f_lines = source(x, y_lines, t_n + 0.5 * cfg.tau)
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
    got = lod_stepper(p, cfg)(u0, t_n)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


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
    t_n = 0.3
    xg, yg = _interior_grid(p, 8, 8)
    f_mid = p.source(xg, yg, t_n + 0.5 * cfg.tau)
    got = pr_adi_stepper(p, cfg)(u0, t_n)
    want = classical_pr_adi_heat_step(u0, f_mid, cfg.tau, 0.125, 0.125)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)


def test_three_adi_variants_agree_at_every_step():
    # douglas and dyakonov name the factored scheme that pr runs, so their
    # runs must match it bit for bit, norm history included, also with
    # unequal spacings and nonzero y-boundary data
    def boundary(x, y, t):
        return np.asarray(x) * (1.0 - np.asarray(x)) * np.asarray(y) * (1.0 + t)

    skewed = _custom_2d(
        alpha=1.3, beta=1.7, boundary=boundary, by=2.0, y_right_diffusivity=0.3
    )
    for p, nx, ny in ((make_example("ex4", 1.2, 1.8), 16, 16), (skewed, 16, 12)):
        runs = {
            name: run_2d(p, SolverConfig2D(Nx=nx, Ny=ny, M=nx, splitting=name))
            for name in ("pr", "douglas", "dyakonov")
        }
        for name in ("douglas", "dyakonov"):
            np.testing.assert_array_equal(runs[name].values, runs["pr"].values)
            np.testing.assert_array_equal(runs[name].norm_history, runs["pr"].norm_history)
            assert runs[name].max_err_final == runs["pr"].max_err_final


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


def test_run_assembles_boundary_frame():
    p = make_example("ex4", 1.2, 1.8)
    sol = run_2d(p, SolverConfig2D(Nx=8, Ny=8, M=4))
    assert sol.values.shape == (9, 9)
    np.testing.assert_array_equal(sol.values[0, :], np.zeros(9))
    np.testing.assert_array_equal(sol.values[:, -1], np.zeros(9))
    assert sol.t_final == pytest.approx(1.0)


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
# Guards and validation
# ---------------------------------------------------------------------------


def test_equal_spacing_required_for_non_pr_splittings():
    # only the decoupled splitting assumes one spacing; douglas and dyakonov
    # run the two-half-sweep stepper, which supports unequal spacings
    p = _custom_2d(by=2.0)
    with pytest.raises(ParameterError, match="one spacing"):
        run_2d(p, SolverConfig2D(Nx=8, Ny=8, M=2, splitting="lod"))
    for splitting in ("pr", "douglas", "dyakonov"):
        sol = run_2d(p, SolverConfig2D(Nx=8, Ny=8, M=2, splitting=splitting))
        assert sol.values.shape == (9, 9)


def test_nonzero_x_boundary_rejected():
    p = _custom_2d(boundary=lambda x, y, t: np.ones(np.broadcast(x, y).shape))
    with pytest.raises(ParameterError, match="x-boundaries"):
        run_2d(p, SolverConfig2D(Nx=8, Ny=8, M=2, splitting="pr"))


def test_lod_requires_fully_homogeneous_data():
    # zero on the x-sides but nonzero along the y-sides: the two-half-sweep
    # stepper accepts it, the decoupled one must refuse
    def boundary(x, y, t):
        return np.asarray(x) * (1.0 - np.asarray(x)) + 0.0 * np.asarray(y)

    p = _custom_2d(boundary=boundary)
    run_2d(p, SolverConfig2D(Nx=8, Ny=8, M=2, splitting="pr"))
    with pytest.raises(ParameterError, match="fully homogeneous"):
        run_2d(p, SolverConfig2D(Nx=8, Ny=8, M=2, splitting="lod"))


@pytest.mark.parametrize("splitting", ["pr", "lod"])
def test_non_finite_solution_raises_with_step_and_time(splitting):
    base = make_example("ex4", 1.2, 1.8)
    p = dataclasses.replace(
        base, source=lambda x, y, t: np.where(t > 0.6, np.nan, base.source(x, y, t))
    )
    with pytest.raises(SolverError, match=r"step 3 \(t=0\.75\)"):
        run_2d(p, SolverConfig2D(Nx=8, Ny=8, M=4, splitting=splitting))


@pytest.mark.parametrize("splitting", ["pr", "douglas", "dyakonov", "lod"])
def test_steppers_check_their_own_preconditions(splitting):
    # each factory checks what its own scheme needs, whatever splitting the
    # config names; the two-half-sweep stepper accepts both problems
    cfg = SolverConfig2D(Nx=8, Ny=8, M=2, splitting=splitting)
    skewed = _custom_2d(by=2.0)
    y_data = _custom_2d(
        boundary=lambda x, y, t: np.asarray(x) * (1.0 - np.asarray(x)) + 0.0 * np.asarray(y)
    )
    with pytest.raises(ParameterError, match="one spacing"):
        lod_stepper(skewed, cfg)
    with pytest.raises(ParameterError, match="fully homogeneous"):
        lod_stepper(y_data, cfg)
    for p in (skewed, y_data):
        assert pr_adi_stepper(p, cfg)(np.zeros((7, 7)), 0.0).shape == (7, 7)


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
