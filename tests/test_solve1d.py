"""One-dimensional solvers: frozen benchmark anchors, classical-limit oracle
agreement, discrete stability, configuration validation, the
Gohberg–Semencul backend against dense LU, and the dense size guard."""

from __future__ import annotations

import dataclasses
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg

from wsgdiff import operators, solve1d, solve2d
from wsgdiff import (
    P1Q0,
    P1QM1,
    ErrorRecord,
    ParameterError,
    Problem1D,
    SeparableSource,
    SolverConfig1D,
    SolverConfig2D,
    SolverError,
    assemble_wsgd_matrix,
    cn_wsgd_run,
    convergence_rate,
    make_example,
    run_2d,
    steady_solve_3wsgd,
)

from oracles import classical_cn_heat_run, theta_scheme_matrices
from _tables import STEADY


# ---------------------------------------------------------------------------
# Steady third-order solve
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [1.1, 1.9])
def test_steady_anchor_rows(alpha):
    # frozen benchmark values for the two coarsest resolutions
    for row in STEADY[alpha][:2]:
        n, max_want, _, l2_want, _ = row
        sol = steady_solve_3wsgd(make_example("ex0", alpha), n)
        assert sol.max_err_final == pytest.approx(max_want, rel=1e-3)
        assert sol.l2_err_final == pytest.approx(l2_want, rel=1e-3)
        assert sol.t_final is None
        assert sol.values[0] == 0.0 and sol.values[-1] == 1.0


def test_steady_observed_order_is_three():
    alpha = 1.5
    errs = [
        steady_solve_3wsgd(make_example("ex0", alpha), n).max_err_final
        for n in (32, 64, 128)
    ]
    rates = [convergence_rate(errs[i], errs[i + 1]) for i in range(2)]
    assert all(2.8 <= r <= 3.2 for r in rates), (errs, rates)


def test_steady_zero_data_gives_zero_solution():
    p = Problem1D(
        name="trivial",
        alpha=1.5,
        left_diffusivity=1.0,
        right_diffusivity=0.0,
        source=lambda x, t=0.0: np.zeros_like(x),
        initial=None,
        left_boundary=lambda t: 0.0,
        right_boundary=lambda t: 0.0,
        steady=True,
    )
    sol = steady_solve_3wsgd(p, 16)
    np.testing.assert_array_equal(sol.values, np.zeros(17))


def test_steady_solver_rejections():
    with pytest.raises(ParameterError, match="steady=True"):
        steady_solve_3wsgd(make_example("ex1", 1.5), 8)
    p2 = Problem1D(
        name="order-two",
        alpha=2.0,
        left_diffusivity=1.0,
        right_diffusivity=0.0,
        source=lambda x, t=0.0: np.zeros_like(x),
        initial=None,
        left_boundary=lambda t: 0.0,
        right_boundary=lambda t: 0.0,
        steady=True,
    )
    with pytest.raises(ParameterError, match="strictly between"):
        steady_solve_3wsgd(p2, 8)
    with pytest.raises(ParameterError, match="N=4"):
        steady_solve_3wsgd(make_example("ex0", 1.5), 3)


def test_time_stepping_needs_a_time_dependent_problem():
    with pytest.raises(ParameterError, match="time stepping expects a time-dependent problem"):
        cn_wsgd_run(make_example("ex0", 1.5), SolverConfig1D(N=8, M=2))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "no-exact"])
def test_steady_non_finite_solution_raises(exact):
    # a NaN source used to give 15 NaN values at N=16 and max_err_final=nan,
    # or, without an exact solution, no sign of trouble at all
    base = make_example("ex0", 1.5)
    p = dataclasses.replace(
        base,
        source=lambda x, t=0.0: np.where(np.asarray(x) > 0.5, np.nan, base.source(x, t)),
        exact=base.exact if exact else None,
    )
    with pytest.raises(SolverError, match="steady solve: non-finite solution"):
        steady_solve_3wsgd(p, 16)


def test_lu_solver_rejects_a_singular_matrix():
    with pytest.raises(SolverError, match="^check: singular system$"):
        solve1d.solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2), "check")


# ---------------------------------------------------------------------------
# Time-dependent benchmark anchors (frozen table values)
# ---------------------------------------------------------------------------


def test_left_sided_anchor():
    sol = cn_wsgd_run(
        make_example("ex1", 1.5), SolverConfig1D(N=32, M=32, scheme=P1Q0)
    )
    assert sol.max_err_running == pytest.approx(1.25568e-05, rel=5e-4)
    assert sol.l2_err_final == pytest.approx(2.30799e-06, rel=5e-4)


def test_variable_coefficient_anchor():
    sol = cn_wsgd_run(
        make_example("ex3", 1.5), SolverConfig1D(N=64, M=64, scheme=P1Q0)
    )
    assert sol.max_err_running == pytest.approx(1.10524e-05, rel=5e-4)
    assert sol.l2_err_final == pytest.approx(3.61334e-06, rel=5e-4)


def test_running_max_dominates_final_max():
    sol = cn_wsgd_run(make_example("ex2", 1.3), SolverConfig1D(N=32, M=32))
    assert sol.max_err_running >= sol.max_err_final
    assert sol.norm_history.size == 33
    assert sol.t_final == pytest.approx(1.0)


@pytest.mark.parametrize("N", [64, 1024])
def test_a_nan_error_level_makes_the_running_error_nan(N):
    # the running error was max(running, block), which drops a NaN second
    # argument: a NaN exact value at t = 1/2, inside the one stepped block
    # at N=64 or a later one of 32 levels at N=1024, read 0.0 or the clean
    # run's 4.44e-8
    base = make_example("ex2", 1.5)
    exact = lambda x, t: np.where(t == 0.5, np.nan, base.exact(x, t))
    sol = cn_wsgd_run(dataclasses.replace(base, exact=exact), SolverConfig1D(N=N, M=N))
    assert np.isnan(sol.max_err_running)
    with pytest.raises(ParameterError, match="nonnegative and finite"):
        ErrorRecord(N, N, sol.max_err_running, sol.l2_err_final)


def test_boundary_nodes_carry_boundary_data():
    p = make_example("ex1", 1.5)
    sol = cn_wsgd_run(p, SolverConfig1D(N=16, M=4))
    assert sol.values[0] == pytest.approx(p.left_boundary(1.0), abs=1e-15)
    assert sol.values[-1] == pytest.approx(p.right_boundary(1.0), abs=1e-15)
    assert sol.x[0] == 0.0 and sol.x[-1] == 1.0


def test_zero_problem_stays_zero():
    p = Problem1D(
        name="null",
        alpha=1.5,
        left_diffusivity=0.5,
        right_diffusivity=0.5,
        source=lambda x, t: np.zeros_like(x),
        initial=lambda x: np.zeros_like(x),
        left_boundary=lambda t: 0.0,
        right_boundary=lambda t: 0.0,
    )
    sol = cn_wsgd_run(p, SolverConfig1D(N=16, M=10))
    np.testing.assert_array_equal(sol.values, np.zeros(17))
    np.testing.assert_array_equal(sol.norm_history, np.zeros(11))


# ---------------------------------------------------------------------------
# Classical limit vs. independent heat oracle
# ---------------------------------------------------------------------------


def test_order_two_matches_classical_heat_stepping():
    rng = np.random.default_rng(3)
    big_n, steps = 8, 5
    xi = np.linspace(0.0, 1.0, big_n + 1)[1:-1]
    u0 = np.sin(np.pi * xi) + 0.1 * rng.standard_normal(big_n - 1)

    def source(x, t):
        return np.asarray(x) * (1.0 - np.asarray(x)) * np.exp(-t)

    def initial(x):
        return np.interp(x, xi, u0)

    p = Problem1D(
        name="heat",
        alpha=2.0,
        left_diffusivity=0.5,
        right_diffusivity=0.5,
        source=source,
        initial=initial,
        left_boundary=lambda t: 0.0,
        right_boundary=lambda t: 0.0,
    )
    cfg = SolverConfig1D(N=big_n, M=steps, scheme=P1Q0)
    sol = cn_wsgd_run(p, cfg)
    want = classical_cn_heat_run(u0, 1.0, 1.0 / big_n, cfg.tau, steps, source, xi)
    np.testing.assert_allclose(sol.values[1:-1], want, rtol=0, atol=1e-11)


def _theta_matrices(problem, config):
    """The oracle's ``(I - theta B, I + (1-theta) B)`` of a run of a
    constant-coefficient ``problem``, assembled apart from the solver."""
    h = (problem.b - problem.a) / config.N
    shifts = {P1Q0: (1, 0), P1QM1: (1, -1)}[config.scheme]
    diffusivities = (problem.left_diffusivity, problem.right_diffusivity)
    return theta_scheme_matrices(
        problem.alpha, shifts, diffusivities, config.N - 1, config.tau / h**problem.alpha, config.theta
    )


def test_assemble_cn_system_theta_identities():
    p = make_example("ex2", 1.5)
    cfg = SolverConfig1D(N=12, M=6, theta=0.5)
    lhs_half, rhs_half = _theta_matrices(p, cfg)
    np.testing.assert_allclose(lhs_half + rhs_half, 2.0 * np.eye(11), atol=1e-13)
    cfg = SolverConfig1D(N=12, M=6, theta=1.0)
    lhs_full, rhs_full = _theta_matrices(p, cfg)
    np.testing.assert_allclose(rhs_full, np.eye(11), rtol=0, atol=0)
    np.testing.assert_allclose(
        lhs_full - np.eye(11), 2.0 * (lhs_half - np.eye(11)), atol=1e-13
    )
    # the dense step's factor, stepped from each unit state with no known
    # terms, is the oracle's L^-1 R
    for theta, (lhs, rhs) in ((0.5, (lhs_half, rhs_half)), (1.0, (lhs_full, rhs_full))):
        cfg = SolverConfig1D(N=12, M=6, theta=theta)
        for mirrored in (True, False):
            advance, (into, back) = solve1d._dense_steps(p, cfg, *_diffusivities(p, cfg), mirrored)
            columns = [back(advance(into(e), into(np.zeros((1, 11)))))[0] for e in np.eye(11)]
            np.testing.assert_allclose(
                np.transpose(columns), np.linalg.solve(lhs, rhs), rtol=0, atol=1e-13
            )


# ---------------------------------------------------------------------------
# Discrete stability: no growth without forcing
# ---------------------------------------------------------------------------


def _decay_problem(alpha):
    return Problem1D(
        name="decay",
        alpha=alpha,
        left_diffusivity=0.5,
        right_diffusivity=0.5,
        source=lambda x, t: np.zeros_like(x),
        initial=lambda x: np.asarray(x) * 0.0 + np.sin(3.0 * np.pi * np.asarray(x)),
        left_boundary=lambda t: 0.0,
        right_boundary=lambda t: 0.0,
    )


@pytest.mark.parametrize("scheme", [P1Q0, P1QM1])
@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("ratio", [1.0, 100.0])
def test_zero_source_norms_never_grow(scheme, theta, ratio):
    alpha = 1.5
    big_n, steps = 16, 20
    h = 1.0 / big_n
    tau = ratio * h**alpha
    cfg = SolverConfig1D(N=big_n, M=steps, theta=theta, scheme=scheme, T=steps * tau)
    sol = cn_wsgd_run(_decay_problem(alpha), cfg)
    history = sol.norm_history
    assert history.size == steps + 1
    assert np.all(history <= history[0] * (1.0 + 1e-10))


def test_theta_outside_window_warns():
    with pytest.warns(UserWarning, match="stability window"):
        SolverConfig1D(N=8, M=4, theta=0.3)


@pytest.mark.parametrize("sampling", ["average", "midpoint"])
def test_non_finite_solution_raises_with_step_and_time(sampling):
    # a source that turns NaN on the third slab must stop the run there
    # instead of reporting a finite running error, read as a plain callable
    # or as a separable source whose time factor turns NaN
    base = make_example("ex1", 1.5)
    nan_late = lambda t, value: np.where(t > 0.6, np.nan, value)
    for source in (
        lambda x, t: nan_late(t, base.source(x, t)),
        SeparableSource(lambda t: nan_late(t, base.source.time(t)), base.source.space),
    ):
        p = dataclasses.replace(base, source=source)
        with pytest.raises(SolverError, match=r"step 3 \(t=0\.75\)"):
            cn_wsgd_run(p, SolverConfig1D(N=8, M=4, source_sampling=sampling))


# ---------------------------------------------------------------------------
# Observed time-dependent convergence stays in the second-order band
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "tag,alpha,scheme",
    [("ex1", 1.5, P1Q0), ("ex2", 1.5, P1QM1), ("ex3", 1.1, P1Q0)],
)
def test_l2_rates_in_band_on_finest_window(tag, alpha, scheme):
    p = make_example(tag, alpha)
    errs = []
    for n in (64, 128, 256):
        sol = cn_wsgd_run(p, SolverConfig1D(N=n, M=n, scheme=scheme))
        errs.append(sol.l2_err_final)
    rates = [convergence_rate(errs[i], errs[i + 1]) for i in range(2)]
    assert all(1.8 <= r <= 2.6 for r in rates), (errs, rates)


# ---------------------------------------------------------------------------
# Source sampling and configuration validation
# ---------------------------------------------------------------------------


def test_source_sampling_modes_differ():
    p = make_example("ex1", 1.5)
    avg = cn_wsgd_run(p, SolverConfig1D(N=16, M=16, source_sampling="average"))
    mid = cn_wsgd_run(p, SolverConfig1D(N=16, M=16, source_sampling="midpoint"))
    assert avg.max_err_running != mid.max_err_running


def test_config_validation():
    with pytest.raises(ParameterError, match="N=4"):
        SolverConfig1D(N=3, M=4)
    with pytest.raises(ParameterError, match="M=1"):
        SolverConfig1D(N=8, M=0)
    with pytest.raises(ParameterError, match="scheme"):
        SolverConfig1D(N=8, M=4, scheme="pqr")
    with pytest.raises(ParameterError, match="final time"):
        SolverConfig1D(N=8, M=4, T=0.0)
    with pytest.raises(ParameterError, match="source sampling"):
        SolverConfig1D(N=8, M=4, source_sampling="left")
    with pytest.raises(ParameterError, match="theta"):
        SolverConfig1D(N=8, M=4, theta=float("nan"))
    for T in (float("inf"), float("nan")):
        with pytest.raises(ParameterError, match="final time"):
            SolverConfig1D(N=8, M=4, T=T)
    assert SolverConfig1D(N=8, M=4, T=2.0).tau == pytest.approx(0.5)


@pytest.mark.parametrize(
    "field,value,message",
    [("T", "1", r"final time T .*'1' \(not a real"), ("theta", "0.5", r"theta .*'0.5' \(not a real")],
    ids=["T", "theta"],
)
def test_non_real_config_values_name_the_field(field, value, message):
    # these used to escape as numpy's TypeError from np.isfinite
    with pytest.raises(ParameterError, match=message):
        SolverConfig1D(N=8, M=2, **{field: value})


def test_config_stores_integral_floats_as_int():
    # N=8.0 used to pass the checks and then fail the run with a TypeError
    # (slice indices), as did M=4.0 (in np.empty)
    config = SolverConfig1D(N=8.0, M=4.0)
    assert (type(config.N), type(config.M)) == (int, int)
    p = make_example("ex2", 1.5)
    got = cn_wsgd_run(p, config)
    want = cn_wsgd_run(p, SolverConfig1D(N=8, M=4))
    np.testing.assert_array_equal(got.values, want.values)
    assert got.max_err_running == want.max_err_running
    for bad, message in (
        (dict(N=8.5, M=4), "need at least N=4 spatial intervals, got 8.5"),
        (dict(N=3.0, M=4), "need at least N=4 spatial intervals, got 3.0"),
        (dict(N=8, M=2.5), "need at least M=1 time steps, got 2.5"),
        (dict(N=8, M=0.0), "need at least M=1 time steps, got 0.0"),
        # these used to escape as ValueError/OverflowError from int()
        (dict(N=float("nan"), M=4), "need at least N=4 spatial intervals, got nan"),
        (dict(N=8, M=float("inf")), "need at least M=1 time steps, got inf"),
    ):
        with pytest.raises(ParameterError, match=message):
            SolverConfig1D(**bad)
    with pytest.raises(ParameterError, match="need at least N=4 intervals, got nan"):
        steady_solve_3wsgd(make_example("ex0", 1.5), float("nan"))


# ---------------------------------------------------------------------------
# Gohberg–Semencul backend against the dense-LU oracle
# ---------------------------------------------------------------------------


def _constant_problem(name, kl, kr, alpha):
    """Constant diffusivities, with nonzero end data at each end whose
    one-sided derivative is inactive (its diffusivity 0) and zero data at an
    active end."""
    return Problem1D(
        name=name,
        alpha=alpha,
        left_diffusivity=kl,
        right_diffusivity=kr,
        source=lambda x, t: np.sin(np.pi * np.asarray(x)) * np.exp(-t) + 0.3 * t,
        initial=lambda x: np.asarray(x) * (1.0 - np.asarray(x)) + 0.4,
        left_boundary=lambda t: 0.0 if kl else 0.4 + 0.5 * t,
        right_boundary=lambda t: 0.0 if kr else 0.4 * np.cos(t),
    )


_GS_PROBLEMS = {
    "ex1": lambda alpha: make_example("ex1", alpha),
    "ex2": lambda alpha: make_example("ex2", alpha),
    "unequal": lambda alpha: _constant_problem("unequal", 0.7, 0.2, alpha),
    "left-zero": lambda alpha: _constant_problem("left-zero", 0.0, 1.3, alpha),
    "right-zero": lambda alpha: _constant_problem("right-zero", 1.3, 0.0, alpha),
}


def _force(monkeypatch, backend):
    """Step every run on ``backend``, past :func:`solve1d._backend`."""
    monkeypatch.setattr(solve1d, "_backend", lambda *_: backend)


def _run_with(monkeypatch, backend, problem, config):
    """A run forced onto ``backend``, which it must name."""
    with monkeypatch.context() as m:
        _force(m, backend)
        sol = cn_wsgd_run(problem, config)
    assert sol.backend == backend
    return sol


def _diffusivities(problem, config):
    """The diffusivities on the interior nodes, as a run samples them."""
    return problem.diffusivity_values(solve1d._grid(problem, config.N)[2])


@pytest.mark.parametrize("sampling", ["average", "midpoint"])
@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("name", sorted(_GS_PROBLEMS))
def test_gs_run_matches_dense_run(monkeypatch, name, alpha, theta, sampling):
    # the Toeplitz path forced at a small grid against the dense-LU oracle;
    # errors near 1e-6 inherit the values' absolute differences, so they
    # are compared on the scale of the solution
    p = _GS_PROBLEMS[name](alpha)
    cfg = SolverConfig1D(N=24, M=12, theta=theta, scheme=P1QM1, source_sampling=sampling)
    gs = _run_with(monkeypatch, "gs", p, cfg)
    dense = _run_with(monkeypatch, "dense", p, cfg)
    scale = np.max(np.abs(dense.values))
    np.testing.assert_allclose(gs.values, dense.values, rtol=0, atol=1e-10 * scale)
    np.testing.assert_allclose(
        gs.norm_history, dense.norm_history, rtol=0, atol=1e-10 * np.max(dense.norm_history)
    )
    for field in ("max_err_running", "max_err_final", "l2_err_final"):
        got, want = getattr(gs, field), getattr(dense, field)
        if want is None:
            assert got is None
        else:
            assert abs(got - want) <= 1e-10 * scale, (field, got, want)
    assert gs.values[0] == dense.values[0] and gs.values[-1] == dense.values[-1]


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("N", [4, 5, 9, 33])
def test_gs_setup_is_the_dense_system(N, theta):
    # the set-up Toeplitz solve, a step from zero, against the dense matrix,
    # and the Cayley-form step against the dense step, below the size where
    # runs pick it; runs pick it only at theta >= 1/2
    rng = np.random.default_rng(N)
    p = _constant_problem("unequal", 0.9, 0.35, 1.7)
    cfg = SolverConfig1D(N=N, M=3, theta=theta, T=0.5)
    lhs, _ = _theta_matrices(p, cfg)
    advance, basis = solve1d._gs_steps(p, cfg)
    assert basis is solve1d._GRID
    for _ in range(3):
        v = rng.standard_normal(N - 1)
        (solved,) = advance(np.zeros(N - 1), v[None])
        np.testing.assert_allclose(solved, np.linalg.solve(lhs, v), rtol=0, atol=1e-12)
    dense_advance, _ = solve1d._dense_steps(p, cfg, *_diffusivities(p, cfg), False)
    U, f, b = rng.standard_normal((3, N - 1, 4))
    for j, u in enumerate(U.T):
        v = f[:, j] + b[:, j]
        step, dense_step = advance(u, v[None]), dense_advance(u, v[None])
        gap = np.max(np.abs(step - dense_step)) / np.max(np.abs(dense_step))
        assert gap <= 1e-10, (j, gap)


@pytest.mark.parametrize("theta", [0.5, 0.8])
@pytest.mark.parametrize("backend", ["dense", "gs"], ids=["_dense_steps", "_gs_steps"])
def test_backend_steps_a_block_as_its_slabs_one_at_a_time(backend, theta):
    # a backend scales a block's known terms once, elementwise, so a block
    # of slabs gives the bits of stepping them one slab at a time
    p = _constant_problem("unequal", 0.9, 0.35, 1.7)
    cfg = SolverConfig1D(N=33, M=5, theta=theta)
    if backend == "gs":
        advance, _ = solve1d._gs_steps(p, cfg)
    else:
        advance, _ = solve1d._dense_steps(p, cfg, *_diffusivities(p, cfg), False)
    rng = np.random.default_rng(33)
    U, terms = rng.standard_normal(32), rng.standard_normal((5, 32))
    block = advance(U, terms)
    assert block.shape == (5, 32) and block.flags.c_contiguous
    for v, want in zip(terms, block):
        (U,) = advance(U, v[None])
        np.testing.assert_array_equal(U, want)


def _left_generators(alpha, scheme, n, kl=0.8, kr=0.3, theta=0.5):
    """First column and row of ``L = I - theta*B`` for constant
    diffusivities ``kl``, ``kr`` (unequal unless given), with the scale
    ``tau/h**alpha`` of ``N = tau^-1 = n + 1``."""
    A = assemble_wsgd_matrix(alpha, scheme, max(n, 2))
    scale = (n + 1.0) ** (alpha - 1.0)
    unit = np.zeros(A.n)
    unit[0] = 1.0
    col = unit - theta * scale * (kl * A.first_col + kr * A.first_row)
    row = unit - theta * scale * (kl * A.first_row + kr * A.first_col)
    return col[:n], row[:n]


@pytest.mark.parametrize("n", [1, 2, 31, 511])
@pytest.mark.parametrize("scheme", [P1Q0, P1QM1])
@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_levinson_ends_match_scipy_toeplitz_solve(alpha, scheme, n):
    # the Gohberg–Semencul setup's two Levinson solves, L^-1 e_1 and
    # L^-1 e_n, against scipy's Levinson solver, for unequal and for equal
    # diffusivities; equal ones give a symmetric generator, col == row, whose
    # recursion carries one vector, so y is x reversed, bit for bit
    ends = np.zeros((n, 2))
    ends[0, 0] = ends[-1, 1] = 1.0
    for kl, kr in ((0.8, 0.3), (1.0, 1.0)):
        col, row = _left_generators(alpha, scheme, n, kl, kr)
        want = scipy.linalg.solve_toeplitz((col, row), ends)
        x, y = solve1d._levinson_ends(col, row)
        for got, ref in zip((x, y), want.T):
            assert got.shape == (n,)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        if kl == kr:
            assert np.array_equal(col.view(np.uint64), row.view(np.uint64))
            assert np.array_equal(y.view(np.uint64), x[::-1].view(np.uint64))


@pytest.mark.parametrize(
    "col,row,order", [([0.0, 1.0], [0.0, 2.0], 1), ([1.0, 1.0, 0.5], [1.0, 1.0, 3.0], 2)]
)
def test_levinson_ends_refuse_a_singular_leading_minor(col, row, order):
    with pytest.raises(SolverError, match=rf"Levinson recursion broke down at order {order}$"):
        solve1d._levinson_ends(np.array(col), np.array(row))


def test_gs_step_makes_six_real_transforms(monkeypatch):
    # a Gohberg–Semencul step is one solve, six rows of real transforms,
    # and no product with the right matrix, which would add two more
    rows = []

    def spy(name):
        original = getattr(np.fft, name)

        def counted(a, *args, **kwargs):
            rows.append(int(np.prod(np.shape(a)[:-1])))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)

    spy("rfft")
    spy("irfft")
    counts = []
    for M in (5, 6):
        rows.clear()
        _run_with(monkeypatch, "gs", make_example("ex2", 1.5), SolverConfig1D(N=24, M=M))
        counts.append(sum(rows))
    assert counts[1] - counts[0] == 6


_GS = solve1d._GS_MIN_N


def _picked(problem, config):
    return solve1d._backend(problem, config, *_diffusivities(problem, config))


def test_backend_is_picked_from_the_input():
    # the cases test_every_solve_names_its_backend does not run: mirrored
    # diffusivities step on the even/odd halves, at half the dense work, up
    # to twice the crossover, and the crossover itself is on the Toeplitz
    # side for unequal constants too
    large = SolverConfig1D(N=512, M=2)
    with pytest.warns(UserWarning, match="stability window"):
        negative = SolverConfig1D(N=2 * _GS, M=2, theta=-0.1)
    cases = [
        (make_example("ex2", 1.5), large, "dense-halves"),
        (make_example("ex1", 1.5), dataclasses.replace(large, theta=1.0), "gs"),
        (make_example("ex2", 1.5), SolverConfig1D(N=64, M=2), "dense-halves"),
        (make_example("ex2", 1.5), negative, "dense-halves"),
        (_constant_problem("unequal", 0.7, 0.2, 1.5), SolverConfig1D(N=_GS, M=2), "gs"),
    ]
    for problem, config, want in cases:
        assert _picked(problem, config) == want, (problem.name, config)


def test_gs_backend_runs_only_inside_the_stability_window(monkeypatch):
    # below theta = 1/2 the Cayley-form step's rounding grows like
    # eps/theta a step, so those runs step densely, and meet the dense cap
    problem, N = make_example("ex2", 1.5), 2 * _GS
    with pytest.warns(UserWarning, match="stability window"):
        low = SolverConfig1D(N=N, M=2, theta=0.3)
    for config, want in ((low, "dense-halves"), (SolverConfig1D(N=N, M=2), "gs")):
        assert _picked(problem, config) == want, config.theta

    orders = _refuse_dense(monkeypatch)
    with pytest.warns(UserWarning, match="stability window"):
        huge = SolverConfig1D(N=operators.DENSE_MAX_ORDER + 2, M=1, theta=0.3)
    assert _picked(problem, huge) == "dense-halves"
    with pytest.raises(ParameterError, match="cap"):
        cn_wsgd_run(problem, huge)
    assert orders == [huge.N - 1]


@pytest.mark.filterwarnings("ignore:theta=0.3 lies outside")
@pytest.mark.parametrize(
    "name,N,theta,want",
    [
        ("ex0", 64, None, "dense"),
        ("ex1", _GS - 1, 0.5, "dense"),
        ("ex1", _GS, 0.5, "gs"),
        ("ex2", 2 * _GS - 1, 0.5, "dense-halves"),
        ("ex2", 2 * _GS, 0.5, "gs"),
        ("ex2", 2 * _GS, 0.3, "dense-halves"),
        ("ex3", 512, 0.5, "dense-halves"),
        ("ex3", 100, 0.5, "dense"),
        ("ex4", 16, None, "eigen"),
        ("ex4-plain", 16, None, "dense"),
    ],
)
def test_every_solve_names_its_backend(name, N, theta, want):
    # the Solution records the path its input picked; ex3's sampled
    # diffusivities mirror each other only on power-of-two grids, and ex4's
    # source wrapped in a plain callable loses its separable structure
    if name == "ex0":
        sol = steady_solve_3wsgd(make_example(name, 1.5), N)
    elif name.startswith("ex4"):
        p = make_example("ex4", 1.2, 1.8)
        if name == "ex4-plain":
            p = dataclasses.replace(p, source=lambda x, y, t, f=p.source: f(x, y, t))
        sol = run_2d(p, SolverConfig2D(Nx=N, Ny=N, M=2))
    else:
        sol = cn_wsgd_run(make_example(name, 1.5), SolverConfig1D(N=N, M=2, theta=theta))
    assert sol.backend == want


@pytest.mark.parametrize("sampling", ["average", "midpoint"])
def test_gs_non_finite_solution_raises_with_step_and_time(monkeypatch, sampling):
    base = make_example("ex2", 1.5)
    p = dataclasses.replace(
        base, source=lambda x, t: np.where(t > 0.6, np.nan, base.source(x, t))
    )
    with pytest.raises(SolverError, match=r"step 3 \(t=0\.75\)"):
        _run_with(monkeypatch, "gs", p, SolverConfig1D(N=8, M=4, source_sampling=sampling))


@pytest.mark.parametrize("backend", ["gs", "dense"])
@pytest.mark.parametrize("sampling", ["average", "midpoint"])
def test_stepper_reuses_its_source_value_only_at_the_slab_end(monkeypatch, sampling, backend):
    # a block samples the source once, so an average-sampled block of count
    # steps reads count + 1 levels and shares each inner one between two
    # slabs; the states are the same whether the levels come as one block or
    # as two
    _force(monkeypatch, backend)
    base = _constant_problem("unequal", 0.7, 0.2, 1.6)
    calls = []

    def source(x, t):
        calls.append(np.size(t))
        return base.source(x, t)

    p = dataclasses.replace(base, source=source)
    cfg = SolverConfig1D(N=24, M=4, source_sampling=sampling)
    steps = solve1d._cn_setup(p, cfg)[0]
    U = np.linspace(0.1, 0.9, cfg.N - 1)
    (whole,) = steps(U, 0)
    assert whole.shape == (4, cfg.N - 1) and whole.flags.c_contiguous
    assert calls == [5 if sampling == "average" else 4]
    monkeypatch.setattr(solve1d, "_BLOCK_ENTRIES", 2 * (cfg.N - 1))
    halves = list(steps(U, 0))
    assert len(calls) == 3
    assert np.array_equal(whole, np.concatenate(halves))


@pytest.mark.parametrize("backend", ["gs", "dense-halves"], ids=["gs", "dense"])
def test_stepper_steps_only_from_levels(monkeypatch, backend):
    # a 1D stepper used to take one step from a time t_n; it must start at
    # a level 0 <= k < M
    _force(monkeypatch, backend)
    cfg = SolverConfig1D(N=16, M=4)
    steps = solve1d._cn_setup(make_example("ex2", 1.5), cfg)[0]
    U = np.linspace(0.1, 0.9, cfg.N - 1)
    assert next(steps(U, 3)).shape == (1, cfg.N - 1)
    for k in (4, 5, -1, 0.5, 3.0):
        with pytest.raises(ParameterError, match=rf"cannot step from level {k}"):
            next(steps(U, k))


@pytest.mark.parametrize("M", [7, 2049])
def test_run_samples_source_and_exact_once_a_block(M):
    # an average-sampled run used to evaluate the source twice at each slab
    # end where n*tau + tau != (n+1)*tau: 9 calls at N=33, M=7; the exact
    # solution is sampled for each block's stepped levels, and once at t = 0
    base = make_example("ex2", 1.5)
    calls = {"source": 0, "exact": 0}

    def counted(name):
        def fn(x, t):
            calls[name] += 1
            return getattr(base, name)(x, t)

        return fn

    p = dataclasses.replace(base, source=counted("source"), exact=counted("exact"))
    cfg = SolverConfig1D(N=33, M=M, T=0.7)
    width = next(solve1d._blocks(0, cfg.M, cfg.N - 1))[1]
    want = cn_wsgd_run(base, cfg)
    got = cn_wsgd_run(p, cfg)
    assert calls == {"source": -(-M // width), "exact": -(-M // width) + 1}
    assert (width, calls["source"]) == ((7, 1) if M == 7 else (1024, 3))
    np.testing.assert_array_equal(got.values, want.values)


_SEPARABLE_RUNS = [
    ("ex1", "gs"),
    ("ex2", "gs"),
    ("ex1", "dense"),
    ("ex2", "dense"),
    ("ex2", "dense-halves"),
]


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("sampling", ["average", "midpoint"])
@pytest.mark.parametrize("name,backend", _SEPARABLE_RUNS, ids=map("-".join, _SEPARABLE_RUNS))
def test_separable_source_is_read_once_a_run(monkeypatch, name, backend, sampling, theta):
    # a 1D run reads a SeparableSource's time factor once, on every level
    # time (every midpoint time), and its space factor once, on the nodes,
    # over a run of three blocks, and steps the bits of the same source read
    # a block at a time as a plain callable; ex1 has nonzero right-end data
    monkeypatch.setattr(solve1d, "_BLOCK_ENTRIES", 3 * 15)
    base = make_example(name, 1.5)
    reads = []

    def time(t):
        reads.append(("time", np.shape(t)))
        return base.source.time(t)

    def space(x):
        reads.append(("space", np.shape(x)))
        return base.source.space(x)

    cfg = SolverConfig1D(N=16, M=8, theta=theta, source_sampling=sampling)
    assert len(list(solve1d._blocks(0, cfg.M, cfg.N - 1))) == 3
    separable = dataclasses.replace(base, source=SeparableSource(time, space))
    got = _run_with(monkeypatch, backend, separable, cfg)
    times = cfg.M + 1 if sampling == "average" else cfg.M
    assert reads == [("time", (times,)), ("space", (1, cfg.N - 1))]
    plain = dataclasses.replace(base, source=lambda x, t: base.source(x, t))
    want = _run_with(monkeypatch, backend, plain, cfg)
    for field in ("values", "norm_history", "max_err_running", "max_err_final", "l2_err_final"):
        bits = [np.asarray(getattr(sol, field), dtype=float).view(np.uint64) for sol in (got, want)]
        assert np.array_equal(*bits), field


def test_dense_run_solves_once_a_block(monkeypatch):
    # the setup forms C = L^-1 R, and no block solves again: a block used to
    # lift its known terms by L^-1 with one more solve, but in Cayley form
    # L^-1 = theta C + (1 - theta) I, so a step is one product with C; ex3's
    # diffusivities mirror each other, so the setup solves the even and odd
    # halves of order 32 one at a time
    contexts, shapes = [], []
    helper, linalg_solve = solve1d.solve, np.linalg.solve

    def counted_helper(*args):
        contexts.append(args[-1])
        return helper(*args)

    def counted_solve(a, b):
        shapes.append(np.shape(b))
        return linalg_solve(a, b)

    monkeypatch.setattr(solve1d, "solve", counted_helper)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    cfg = SolverConfig1D(N=64, M=1100)
    sol = cn_wsgd_run(make_example("ex3", 1.5), cfg)
    assert next(solve1d._blocks(0, cfg.M, cfg.N - 1)) == (0, 520)
    assert contexts == ["time step"] * 2 and shapes == [(32, 32)] * 2
    assert sol.max_err_final < 1e-4


def test_diffusivities_one_ulp_off_the_mirror_take_the_full_system(monkeypatch):
    # the even/odd split needs dl = J dr exactly: ex3 steps on the halves,
    # while ex3 with one sample of dr nudged by one ulp assembles and solves
    # the full system, bit for bit as a run forced onto it
    shapes = []
    helper = solve1d.solve
    monkeypatch.setattr(
        solve1d, "solve", lambda a, b, context: shapes.append(np.shape(b)) or helper(a, b, context)
    )
    base = make_example("ex3", 1.5)

    def nudged(x):
        d = np.array(base.right_diffusivity(x), dtype=float)
        d.flat[3] = np.nextafter(d.flat[3], np.inf)
        return d

    p = dataclasses.replace(base, right_diffusivity=nudged)
    cfg = SolverConfig1D(N=16, M=8)
    halves = cn_wsgd_run(base, cfg)
    got = cn_wsgd_run(p, cfg)
    want = _run_with(monkeypatch, "dense", p, cfg)
    assert (halves.backend, got.backend) == ("dense-halves", "dense")
    assert shapes == [(8, 8), (8, 8), (15, 15), (15, 15)]
    for field in ("values", "norm_history", "max_err_running", "max_err_final", "l2_err_final"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("mirrored", [True, False], ids=["ex3", "unmirrored"])
def test_run_reads_the_diffusivities_once(mirrored):
    # the backend selection, the dense setup and the boundary columns share
    # one sample: a run used to read a callable diffusivity 2 times on ex3,
    # and 3 times once the right one no longer mirrors the left
    base = make_example("ex3", 1.5)
    calls = []

    def left(x):
        calls.append(np.shape(x))
        return base.left_diffusivity(x)

    right = base.right_diffusivity if mirrored else lambda x: 0.5 * np.asarray(x) ** 0.5 + 0.1
    p = dataclasses.replace(base, left_diffusivity=left, right_diffusivity=right)
    calls.clear()
    cn_wsgd_run(p, SolverConfig1D(N=16, M=4))
    assert calls == [(15,)]


@pytest.mark.parametrize("name", ["ex2", "ex3"])
def test_mirrored_setup_holds_no_two_stacks_beside_a_solve(name):
    # the setup used to hold the (2, p, p) stacks of L, R and C and an
    # identity at once, 3.55 stacks at N=256; it now solves one half at a
    # time, over the stack of B
    problem, cfg = make_example(name, 1.5), SolverConfig1D(N=256, M=4)
    dl, dr = _diffusivities(problem, cfg)
    p = (cfg.N - 1) - (cfg.N - 1) // 2
    solve1d._dense_steps(problem, cfg, dl, dr, True)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        solve1d._dense_steps(problem, cfg, dl, dr, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = 2 * p * p * 8
    assert peak <= 2.75 * stack, peak / stack


@pytest.mark.parametrize("name", ["ex1", "unequal"])
def test_grid_setup_holds_no_identity_and_no_second_system(name):
    # the grid setup used to hold B, I, L and R beside the solve, 5.0
    # matrices at N=256; it now turns its one block of B into C in place,
    # as the halves do, and holds C alone afterwards
    problem = make_example("ex1", 1.5) if name == "ex1" else _constant_problem(name, 0.9, 0.35, 1.5)
    cfg = SolverConfig1D(N=256, M=4)
    dl, dr = _diffusivities(problem, cfg)
    assert solve1d._backend(problem, cfg, dl, dr) == "dense"
    solve1d._dense_steps(problem, cfg, dl, dr, False)  # lazy set-up outside the trace
    tracemalloc.start()
    try:
        kept = solve1d._dense_steps(problem, cfg, dl, dr, False)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrix = (cfg.N - 1) ** 2 * 8
    assert peak <= 3.25 * matrix, peak / matrix
    assert held <= 1.05 * matrix, held / matrix


@pytest.mark.parametrize("theta", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("count", [1, 2])
def test_cayley_is_the_solve_of_the_two_step_matrices(count, theta):
    # each block of the stack becomes (I - theta B)^-1 (I + (1-theta) B), in
    # place and bit for bit as the solve of the two matrices formed apart
    rng = np.random.default_rng(count)
    blocks = rng.standard_normal((count, 9, 9))
    want = [np.linalg.solve(np.eye(9) - theta * b, np.eye(9) + (1.0 - theta) * b) for b in blocks]
    got = solve1d._cayley(blocks, theta, "test")
    assert got is blocks
    for c, w in zip(got, want):
        assert np.array_equal(c.view(np.uint64), w.view(np.uint64))


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("scheme", [P1Q0, P1QM1])
def test_mirrored_run_below_twice_the_crossover_steps_on_the_halves(monkeypatch, scheme, theta):
    # ex2 at N=512 lies between the crossover and twice it, so it steps
    # densely on the even/odd halves and agrees with the Toeplitz run
    cfg = SolverConfig1D(N=512, M=8, theta=theta, scheme=scheme)
    halves = cn_wsgd_run(make_example("ex2", 1.5), cfg)
    gs = _run_with(monkeypatch, "gs", make_example("ex2", 1.5), cfg)
    assert halves.backend == "dense-halves"
    scale = np.max(np.abs(gs.values))
    for field in ("values", "norm_history", "max_err_running", "max_err_final", "l2_err_final"):
        gap = np.max(np.abs(getattr(halves, field) - getattr(gs, field)))
        assert gap <= 1e-10 * scale, (field, gap)


def test_run_reads_each_level_of_end_data_once():
    # the final frame used to read both ends at t = T again, unchecked, after
    # the setup had read and checked every level: M + 2 calls an end
    base = _constant_problem("left-zero", 0.0, 1.3, 1.6)
    calls = {"left": 0, "right": 0}

    def counted(side):
        fn = getattr(base, f"{side}_boundary")
        return lambda t: calls.__setitem__(side, calls[side] + 1) or fn(t)

    p = dataclasses.replace(base, left_boundary=counted("left"), right_boundary=counted("right"))
    calls.update(left=0, right=0)
    cfg = SolverConfig1D(N=16, M=10, T=0.5)
    sol = cn_wsgd_run(p, cfg)
    assert calls == {"left": cfg.M + 1, "right": cfg.M + 1}
    t = cfg.M * cfg.tau
    assert (sol.values[0], sol.values[-1]) == (base.left_boundary(t), base.right_boundary(t))


def test_run_checks_boundary_data_at_every_level():
    # the record checks its data at t = 0 only, where sin(2 pi t) vanishes;
    # the run used to end with left value 1.0
    p = dataclasses.replace(
        make_example("ex2", 1.5), left_boundary=lambda t: float(np.sin(2.0 * np.pi * t))
    )
    cfg = SolverConfig1D(N=16, M=16, T=0.25)
    with pytest.raises(ParameterError, match=r"active left-sided .* 0\.098 at t = 0\.015625"):
        cn_wsgd_run(p, cfg)
    # data an inactive side carries still run
    one_sided = dataclasses.replace(p, left_diffusivity=0.0, right_diffusivity=1.0)
    assert cn_wsgd_run(one_sided, cfg).values[0] == 1.0


def test_record_judges_its_data_at_t_0_and_a_run_at_its_own_levels():
    # the record used to probe t = 0.5 and 1 as well, and refuse these data,
    # 0.1 at t = 0.5, though a run to T = 0.4 never meets a nonzero value
    p = dataclasses.replace(make_example("ex2", 1.5), left_boundary=lambda t: max(0.0, t - 0.4))
    assert np.all(np.isfinite(cn_wsgd_run(p, SolverConfig1D(N=8, M=4, T=0.4)).values))
    with pytest.raises(ParameterError, match=r"active left-sided .* 0\.1 at t = 0\.5$"):
        cn_wsgd_run(p, SolverConfig1D(N=8, M=10))


def test_callables_broadcast_over_space_and_time_axes():
    base = make_example("ex2", 1.5)
    cfg = SolverConfig1D(N=16, M=8)
    # a t-independent source, and a constant one, broadcast along t
    for source in (lambda x, t: np.zeros_like(x), lambda x, t: 0.0):
        sol = cn_wsgd_run(dataclasses.replace(base, source=source), cfg)
        assert np.all(np.isfinite(sol.values))
    # a one-axis result would broadcast along t whatever it holds
    flat = dataclasses.replace(base, source=lambda x, t: np.sin(np.ravel(x)))
    with pytest.raises(ParameterError, match=r"problem.source returned shape \(15,\),.* \(9, 15\)"):
        cn_wsgd_run(flat, cfg)
    # a block is sampled one row a level, on x[None, :] and t[:, None]
    transposed = dataclasses.replace(base, exact=lambda x, t: (np.exp(-t) * x).T)
    message = r"problem.exact returned shape \(15, 1\),.* \(1, 15\)"
    with pytest.raises(ParameterError, match=message):
        cn_wsgd_run(transposed, cfg)


# ---------------------------------------------------------------------------
# Dense size guard
# ---------------------------------------------------------------------------


def _refuse_dense(monkeypatch) -> list[int]:
    """Route ``ToeplitzOperator.rows``, which ``to_dense`` and the mirror
    halves read, through a guard that lets it refuse an order above the cap
    and fails the test if it gives any row; returns the orders it was asked
    for."""
    orders = []
    rows = operators.ToeplitzOperator.rows

    def refusing(self, count):
        orders.append(self.n)
        rows(self, count)
        raise AssertionError("a dense matrix was formed")

    monkeypatch.setattr(operators.ToeplitzOperator, "rows", refusing)
    return orders


def test_dense_paths_refuse_huge_orders_before_allocating(monkeypatch):
    orders = _refuse_dense(monkeypatch)
    big = 2**15
    with pytest.raises(ParameterError, match="cap"):
        assemble_wsgd_matrix(1.5, P1Q0, big - 1).to_dense()
    with pytest.raises(ParameterError, match="cap"):
        cn_wsgd_run(make_example("ex3", 1.5), SolverConfig1D(N=big, M=1))
    with pytest.raises(ParameterError, match="cap"):
        steady_solve_3wsgd(make_example("ex0", 1.5), big)
    with pytest.raises(ParameterError, match="cap"):
        run_2d(make_example("ex4", 1.2, 1.8), SolverConfig2D(Nx=big, Ny=8, M=1))
    # each refusal is the cap's, before any other dense work
    assert orders == [big - 1] * 4


def test_toeplitz_path_forms_no_dense_matrix_and_is_not_capped(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the Toeplitz path must not form dense matrices")

    monkeypatch.setattr(solve1d, "_cayley", forbidden)
    monkeypatch.setattr(solve1d, "solve", forbidden)
    monkeypatch.setattr(operators.ToeplitzOperator, "to_dense", forbidden)
    n_big = operators.DENSE_MAX_ORDER + 2
    sol = cn_wsgd_run(make_example("ex2", 1.5), SolverConfig1D(N=n_big, M=2))
    assert sol.values.size == n_big + 1
    assert np.all(np.isfinite(sol.values)) and sol.max_err_running < 1e-4


# ---------------------------------------------------------------------------
# The time loop
# ---------------------------------------------------------------------------


def _spy_march(monkeypatch, module):
    """Route ``module.march`` through a spy that takes a weak reference to the
    initial state and records, as each block returns and at each norm
    reduction, whether it is still alive."""
    alive = []
    march = solve1d.march

    def spy(steps, initial, config, norm, exact=None):
        first = []

        def initial_spy():
            U = initial()
            first.append(weakref.ref(U))
            return U

        def recorded(blocks):
            for block in blocks:
                alive.append(first[0]() is not None)
                yield block

        def norm_spy(V):
            alive.append(first[0]() is not None)
            return norm(V)

        steps_spy = lambda U, k: recorded(steps(U, k))
        return march(steps_spy, initial_spy, config, norm_spy, exact)

    monkeypatch.setattr(module, "march", spy)
    return alive


@pytest.mark.parametrize("dim", ["1d", "2d"])
def test_runs_free_the_initial_state_once_the_first_step_returns(monkeypatch, dim):
    # the runs used to pass march the initial array and keep their own
    # reference to it, one state array more for the whole run; level 0 is
    # reduced on its own, before the first block (two blocks of two levels)
    if dim == "1d":
        monkeypatch.setattr(solve1d, "_BLOCK_ENTRIES", 2 * 15)
        alive = _spy_march(monkeypatch, solve1d)
        cn_wsgd_run(make_example("ex2", 1.5), SolverConfig1D(N=16, M=4))
    else:
        monkeypatch.setattr(solve1d, "_BLOCK_ENTRIES", 2 * 49)
        alive = _spy_march(monkeypatch, solve2d)
        run_2d(make_example("ex4"), SolverConfig2D(Nx=8, Ny=8, M=4))
    assert alive == [True, True] + [False] * 3


def test_2d_run_hands_no_block_a_view_into_several_states(monkeypatch):
    # level 0 used to be reduced with the first block by concatenating the
    # two states, and the second block stepped from a view into that buffer,
    # which kept one extra state alive; blocks of one level, as then, each
    # stepped from the state march hands over or the last row of the block
    # before it
    monkeypatch.setattr(solve1d, "_BLOCK_ENTRIES", 49)
    held = []
    march = solve2d.march

    def states(U):
        base = U
        while base.base is not None:
            base = base.base
        return base.size // U.size

    def spy(steps, initial, config, norm, exact=None):
        def steps_spy(U, k):
            for block in steps(U, k):
                held.append(states(U))
                U = block[-1]
                yield block

        return march(steps_spy, initial, config, norm, exact)

    monkeypatch.setattr(solve2d, "march", spy)
    run_2d(make_example("ex4"), SolverConfig2D(Nx=8, Ny=8, M=4))
    assert held == [1, 1, 1, 1]


def test_run_reduces_norms_once_a_block(monkeypatch):
    # march used to take one norm a level, M + 1 calls; it now reduces each
    # block of states at once, and level 0 as a block of one
    reductions = []
    march = solve1d.march

    def spy(steps, initial, config, norm, exact=None):
        def counted(V):
            reductions.append(len(V))
            return norm(V)

        return march(steps, initial, config, counted, exact)

    monkeypatch.setattr(solve1d, "march", spy)
    cfg = SolverConfig1D(N=33, M=2049, T=0.7)
    sol = cn_wsgd_run(make_example("ex2", 1.5), cfg)
    assert next(solve1d._blocks(0, cfg.M, cfg.N - 1)) == (0, 1024)
    assert reductions == [1, 1024, 1024, 1]
    assert sol.norm_history.size == cfg.M + 1 and np.all(np.isfinite(sol.norm_history))


@pytest.mark.parametrize(
    "sampling,step",
    [("average", r"step 5 \(t=0\.625\)"), ("midpoint", r"step 6 \(t=0\.75\)")],
    ids=["average", "midpoint"],
)
def test_non_finite_step_inside_a_block_is_named(monkeypatch, sampling, step):
    # blocks of three levels: the first non-finite norm of the second block
    # names its step, as the level-by-level loop did
    monkeypatch.setattr(solve1d, "_BLOCK_ENTRIES", 3 * 15)
    base = make_example("ex1", 1.5)
    p = dataclasses.replace(
        base, source=lambda x, t: np.where(t > 0.6, np.nan, base.source(x, t))
    )
    cfg = SolverConfig1D(N=16, M=8, source_sampling=sampling)
    assert next(solve1d._blocks(0, cfg.M, cfg.N - 1)) == (0, 3)
    with pytest.raises(SolverError, match=step):
        cn_wsgd_run(p, cfg)


def test_non_finite_initial_state_is_step_zero():
    # level 0 used to go unchecked, so a NaN start was named as step 1
    base = make_example("ex2", 1.5)
    p = dataclasses.replace(base, initial=lambda x: np.full(np.shape(x), np.nan))
    with pytest.raises(SolverError, match=r"step 0 \(t=0\.0\)"):
        cn_wsgd_run(p, SolverConfig1D(N=8, M=4))


@pytest.mark.parametrize(
    "name,step",
    [("ex2", r"step 49 \(t=6\.125\)"), ("ex3", r"step 55 \(t=6\.875\)")],
    ids=["ex2", "ex3"],
)
def test_blow_up_is_one_solver_error_without_warnings(name, step):
    # an unstable run used to overflow in l2_norm's v * v first, and the
    # RuntimeWarning, an error under this suite's filters, hid the SolverError
    with pytest.warns(UserWarning, match="stability window"):
        cfg = SolverConfig1D(N=64, M=400, T=50.0, theta=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SolverError, match=step):
            cn_wsgd_run(make_example(name, 1.9), cfg)
    assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize("sampling", ["average", "midpoint"])
@pytest.mark.parametrize(
    "name,backend",
    [
        ("ex1", "gs"),
        ("ex2", "gs"),
        ("ex1", "dense"),
        ("ex2", "dense-halves"),
        ("ex3", "dense-halves"),
    ],
    ids=["ex1-gs", "ex2-gs", "ex1-dense", "ex2-dense", "ex3-dense"],
)
def test_blocked_run_matches_a_run_of_narrow_blocks(monkeypatch, name, backend, sampling):
    # blocking the loop changes no bit: a run in blocks of B = 258 levels
    # (M = 300 is no multiple of it) against blocks of one level, on every
    # backend; a dense block used to lift its known terms by one solve, whose
    # one-column form took another BLAS kernel
    problem = make_example(name, 1.5)
    cfg = SolverConfig1D(N=128, M=300, source_sampling=sampling)
    assert next(solve1d._blocks(0, cfg.M, cfg.N - 1)) == (0, 258)
    blocked = _run_with(monkeypatch, backend, problem, cfg)
    monkeypatch.setattr(solve1d, "_BLOCK_ENTRIES", cfg.N - 1)
    assert next(solve1d._blocks(0, cfg.M, cfg.N - 1)) == (0, 1)
    stepped = _run_with(monkeypatch, backend, problem, cfg)
    for field in ("values", "norm_history", "max_err_running", "max_err_final", "l2_err_final"):
        assert np.array_equal(getattr(blocked, field), getattr(stepped, field)), field
