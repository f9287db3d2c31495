"""One-dimensional solvers: frozen benchmark anchors, classical-limit oracle
agreement, discrete stability, configuration validation, the
Gohberg–Semencul backend against dense LU, and the dense size guard."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from wsgdiff import operators, solve1d
from wsgdiff import (
    P1Q0,
    P1QM1,
    ParameterError,
    Problem1D,
    SolverConfig1D,
    SolverConfig2D,
    SolverError,
    assemble_cn_system,
    assemble_wsgd_matrix,
    cn_wsgd_run,
    convergence_rate,
    make_example,
    run_2d,
    steady_solve_3wsgd,
)

from oracles import classical_cn_heat_run
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


def test_assemble_cn_system_theta_identities():
    p = make_example("ex2", 1.5)
    lhs_half, rhs_half = assemble_cn_system(p, SolverConfig1D(N=12, M=6, theta=0.5))
    np.testing.assert_allclose(lhs_half + rhs_half, 2.0 * np.eye(11), atol=1e-13)
    lhs_full, rhs_full = assemble_cn_system(p, SolverConfig1D(N=12, M=6, theta=1.0))
    np.testing.assert_allclose(rhs_full, np.eye(11), rtol=0, atol=0)
    np.testing.assert_allclose(
        lhs_full - np.eye(11), 2.0 * (lhs_half - np.eye(11)), atol=1e-13
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
    # instead of reporting a finite running error
    base = make_example("ex1", 1.5)
    p = dataclasses.replace(
        base, source=lambda x, t: np.where(t > 0.6, np.nan, base.source(x, t))
    )
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


# ---------------------------------------------------------------------------
# Gohberg–Semencul backend against the dense-LU oracle
# ---------------------------------------------------------------------------


def _constant_problem(name, kl, kr, alpha):
    """Constant unequal diffusivities with nonzero end data on both sides."""
    return Problem1D(
        name=name,
        alpha=alpha,
        left_diffusivity=kl,
        right_diffusivity=kr,
        source=lambda x, t: np.sin(np.pi * np.asarray(x)) * np.exp(-t) + 0.3 * t,
        initial=lambda x: np.asarray(x) * (1.0 - np.asarray(x)) + 0.4,
        left_boundary=lambda t: 0.4 + 0.5 * t,
        right_boundary=lambda t: 0.4 * np.cos(t),
        allow_nonzero_boundary=True,
    )


_GS_PROBLEMS = {
    "ex1": lambda alpha: make_example("ex1", alpha),
    "ex2": lambda alpha: make_example("ex2", alpha),
    "unequal": lambda alpha: _constant_problem("unequal", 0.7, 0.2, alpha),
    "left-zero": lambda alpha: _constant_problem("left-zero", 0.0, 1.3, alpha),
}


def _run_with(monkeypatch, min_n, problem, config):
    with monkeypatch.context() as m:
        m.setattr(solve1d, "_GS_MIN_N", min_n)
        return cn_wsgd_run(problem, config)


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
    gs = _run_with(monkeypatch, 0, p, cfg)
    dense = _run_with(monkeypatch, 10**9, p, cfg)
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


@pytest.mark.filterwarnings("ignore:theta=0.0 lies outside")
@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("N", [4, 5, 9, 33])
def test_gs_setup_is_the_dense_system(N, theta):
    # product and solve of the set-up Toeplitz system against the dense
    # matrices, below the size where runs pick it
    rng = np.random.default_rng(N)
    p = _constant_problem("unequal", 0.9, 0.35, 1.7)
    cfg = SolverConfig1D(N=N, M=3, theta=theta, T=0.5)
    lhs, rhs_matrix = assemble_cn_system(p, cfg)
    rhs_product, solve = solve1d._gs_steps(p, cfg)
    for _ in range(3):
        v = rng.standard_normal(N - 1)
        np.testing.assert_allclose(rhs_product(v), rhs_matrix @ v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(solve(v), np.linalg.solve(lhs, v), rtol=0, atol=1e-12)


def _spy_backends(monkeypatch):
    picked = []
    for name in ("_dense_steps", "_gs_steps"):
        original = getattr(solve1d, name)

        def spy(problem, config, original=original, name=name):
            picked.append(name)
            return original(problem, config)

        monkeypatch.setattr(solve1d, name, spy)
    return picked


def test_backend_is_picked_from_the_input(monkeypatch):
    picked = _spy_backends(monkeypatch)
    large = SolverConfig1D(N=512, M=2)
    cases = [
        (make_example("ex2", 1.5), large, "_gs_steps"),
        (make_example("ex1", 1.5), dataclasses.replace(large, theta=1.0), "_gs_steps"),
        (make_example("ex3", 1.5), large, "_dense_steps"),
        (make_example("ex2", 1.5), SolverConfig1D(N=64, M=2), "_dense_steps"),
    ]
    with pytest.warns(UserWarning, match="stability window"):
        negative = SolverConfig1D(N=512, M=2, theta=-0.1)
    cases.append((make_example("ex2", 1.5), negative, "_dense_steps"))
    for problem, config, want in cases:
        solve1d._cn_steps(problem, config)
        assert picked.pop() == want, (problem.name, config)
    # the crossover itself is on the Toeplitz side
    solve1d._cn_steps(make_example("ex2", 1.5), SolverConfig1D(N=solve1d._GS_MIN_N, M=2))
    assert picked == ["_gs_steps"]


@pytest.mark.parametrize("sampling", ["average", "midpoint"])
def test_gs_non_finite_solution_raises_with_step_and_time(monkeypatch, sampling):
    base = make_example("ex2", 1.5)
    p = dataclasses.replace(
        base, source=lambda x, t: np.where(t > 0.6, np.nan, base.source(x, t))
    )
    with pytest.raises(SolverError, match=r"step 3 \(t=0\.75\)"):
        _run_with(monkeypatch, 0, p, SolverConfig1D(N=8, M=4, source_sampling=sampling))


@pytest.mark.parametrize("min_n", [0, 10**9], ids=["gs", "dense"])
@pytest.mark.parametrize("sampling", ["average", "midpoint"])
def test_stepper_reuses_its_source_value_only_at_the_slab_end(monkeypatch, sampling, min_n):
    # a step from t_n is the same whether the stepper is fresh, has just
    # stepped to t_n (the kept slab-end source value is reused), or has
    # stepped somewhere else (the value is evaluated again)
    monkeypatch.setattr(solve1d, "_GS_MIN_N", min_n)
    base = _constant_problem("unequal", 0.7, 0.2, 1.6)
    calls = []

    def source(x, t):
        calls.append(t)
        return base.source(x, t)

    p = dataclasses.replace(base, source=source)
    cfg = SolverConfig1D(N=24, M=4, source_sampling=sampling)
    tau, t_n = cfg.tau, 0.5
    U = np.linspace(0.1, 0.9, cfg.N - 1)
    fresh = solve1d.cn_stepper(p, cfg)
    arrived = solve1d.cn_stepper(p, cfg)
    arrived(U, t_n - tau)
    elsewhere = solve1d.cn_stepper(p, cfg)
    elsewhere(U, 0.0)
    if sampling == "average":
        want_calls = ([t_n, t_n + tau], [t_n + tau], [t_n, t_n + tau])
    else:
        want_calls = ([t_n + 0.5 * tau],) * 3
    results = []
    for step, want in zip((fresh, arrived, elsewhere), want_calls):
        calls.clear()
        results.append(step(U, t_n))
        assert calls == want
    assert np.array_equal(results[0], results[1])
    assert np.array_equal(results[0], results[2])


# ---------------------------------------------------------------------------
# Dense size guard
# ---------------------------------------------------------------------------


def test_dense_paths_refuse_huge_orders_before_allocating(monkeypatch):
    def no_dense(*args, **kwargs):
        raise AssertionError("a dense matrix was formed")

    monkeypatch.setattr(scipy.linalg, "toeplitz", no_dense)
    big = 2**15
    with pytest.raises(ParameterError, match="cap"):
        assemble_wsgd_matrix(1.5, P1Q0, big - 1).to_dense()
    with pytest.raises(ParameterError, match="cap"):
        cn_wsgd_run(make_example("ex3", 1.5), SolverConfig1D(N=big, M=1))
    with pytest.raises(ParameterError, match="cap"):
        steady_solve_3wsgd(make_example("ex0", 1.5), big)
    with pytest.raises(ParameterError, match="cap"):
        run_2d(make_example("ex4", 1.2, 1.8), SolverConfig2D(Nx=big, Ny=8, M=1))


def test_toeplitz_path_forms_no_dense_matrix_and_is_not_capped(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the Toeplitz path must not form dense matrices")

    monkeypatch.setattr(solve1d, "assemble_cn_system", forbidden)
    monkeypatch.setattr(solve1d, "lapack", None)
    monkeypatch.setattr(scipy.linalg, "toeplitz", forbidden)
    n_big = operators.DENSE_MAX_ORDER + 2
    sol = cn_wsgd_run(make_example("ex2", 1.5), SolverConfig1D(N=n_big, M=2))
    assert sol.values.size == n_big + 1
    assert np.all(np.isfinite(sol.values)) and sol.max_err_running < 1e-4
