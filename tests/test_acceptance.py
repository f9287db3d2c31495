"""Acceptance suite: nine criteria, one test each, one PASS/FAIL line each.

Each test prints ``CRITERION <k>: PASS/FAIL — <what was checked>`` (visible
with ``pytest -s`` or in failure output).  Tolerances and case grids are
pinned here and are not to be loosened: a criterion that cannot be met by a
faithful implementation is allowed to fail, with the measured numbers in
the failure message.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy.special import gamma

from wsgdiff import (
    GL,
    GridFunction1D,
    P1Q0,
    P1QM1,
    Problem1D,
    Problem2D,
    SolverConfig1D,
    SolverConfig2D,
    ToeplitzOperator,
    apply_left_wsgd,
    apply_right_wsgd,
    assemble_shifted_pair_matrix,
    assemble_wsgd_matrix,
    build_directional_operators,
    certify_negative_definite,
    cn_wsgd_run,
    lod_stepper,
    make_example,
    operator_weights,
    pr_adi_stepper,
    rayleigh_bound_check,
    run_2d,
    steady_solve_3wsgd,
    toeplitz_matvec_fft,
    verify_weight_properties,
    l2_norm,
)

from oracles import (
    classical_cn_heat_run,
    classical_pr_adi_heat_step,
    kron_two_level_step,
    toeplitz_matvec_direct,
)
from _tables import EX1, EX2, EX3, EX4, STEADY

PAIR_SCHEMES = (P1Q0, P1QM1)


def _report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"CRITERION {criterion}: {status} — {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# 1. Steady benchmark table
# ---------------------------------------------------------------------------


def test_criterion_1_steady_table():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha, rows in STEADY.items():
        prev = None
        for n, max_want, rate_max_want, l2_want, rate_l2_want in rows:
            sol = steady_solve_3wsgd(make_example("ex0", alpha), n)
            worst = max(worst, _rel(sol.max_err_final, max_want))
            worst = max(worst, _rel(sol.l2_err_final, l2_want))
            assert _rel(sol.max_err_final, max_want) <= 0.01, (alpha, n, "max")
            assert _rel(sol.l2_err_final, l2_want) <= 0.01, (alpha, n, "l2")
            if prev is not None:
                rate_max = np.log2(prev[0] / sol.max_err_final)
                rate_l2 = np.log2(prev[1] / sol.l2_err_final)
                assert abs(rate_max - rate_max_want) <= 0.1, (alpha, n, rate_max)
                assert abs(rate_l2 - rate_l2_want) <= 0.1, (alpha, n, rate_l2)
            prev = (sol.max_err_final, sol.l2_err_final)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        elapsed < 5.0,
        f"steady table reproduced at orders 1.1/1.9, N=8..256, worst entry"
        f" deviation {worst:.2%}, runtime {elapsed:.2f}s (< 5s)",
    )


# ---------------------------------------------------------------------------
# 2. Left-sided time-dependent table
# ---------------------------------------------------------------------------


def test_criterion_2_left_sided_table():
    t0 = time.perf_counter()
    worst = 0.0
    for scheme, by_alpha in EX1.items():
        for alpha, rows in by_alpha.items():
            problem = make_example("ex1", alpha)
            for n, max_want, _, l2_want, _ in rows:
                sol = cn_wsgd_run(problem, SolverConfig1D(N=n, M=n, scheme=scheme))
                worst = max(worst, _rel(sol.max_err_running, max_want))
                worst = max(worst, _rel(sol.l2_err_final, l2_want))
                assert _rel(sol.max_err_running, max_want) <= 0.01, (scheme, alpha, n)
                assert _rel(sol.l2_err_final, l2_want) <= 0.01, (scheme, alpha, n)
    elapsed = time.perf_counter() - t0
    _report(
        2,
        elapsed < 60.0,
        f"left-sided table reproduced for both pair schemes, three orders,"
        f" N=16..512; worst deviation {worst:.2%}, runtime {elapsed:.1f}s (< 60s)",
    )


# ---------------------------------------------------------------------------
# 3. Two-sided and variable-coefficient tables
# ---------------------------------------------------------------------------


def test_criterion_3_two_sided_and_variable_tables():
    t0 = time.perf_counter()
    worst = 0.0
    for tag, table in (("ex2", EX2), ("ex3", EX3)):
        for scheme, by_alpha in table.items():
            for alpha, rows in by_alpha.items():
                problem = make_example(tag, alpha)
                for n, max_want, _, l2_want, _ in rows:
                    sol = cn_wsgd_run(problem, SolverConfig1D(N=n, M=n, scheme=scheme))
                    worst = max(worst, _rel(sol.max_err_running, max_want))
                    worst = max(worst, _rel(sol.l2_err_final, l2_want))
                    assert _rel(sol.max_err_running, max_want) <= 0.01, (tag, scheme, alpha, n)
                    assert _rel(sol.l2_err_final, l2_want) <= 0.01, (tag, scheme, alpha, n)
    elapsed = time.perf_counter() - t0
    _report(
        3,
        True,
        f"two-sided and variable-coefficient tables reproduced; worst entry"
        f" deviation {worst:.2%}, runtime {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Two-dimensional table: decoupled + three alternating-sweep variants
# ---------------------------------------------------------------------------


def test_criterion_4_two_dimensional_table():
    problem = make_example("ex4", 1.2, 1.8)
    worst = 0.0
    results: dict[tuple[str, str, int], tuple[float, float]] = {}
    for splitting, by_scheme in EX4.items():
        for scheme, rows in by_scheme.items():
            for n, max_want, _, l2_want, _ in rows:
                sol = run_2d(
                    problem,
                    SolverConfig2D(Nx=n, Ny=n, M=n, scheme=scheme, splitting=splitting),
                )
                results[(splitting, scheme, n)] = (sol.max_err_final, sol.l2_err_final)
                worst = max(worst, _rel(sol.max_err_final, max_want))
                worst = max(worst, _rel(sol.l2_err_final, l2_want))
                assert _rel(sol.max_err_final, max_want) <= 0.02, (splitting, scheme, n)
                assert _rel(sol.l2_err_final, l2_want) <= 0.02, (splitting, scheme, n)
    # the three alternating-sweep variants are algebraically one scheme:
    # their table entries must agree to 1e-9 relative
    for scheme in PAIR_SCHEMES:
        for n in (8, 16, 32, 64, 128):
            base = results[("pr", scheme, n)]
            for splitting in ("douglas", "dyakonov"):
                other = results[(splitting, scheme, n)]
                assert _rel(other[0], base[0]) <= 1e-9, (scheme, n, splitting, "max")
                assert _rel(other[1], base[1]) <= 1e-9, (scheme, n, splitting, "l2")
    _report(
        4,
        True,
        f"2D table reproduced for all four splittings and both schemes"
        f" (worst deviation {worst:.2%}); alternating-sweep variants agree to 1e-9",
    )


# ---------------------------------------------------------------------------
# 5. Weight-sequence properties
# ---------------------------------------------------------------------------


def test_criterion_5_weight_properties():
    failures = []
    for alpha in (1.1, 1.3, 1.5, 1.7, 1.9, 2.0):
        for scheme in (GL, P1Q0, P1QM1):
            report = verify_weight_properties(alpha, scheme, 5000)
            for check in report.failures():
                failures.append((alpha, scheme, check.name, check.witness))
    _report(
        5,
        not failures,
        "sign/monotonicity/partial-sum properties hold for all three weight"
        f" families at six orders with 5000 terms (failures: {failures or 'none'})",
    )


# ---------------------------------------------------------------------------
# 6. Negative-definiteness certification and Rayleigh containment
# ---------------------------------------------------------------------------


def test_criterion_6_definiteness_certification():
    for alpha in (1.1, 1.3, 1.5, 1.7, 1.9, 2.0):
        for scheme in PAIR_SCHEMES:
            for n in (4, 16, 64):
                t = assemble_wsgd_matrix(alpha, scheme, n)
                assert certify_negative_definite(t).negative_definite, (alpha, scheme, n)
                assert rayleigh_bound_check(t, alpha, scheme, 200), (alpha, scheme, n)
    bad = certify_negative_definite(assemble_shifted_pair_matrix(1.5, 0, -1, 32))
    assert not bad.negative_definite
    assert bad.failing_minor == 1
    _report(
        6,
        True,
        "pair-scheme matrices certify negative definite on the full"
        " order/size grid with Rayleigh quotients inside the symbol range;"
        " the downwind (0,-1) pair is correctly rejected (first minor)",
    )


# ---------------------------------------------------------------------------
# 7. Unconditional stability: zero-source norms never grow
# ---------------------------------------------------------------------------


def _random_initial_1d(n_nodes: int, seed: int):
    rng = np.random.default_rng(seed)
    nodes = np.linspace(0.0, 1.0, n_nodes)
    vals = rng.standard_normal(n_nodes)
    vals[0] = vals[-1] = 0.0
    return lambda x: np.interp(x, nodes, vals)


def test_criterion_7_zero_source_stability():
    # 1D: theta-weighted stepping across schemes, orders, and step ratios
    big_n, steps = 16, 50
    h = 1.0 / big_n
    for theta in (0.5, 0.75, 1.0):
        for ratio in (1.0, 10.0, 100.0):
            for alpha in (1.1, 1.5, 1.9):
                for scheme in PAIR_SCHEMES:
                    tau = ratio * h**alpha
                    problem = Problem1D(
                        name="stability",
                        alpha=alpha,
                        left_diffusivity=0.5,
                        right_diffusivity=0.5,
                        source=lambda x, t: np.zeros_like(x),
                        initial=_random_initial_1d(big_n + 1, 7),
                        left_boundary=lambda t: 0.0,
                        right_boundary=lambda t: 0.0,
                    )
                    cfg = SolverConfig1D(
                        N=big_n, M=steps, theta=theta, scheme=scheme, T=steps * tau
                    )
                    history = cn_wsgd_run(problem, cfg).norm_history
                    assert np.all(history <= history[0] * (1.0 + 1e-10)), (
                        theta,
                        ratio,
                        alpha,
                        scheme,
                    )
    # 2D: both splitting steppers, random initial data, 200 steps
    n2 = 16
    h2 = 1.0 / n2
    steppers = (pr_adi_stepper, lod_stepper)
    rng = np.random.default_rng(21)
    for ratio in (1.0, 10.0):
        for alpha, beta in ((1.2, 1.8), (1.5, 1.5), (1.9, 1.1)):
            problem = Problem2D(
                name="stability2d",
                alpha=alpha,
                beta=beta,
                x_left_diffusivity=1.0,
                x_right_diffusivity=1.0,
                y_left_diffusivity=1.0,
                y_right_diffusivity=1.0,
                source=lambda x, y, t: np.zeros(np.broadcast(x, y).shape),
                initial=lambda x, y: np.zeros(np.broadcast(x, y).shape),
                boundary=lambda x, y, t: np.zeros(np.broadcast(x, y).shape),
            )
            tau = ratio * h2
            steps2 = 200
            cfg2 = SolverConfig2D(Nx=n2, Ny=n2, M=steps2, T=steps2 * tau)
            u0 = rng.standard_normal((n2 - 1, n2 - 1))
            for step_fn in steppers:
                step = step_fn(problem, cfg2)
                u = u0.copy()
                norm0 = l2_norm(u, h2, h2)
                for k in range(steps2):
                    u = step(u, k * tau)
                    assert l2_norm(u, h2, h2) <= norm0 * (1.0 + 1e-10), (
                        ratio,
                        alpha,
                        beta,
                        step_fn.__name__,
                        k,
                    )
    _report(
        7,
        True,
        "unforced norms never grow: 54 one-dimensional configurations"
        " (three theta values, three step ratios, three orders, two schemes)"
        " and 12 two-dimensional runs (two steppers, 200 steps each)",
    )


# ---------------------------------------------------------------------------
# 8. Cross-validation: fast paths, matrix actions, splittings, classical limit
# ---------------------------------------------------------------------------


def test_criterion_8_cross_validation():
    # (a) FFT Toeplitz product == direct product, 100 random systems
    rng = np.random.default_rng(2025)
    for _ in range(100):
        n = int(rng.integers(2, 200))
        col = rng.standard_normal(n)
        row = rng.standard_normal(n)
        row[0] = col[0]
        t = ToeplitzOperator(col, row)
        v = rng.standard_normal(n)
        direct = toeplitz_matvec_direct(t, v)
        fast = toeplitz_matvec_fft(t, v)
        denom = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(direct - fast)) / denom < 1e-12

    # (b) grid application == assembled matrix action on homogeneous data,
    #     plus transpose duality between the two one-sided operators
    for alpha in (1.1, 1.5, 1.9):
        for scheme in PAIR_SCHEMES:
            for big_n in (8, 16, 32):
                vals = rng.standard_normal(big_n + 1)
                vals[0] = vals[-1] = 0.0
                u = GridFunction1D(vals)
                a = assemble_wsgd_matrix(alpha, scheme, big_n - 1).to_dense()
                scale = u.h**alpha
                want_left = a @ vals[1:-1] / scale
                want_right = a.T @ vals[1:-1] / scale
                floor = max(1.0, float(np.max(np.abs(want_left))))
                assert (
                    np.max(np.abs(apply_left_wsgd(u, alpha, scheme) - want_left)) / floor
                    < 1e-13
                )
                assert (
                    np.max(np.abs(apply_right_wsgd(u, alpha, scheme) - want_right)) / floor
                    < 1e-13
                )
                # duality: <A_left u, v> == <u, A_right v> for interior vectors
                w = rng.standard_normal(big_n - 1)
                v2 = rng.standard_normal(big_n - 1)
                lhs = (a @ w) @ v2
                rhs = w @ (a.T @ v2)
                assert abs(lhs - rhs) / max(1.0, abs(lhs)) < 1e-13

    # (c) the factored 2D step == dense Kronecker two-level solve at N=8
    problem = make_example("ex4", 1.2, 1.8)
    cfg = SolverConfig2D(Nx=8, Ny=8, M=10)
    u0 = rng.standard_normal((7, 7))
    t_n = 0.3
    xi = np.linspace(0.0, 1.0, 9)[1:-1]
    xg, yg = np.meshgrid(xi, xi, indexing="ij")
    dx, dy = build_directional_operators(problem, cfg)
    f_mid = problem.source(xg, yg, t_n + 0.5 * cfg.tau)
    want = kron_two_level_step(dx, dy, u0, f_mid, cfg.tau)
    got = pr_adi_stepper(problem, cfg)(u0, t_n)
    assert np.max(np.abs(got - want)) < 1e-10

    #     the decoupled splitting against the corrected factored oracle, on a
    #     problem whose source vanishes along the y-boundary lines
    def y_vanishing_source(x, y, t):
        return np.sin(np.pi * x) * (y * (1.0 - y)) ** 2 * (1.0 + t)

    lod_problem = Problem2D(
        name="lod-oracle",
        alpha=1.4,
        beta=1.7,
        x_left_diffusivity=1.0,
        x_right_diffusivity=1.0,
        y_left_diffusivity=1.0,
        y_right_diffusivity=1.0,
        source=y_vanishing_source,
        initial=lambda x, y: np.zeros(np.broadcast(x, y).shape),
        boundary=lambda x, y, t: np.zeros(np.broadcast(x, y).shape),
    )
    cfg_lod = SolverConfig2D(Nx=8, Ny=8, M=10, splitting="lod")
    dx, dy = build_directional_operators(lod_problem, cfg_lod)
    f_mid = lod_problem.source(xg, yg, t_n + 0.5 * cfg_lod.tau)
    got_lod = lod_stepper(lod_problem, cfg_lod)(u0, t_n)
    want_lod = kron_two_level_step(
        dx, dy, u0, f_mid, cfg_lod.tau, lod_source_correction=True
    )
    assert np.max(np.abs(got_lod - want_lod)) < 1e-10

    # (d) order-two limit == classical trapezoidal heat stepping (1D) and
    #     classical alternating-sweep heat stepping (2D) at N=8
    big_n, steps = 8, 6
    xi1 = np.linspace(0.0, 1.0, big_n + 1)[1:-1]
    u0_1d = np.sin(np.pi * xi1)

    def heat_source(x, t):
        return np.asarray(x) * (1.0 - np.asarray(x)) * np.exp(-t)

    heat = Problem1D(
        name="heat-limit",
        alpha=2.0,
        left_diffusivity=0.5,
        right_diffusivity=0.5,
        source=heat_source,
        initial=lambda x: np.interp(x, xi1, u0_1d),
        left_boundary=lambda t: 0.0,
        right_boundary=lambda t: 0.0,
    )
    cfg1 = SolverConfig1D(N=big_n, M=steps, scheme=P1Q0)
    got_heat = cn_wsgd_run(heat, cfg1).values[1:-1]
    want_heat = classical_cn_heat_run(
        u0_1d, 1.0, 1.0 / big_n, cfg1.tau, steps, heat_source, xi1
    )
    assert np.max(np.abs(got_heat - want_heat)) < 1e-11

    heat2 = Problem2D(
        name="heat-limit-2d",
        alpha=2.0,
        beta=2.0,
        x_left_diffusivity=0.5,
        x_right_diffusivity=0.5,
        y_left_diffusivity=0.5,
        y_right_diffusivity=0.5,
        source=lambda x, y, t: np.exp(-t) * x * (1.0 - x) * np.sin(np.pi * y),
        initial=lambda x, y: np.zeros(np.broadcast(x, y).shape),
        boundary=lambda x, y, t: np.zeros(np.broadcast(x, y).shape),
    )
    cfg2 = SolverConfig2D(Nx=8, Ny=8, M=10)
    u0_2d = rng.standard_normal((7, 7))
    xg2, yg2 = np.meshgrid(xi1, xi1, indexing="ij")
    f_mid2 = heat2.source(xg2, yg2, t_n + 0.5 * cfg2.tau)
    got_2d = pr_adi_stepper(heat2, cfg2)(u0_2d, t_n)
    want_2d = classical_pr_adi_heat_step(u0_2d, f_mid2, cfg2.tau, 0.125, 0.125)
    assert np.max(np.abs(got_2d - want_2d)) < 1e-11

    _report(
        8,
        True,
        "fast Toeplitz == direct (100 systems); grid application == matrix"
        " action with transpose duality; every splitting step == dense"
        " Kronecker solve at N=8 (decoupled variant via corrected oracle);"
        " order-two limit == classical heat stepping in 1D and 2D",
    )


# ---------------------------------------------------------------------------
# 9. Operator consistency orders, each on a monomial in its regularity class
# ---------------------------------------------------------------------------


def _consistency_rates(alpha: float, scheme: str, power_shift: float):
    """Max-norm interior errors of the shift-one stencil on x**(shift+alpha)."""
    c = gamma(power_shift + 1.0 + alpha) / gamma(power_shift + 1.0)
    errs = []
    for big_n in (64, 128, 256, 512):
        x = np.linspace(0.0, 1.0, big_n + 1)
        h = 1.0 / big_n
        w = operator_weights(alpha, scheme, big_n + 1)
        full = np.convolve(w, x ** (power_shift + alpha))
        approx = full[2 : big_n + 1] / h**alpha
        errs.append(float(np.max(np.abs(approx - c * x[1:-1] ** power_shift))))
    rates = [float(np.log2(errs[i] / errs[i + 1])) for i in range(3)]
    return errs, rates


def test_criterion_9_consistency_orders():
    # Each claimed order is measured on the smoothest monomial its consistency
    # result covers: order two needs alpha+2 orders of smoothness of the
    # zero-extended function, order three one more.  On x**(2+alpha) the
    # triple stencil drops to order two (pinned in test_operators.py).
    alphas = (1.1, 1.5, 1.9)
    pair = {(a, s): _consistency_rates(a, s, 2.0) for a in alphas for s in PAIR_SCHEMES}
    triple = {a: _consistency_rates(a, "pqr", 3.0) for a in alphas}
    pair_ok = all(r >= 1.9 for _, rates in pair.values() for r in rates)
    triple_ok = all(r >= 2.9 for _, rates in triple.values() for r in rates)

    def fmt_rates(results):
        return {k: [round(r, 3) for r in rates] for k, (_, rates) in results.items()}

    errs_15 = {s: pair[(1.5, s)][0] for s in PAIR_SCHEMES} | {"pqr": triple[1.5][0]}
    detail = (
        f"pair-scheme rates on u = x**(2+alpha) (need >= 1.9): {fmt_rates(pair)};"
        f" triple-shift rates on u = x**(3+alpha) (need >= 2.9): {fmt_rates(triple)};"
        " alpha=1.5 max-norm errors at N=64..512: "
        + ", ".join(f"{s} {[f'{e:.3E}' for e in errs]}" for s, errs in errs_15.items())
    )
    _report(9, pair_ok and triple_ok, detail)
