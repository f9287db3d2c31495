"""Property tests over random orders, shifts and sizes: weights and assembled
matrices against the log-gamma oracles, the closed-form generating function
against its defining series, FFT against direct Toeplitz products, the
documented sign/partial-sum properties, the 1D Gohberg–Semencul step
system against dense matrices built from the oracle weights, one step of
each 2D splitting against the dense Kronecker oracle, and convergence
reports through their CSV form.

Runs are derandomized, so every run draws the same examples."""

from __future__ import annotations

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wsgdiff import (
    GL,
    P1Q0,
    P1QM1,
    PQR,
    Problem1D,
    Problem2D,
    SolverConfig1D,
    SolverConfig2D,
    ToeplitzOperator,
    assemble_shifted_pair_matrix,
    build_directional_operators,
    generating_function,
    lod_stepper,
    operator_weights,
    pr_adi_stepper,
    shifted_pair_weights,
    toeplitz_matvec_fft,
    verify_weight_properties,
)
from wsgdiff.cli import ExampleId, StudyConfig, _study_blocks, cmd_converge, read_report_csv
from wsgdiff import solve1d
from wsgdiff.solve1d import SOURCE_SAMPLING

from oracles import (
    binomial_gl,
    dense_shift_matrix,
    kron_two_level_step,
    pair_weights_from_binomial,
    series_generating_function,
    toeplitz_matvec_direct,
    triple_weights_from_binomial,
)

_PROFILE = settings(derandomize=True, deadline=None, database=None, max_examples=60)

#: Orders in (0, 2]; pairs tagged for the solvers take [1, 2].
_ORDERS = st.floats(0.0, 2.0, exclude_min=True, allow_subnormal=False)
_PAIR_ORDERS = st.floats(1.0, 2.0)
_SHIFT_PAIRS = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(lambda pq: pq[0] != pq[1])


def _tag_oracle(alpha, scheme, count):
    if scheme == GL:
        return binomial_gl(alpha, count)
    if scheme == PQR:
        return triple_weights_from_binomial(alpha, count)
    p, q = {P1Q0: (1, 0), P1QM1: (1, -1)}[scheme]
    return pair_weights_from_binomial(alpha, p, q, count)


@_PROFILE
@given(alpha=_ORDERS, pq=_SHIFT_PAIRS, extra=st.integers(0, 60))
def test_shifted_pair_weights_match_oracle(alpha, pq, extra):
    p, q = pq
    count = max(3, abs(p - q) + 1) + extra
    got = shifted_pair_weights(alpha, p, q, count)
    assert got.scheme == f"p{p}q{q}"
    want = pair_weights_from_binomial(alpha, p, q, count)
    np.testing.assert_allclose(got.values, want, rtol=0, atol=1e-12)


@_PROFILE
@given(alpha=_ORDERS, pq=_SHIFT_PAIRS, count=st.integers(1, 40), extra=st.integers(1, 8))
def test_pair_oracle_is_prefix_stable(alpha, pq, count, extra):
    # every weight is complete at any length, also the last q - p ones when
    # the second shift reaches past the requested count
    p, q = pq
    short = pair_weights_from_binomial(alpha, p, q, count)
    longer = pair_weights_from_binomial(alpha, p, q, count + extra)
    np.testing.assert_allclose(short, longer[:count], rtol=0, atol=1e-14)


@_PROFILE
@given(alpha=_ORDERS, pq=_SHIFT_PAIRS, n=st.integers(2, 24))
def test_shifted_pair_matrix_matches_double_loop(alpha, pq, n):
    p, q = pq
    v = pair_weights_from_binomial(alpha, p, q, n + abs(p) + abs(p - q) + 3)
    got = assemble_shifted_pair_matrix(alpha, p, q, n).to_dense()
    np.testing.assert_allclose(got, dense_shift_matrix(v, n, p), rtol=0, atol=1e-12)


@_PROFILE
@given(
    scheme_alpha=st.one_of(
        st.tuples(st.sampled_from((GL, PQR)), _ORDERS),
        st.tuples(st.sampled_from((P1Q0, P1QM1)), _PAIR_ORDERS),
    ),
    count=st.integers(4, 64),
)
def test_operator_weights_match_oracle_for_every_tag(scheme_alpha, count):
    scheme, alpha = scheme_alpha
    got = operator_weights(alpha, scheme, count)
    np.testing.assert_allclose(got, _tag_oracle(alpha, scheme, count), rtol=0, atol=1e-12)


@_PROFILE
@given(
    scheme=st.sampled_from((P1Q0, P1QM1, PQR)),
    alpha=st.floats(1.1, 1.9),
    xs=st.lists(st.floats(0.1, np.pi), min_size=1, max_size=5),
)
def test_generating_function_matches_series(scheme, alpha, xs):
    xs = np.array(xs)
    closed = generating_function(alpha, scheme, xs)
    series = series_generating_function(alpha, scheme, xs, 200_000)
    np.testing.assert_allclose(closed, series, rtol=0, atol=1e-8)


_UNIT = st.floats(-1.0, 1.0, allow_subnormal=False)


@_PROFILE
@given(data=st.data(), n=st.integers(1, 300))
def test_fft_matvec_matches_direct(data, n):
    col, row, v = (data.draw(hnp.arrays(float, n, elements=_UNIT)) for _ in range(3))
    row[0] = col[0]
    t = ToeplitzOperator(col, row)
    direct = toeplitz_matvec_direct(t, v)
    fast = toeplitz_matvec_fft(t, v)
    assert np.max(np.abs(direct - fast)) / max(1.0, float(np.max(np.abs(direct)))) < 1e-12
    np.testing.assert_allclose(direct, t.to_dense() @ v, rtol=0, atol=1e-10)


@_PROFILE
@given(
    scheme=st.sampled_from((GL, P1Q0, P1QM1)),
    alpha=st.floats(1.0, 2.0, exclude_min=True),
    count=st.integers(5, 200),
)
def test_weight_properties_hold_above_order_one(scheme, alpha, count):
    report = verify_weight_properties(alpha, scheme, count)
    assert report.all_passed, report.failures()


_SHIFT_PAIR_OF = {P1Q0: (1, 0), P1QM1: (1, -1)}


@_PROFILE
@given(
    data=st.data(),
    big_n=st.integers(4, 70),
    scheme=st.sampled_from((P1Q0, P1QM1)),
    alpha=st.floats(1.1, 1.9),
    theta=st.floats(0.5, 1.0),
)
def test_gs_step_system_matches_dense_oracle(data, big_n, scheme, alpha, theta):
    # constant left/right diffusivities, either one possibly zero
    kl = data.draw(st.sampled_from((0.0, 0.3, 1.0, 2.5)))
    kr = data.draw(st.sampled_from((0.3, 1.0, 2.5) if kl == 0.0 else (0.0, 0.3, 1.0, 2.5)))
    length = data.draw(st.floats(0.5, 3.0))
    problem = Problem1D(
        name="random",
        alpha=alpha,
        left_diffusivity=kl,
        right_diffusivity=kr,
        source=lambda x, t: np.zeros_like(x),
        initial=lambda x: np.zeros_like(x),
        left_boundary=lambda t: 0.0,
        right_boundary=lambda t: 0.0,
        b=length,
    )
    cfg = SolverConfig1D(
        N=big_n,
        M=data.draw(st.integers(1, 64)),
        theta=theta,
        scheme=scheme,
        T=data.draw(st.floats(0.1, 4.0)),
    )
    n = big_n - 1
    p, q = _SHIFT_PAIR_OF[scheme]
    a = dense_shift_matrix(pair_weights_from_binomial(alpha, p, q, n + 1), n, p)
    b = cfg.tau / (length / big_n) ** alpha * (kl * a + kr * a.T)
    v = data.draw(hnp.arrays(float, n, elements=_UNIT).filter(lambda v: np.any(v != 0.0)))
    rhs_product, solve = solve1d._gs_steps(problem, cfg)
    want_product = v + (1.0 - theta) * (b @ v)
    want_solve = np.linalg.solve(np.eye(n) - theta * b, v)
    gap_product = np.max(np.abs(rhs_product(v) - want_product)) / np.max(np.abs(want_product))
    gap_solve = np.max(np.abs(solve(v) - want_solve)) / np.max(np.abs(want_solve))
    assert gap_product <= 1e-10 and gap_solve <= 1e-10, (gap_product, gap_solve)


def _zero(x, y, *t):
    return np.zeros(np.broadcast(x, y).shape)


def _split_step_gap(data, stepper, nx, ny, bx, by, **oracle) -> float:
    """Relative gap between one stepper step and the dense Kronecker step on
    a random problem whose source vanishes on the two y-boundary lines."""
    alpha, beta = data.draw(st.floats(1.1, 1.9)), data.draw(st.floats(1.1, 1.9))
    kappa = [data.draw(st.floats(0.1, 2.0)) for _ in range(4)]
    k = data.draw(st.floats(0.5, 4.0))

    def source(x, y, t):
        return (1.0 + t) * np.sin(k * x) * (y * (by - y)) ** 2

    problem = Problem2D(
        name="random",
        alpha=alpha,
        beta=beta,
        x_left_diffusivity=kappa[0],
        x_right_diffusivity=kappa[1],
        y_left_diffusivity=kappa[2],
        y_right_diffusivity=kappa[3],
        source=source,
        initial=_zero,
        boundary=_zero,
        bx=bx,
        by=by,
    )
    cfg = SolverConfig2D(
        Nx=nx, Ny=ny, M=data.draw(st.integers(1, 16)), T=data.draw(st.floats(0.1, 2.0))
    )
    u0 = data.draw(hnp.arrays(float, (nx - 1, ny - 1), elements=_UNIT))
    t_n = data.draw(st.floats(0.0, 1.0))
    xg, yg = np.meshgrid(bx / nx * np.arange(1, nx), by / ny * np.arange(1, ny), indexing="ij")
    dx, dy = build_directional_operators(problem, cfg)
    want = kron_two_level_step(
        dx, dy, u0, source(xg, yg, t_n + 0.5 * cfg.tau), cfg.tau, **oracle
    )
    got = stepper(problem, cfg)(u0, t_n)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


_SIDES = st.floats(0.5, 2.0)


@_PROFILE
@given(data=st.data(), nx=st.integers(4, 12), ny=st.integers(4, 12), bx=_SIDES, by=_SIDES)
def test_pr_step_matches_kron_oracle(data, nx, ny, bx, by):
    # unequal spacings and unequal left/right diffusivities make both
    # directional operators nonsymmetric, so a transposed product shows
    assert _split_step_gap(data, pr_adi_stepper, nx, ny, bx, by) <= 1e-12


@_PROFILE
@given(data=st.data(), n=st.integers(4, 12), side=_SIDES)
def test_lod_step_matches_corrected_kron_oracle(data, n, side):
    gap = _split_step_gap(data, lod_stepper, n, n, side, side, lod_source_correction=True)
    assert gap <= 1e-12


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(
    example=st.sampled_from((ExampleId.LEFT_SIDED, ExampleId.TWO_SIDED, ExampleId.VARIABLE_COEFF)),
    alphas=st.lists(st.floats(1.1, 1.9), min_size=1, max_size=2),
    schemes=st.lists(st.sampled_from((P1Q0, P1QM1)), min_size=1, max_size=2, unique=True),
    start=st.sampled_from((4, 8)),
    rungs=st.integers(1, 3),
    sampling=st.sampled_from(SOURCE_SAMPLING),
)
def test_converge_report_round_trips_through_csv(
    example, alphas, schemes, start, rungs, sampling
):
    config = StudyConfig(
        example=example,
        alphas=tuple(alphas),
        schemes=tuple(schemes),
        resolutions=tuple(start * 2**i for i in range(rungs)),
        source_sampling=sampling,
    )
    want = [rec for _, records in _study_blocks(config) for rec in records]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.csv")
        with open(path, "w", newline="") as fh:
            fh.write(cmd_converge(config))
        assert read_report_csv(path) == want
