"""Property tests over random orders, shifts and sizes: weights against the
log-gamma oracles, the closed-form generating function against its
defining series, the documented sign/partial-sum properties, the 1D
Gohberg–Semencul step system against dense matrices built from the oracle
weights, one step of each 2D splitting against the dense Kronecker oracle,
whole 2D runs in the eigenbasis against the dense steppers, and
convergence reports through their CSV form.

The hypothesis profiles are in ``conftest.py``: the default, ``tier1``, is
derandomized, so every run draws the same examples; ``HYPOTHESIS_PROFILE=fuzz``
draws 600 fresh examples a test."""

from __future__ import annotations

import dataclasses
import os
import tempfile
import warnings

import numpy as np
import pytest
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
    SeparableSource,
    SolverConfig1D,
    SolverConfig2D,
    build_directional_operators,
    generating_function,
    lod_stepper,
    operator_weights,
    pr_adi_stepper,
    run_2d,
    shifted_pair_weights,
    verify_weight_properties,
)
from wsgdiff.cli import ExampleId, StudyConfig, _study_blocks, cmd_converge
from wsgdiff import solve1d, solve2d
from wsgdiff.solve1d import SOURCE_SAMPLING

from oracles import (
    binomial_gl,
    dense_shift_matrix,
    kron_two_level_step,
    pair_weights_from_binomial,
    series_generating_function,
    report_records,
    triple_weights_from_binomial,
)

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


@given(alpha=_ORDERS, pq=_SHIFT_PAIRS, extra=st.integers(0, 60))
def test_shifted_pair_weights_match_oracle(alpha, pq, extra):
    p, q = pq
    count = max(3, abs(p - q) + 1) + extra
    got = shifted_pair_weights(alpha, p, q, count)
    want = pair_weights_from_binomial(alpha, p, q, count)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@given(alpha=_ORDERS, pq=_SHIFT_PAIRS, count=st.integers(1, 40), extra=st.integers(1, 8))
def test_pair_oracle_is_prefix_stable(alpha, pq, count, extra):
    # every weight is complete at any length, also the last q - p ones when
    # the second shift reaches past the requested count
    p, q = pq
    short = pair_weights_from_binomial(alpha, p, q, count)
    longer = pair_weights_from_binomial(alpha, p, q, count + extra)
    np.testing.assert_allclose(short, longer[:count], rtol=0, atol=1e-14)


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


@given(
    scheme=st.sampled_from((GL, P1Q0, P1QM1)),
    alpha=st.floats(1.0, 2.0, exclude_min=True),
    count=st.integers(5, 200),
)
def test_weight_properties_hold_above_order_one(scheme, alpha, count):
    report = verify_weight_properties(alpha, scheme, count)
    assert report.all_passed, report.failures()


_SHIFT_PAIR_OF = {P1Q0: (1, 0), P1QM1: (1, -1)}
_UNIT = st.floats(-1.0, 1.0, allow_subnormal=False)


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
    nonzero = hnp.arrays(float, n, elements=_UNIT).filter(lambda v: np.any(v != 0.0))
    v, u, f, g = (data.draw(nonzero) for _ in range(4))
    lhs = np.eye(n) - theta * b
    want_solve = np.linalg.solve(lhs, v)
    # the solve is a step from zero, and the whole Cayley-form step is
    # L^-1 (R u + f + g)
    advance, _ = solve1d._gs_steps(problem, cfg)
    gap_solve = np.max(np.abs(advance(np.zeros(n), v[None]) - want_solve))
    want_step = np.linalg.solve(lhs, u + (1.0 - theta) * (b @ u) + f + g)
    gap_step = np.max(np.abs(advance(u, (f + g)[None]) - want_step))
    gaps = gap_solve / np.max(np.abs(want_solve)), gap_step / np.max(np.abs(want_step))
    assert max(gaps) <= 1e-10, gaps


@given(data=st.data())
def test_split_run_matches_the_full_dense_run(data):
    # mirrored diffusivities (equal constants, or f(x) and f(1 - x) on a
    # power-of-two grid, where 1 - x_i is exact) make every step matrix
    # centrosymmetric, and the dense path steps in its even and odd halves;
    # the full system, forced past the selection, gives the same run
    alpha = data.draw(st.floats(1.0, 2.0, exclude_min=True))
    scheme = data.draw(st.sampled_from((P1Q0, P1QM1)))
    theta = data.draw(st.sampled_from((0.0, 0.3, 0.5, 1.0)))
    if data.draw(st.booleans()):
        big_n = data.draw(st.integers(6, 81))
        dl = dr = data.draw(st.floats(0.1, 3.0))
    else:
        big_n = data.draw(st.sampled_from((8, 16, 32, 64)))
        c = data.draw(st.floats(0.0, 1.0))
        dl = lambda x: c + np.asarray(x) ** alpha
        dr = lambda x: c + (1.0 - np.asarray(x)) ** alpha
    problem = Problem1D(
        name="mirrored",
        alpha=alpha,
        left_diffusivity=dl,
        right_diffusivity=dr,
        source=lambda x, t: np.sin(3.0 * np.asarray(x)) * np.cos(t),
        initial=lambda x: np.asarray(x) * (1.0 - np.asarray(x)) ** 2,
        left_boundary=lambda t: 0.0,
        right_boundary=lambda t: 0.0,
    )
    M = data.draw(st.integers(1, 12))
    # tau/h**alpha below 1/4 of the largest diffusivity's inverse keeps the
    # explicit end of theta bounded
    T = 0.25 * M * big_n**-alpha / (1.0 + (dl if np.isscalar(dl) else c + 1.0))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "theta=.* lies outside the proven stability window")
        cfg = SolverConfig1D(N=big_n, M=M, theta=theta, scheme=scheme, T=T)
    shapes = []
    with pytest.MonkeyPatch.context() as m:
        helper = solve1d.solve
        counted = lambda a, b, context: shapes.append(np.shape(b)) or helper(a, b, context)
        m.setattr(solve1d, "solve", counted)
        split = solve1d.cn_wsgd_run(problem, cfg)
        m.setattr(solve1d, "_backend", lambda *_: "dense")
        full = solve1d.cn_wsgd_run(problem, cfg)
    assert (split.backend, full.backend) == ("dense-halves", "dense")
    n = big_n - 1
    assert shapes == [(n - n // 2, n - n // 2)] * 2 + [(n, n)]
    for got, want in ((split.values, full.values), (split.norm_history, full.norm_history)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _zero(x, y, *t):
    return np.zeros(np.broadcast(x, y, *t).shape)


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
        bx=bx,
        by=by,
    )
    cfg = SolverConfig2D(
        Nx=nx, Ny=ny, M=data.draw(st.integers(1, 16)), T=data.draw(st.floats(0.1, 2.0))
    )
    u0 = data.draw(hnp.arrays(float, (nx - 1, ny - 1), elements=_UNIT))
    level = data.draw(st.integers(0, cfg.M - 1))
    xg, yg = np.meshgrid(bx / nx * np.arange(1, nx), by / ny * np.arange(1, ny), indexing="ij")
    dx, dy = build_directional_operators(problem, cfg)
    want = kron_two_level_step(
        dx, dy, u0, source(xg, yg, level * cfg.tau + 0.5 * cfg.tau), cfg.tau, **oracle
    )
    got = next(stepper(problem, cfg)(u0, level))[0]
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


_SIDES = st.floats(0.5, 2.0)


@given(data=st.data(), nx=st.integers(4, 12), ny=st.integers(4, 12), bx=_SIDES, by=_SIDES)
def test_pr_step_matches_kron_oracle(data, nx, ny, bx, by):
    # unequal spacings and unequal left/right diffusivities make both
    # directional operators nonsymmetric, so a transposed product shows
    assert _split_step_gap(data, pr_adi_stepper, nx, ny, bx, by) <= 1e-12


@given(data=st.data(), n=st.integers(4, 12), side=_SIDES)
def test_lod_step_matches_corrected_kron_oracle(data, n, side):
    gap = _split_step_gap(data, lod_stepper, n, n, side, side, lod_source_correction=True)
    assert gap <= 1e-12


_SMOOTH = st.floats(0.2, 3.0)

#: Both backends round like a perturbation of ``Dx``, ``Dy`` of about ``eps
#: rho``, ``rho`` their larger spectral radius: the dense steppers through
#: their setup solves with ``I - tau/2 D``, whose condition number is about
#: ``kappa = 1 + tau/2 rho``, the eigenbasis through ``eigh``, which moves
#: each step multiplier by about ``tau rho eps``.  So the runs part by a few
#: ``kappa eps`` of what a step adds, the state or ``tau F``, whichever is
#: larger: a strong operator holds the state far below the source it
#: balances (up to 2,000 times in these draws; on lod with a few x-nodes and
#: many y-nodes the gap reached 70 ``kappa eps`` of the final state).
#: Measured against the larger of the two, no gap with ``kappa`` above 100
#: passed 3.7 ``kappa eps`` in 24,000 unseeded draws of this test, nor 1.4
#: in 1,800 draws at that corner; the bound allows four times that.  Where
#: ``kappa eps`` is small, 1e-12 of the final state holds.
_KAPPA_EPS = 16.0


def _smooth_source(data) -> SeparableSource:
    """A smooth time factor ``1 + a cos(w t)`` times a space function,
    ``sin(k x + p) exp(-q y) + cos(r x y)``, that is not separable."""
    a, w, k, p, q, r = (data.draw(_SMOOTH) for _ in range(6))
    return SeparableSource(
        lambda t: 1.0 + a * np.cos(w * t),
        lambda x, y: np.sin(k * x + p) * np.exp(-q * y) + np.cos(r * x * y),
    )


@given(
    data=st.data(),
    splitting=st.sampled_from(("pr", "lod")),
    nx=st.integers(5, 40),
    ny=st.integers(5, 40),
)
def test_eigenbasis_and_dense_runs_agree(data, splitting, nx, ny):
    # a symmetric problem with a separable source, forced through the
    # backend seam onto each 2D backend: pr on two spacings, lod on the one
    # spacing it needs
    if splitting == "lod":
        h = data.draw(st.floats(0.5, 2.0)) / max(nx, ny)
        bx, by = h * nx, h * ny
    else:
        bx, by = data.draw(_SIDES), data.draw(_SIDES)
    kx, ky = data.draw(st.floats(0.1, 2.0)), data.draw(st.floats(0.1, 2.0))
    # at order 1 the symmetric operator vanishes, and within about 1e-15 of
    # it its eigenvalues are rounding noise of either sign; both backends
    # must still run it, every eigenbasis multiplier rounding to at most 1
    orders = st.floats(1.0, 2.0, exclude_min=True)
    problem = Problem2D(
        name="symmetric",
        alpha=data.draw(orders),
        beta=data.draw(orders),
        x_left_diffusivity=kx,
        x_right_diffusivity=kx,
        y_left_diffusivity=ky,
        y_right_diffusivity=ky,
        source=_smooth_source(data),
        initial=lambda x, y: np.sin(np.pi * x / bx) * y * (by - y),
        bx=bx,
        by=by,
    )
    cfg = SolverConfig2D(
        Nx=nx,
        Ny=ny,
        M=data.draw(st.integers(1, 8)),
        splitting=splitting,
        T=data.draw(st.floats(0.1, 2.0)),
    )
    runs = {}
    with pytest.MonkeyPatch.context() as m:
        for backend in ("eigen", "dense"):
            m.setattr(solve2d, "_backend", lambda *_, backend=backend: backend)
            runs[backend] = run_2d(problem, cfg)
            assert runs[backend].backend == backend
    got, want = runs["eigen"], runs["dense"]
    ops = build_directional_operators(problem, cfg)
    kappa = 1.0 + 0.5 * cfg.tau * max(np.max(np.abs(np.linalg.eigvalsh(d))) for d in ops)
    # the largest source a step adds, on the interior and lod's y-lines
    x, y = np.linspace(0.0, bx, nx + 1)[1:-1, None], np.linspace(0.0, by, ny + 1)[None, :]
    times = cfg.tau * (np.arange(cfg.M) + 0.5)
    added = cfg.tau * max(np.max(np.abs(problem.source(x, y, t))) for t in times)
    state = np.max(np.abs(want.values))
    rel = max(1e-12, _KAPPA_EPS * kappa * np.finfo(float).eps * max(1.0, added / state))
    assert np.max(np.abs(got.values - want.values)) <= rel * state
    gap = np.max(np.abs(got.norm_history - want.norm_history))
    assert gap <= rel * np.max(want.norm_history)


@settings(max_examples=25)
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
        assert report_records(path) == [dataclasses.asdict(rec) for rec in want]
