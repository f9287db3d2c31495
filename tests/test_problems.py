"""Benchmark catalog: every manufactured solution must satisfy its own
equation (verified against analytic fractional derivatives of monomials),
boundary/initial data must match the exact solution, and the norm/rate
helpers must reproduce hand values."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from wsgdiff import problems, solve1d, solve2d
from wsgdiff import (
    ErrorRecord,
    ExampleId,
    ParameterError,
    Problem1D,
    Problem2D,
    SeparableSource,
    SolverConfig1D,
    SolverConfig2D,
    attach_rates,
    cn_wsgd_run,
    convergence_rate,
    l2_norm,
    make_example,
    max_norm,
    run_2d,
    steady_solve_3wsgd,
)

from oracles import bump, bump_rl_left, bump_rl_right, rl_left_monomial


# ---------------------------------------------------------------------------
# Manufactured solutions satisfy their equations
# ---------------------------------------------------------------------------


def _sample_points(rng, count):
    x = rng.uniform(0.05, 0.95, size=count)
    t = rng.uniform(0.0, 1.0, size=count)
    return x, t


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_steady_example_residual(alpha):
    p = make_example("ex0", alpha)
    assert p.steady
    rng = np.random.default_rng(101)
    x, _ = _sample_points(rng, 50)
    # steady balance: left derivative of the exact solution plus source = 0
    residual = rl_left_monomial(alpha, 2.0 + alpha, x) + p.source(x)
    assert np.max(np.abs(residual)) < 1e-10


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_left_sided_example_residual(alpha):
    p = make_example("ex1", alpha)
    rng = np.random.default_rng(102)
    x, t = _sample_points(rng, 50)
    u_t = -np.exp(-t) * x ** (1.0 + alpha)
    flux = np.exp(-t) * rl_left_monomial(alpha, 1.0 + alpha, x)
    residual = u_t - flux - p.source(x, t)
    assert np.max(np.abs(residual)) < 1e-10
    assert p.left_diffusivity == 1.0 and p.right_diffusivity == 0.0


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_two_sided_example_residual(alpha):
    p = make_example("ex2", alpha)
    rng = np.random.default_rng(103)
    x, t = _sample_points(rng, 50)
    u_t = -np.exp(-t) * bump(x)
    flux = np.exp(-t) * (bump_rl_left(alpha, x) + bump_rl_right(alpha, x))
    residual = u_t - flux - p.source(x, t)
    assert np.max(np.abs(residual)) < 1e-10


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_variable_coefficient_example_residual(alpha):
    p = make_example("ex3", alpha)
    assert p.has_variable_coefficients
    rng = np.random.default_rng(104)
    x, t = _sample_points(rng, 50)
    dl, dr = p.diffusivity_values(x)
    np.testing.assert_allclose(dl, x**alpha, atol=1e-15)
    np.testing.assert_allclose(dr, (1.0 - x) ** alpha, atol=1e-15)
    u_t = -np.exp(-t) * bump(x)
    flux = np.exp(-t) * (dl * bump_rl_left(alpha, x) + dr * bump_rl_right(alpha, x))
    residual = u_t - flux - p.source(x, t)
    assert np.max(np.abs(residual)) < 1e-10


@pytest.mark.parametrize("alpha,beta", [(1.2, 1.8), (1.5, 1.5), (1.9, 1.1)])
def test_two_dimensional_example_residual(alpha, beta):
    p = make_example("ex4", alpha, beta)
    assert p.alpha == alpha and p.beta == beta
    rng = np.random.default_rng(105)
    x = rng.uniform(0.05, 0.95, size=25)
    y = rng.uniform(0.05, 0.95, size=25)
    t = rng.uniform(0.0, 1.0, size=25)
    u_t = -np.exp(-t) * bump(x) * bump(y)
    flux_x = np.exp(-t) * bump(y) * (bump_rl_left(alpha, x) + bump_rl_right(alpha, x))
    flux_y = np.exp(-t) * bump(x) * (bump_rl_left(beta, y) + bump_rl_right(beta, y))
    residual = u_t - flux_x - flux_y - p.source(x, y, t)
    assert np.max(np.abs(residual)) < 1e-10


def test_catalog_factors_return_fresh_writable_arrays():
    # the one-axis factors used to keep their values for the last axis they
    # saw and hand that one read-only array to every call on an equal axis;
    # each call now computes its own, on repeated and interleaved axes alike;
    # ex4's space factor is built from the same two
    ex2 = make_example("ex2", 1.5)
    factors = [
        (ex2.initial, bump),
        (problems._cubic_bump, bump),
        (
            problems._mirrored_fractional_profile(1.8, 1.8),
            lambda s: bump_rl_left(1.8, s) + bump_rl_right(1.8, s),
        ),
    ]
    x = np.linspace(0.0, 1.0, 33)[1:-1]
    y = np.linspace(0.0, 1.0, 17)[1:-1]
    for fn, closed_form in factors:
        seen = []
        for axis in (x[:, None], x[None, :], y, x[:, None]):
            got = fn(axis)
            assert got.shape == axis.shape and got.flags.writeable
            assert not any(np.shares_memory(got, old) for old in seen)
            np.testing.assert_allclose(got, closed_form(axis), rtol=1e-12, atol=0)
            got[...] = np.nan
            seen.append(got)


@pytest.mark.parametrize("alpha,beta", [(1.2, 1.8), (1.9, 1.1)])
def test_two_dimensional_source_is_the_three_term_formula(alpha, beta):
    # the source is the time factor -exp(-t) times one space function; it
    # equals -exp(-t) (bx by + px by + py bx) on the interior axes of a run
    # and on the side lines a run samples
    p = make_example("ex4", alpha, beta)
    bump_of, px, py = (
        problems._cubic_bump,
        problems._mirrored_fractional_profile(alpha, alpha),
        problems._mirrored_fractional_profile(beta, beta),
    )
    x = np.linspace(0.0, 1.0, 65)
    ends = np.array([[0.0], [1.0]])
    for xs, ys in ((x[1:-1, None], x[None, 1:-1]), (x[1:-1], ends), (ends, x)):
        for t in (0.0, 0.37, 1.0):
            bx, by = bump_of(xs), bump_of(ys)
            want = -np.exp(-t) * (bx * by + px(xs) * by + py(ys) * bx)
            got = p.source(xs, ys, t)
            assert got.shape == np.broadcast_shapes(np.shape(xs), np.shape(ys))
            gap = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert gap <= 1e-15, (np.shape(xs), t, gap)


def _record():
    """A time factor times a space function of two terms, one of them not
    separable in x and y."""
    return SeparableSource(
        lambda t: np.cos(3.0 * t), lambda x, y: np.cos(3.0 * x * y + 1.0) + x * x * (1.0 - y)
    )


def _sum_of_terms(x, y, t):
    x, y, t = map(np.asarray, (x, y, t))
    return np.cos(3.0 * t) * np.cos(3.0 * x * y + 1.0) + np.cos(3.0 * t) * x * x * (1.0 - y)


_AXES = {
    "interior": (np.linspace(0.1, 0.9, 9)[:, None], np.linspace(0.0, 2.0, 7)[None, :], 0.3),
    "swapped": (np.linspace(0.1, 0.9, 9)[None, :], np.linspace(0.0, 2.0, 7)[:, None], 0.3),
    "mesh": (*np.meshgrid(np.linspace(0, 1, 5), np.linspace(0, 2, 4), indexing="ij"), 1.0),
    "y-lines": (np.linspace(0.1, 0.9, 9)[None, :], np.array([[0.0], [2.0]]), 0.7),
    "scalars": (0.25, 1.5, 0.0),
    "points": (np.linspace(0, 1, 6), np.linspace(0, 2, 6), np.linspace(0, 1, 6)),
    "time column": (np.linspace(0, 1, 6)[None, :], 0.5, np.linspace(0, 1, 3)[:, None]),
}


@pytest.mark.parametrize("axes", sorted(_AXES))
def test_separable_source_is_its_sum_of_terms_on_every_axis_shape(axes):
    # the record is time(t) space(x, y) on any broadcast axes
    x, y, t = _AXES[axes]
    got, want = _record()(x, y, t), _sum_of_terms(x, y, t)
    assert np.shape(got) == np.broadcast_shapes(*map(np.shape, (x, y, t)))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15 * np.max(np.abs(want)))


_BAD_FACTORS = {
    "complex time": (lambda t: 1j * t, lambda x, y: x * y, "time factor returned complex"),
    # a space function of the wrong dtype, or of the wrong length on an axis
    "text x": (np.exp, lambda x, y: np.full(np.shape(x), "0"), "space factor returned <U1"),
    "short x": (
        np.exp,
        lambda x, y: np.ones((3, np.shape(y)[-1])),
        r"space factor returned shape \(3, \d+\)",
    ),
    "long y": (
        np.exp,
        lambda x, y: np.ones((np.shape(x)[0], np.shape(y)[-1] + 1)),
        r"space factor returned shape \(\d+, \d+\)",
    ),
}


@pytest.mark.parametrize("factor", sorted(_BAD_FACTORS))
@pytest.mark.parametrize("path", ["call", "eigenbasis", "dense"])
def test_separable_source_factors_are_checked(monkeypatch, factor, path):
    # every path reads a factor through on_grid's checks, so a bad one is a
    # ParameterError naming the source, not a numpy error or a wrong product
    time, space, message = _BAD_FACTORS[factor]
    source = SeparableSource(time, space)
    with pytest.raises(ParameterError, match=rf"problem\.source {message}"):
        if path == "call":
            x = np.linspace(0.1, 0.9, 7)
            source(x[:, None], x[None, :], 0.5)
        else:
            if path == "dense":
                monkeypatch.setattr(solve2d, "_backend", lambda *_: "dense")
            _solve("ex4", source=source)


def _space(x, y):
    return x * y


@pytest.mark.parametrize(
    "terms",
    [
        (1.0, _space),
        (np.exp, None),
        (np.exp, 2.0),
        ("exp", _space),
        (None, None),
        (np.exp, (np.sin, np.cos)),
        ((np.exp,), _space),
    ],
)
def test_separable_source_needs_callable_terms(terms):
    # both the time factor and the space function must be callables
    with pytest.raises(ParameterError, match="separable source needs"):
        SeparableSource(*terms)


# ---------------------------------------------------------------------------
# Data consistency: exact vs. initial vs. boundary
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tag", ["ex1", "ex2", "ex3"])
def test_initial_state_matches_exact_at_time_zero(tag):
    p = make_example(tag, 1.5)
    x = np.linspace(0.0, 1.0, 33)
    np.testing.assert_allclose(p.initial(x), p.exact(x, 0.0), rtol=0, atol=1e-14)


@pytest.mark.parametrize("tag", ["ex1", "ex2", "ex3"])
def test_boundary_data_matches_exact(tag):
    p = make_example(tag, 1.3)
    for t in (0.0, 0.37, 1.0):
        assert p.left_boundary(t) == pytest.approx(float(p.exact(np.array(0.0), t)), abs=1e-14)
        assert p.right_boundary(t) == pytest.approx(float(p.exact(np.array(1.0), t)), abs=1e-14)


def test_steady_boundary_data():
    p = make_example("ex0", 1.5)
    assert p.left_boundary(0.0) == 0.0
    assert p.right_boundary(0.0) == 1.0
    x = np.linspace(0.0, 1.0, 9)
    np.testing.assert_allclose(p.exact(x), x ** (2.0 + 1.5), atol=1e-15)


def test_two_dimensional_boundary_and_initial():
    p = make_example("ex4")
    assert (p.alpha, p.beta) == (1.2, 1.8)
    x = np.linspace(0.0, 1.0, 9)
    y = np.linspace(0.0, 1.0, 7)
    X, Y = np.meshgrid(x, y, indexing="ij")
    np.testing.assert_allclose(p.initial(X, Y), p.exact(X, Y, 0.0), atol=1e-15)
    # the exact solution vanishes on the whole boundary frame
    frame = p.exact(X, Y, 0.3)
    assert np.max(np.abs(frame[0, :])) == 0.0
    assert np.max(np.abs(frame[:, -1])) == 0.0


# ---------------------------------------------------------------------------
# Catalog lookup
# ---------------------------------------------------------------------------


def test_example_id_from_tag():
    assert ExampleId.from_tag("ex2") is ExampleId.TWO_SIDED
    assert ExampleId.from_tag(ExampleId.STEADY) is ExampleId.STEADY
    with pytest.raises(ParameterError):
        ExampleId.from_tag("ex9")


def test_make_example_requires_alpha_for_1d():
    with pytest.raises(ParameterError, match="requires alpha"):
        make_example("ex1")


def test_make_example_rejects_beta_for_1d():
    with pytest.raises(ParameterError, match="one-dimensional"):
        make_example("ex2", 1.5, 1.8)


# ---------------------------------------------------------------------------
# Problem validation
# ---------------------------------------------------------------------------


def _minimal_1d(**overrides):
    kwargs = dict(
        name="custom",
        alpha=1.5,
        left_diffusivity=1.0,
        right_diffusivity=0.0,
        source=lambda x, t: np.zeros_like(x),
        initial=lambda x: np.zeros_like(x),
        left_boundary=lambda t: 0.0,
        right_boundary=lambda t: 0.0,
    )
    kwargs.update(overrides)
    return Problem1D(**kwargs)


def _valid_at_first_read(value):
    """Dirichlet data that are 0.0 at their first read, the one a record
    makes when it is built, and ``value`` at every later read."""
    reads = []

    def data(t):
        reads.append(t)
        return value if len(reads) > 1 else 0.0

    return data


def test_problem1d_accepts_minimal():
    p = _minimal_1d()
    assert not p.has_variable_coefficients
    dl, dr = p.diffusivity_values(np.linspace(0, 1, 5))
    np.testing.assert_array_equal(dl, np.ones(5))
    np.testing.assert_array_equal(dr, np.zeros(5))


def test_problem1d_rejects_bad_order():
    with pytest.raises(ParameterError):
        _minimal_1d(alpha=1.0)
    with pytest.raises(ParameterError):
        _minimal_1d(alpha=2.5)


def test_problem1d_rejects_bad_domain():
    with pytest.raises(ParameterError):
        _minimal_1d(a=1.0, b=1.0)


def test_problem1d_rejects_mixed_diffusivity_kinds():
    with pytest.raises(ParameterError, match="both constants or both callables"):
        _minimal_1d(left_diffusivity=lambda x: x, right_diffusivity=1.0)


def test_problem1d_rejects_negative_or_all_zero_diffusivity():
    with pytest.raises(ParameterError, match="nonnegative"):
        _minimal_1d(left_diffusivity=-1.0)
    with pytest.raises(ParameterError, match="positive"):
        _minimal_1d(left_diffusivity=0.0, right_diffusivity=0.0)


def test_problem1d_requires_initial_when_time_dependent():
    with pytest.raises(ParameterError, match="initial"):
        _minimal_1d(initial=None)


def test_problem1d_rejects_active_nonzero_boundary():
    with pytest.raises(ParameterError, match="active left-sided"):
        _minimal_1d(left_boundary=lambda t: 1.0)
    # an inactive side may carry data freely
    _minimal_1d(right_boundary=lambda t: np.exp(-t))


@pytest.mark.parametrize(
    "value,kind",
    [(1j, "complex128"), (np.complex128(0.5), "complex128"), ("0", "<U1"), (None, "object")],
)
def test_boundary_data_that_are_not_real_numbers_name_the_callable(value, kind):
    # float(fn(t)) used to end in a TypeError, pass a complex128 with a
    # ComplexWarning only, and accept the text '0'
    message = rf"problem\.right_boundary returned {kind} values of shape \(\), not one real"
    with pytest.raises(ParameterError, match=message):
        _minimal_1d(right_boundary=lambda t: value)
    # data that pass the record's check meet it again in the run, and in the
    # steady solve, which used to read float(fn(0.0))
    p = _minimal_1d(right_boundary=_valid_at_first_read(value))
    with pytest.raises(ParameterError, match=message):
        cn_wsgd_run(p, SolverConfig1D(N=8, M=2))
    p = _minimal_1d(right_boundary=_valid_at_first_read(value), steady=True)
    with pytest.raises(ParameterError, match=message):
        steady_solve_3wsgd(p, 8)


def test_boundary_data_are_one_number_a_time():
    message = r"left_boundary returned float64 values of shape \(1,\)"
    with pytest.raises(ParameterError, match=message):
        _minimal_1d(left_boundary=lambda t: np.zeros(1))
    # the steady solve used to end in a TypeError
    p = _minimal_1d(left_boundary=_valid_at_first_read(np.zeros(1)), steady=True)
    with pytest.raises(ParameterError, match=message):
        steady_solve_3wsgd(p, 8)


def test_problem1d_rejects_active_right_nonzero_boundary():
    with pytest.raises(ParameterError, match="active right-sided"):
        _minimal_1d(
            left_diffusivity=1.0,
            right_diffusivity=1.0,
            right_boundary=lambda t: 0.5,
        )


def test_problem1d_variable_diffusivity_sign_checked_on_grid():
    p = _minimal_1d(
        left_diffusivity=lambda x: x - 0.5,
        right_diffusivity=lambda x: np.ones_like(x),
    )
    with pytest.raises(ParameterError, match="nonnegative on the grid"):
        p.diffusivity_values(np.linspace(0.0, 1.0, 9))


@pytest.mark.parametrize(
    "field,value",
    [
        ("left_diffusivity", float("nan")),
        ("left_diffusivity", float("inf")),
        ("right_diffusivity", float("inf")),
        ("a", float("-inf")),
        ("b", float("inf")),
    ],
)
def test_problem1d_rejects_non_finite_numbers(field, value):
    # each used to pass construction and fail the run at step 1
    with pytest.raises(ParameterError, match="finite"):
        _minimal_1d(**{field: value})


def test_problem1d_variable_diffusivity_checked_finite_on_grid():
    p = _minimal_1d(
        left_diffusivity=lambda x: np.where(x > 0.7, np.inf, 1.0),
        right_diffusivity=lambda x: np.ones_like(x),
    )
    with pytest.raises(ParameterError, match="finite and nonnegative on the grid"):
        p.diffusivity_values(np.linspace(0.0, 1.0, 9))


def _minimal_2d(**overrides):
    kwargs = dict(
        name="custom2d",
        alpha=1.5,
        beta=1.5,
        x_left_diffusivity=1.0,
        x_right_diffusivity=1.0,
        y_left_diffusivity=1.0,
        y_right_diffusivity=1.0,
        source=lambda x, y, t: np.zeros(np.broadcast(x, y).shape),
        initial=lambda x, y: np.zeros(np.broadcast(x, y).shape),
    )
    kwargs.update(overrides)
    return Problem2D(**kwargs)


def test_problem2d_validation():
    _minimal_2d()  # baseline accepted
    with pytest.raises(ParameterError):
        _minimal_2d(beta=0.9)
    with pytest.raises(ParameterError, match="nonnegative"):
        _minimal_2d(y_left_diffusivity=-0.1)
    with pytest.raises(ParameterError, match="y direction"):
        _minimal_2d(y_left_diffusivity=0.0, y_right_diffusivity=0.0)
    with pytest.raises(ParameterError, match="x direction"):
        _minimal_2d(x_left_diffusivity=0.0, x_right_diffusivity=0.0)
    with pytest.raises(ParameterError, match="domain"):
        _minimal_2d(bx=0.0)
    # the data are zero by construction, so the record takes none
    with pytest.raises(TypeError, match="'boundary'"):
        _minimal_2d(boundary=lambda x, y, t: 0.0)


@pytest.mark.parametrize(
    "field,value",
    [
        ("x_left_diffusivity", float("inf")),
        ("x_right_diffusivity", float("nan")),
        ("y_left_diffusivity", float("nan")),
        ("y_right_diffusivity", float("inf")),
        ("ax", float("-inf")),
        ("bx", float("inf")),
        ("ay", float("-inf")),
        ("by", float("inf")),
    ],
)
def test_problem2d_rejects_non_finite_numbers(field, value):
    with pytest.raises(ParameterError, match="finite"):
        _minimal_2d(**{field: value})


_REAL_FIELDS = {
    "1d": ("alpha", "left_diffusivity", "right_diffusivity", "a", "b"),
    "2d": ("alpha", "beta", "x_left_diffusivity", "y_right_diffusivity", "ax", "by"),
}


@pytest.mark.parametrize("value", ["1.5", None], ids=["text", "none"])
@pytest.mark.parametrize(
    "dim,field", [(dim, field) for dim, fields in _REAL_FIELDS.items() for field in fields]
)
def test_problem_records_reject_non_real_numbers(dim, field, value):
    # alpha="1.5" used to build a problem that failed inside numpy, a text
    # diffusivity ended run_2d in a UFuncTypeError, and None in a TypeError
    name = "fractional order" if field in ("alpha", "beta") else f"problem.{field}"
    with pytest.raises(ParameterError, match=rf"{re.escape(name)} .*\(not a real number\)"):
        (_minimal_1d if dim == "1d" else _minimal_2d)(**{field: value})


def test_problem_records_store_their_real_fields_as_floats():
    # the orders, constant diffusivities and domain ends used to keep the
    # type they were given
    p1 = _minimal_1d(alpha=np.float64(1.5), left_diffusivity=1, right_diffusivity=np.int64(0), b=2)
    p2 = _minimal_2d(beta=2, x_left_diffusivity=np.float32(0.5), ax=-1, by=np.int64(3))
    for p, fields in ((p1, _REAL_FIELDS["1d"]), (p2, _REAL_FIELDS["2d"])):
        assert {field: type(getattr(p, field)) for field in fields} == dict.fromkeys(fields, float)
    assert (p1.b, p2.beta, p2.x_left_diffusivity, p2.ax, p2.by) == (2.0, 2.0, 0.5, -1.0, 3.0)


# ---------------------------------------------------------------------------
# The one grid sampler
# ---------------------------------------------------------------------------


def _example(example):
    return make_example(example, None if example == "ex4" else 1.5)


def _solve(example, **changes):
    """Solve ``example`` with the given callables replaced, on N = 8 (ex0,
    ex3) or Nx = Ny = 8 (ex4)."""
    p = dataclasses.replace(_example(example), **changes)
    if example == "ex0":
        return steady_solve_3wsgd(p, 8)
    if example == "ex4":
        return run_2d(p, SolverConfig2D(Nx=8, Ny=8, M=2))
    return cn_wsgd_run(p, SolverConfig1D(N=8, M=2))


_BAD_SHAPES = [
    # 2D, interior (7, 7): a wrong shape, and a one-axis result that numpy
    # would broadcast along x (or y) whatever it holds
    ("ex4", "source", lambda x, y, t: np.ones(5), (5,)),
    ("ex4", "source", lambda x, y, t: np.exp(-t) * np.ravel(x), (7,)),
    ("ex4", "initial", lambda x, y: np.ones(3), (3,)),
    ("ex4", "initial", lambda x, y: np.ravel(y), (7,)),
    ("ex4", "exact", lambda x, y, t: np.ones(5), (5,)),
    ("ex4", "exact", lambda x, y, t: np.ravel(x), (7,)),
    # callables of one axis, on the 7 interior nodes
    ("ex3", "initial", lambda x: np.ones(3), (3,)),
    ("ex3", "initial", lambda x: x[:, None], (7, 1)),
    ("ex3", "left_diffusivity", lambda x: np.ones(3), (3,)),
    ("ex0", "source", lambda x, t=0.0: np.ones(3), (3,)),
    ("ex0", "exact", lambda x, t=0.0: np.ones(3), (3,)),
]


@pytest.mark.parametrize(
    "example,name,fn,shape",
    _BAD_SHAPES,
    ids=[f"{case[0]}-{case[1]}-{case[3]}" for case in _BAD_SHAPES],
)
def test_grid_callables_of_the_wrong_shape_are_parameter_errors(example, name, fn, shape):
    # these used to end in numpy's ValueError, or ran on and reported an
    # error for a problem nobody posed
    message = rf"problem\.{name} returned shape {re.escape(str(shape))}"
    with pytest.raises(ParameterError, match=message):
        _solve(example, **{name: fn})


@pytest.mark.parametrize("kind", ["array", "scalar"])
@pytest.mark.parametrize("example", ["ex2", "ex4"])
def test_non_real_grid_callables_are_parameter_errors(example, kind):
    # a complex source used to be cast to its real part with a ComplexWarning
    # only, so ex2 ran to completion; a complex scalar ended in a TypeError
    base = _example(example)

    def source(*args):
        return base.source(*args) * (1.0 + 1.0j) if kind == "array" else 1.0j

    with pytest.raises(ParameterError, match=r"problem\.source returned complex"):
        _solve(example, source=source)


def test_every_grid_callable_is_read_through_the_one_sampler(monkeypatch):
    # each problem callable records whether it runs inside problems.on_grid
    inside, outside, seen = [False], [], set()
    sampler = problems.on_grid

    def spy(*args):
        inside[0] = True
        try:
            return sampler(*args)
        finally:
            inside[0] = False

    for module in (problems, solve1d, solve2d):
        monkeypatch.setattr(module, "on_grid", spy)

    def watched(example, *names):
        p = _example(example)

        def wrap(name, fn):
            def wrapped(*args):
                seen.add(name)
                if not inside[0]:
                    outside.append(name)
                return fn(*args)

            return wrapped

        return dataclasses.replace(p, **{k: wrap(k, getattr(p, k)) for k in names})

    for example, backend in (("ex2", "gs"), ("ex3", "dense-halves")):
        diffusivities = ("left_diffusivity", "right_diffusivity") if example == "ex3" else ()
        p = watched(example, "source", "exact", "initial", *diffusivities)
        monkeypatch.setattr(solve1d, "_backend", lambda *_, backend=backend: backend)
        assert cn_wsgd_run(p, SolverConfig1D(N=16, M=4)).backend == backend
    steady_solve_3wsgd(watched("ex0", "source", "exact"), 16)
    for splitting in ("pr", "lod"):
        p = watched("ex4", "source", "exact", "initial")
        run_2d(p, SolverConfig2D(Nx=8, Ny=8, M=4, splitting=splitting))
    assert outside == []
    assert seen == {"source", "exact", "initial", "left_diffusivity", "right_diffusivity"}


# ---------------------------------------------------------------------------
# Norms and rates
# ---------------------------------------------------------------------------


def test_max_norm_hand_values():
    assert max_norm([3.0, -4.0]) == 4.0
    assert max_norm(np.array([[1.0, -7.0], [2.0, 0.0]])) == 7.0
    with pytest.raises(ParameterError):
        max_norm([])


def test_l2_norm_hand_values():
    assert l2_norm([1.0, 1.0, 1.0], 0.25) == pytest.approx(np.sqrt(0.75), abs=1e-15)
    n = 8
    interior = np.ones((n - 1, n - 1))
    assert l2_norm(interior, 1.0 / n, 1.0 / n) == pytest.approx((n - 1) / n, abs=1e-15)
    with pytest.raises(ParameterError):
        l2_norm([1.0], 0.0)
    with pytest.raises(ParameterError):
        l2_norm([], 0.1)


def test_convergence_rate_hand_values():
    assert convergence_rate(4.0e-4, 1.0e-4) == pytest.approx(2.0, abs=1e-12)
    assert convergence_rate(9.48629e-04, 1.19530e-04) == pytest.approx(2.99, abs=5e-3)
    assert convergence_rate(5.0e-5, 5.0e-5) == 0.0
    with pytest.raises(ParameterError):
        convergence_rate(0.0, 1e-5)
    with pytest.raises(ParameterError):
        convergence_rate(1e-5, -1e-6)


def test_error_record_and_attach_rates():
    rows = [
        ErrorRecord(8, 8, 4.0e-3, 2.0e-3),
        ErrorRecord(16, 16, 1.0e-3, 5.0e-4),
        ErrorRecord(32, 32, 2.5e-4, 1.25e-4),
    ]
    out = attach_rates(rows)
    assert out[0].rate_max is None and out[0].rate_l2 is None
    assert out[1].rate_max == pytest.approx(2.0)
    assert out[2].rate_l2 == pytest.approx(2.0)
    assert [r.N for r in out] == [8, 16, 32]
    with pytest.raises(ParameterError):
        ErrorRecord(8, 8, -1.0, 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_norms_rates_and_records_reject_non_finite_numbers(bad):
    # NaN compares false with everything, so each check names the finite
    # range it accepts rather than the values it refuses
    with pytest.raises(ParameterError, match="positive and finite"):
        l2_norm(np.ones(3), bad)
    with pytest.raises(ParameterError, match="positive and finite"):
        l2_norm(np.ones((3, 3)), 0.5, bad)
    for errs in ((bad, 1e-3), (1e-3, bad)):
        with pytest.raises(ParameterError, match="finite"):
            convergence_rate(*errs)
        with pytest.raises(ParameterError, match="finite"):
            ErrorRecord(8, 8, *errs)
