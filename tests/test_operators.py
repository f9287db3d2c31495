"""Discrete fractional operators: matrix assembly vs. double-loop oracles,
grid application vs. matrix action, fast matvec vs. direct, and measured
consistency orders against analytic derivatives of monomials."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import gamma

from wsgdiff import (
    GridFunction1D,
    P1Q0,
    P1QM1,
    PQR,
    ParameterError,
    ToeplitzOperator,
    apply_left_wsgd,
    apply_right_wsgd,
    assemble_shifted_pair_matrix,
    assemble_wsgd_matrix,
    operator_weights,
    toeplitz_matvec_fft,
    wsgd2_weights,
    wsgd3_weights,
)
from wsgdiff.operators import boundary_columns

from oracles import (
    dense_shift_matrix,
    dense_triple_sum_matrix,
    pair_weights_from_binomial,
    toeplitz_matvec_direct,
    tridiag_second_difference,
)

PAIR_SCHEMES = (P1Q0, P1QM1)


# ---------------------------------------------------------------------------
# Containers
# ---------------------------------------------------------------------------


def test_grid_function_spacing():
    u = GridFunction1D(np.zeros(9))
    assert u.n_intervals == 8
    assert u.h == pytest.approx(0.125)
    v = GridFunction1D(np.zeros(5), a=1.0, b=3.0)
    assert v.h == pytest.approx(0.5)


def test_grid_function_validation():
    with pytest.raises(ParameterError):
        GridFunction1D(np.zeros(2))
    with pytest.raises(ParameterError):
        GridFunction1D(np.zeros(5), a=1.0, b=1.0)


def test_toeplitz_operator_dense_and_transpose():
    col = np.array([2.0, 3.0, 4.0])
    row = np.array([2.0, -1.0, -5.0])
    t = ToeplitzOperator(col, row)
    assert t.n == 3
    dense = t.to_dense()
    np.testing.assert_array_equal(dense[:, 0], col)
    np.testing.assert_array_equal(dense[0, :], row)
    np.testing.assert_array_equal(t.T.to_dense(), dense.T)
    np.testing.assert_array_equal(t.transpose().to_dense(), dense.T)


def test_toeplitz_operator_corner_mismatch_rejected():
    with pytest.raises(ParameterError):
        ToeplitzOperator(np.array([1.0, 2.0]), np.array([3.0, 4.0]))


# ---------------------------------------------------------------------------
# Matrix assembly vs. double-loop oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme,p,q", [(P1Q0, 1, 0), (P1QM1, 1, -1)])
@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("n", [2, 5, 12])
def test_assemble_wsgd_matches_double_loop(scheme, p, q, alpha, n):
    got = assemble_wsgd_matrix(alpha, scheme, n).to_dense()
    w = pair_weights_from_binomial(alpha, p, q, n + 2)
    want = dense_shift_matrix(w, n, 1)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    # band structure: one superdiagonal, full lower triangle
    assert got[0, 1] == pytest.approx(w[0])
    if n > 2:
        assert got[0, 2] == 0.0


@pytest.mark.parametrize("alpha", [0.5, 1.1, 1.5, 1.9])
@pytest.mark.parametrize("n", [3, 6, 11])
def test_assemble_3wsgd_matches_double_loop(alpha, n):
    got = assemble_wsgd_matrix(alpha, "pqr", n).to_dense()
    want = dense_triple_sum_matrix(alpha, n)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("scheme", PAIR_SCHEMES)
def test_assemble_wsgd_classical_limit_is_second_difference(scheme):
    got = assemble_wsgd_matrix(2.0, scheme, 6).to_dense()
    np.testing.assert_allclose(got, tridiag_second_difference(6), rtol=0, atol=1e-15)


def test_assemble_shifted_pair_custom_offset():
    alpha = 1.5
    n = 6
    got = assemble_shifted_pair_matrix(alpha, 0, -1, n).to_dense()
    v = pair_weights_from_binomial(alpha, 0, -1, n + 1)
    want = dense_shift_matrix(v, n, 0)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    # offset zero puts v_0 on the diagonal and empties the upper triangle
    assert np.all(np.diag(got) == pytest.approx((alpha + 2.0) / 2.0))
    assert np.all(got[np.triu_indices(n, k=1)] == 0.0)


def test_row_sums_match_partial_sums():
    alpha = 1.7
    n = 9
    a = assemble_wsgd_matrix(alpha, P1Q0, n).to_dense()
    w = wsgd2_weights(alpha, P1Q0, n + 1)
    sums = w.partial_sums()
    ones = a @ np.ones(n)
    # row i sums the weights w_0 .. w_{i+1}; the last row misses w_0
    np.testing.assert_allclose(ones[:-1], sums[1:n], rtol=0, atol=1e-14)
    assert ones[-1] == pytest.approx(sums[n] - w.values[0], abs=1e-14)


def test_assemble_validation():
    with pytest.raises(ParameterError):
        assemble_wsgd_matrix(1.5, P1Q0, 1)
    with pytest.raises(ParameterError):
        assemble_wsgd_matrix(1.5, "pqr", 2)
    with pytest.raises(ParameterError):
        assemble_wsgd_matrix(2.5, P1Q0, 4)
    with pytest.raises(ParameterError):
        assemble_wsgd_matrix(1.5, "gl", 4)


def test_operator_weights_returns_plain_array():
    w = operator_weights(1.5, P1Q0, 3)
    assert isinstance(w, np.ndarray)
    np.testing.assert_allclose(w, [0.75, -0.875, -0.09375], rtol=0, atol=0)
    mu = operator_weights(1.5, "pqr", 5)
    np.testing.assert_allclose(mu, wsgd3_weights(1.5, 5).values, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# Grid application vs. matrix action
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", PAIR_SCHEMES)
@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
@pytest.mark.parametrize("big_n", [8, 16, 32])
def test_apply_matches_matrix_on_homogeneous_data(scheme, alpha, big_n):
    rng = np.random.default_rng(1000 + big_n)
    values = rng.standard_normal(big_n + 1)
    values[0] = 0.0
    values[-1] = 0.0
    u = GridFunction1D(values)
    n = big_n - 1
    a = assemble_wsgd_matrix(alpha, scheme, n).to_dense()
    scale = u.h**alpha
    left = apply_left_wsgd(u, alpha, scheme)
    right = apply_right_wsgd(u, alpha, scheme)
    want_left = a @ values[1:-1] / scale
    want_right = a.T @ values[1:-1] / scale
    # tolerance 1e-13 relative to the output magnitude (entries grow ~ h^-alpha)
    floor = max(1.0, float(np.max(np.abs(want_left))))
    assert np.max(np.abs(left - want_left)) / floor < 1e-13
    # the right-sided operator is the transpose pattern of the left-sided one
    assert np.max(np.abs(right - want_right)) / floor < 1e-13


@pytest.mark.parametrize("scheme", PAIR_SCHEMES)
def test_apply_includes_boundary_values(scheme):
    # with nonzero endpoint data the application equals matrix action plus
    # the endpoint stencil columns
    alpha = 1.4
    big_n = 12
    rng = np.random.default_rng(77)
    values = rng.standard_normal(big_n + 1)
    u = GridFunction1D(values)
    n = big_n - 1
    a = assemble_wsgd_matrix(alpha, scheme, n).to_dense()
    l_u0, r_u0, l_un, r_un = boundary_columns(alpha, scheme, n)
    scale = u.h**alpha
    want_left = (a @ values[1:-1] + l_u0 * values[0] + l_un * values[-1]) / scale
    want_right = (a.T @ values[1:-1] + r_u0 * values[0] + r_un * values[-1]) / scale
    np.testing.assert_allclose(apply_left_wsgd(u, alpha, scheme), want_left, atol=1e-12)
    np.testing.assert_allclose(apply_right_wsgd(u, alpha, scheme), want_right, atol=1e-12)


def test_apply_zero_is_zero():
    u = GridFunction1D(np.zeros(17))
    assert np.all(apply_left_wsgd(u, 1.5, P1Q0) == 0.0)
    assert np.all(apply_right_wsgd(u, 1.5, P1QM1) == 0.0)


@pytest.mark.parametrize("scheme", PAIR_SCHEMES)
def test_apply_classical_limit_second_derivative(scheme):
    # at order 2 the stencil is the exact second difference: quadratics give 2
    x = np.linspace(0.0, 1.0, 11)
    u = GridFunction1D(x**2)
    np.testing.assert_allclose(apply_left_wsgd(u, 2.0, scheme), 2.0, atol=1e-11)
    np.testing.assert_allclose(apply_right_wsgd(u, 2.0, scheme), 2.0, atol=1e-11)


@pytest.mark.parametrize("scheme", PAIR_SCHEMES)
def test_left_right_reflection_symmetry(scheme):
    alpha = 1.6
    rng = np.random.default_rng(5)
    values = rng.standard_normal(21)
    u = GridFunction1D(values)
    mirrored = GridFunction1D(values[::-1].copy())
    np.testing.assert_allclose(
        apply_right_wsgd(u, alpha, scheme),
        apply_left_wsgd(mirrored, alpha, scheme)[::-1],
        rtol=0,
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# Boundary columns
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", PAIR_SCHEMES + (PQR,))
def test_boundary_columns_definitions(scheme):
    alpha = 1.5
    n = 7
    w = operator_weights(alpha, scheme, n + 2)
    l_u0, r_u0, l_un, r_un = boundary_columns(alpha, scheme, n)
    np.testing.assert_array_equal(l_u0, w[2 : n + 2])
    np.testing.assert_array_equal(r_un, w[2 : n + 2][::-1])
    assert r_u0[0] == w[0] and np.all(r_u0[1:] == 0.0)
    assert l_un[-1] == w[0] and np.all(l_un[:-1] == 0.0)


# ---------------------------------------------------------------------------
# Fast Toeplitz products
# ---------------------------------------------------------------------------


def _random_toeplitz(rng, n):
    col = rng.standard_normal(n)
    row = rng.standard_normal(n)
    row[0] = col[0]
    return ToeplitzOperator(col, row)


def test_fft_matvec_matches_direct_random_trials():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 300))
        t = _random_toeplitz(rng, n)
        v = rng.standard_normal(n)
        direct = toeplitz_matvec_direct(t, v)
        fast = toeplitz_matvec_fft(t, v)
        denom = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(direct - fast)) / denom < 1e-12
        # the direct product itself must match the dense product
        np.testing.assert_allclose(direct, t.to_dense() @ v, rtol=0, atol=1e-10)


def test_fft_matvec_odd_and_single_sizes():
    rng = np.random.default_rng(9)
    for n in (1, 2, 257):
        t = _random_toeplitz(rng, n)
        v = rng.standard_normal(n)
        np.testing.assert_allclose(
            toeplitz_matvec_fft(t, v), t.to_dense() @ v, rtol=0, atol=1e-11
        )


def test_fft_matvec_identity():
    n = 16
    col = np.zeros(n)
    col[0] = 1.0
    t = ToeplitzOperator(col, col.copy())
    v = np.arange(n, dtype=float)
    np.testing.assert_allclose(toeplitz_matvec_fft(t, v), v, rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# Measured consistency orders against analytic derivatives
# ---------------------------------------------------------------------------


def _left_derivative_errors(alpha, scheme_weights, exact, u_of_x, sizes):
    """Max-norm interior errors of the shift-one stencil on [0, 1]."""
    errs = []
    for big_n in sizes:
        x = np.linspace(0.0, 1.0, big_n + 1)
        h = 1.0 / big_n
        w = scheme_weights(big_n + 1)
        full = np.convolve(w, u_of_x(x))
        approx = full[2 : big_n + 1] / h**alpha
        errs.append(float(np.max(np.abs(approx - exact(x[1:-1])))))
    return errs


def _rates(errs):
    return [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]


@pytest.mark.parametrize("scheme", PAIR_SCHEMES)
@pytest.mark.parametrize("alpha", [1.1, 1.9])
def test_pair_stencil_second_order_on_low_regularity_monomial(scheme, alpha):
    c = gamma(3.0 + alpha) / 2.0
    errs = _left_derivative_errors(
        alpha,
        lambda count: operator_weights(alpha, scheme, count),
        lambda x: c * x**2,
        lambda x: x ** (2.0 + alpha),
        (64, 128, 256, 512),
    )
    assert all(r >= 1.9 for r in _rates(errs)), (errs, _rates(errs))


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_triple_stencil_third_order_on_smooth_monomial(alpha):
    c = gamma(4.0 + alpha) / 6.0
    errs = _left_derivative_errors(
        alpha,
        lambda count: operator_weights(alpha, "pqr", count),
        lambda x: c * x**3,
        lambda x: x ** (3.0 + alpha),
        (64, 128, 256, 512),
    )
    rates = _rates(errs)
    assert all(r >= 2.9 for r in rates), (errs, rates)


def test_triple_stencil_order_drops_to_two_on_low_regularity_monomial():
    # documentation pin: the zero-extended monomial x**(2+alpha) is not
    # smooth enough at the left endpoint for the third-order stencil, whose
    # max-norm error is then dominated by an O(h^2) spike at the first
    # interior node
    alpha = 1.5
    c = gamma(3.0 + alpha) / 2.0
    errs = _left_derivative_errors(
        alpha,
        lambda count: operator_weights(alpha, "pqr", count),
        lambda x: c * x**2,
        lambda x: x ** (2.0 + alpha),
        (64, 128, 256, 512),
    )
    rates = _rates(errs)
    assert all(1.9 <= r <= 2.1 for r in rates), (errs, rates)
    assert errs[0] == pytest.approx(1.400e-04, rel=1e-2)
