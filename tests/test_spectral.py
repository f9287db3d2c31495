"""Generating functions and definiteness certification: closed forms vs. an
independent cosine-series oracle, sign scans, Cholesky certification, and
Rayleigh-quotient containment."""

from __future__ import annotations

import numpy as np
import pytest

from wsgdiff import (
    P1Q0,
    P1QM1,
    PQR,
    ParameterError,
    ToeplitzOperator,
    assemble_shifted_pair_matrix,
    assemble_wsgd_matrix,
    certify_negative_definite,
    generating_function,
    rayleigh_bound_check,
    scan_sign,
)

from oracles import series_generating_function

PAIR_SCHEMES = (P1Q0, P1QM1)
ALL_SCHEMES = (P1Q0, P1QM1, PQR)


# ---------------------------------------------------------------------------
# Closed forms vs. the defining cosine series
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_closed_form_matches_series(scheme, alpha):
    xs = np.array([0.1, 0.3, np.pi / 2, 2.5, np.pi])
    closed = generating_function(alpha, scheme, xs)
    series = series_generating_function(alpha, scheme, xs, 200_000)
    np.testing.assert_allclose(closed, series, rtol=0, atol=1e-8)


def test_closed_form_scalar_midpoint_value():
    # one hand-checkable point: the series at x = pi/2 for the (1, 0) pair
    val = generating_function(1.5, P1Q0, np.pi / 2)
    ser = series_generating_function(1.5, P1Q0, np.pi / 2, 200_000)
    assert isinstance(val, float)
    assert val == pytest.approx(ser, abs=1e-9)
    assert val < 0.0


def test_value_at_origin_is_exact_zero():
    for scheme in ALL_SCHEMES:
        assert generating_function(1.5, scheme, 0.0) == 0.0
    arr = generating_function(1.5, P1Q0, np.array([0.0, 0.5]))
    assert arr[0] == 0.0


def test_order_one_collapses():
    xs = np.linspace(0.0, np.pi, 201)
    # the (1, 0) combination at order 1 is a pure centered difference whose
    # symmetric part vanishes identically
    f10 = generating_function(1.0, P1Q0, xs)
    assert np.max(np.abs(f10)) <= 1e-14
    # the (1, -1) combination at order 1 reduces to -2 sin^4(x/2)
    f1m1 = generating_function(1.0, P1QM1, xs)
    np.testing.assert_allclose(f1m1, -2.0 * np.sin(xs / 2.0) ** 4, rtol=0, atol=1e-12)


def test_classical_limit_is_second_difference_symbol():
    xs = np.linspace(0.0, np.pi, 101)
    f = generating_function(2.0, P1Q0, xs)
    np.testing.assert_allclose(f, -4.0 * np.sin(xs / 2.0) ** 2, rtol=0, atol=1e-12)
    assert f[-1] == pytest.approx(-4.0, abs=1e-12)


def test_generating_function_validation():
    with pytest.raises(ParameterError):
        generating_function(1.5, P1Q0, -0.5)
    with pytest.raises(ParameterError):
        generating_function(1.5, P1Q0, np.pi + 0.1)
    with pytest.raises(ParameterError):
        generating_function(1.5, "gl", 1.0)
    with pytest.raises(ParameterError):
        generating_function(2.5, P1Q0, 1.0)


# ---------------------------------------------------------------------------
# Sign scans
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", PAIR_SCHEMES)
@pytest.mark.parametrize("alpha", [1.1, 1.3, 1.5, 1.7, 1.9, 2.0])
def test_pair_symbols_nonpositive(scheme, alpha):
    scan = scan_sign(alpha, scheme, 4096)
    assert scan.max_value <= 1e-12
    assert scan.min_value < 0.0
    assert not scan.sign_change


def test_triple_symbol_changes_sign_mid_range():
    scan = scan_sign(1.5, PQR, 8192)
    assert scan.sign_change
    assert scan.min_value == pytest.approx(-8.081541e-01, rel=1e-4)
    assert 1.4 < scan.argmin < 1.6
    # the maximum sits at the endpoint x = pi with value 2**1.5 / 8
    assert scan.max_value == pytest.approx(2.0**1.5 * 0.125, rel=1e-6)
    assert scan.argmax == pytest.approx(np.pi, abs=1e-9)


def test_scan_requires_enough_samples():
    with pytest.raises(ParameterError):
        scan_sign(1.5, P1Q0, 63)


def test_monotone_in_order_on_outer_interval():
    # at fixed abscissa x >= pi/2 the pair symbols decrease as the order grows
    alphas = np.linspace(1.0, 2.0, 21)
    for scheme in PAIR_SCHEMES:
        for x in (np.pi / 2, 3 * np.pi / 4, np.pi):
            vals = np.array(
                [generating_function(float(a), scheme, float(x)) for a in alphas]
            )
            assert np.all(np.diff(vals) <= 1e-12), (scheme, x)


def test_nonpositive_at_sampled_abscissae():
    alphas = np.linspace(1.0, 2.0, 21)
    xs = (np.pi / 8, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi)
    for scheme in PAIR_SCHEMES:
        for x in xs:
            vals = np.array(
                [generating_function(float(a), scheme, float(x)) for a in alphas]
            )
            assert np.all(vals <= 1e-12), (scheme, x)


# ---------------------------------------------------------------------------
# Definiteness certification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", PAIR_SCHEMES)
@pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
@pytest.mark.parametrize("n", [4, 16, 64])
def test_pair_matrices_certify_negative_definite(scheme, alpha, n):
    result = certify_negative_definite(assemble_wsgd_matrix(alpha, scheme, n))
    assert result.negative_definite
    assert bool(result) is True
    assert result.failing_minor is None


def test_downwind_pair_fails_certification():
    # the (0, -1) combination has positive diagonal, so the very first
    # leading minor of the negated symmetric part already fails
    result = certify_negative_definite(assemble_shifted_pair_matrix(1.5, 0, -1, 32))
    assert not result.negative_definite
    assert bool(result) is False
    assert result.failing_minor == 1


def test_triple_matrix_fails_certification_mid_range():
    # the third-order symbol takes both signs at alpha = 1.5, and the failure
    # shows up at matrix size four independent of n
    for n in (4, 16, 64):
        result = certify_negative_definite(assemble_wsgd_matrix(1.5, "pqr", n))
        assert not result.negative_definite
        assert result.failing_minor == 4


# ---------------------------------------------------------------------------
# Rayleigh-quotient containment
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "alpha,scheme", [(1.5, P1Q0), (1.9, P1QM1)]
)
def test_rayleigh_quotients_inside_symbol_range(alpha, scheme):
    t = assemble_wsgd_matrix(alpha, scheme, 64)
    assert rayleigh_bound_check(t, alpha, scheme, 200)


def test_rayleigh_single_entry_matrix():
    # a 1x1 matrix with the scheme's diagonal weight: its only Rayleigh
    # quotient is that weight, which lies inside the symbol range
    alpha = 1.5
    w1 = (2.0 - alpha - alpha**2) / 2.0
    t = ToeplitzOperator(np.array([w1]), np.array([w1]))
    assert rayleigh_bound_check(t, alpha, P1Q0, 10)


def test_rayleigh_validation():
    t = assemble_wsgd_matrix(1.5, P1Q0, 8)
    with pytest.raises(ParameterError):
        rayleigh_bound_check(t, 1.5, P1Q0, 0)


def test_rayleigh_detects_out_of_range_matrix():
    # a positive multiple of the identity has quotient +3, far outside the
    # nonpositive symbol range of the (1, 0) pair
    col = np.zeros(8)
    col[0] = 3.0
    t = ToeplitzOperator(col, col.copy())
    assert not rayleigh_bound_check(t, 1.5, P1Q0, 5)
