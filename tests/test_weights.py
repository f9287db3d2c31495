"""Coefficient sequences: recursion vs. log-gamma oracle, closed forms,
combination-weight identities, and the documented sign/ordering properties."""

from __future__ import annotations

import math

import numpy as np
import pytest

from wsgdiff import (
    GL,
    P1Q0,
    P1QM1,
    PQR,
    ParameterError,
    WeightSequence,
    grunwald_coefficients,
    shifted_pair_lambdas,
    shifted_pair_weights,
    verify_weight_properties,
    wsgd2_weights,
    wsgd3_lambdas,
    wsgd3_weights,
)

from oracles import (
    binomial_gl,
    dense_triple_sum_matrix,
    pair_lambdas,
    pair_weights_from_binomial,
    triple_lambdas,
    triple_weights_from_binomial,
)


# ---------------------------------------------------------------------------
# Base coefficients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.1, 1.5, 1.9, 2.0])
def test_recursion_matches_log_gamma_oracle(alpha):
    count = 10_001
    got = grunwald_coefficients(alpha, count)
    want = binomial_gl(alpha, count)
    assert got.scheme == GL
    assert got.alpha == alpha
    np.testing.assert_allclose(got.values, want, rtol=0, atol=1e-12)


def test_integer_orders_terminate():
    np.testing.assert_array_equal(
        grunwald_coefficients(2.0, 5).values, [1.0, -2.0, 1.0, 0.0, 0.0]
    )
    np.testing.assert_array_equal(
        grunwald_coefficients(1.0, 4).values, [1.0, -1.0, 0.0, 0.0]
    )


def test_closed_forms_first_terms():
    alpha = 1.5
    g = grunwald_coefficients(alpha, 4).values
    assert g[0] == 1.0
    assert g[1] == -alpha
    assert g[2] == pytest.approx(alpha * (alpha - 1.0) / 2.0, abs=1e-15)
    assert g[3] == pytest.approx(alpha * (alpha - 1.0) * (2.0 - alpha) / 6.0, abs=1e-15)


def test_sign_pattern_by_order_range():
    low = grunwald_coefficients(0.6, 50).values
    assert np.all(low[2:] < 0.0)
    high = grunwald_coefficients(1.4, 50).values
    assert np.all(high[2:] > 0.0)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_partial_sums_negative_and_shrinking(alpha):
    seq = grunwald_coefficients(alpha, 10_001)
    sums = seq.partial_sums()
    assert np.all(sums[1:] < 0.0)
    # the full series sums to zero, so |S_n| decreases once the tail is
    # single-signed (k >= 2 here)
    mags = np.abs(sums[1:])
    assert np.all(np.diff(mags) <= 1e-12)


def test_grunwald_validation():
    with pytest.raises(ParameterError):
        grunwald_coefficients(0.0, 4)
    with pytest.raises(ParameterError):
        grunwald_coefficients(2.5, 4)
    with pytest.raises(ParameterError):
        grunwald_coefficients(1.5, 0)


# ---------------------------------------------------------------------------
# Two-shift combinations
# ---------------------------------------------------------------------------


def test_pair_lambdas_closed_forms_and_sum():
    rng = np.random.default_rng(42)
    for _ in range(50):
        alpha = float(rng.uniform(1.0, 2.0))
        for p, q in ((1, 0), (1, -1), (0, -1)):
            l1, l2 = shifted_pair_lambdas(alpha, p, q)
            o1, o2 = pair_lambdas(alpha, p, q)
            assert l1 == pytest.approx(o1, abs=1e-15)
            assert l2 == pytest.approx(o2, abs=1e-15)
            assert l1 + l2 == pytest.approx(1.0, abs=1e-14)


def test_pair_lambdas_equal_shifts_rejected():
    with pytest.raises(ParameterError):
        shifted_pair_lambdas(1.5, 1, 1)


def test_wsgd2_head_closed_forms_p1q0():
    alpha = 1.5
    w = wsgd2_weights(alpha, P1Q0, 4).values
    assert w[0] == pytest.approx(alpha / 2.0, abs=1e-15)
    assert w[1] == pytest.approx((2.0 - alpha - alpha**2) / 2.0, abs=1e-15)
    assert w[2] == pytest.approx(alpha * (alpha**2 + alpha - 4.0) / 4.0, abs=1e-15)
    assert w[3] == pytest.approx(
        alpha * (alpha - 1.0) * (2.0 - alpha) * (alpha + 3.0) / 12.0, abs=1e-15
    )


def test_wsgd2_spec_example_alpha_three_halves():
    w = wsgd2_weights(1.5, P1Q0, 3)
    assert w.scheme == P1Q0
    np.testing.assert_allclose(w.values, [0.75, -0.875, -0.09375], rtol=0, atol=0)


def test_wsgd2_head_closed_forms_p1qm1():
    alpha = 1.3
    w = wsgd2_weights(alpha, P1QM1, 4).values
    l1 = (2.0 + alpha) / 4.0
    l2 = (2.0 - alpha) / 4.0
    assert w[0] == pytest.approx(l1, abs=1e-15)
    assert w[1] == pytest.approx(-alpha * (2.0 + alpha) / 4.0, abs=1e-15)
    assert w[2] == pytest.approx(
        (2.0 + alpha) * alpha * (alpha - 1.0) / 8.0 + (2.0 - alpha) / 4.0, abs=1e-15
    )
    # fourth term: l1 g3 + l2 g1 with g3 = alpha(alpha-1)(2-alpha)/6
    g3 = alpha * (alpha - 1.0) * (2.0 - alpha) / 6.0
    assert w[3] == pytest.approx(l1 * g3 - l2 * alpha, abs=1e-15)


def test_wsgd2_third_term_sign_change():
    # w_2 for the (1, 0) combination changes sign near alpha = (sqrt(17)-1)/2
    assert wsgd2_weights(1.5, P1Q0, 3).values[2] < 0.0
    assert wsgd2_weights(1.6, P1Q0, 3).values[2] > 0.0
    crit = (math.sqrt(17.0) - 1.0) / 2.0
    assert abs(wsgd2_weights(crit, P1Q0, 3).values[2]) < 1e-15


@pytest.mark.parametrize("scheme", [P1Q0, P1QM1])
def test_wsgd2_classical_limit(scheme):
    w = wsgd2_weights(2.0, scheme, 5).values
    np.testing.assert_allclose(w, [1.0, -2.0, 1.0, 0.0, 0.0], rtol=0, atol=1e-15)


@pytest.mark.parametrize("scheme,p,q", [(P1Q0, 1, 0), (P1QM1, 1, -1)])
@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_wsgd2_matches_binomial_combination(scheme, p, q, alpha):
    count = 64
    got = wsgd2_weights(alpha, scheme, count).values
    want = pair_weights_from_binomial(alpha, p, q, count)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_shifted_pair_custom_shifts():
    alpha = 1.5
    w = shifted_pair_weights(alpha, 0, -1, 6)
    assert w.scheme == "p0q-1"
    want = pair_weights_from_binomial(alpha, 0, -1, 6)
    np.testing.assert_allclose(w.values, want, rtol=0, atol=1e-14)
    assert w.values[0] == pytest.approx((alpha + 2.0) / 2.0, abs=1e-15)


def test_shifted_pair_last_weight_is_complete_when_q_exceeds_p():
    # for shifts (0, 1), w_k = lambda_1 g_k + lambda_2 g_{k+1}: the last of
    # four weights needs g_4, one coefficient past the sequence
    w = shifted_pair_weights(1.5, 0, 1, 4).values
    want = pair_weights_from_binomial(1.5, 0, 1, 8)[:4]
    np.testing.assert_allclose(w, want, rtol=0, atol=1e-14)


def test_wsgd2_validation():
    with pytest.raises(ParameterError):
        wsgd2_weights(0.9, P1Q0, 4)
    with pytest.raises(ParameterError):
        wsgd2_weights(1.5, P1Q0, 2)
    with pytest.raises(ParameterError):
        wsgd2_weights(1.5, "nonsense", 4)
    # order exactly 1 is admitted for the pair combinations; the (1, 0)
    # weights collapse to a pure centered difference whose symbol vanishes
    w = wsgd2_weights(1.0, P1Q0, 3).values
    np.testing.assert_allclose(w, [0.5, 0.0, -0.5], atol=1e-15)


# ---------------------------------------------------------------------------
# Three-shift combinations
# ---------------------------------------------------------------------------


def test_wsgd3_lambdas_reduced_forms():
    rng = np.random.default_rng(7)
    for alpha in rng.uniform(0.1, 2.0, size=25):
        alpha = float(alpha)
        got = wsgd3_lambdas(alpha, 1, 0, -1)
        want = triple_lambdas(alpha)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        assert sum(got) == pytest.approx(1.0, abs=1e-14)


def test_wsgd3_lambdas_classical_values():
    l1, l2, l3 = wsgd3_lambdas(2.0, 1, 0, -1)
    assert l1 == pytest.approx(11.0 / 12.0, abs=1e-15)
    assert l2 == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert l3 == pytest.approx(-1.0 / 12.0, abs=1e-15)


def test_wsgd3_lambdas_distinct_shifts_required():
    with pytest.raises(ParameterError):
        wsgd3_lambdas(1.5, 1, 1, -1)
    with pytest.raises(ParameterError):
        wsgd3_lambdas(1.5, 1, 0, 0)


def test_wsgd3_weights_classical_limit_frozen():
    mu = wsgd3_weights(2.0, 6).values
    want = [11.0 / 12.0, -5.0 / 3.0, 0.5, 1.0 / 3.0, -1.0 / 12.0, 0.0]
    np.testing.assert_allclose(mu, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 1.1, 1.5, 1.9])
def test_wsgd3_weights_match_binomial_combination(alpha):
    count = 48
    got = wsgd3_weights(alpha, count).values
    want = triple_weights_from_binomial(alpha, count)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_wsgd3_weights_sum_to_zero(alpha):
    total = wsgd3_weights(alpha, 20_000).values.sum()
    # the tail decays like k**(-1-alpha), so the residual is O(count**-alpha)
    assert abs(total) < 10.0 * 20_000.0 ** (-alpha)
    # doubling the cutoff must shrink the residual
    total2 = wsgd3_weights(alpha, 40_000).values.sum()
    assert abs(total2) < abs(total)


def test_wsgd3_weights_match_dense_matrix_column():
    # cross-check against the explicit three-matrix combination oracle
    alpha = 1.5
    n = 12
    dense = dense_triple_sum_matrix(alpha, n)
    mu = wsgd3_weights(alpha, n + 1).values
    mu_from_matrix = np.concatenate(([dense[0, 1]], dense[:, 0]))
    np.testing.assert_allclose(mu, mu_from_matrix, rtol=0, atol=1e-14)


def test_wsgd3_validation():
    with pytest.raises(ParameterError):
        wsgd3_weights(0.0, 6)
    with pytest.raises(ParameterError):
        wsgd3_weights(2.5, 6)
    with pytest.raises(ParameterError):
        wsgd3_weights(1.5, 3)


# ---------------------------------------------------------------------------
# WeightSequence container
# ---------------------------------------------------------------------------


def test_weight_sequence_partial_sums():
    seq = WeightSequence(1.5, GL, np.array([1.0, -1.5, 0.375]))
    np.testing.assert_allclose(seq.partial_sums(), [1.0, -0.5, -0.125], atol=1e-15)
    assert len(seq) == 3


def test_weight_sequence_is_frozen():
    seq = grunwald_coefficients(1.5, 4)
    with pytest.raises(AttributeError):
        seq.alpha = 1.6


# ---------------------------------------------------------------------------
# Property report
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scheme", [GL, P1Q0, P1QM1])
@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9, 2.0])
def test_verify_weight_properties_quick_grid(alpha, scheme):
    report = verify_weight_properties(alpha, scheme, 2000)
    assert report.all_passed, [c.name for c in report.failures()]


def test_verify_weight_properties_returns_named_checks():
    report = verify_weight_properties(1.5, P1QM1, 500)
    names = {c.name for c in report.checks}
    assert any("partial_sums" in n for n in names)
    assert report.alpha == 1.5
    assert report.scheme == P1QM1
    for check in report.checks:
        assert check.passed
        assert isinstance(check.name, str)
    assert report.failures() == ()


def test_verify_weight_properties_classical_boundary_case():
    # at order 2 the (1, -1) fourth weight is exactly zero: "nonpositive" holds
    report = verify_weight_properties(2.0, P1QM1, 64)
    w3_check = next(c for c in report.checks if c.name == "w3_nonpositive")
    assert w3_check.passed


def test_verify_weight_properties_validation():
    with pytest.raises(ParameterError):
        verify_weight_properties(1.0, GL, 100)  # order 1 outside the covered range
    with pytest.raises(ParameterError):
        verify_weight_properties(1.5, GL, 3)
    with pytest.raises(ParameterError):
        verify_weight_properties(1.5, PQR, 100)  # no property list for triples
