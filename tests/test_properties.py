"""Property tests over random orders, shifts and sizes: weights and assembled
matrices against the log-gamma oracles, the closed-form generating function
against its defining series, FFT against direct Toeplitz products, and the
documented sign/partial-sum properties.

Runs are derandomized, so every run draws the same examples."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wsgdiff import (
    GL,
    P1Q0,
    P1QM1,
    PQR,
    ToeplitzOperator,
    assemble_shifted_pair_matrix,
    generating_function,
    operator_weights,
    shifted_pair_weights,
    toeplitz_matvec_direct,
    toeplitz_matvec_fft,
    verify_weight_properties,
)

from oracles import (
    binomial_gl,
    dense_shift_matrix,
    pair_weights_from_binomial,
    series_generating_function,
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
    # for q > p the oracle's own last q - p entries miss the g terms past its
    # length, so compare against the prefix of a longer oracle sequence
    want = pair_weights_from_binomial(alpha, p, q, count + abs(p - q))[:count]
    np.testing.assert_allclose(got.values, want, rtol=0, atol=1e-12)


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
