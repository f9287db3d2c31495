"""Grunwald-Letnikov coefficients and weighted-shifted difference weights.

The building blocks for every operator in this package are the
Grunwald-Letnikov (GL) coefficients ``g_k``, the signed binomial expansion
of ``(1 - z)**alpha``.  A single shifted GL sum approximates a
Riemann-Liouville derivative to first order; weighted combinations of two
(or three) sums with distinct integer shifts cancel the leading error term
and reach second (or third) order.  This module computes those weight
sequences, each returned as a plain float array, and checks their
sign/monotonicity properties.

Every weight sequence is one weighted-shifted sum: for shifts
``s_0, s_1, ...`` with combination weights ``lambda_j``,
``v_k = sum_j lambda_j g_{k - (s_0 - s_j)}`` (g at negative index is zero).
This is the only module that says which shifts (:data:`SHIFTS`) and which
lambdas a scheme tag has: ``"gl"`` is the raw GL coefficients (shift 1),
``"p1q0"`` and ``"p1qm1"`` are the second-order pairs, and ``"pqr"`` is the
third-order triple.  Arbitrary integer shift pairs are supported by
:func:`shifted_pair_weights`; the solvers only accept the tags above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, count_at_least, real_number

__all__ = [
    "GL",
    "P1Q0",
    "P1QM1",
    "PQR",
    "SCHEME_TAGS",
    "PAIR_SCHEMES",
    "SHIFTS",
    "PropertyCheck",
    "PropertyReport",
    "grunwald_coefficients",
    "wsgd2_weights",
    "wsgd3_lambdas",
    "wsgd3_weights",
    "shifted_pair_lambdas",
    "shifted_pair_weights",
    "verify_weight_properties",
]

GL = "gl"
P1Q0 = "p1q0"
P1QM1 = "p1qm1"
PQR = "pqr"

#: Scheme tags accepted by the weight routines.
SCHEME_TAGS = (GL, P1Q0, P1QM1, PQR)

#: Second-order shift pairs, the schemes the time steppers accept.
PAIR_SCHEMES = (P1Q0, P1QM1)

#: Shifts of each scheme tag, largest first; the largest is the diagonal
#: shift of the assembled matrix.
SHIFTS = {GL: (1,), P1Q0: (1, 0), P1QM1: (1, -1), PQR: (1, 0, -1)}

#: Tolerance for "equals zero" checks; sign checks get the same slack so a
#: quantity that is exactly zero in exact arithmetic (e.g. the third weight
#: of the (1,-1) pair at alpha = 2) is accepted.
ZERO_TOL = 1e-13


def _check_alpha(alpha: float, low: float, high: float, *, low_open: bool = True) -> float:
    alpha = real_number("fractional order", alpha)
    ok = (alpha > low if low_open else alpha >= low) and alpha <= high
    if not ok:
        bracket = "(" if low_open else "["
        raise ParameterError(
            f"fractional order must lie in {bracket}{low}, {high}], got {alpha!r}"
        )
    return alpha


def _gl_values(alpha: float, count: int) -> np.ndarray:
    """GL coefficients by the stable downward recursion, as the running
    product of its ratios ``1 - (alpha+1)/k``."""
    return np.cumprod(np.concatenate(([1.0], 1.0 - (alpha + 1.0) / np.arange(1, count))))


def grunwald_coefficients(alpha: float, count: int) -> np.ndarray:
    """Return the GL coefficients ``g_0 .. g_{count-1}``.

    They satisfy ``g_0 = 1`` and ``g_k = (1 - (alpha+1)/k) g_{k-1}``; for
    ``k >= 2`` the ratio lies in ``(-1, 1)`` when ``0 < alpha <= 2``, so the
    recursion is numerically stable in double precision.

    Parameters
    ----------
    alpha:
        Order in ``(0, 2]``.
    count:
        Number of coefficients (at least 1).
    """
    alpha = _check_alpha(alpha, 0.0, 2.0)
    return _gl_values(alpha, count_at_least("count", count, 1, "coefficients"))


def shifted_pair_lambdas(alpha: float, p: int, q: int) -> tuple[float, float]:
    """Combination weights for the two-term scheme with integer shifts (p, q).

    The pair multiplies the shifted GL sums so that the first-order error
    terms cancel::

        lambda_1 = (alpha - 2 q) / (2 (p - q))
        lambda_2 = (2 p - alpha) / (2 (p - q))

    ``p != q`` is required.
    """
    alpha = _check_alpha(alpha, 0.0, 2.0)
    p, q = int(p), int(q)
    if p == q:
        raise ParameterError(f"shift pair must be distinct, got p = q = {p}")
    lam1 = (alpha - 2.0 * q) / (2.0 * (p - q))
    lam2 = (2.0 * p - alpha) / (2.0 * (p - q))
    return lam1, lam2


def shifted_pair_weights(alpha: float, p: int, q: int, count: int) -> np.ndarray:
    """Weight sequence for an arbitrary two-term shift pair (p, q).

    Only (1, 0) and (1, -1) are accepted by the solvers; other pairs exist
    so the spectral diagnostics can demonstrate why (the combination is
    second-order accurate for any pair, but the Toeplitz matrix of e.g.
    (0, -1) is not negative definite).
    """
    count = count_at_least("count", count, max(3, abs(int(p) - int(q)) + 1), "weights")
    return _shifted_sum(alpha, (int(p), int(q)), count)


def wsgd2_weights(alpha: float, scheme: str, count: int) -> np.ndarray:
    """Second-order weights for the named shift pairs.

    For ``"p1q0"``::

        w_0 = (alpha/2) g_0,      w_k = (alpha/2) g_k + ((2-alpha)/2) g_{k-1}

    For ``"p1qm1"``::

        w_0 = ((2+alpha)/4) g_0,  w_1 = ((2+alpha)/4) g_1,
        w_k = ((2+alpha)/4) g_k + ((2-alpha)/4) g_{k-2}   for k >= 2

    Parameters
    ----------
    alpha:
        Order in ``[1, 2]`` (``alpha = 1`` is allowed for edge checks; the
        solvers require ``alpha > 1``).
    scheme:
        ``"p1q0"`` or ``"p1qm1"``.
    count:
        Number of weights (at least 3).
    """
    alpha = _check_alpha(alpha, 1.0, 2.0, low_open=False)
    count = count_at_least("count", count, 3, "weights")
    if scheme not in PAIR_SCHEMES:
        raise ParameterError(
            f"unsupported scheme {scheme!r}; expected {P1Q0!r} or {P1QM1!r}"
        )
    return _shifted_sum(alpha, SHIFTS[scheme], count)


def wsgd3_lambdas(alpha: float, p: int, q: int, r: int) -> tuple[float, float, float]:
    """Combination weights for the three-term scheme with shifts (p, q, r).

    The three shifted GL sums are combined so that both the first- and
    second-order error terms cancel; the combination weights are rational in
    alpha with denominators ``12 (p-q)(p-r)`` (cyclically).  They always sum
    to one.  For (1, 0, -1) they reduce to::

        lambda_1 = 5 alpha/24 + alpha^2/8
        lambda_2 = 1 + alpha/12 - alpha^2/4
        lambda_3 = -7 alpha/24 + alpha^2/8
    """
    alpha = _check_alpha(alpha, 0.0, 2.0)
    p, q, r = int(p), int(q), int(r)
    if len({p, q, r}) != 3:
        raise ParameterError(f"shifts must be mutually distinct, got ({p}, {q}, {r})")
    a, a2 = alpha, alpha * alpha
    lam1 = (12.0 * q * r - (6.0 * q + 6.0 * r + 1.0) * a + 3.0 * a2) / (12.0 * (p - q) * (p - r))
    lam2 = (12.0 * p * r - (6.0 * p + 6.0 * r + 1.0) * a + 3.0 * a2) / (12.0 * (q - p) * (q - r))
    lam3 = (12.0 * p * q - (6.0 * p + 6.0 * q + 1.0) * a + 3.0 * a2) / (12.0 * (r - p) * (r - q))
    return lam1, lam2, lam3


def _lambdas(alpha: float, shifts: tuple[int, ...]) -> tuple[float, ...]:
    """Combination weights of one, two or three shifted GL sums."""
    if len(shifts) == 1:
        return (1.0,)
    return (shifted_pair_lambdas if len(shifts) == 2 else wsgd3_lambdas)(alpha, *shifts)


def _shifted_sum(alpha: float, shifts: tuple[int, ...], count: int) -> np.ndarray:
    """Weights ``v_k = sum_j lambda_j g_{k - (s_0 - s_j)}``, g at negative index zero.

    ``lambda_0 g`` comes first and each shifted term is added in shift
    order, so every sequence is summed in one fixed order.
    """
    lams = _lambdas(alpha, shifts)
    # a shift above s_0 reads g past the last weight: w_{count-1} needs g_{count-1+s_j-s_0}
    g = _gl_values(alpha, count + max(shifts) - shifts[0])
    v = lams[0] * g[:count]
    for lam, shift in zip(lams[1:], shifts[1:]):
        off = shifts[0] - shift
        if off > 0:
            v[off:] += lam * g[:count - off]
        else:
            v += lam * g[-off:count - off]
    return v


def wsgd3_weights(alpha: float, count: int) -> np.ndarray:
    """Third-order weight sequence ``mu_0 .. mu_{count-1}`` for shifts (1, 0, -1)."""
    alpha = _check_alpha(alpha, 0.0, 2.0)
    count = count_at_least("count", count, 4, "weights")
    return _shifted_sum(alpha, SHIFTS[PQR], count)


@dataclass(frozen=True)
class PropertyCheck:
    """One named sign/monotonicity check with a witness value on failure."""

    name: str
    passed: bool
    witness: float | int | None = None


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of :func:`verify_weight_properties` for one (alpha, scheme)."""

    alpha: float
    scheme: str
    checks: tuple[PropertyCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[PropertyCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _first_violation(values: np.ndarray, start: int) -> int | None:
    """Index of the first break of 'nonincreasing and nonnegative' from start."""
    tail = values[start:]
    neg = np.nonzero(tail < -ZERO_TOL)[0]
    inc = np.nonzero(np.diff(tail) > ZERO_TOL)[0]
    hits = []
    if neg.size:
        hits.append(neg[0] + start)
    if inc.size:
        hits.append(inc[0] + start + 1)
    return min(hits) if hits else None


def _chain_check(name: str, w: np.ndarray, head: float, indices: list[int], tail_from: int) -> PropertyCheck:
    """Check ``1 >= head >= w[indices...] >= tail (nonincreasing) >= 0``."""
    seq = [head] + [w[i] for i in indices] + list(w[tail_from:])
    seq = np.asarray(seq)
    if seq[0] > 1.0 + ZERO_TOL:
        return PropertyCheck(name, False, witness=float(seq[0]))
    bad = _first_violation(seq, 0)
    return PropertyCheck(name, bad is None, witness=None if bad is None else float(seq[bad]))


def _sums_check(name: str, sums: np.ndarray, ms: np.ndarray) -> PropertyCheck:
    """Check the selected partial sums are negative (within slack)."""
    worst = float(np.max(sums[ms]))
    return PropertyCheck(name, worst < ZERO_TOL, witness=worst)


def verify_weight_properties(alpha: float, scheme: str, count: int) -> PropertyReport:
    """Check the sign, monotonicity and partial-sum properties of a scheme.

    Raw GL coefficients: ``g_1 = -alpha < 0``; ``1 >= g_2 >= g_3 >= ... >= 0``;
    every partial sum with ``m >= 1`` is negative.

    (1, 0) weights: ``w_1 < 0``; ``1 >= w_0 >= w_3 >= w_4 >= ... >= 0``;
    partial sums negative for ``m >= 2`` (the second weight changes sign at
    ``alpha = (sqrt(17) - 1)/2`` and is deliberately outside the chain).

    (1, -1) weights: ``w_1 < 0``, ``w_2 > 0``, ``w_3 <= 0``;
    ``1 >= w_0 >= w_2 >= w_4 >= w_5 >= ... >= 0``; partial sums negative for
    ``m = 1`` and ``m >= 3`` (the sum through ``m = 2`` can be positive).

    A failed property is reported as a ``False`` entry with a witness value,
    not raised as an error.
    """
    alpha = _check_alpha(alpha, 1.0, 2.0)
    count = count_at_least("count", count, 5, "weights")
    if scheme not in (GL, *PAIR_SCHEMES):
        raise ParameterError(
            f"unsupported scheme {scheme!r}; expected one of {(GL, *PAIR_SCHEMES)!r}"
        )
    w = _shifted_sum(alpha, SHIFTS[scheme], count)
    sums = np.cumsum(w)
    checks: list[PropertyCheck]
    if scheme == GL:
        checks = [
            PropertyCheck("g1_equals_minus_alpha", abs(w[1] + alpha) <= ZERO_TOL, float(w[1])),
            PropertyCheck("g1_negative", w[1] < ZERO_TOL, float(w[1])),
            _chain_check("tail_in_unit_interval_nonincreasing", w, float(w[2]), [], 3),
            _sums_check("partial_sums_negative", sums, np.arange(1, count)),
        ]
    elif scheme == P1Q0:
        checks = [
            PropertyCheck("w1_negative", w[1] < ZERO_TOL, float(w[1])),
            _chain_check("chain_w0_w3_onward", w, float(w[0]), [3], 4),
            _sums_check("partial_sums_negative_from_m2", sums, np.arange(2, count)),
        ]
    else:
        ms = np.concatenate(([1], np.arange(3, count)))
        checks = [
            PropertyCheck("w1_negative", w[1] < ZERO_TOL, float(w[1])),
            PropertyCheck("w2_positive", w[2] > -ZERO_TOL, float(w[2])),
            PropertyCheck("w3_nonpositive", w[3] <= ZERO_TOL, float(w[3])),
            _chain_check("chain_w0_w2_w4_onward", w, float(w[0]), [2], 4),
            _sums_check("partial_sums_negative_m1_and_from_m3", sums, ms),
        ]
    return PropertyReport(alpha, scheme, tuple(checks))
