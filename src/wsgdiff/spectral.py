"""Generating functions and definiteness certification for the difference matrices.

The symmetric part of a Toeplitz matrix built from difference weights has a
real, even generating function ``f(alpha; x)`` — the cosine series whose
coefficients are the weights.  Classical Toeplitz spectral bounds place
every Rayleigh quotient of the symmetric part inside ``[min f, max f]``, so
the sign of ``f`` on ``[0, pi]`` decides definiteness and, through it,
unconditional stability of the solvers.  This module evaluates the one
closed form of ``f`` for every shift scheme, scans its sign, certifies
negative definiteness of assembled matrices by attempted Cholesky
factorization, and checks the spectral bounds on the eigenvalues of the
symmetric part, which bound all of its Rayleigh quotients.

Certification needs no eigensolver: a factorization's success or failure
decides it.  The bound check uses ``eigvalsh``, and the 2D solver uses
``eigh``: for symmetric directional operators
:func:`~wsgdiff.solve2d.run_2d` steps in their eigenbasis, and those
eigenvalues, which lie within the generating function's range, make the
negative definiteness exact there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import weights as wt
from .errors import ParameterError, count_at_least
from .operators import ToeplitzOperator

__all__ = [
    "SPECTRAL_SCHEMES",
    "GeneratingFunctionScan",
    "CertificationResult",
    "generating_function",
    "scan_sign",
    "certify_negative_definite",
    "rayleigh_bound_check",
]

#: Schemes with a closed-form generating function.
SPECTRAL_SCHEMES = (wt.P1Q0, wt.P1QM1, wt.PQR)


@dataclass(frozen=True)
class GeneratingFunctionScan:
    """Extrema of the generating function sampled uniformly on [0, pi]."""

    alpha: float
    scheme: str
    samples: int
    min_value: float
    max_value: float
    argmin: float
    argmax: float

    @property
    def sign_change(self) -> bool:
        """True when the sampled values take both signs (beyond roundoff)."""
        return self.min_value < -1e-12 and self.max_value > 1e-12


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of a negative-definiteness certification."""

    negative_definite: bool
    failing_minor: int | None = None

    def __bool__(self) -> bool:
        return self.negative_definite


def generating_function(alpha: float, scheme: str, x):
    """Closed-form generating function of the symmetric part on ``[0, pi]``.

    For weights ``w_k`` laid out with diagonal shift one, the symmetric part
    of the assembled matrix has generating function
    ``f(alpha; x) = sum_k w_k cos((k-1) x)``.  For a scheme with shifts
    ``s_j`` and combination weights ``lambda_j`` (``weights.SHIFTS``) it sums
    to the one closed form

        ``f = (2 sin(x/2))**alpha * sum_j lambda_j cos(alpha (x - pi)/2 - s_j x)``.

    ``x`` may be a scalar or an array within ``[0, pi]``; the ``x = 0``
    endpoint returns the analytic limit 0 exactly.
    """
    alpha = wt._check_alpha(alpha, 0.0, 2.0)
    if scheme not in SPECTRAL_SCHEMES:
        raise ParameterError(
            f"unsupported scheme {scheme!r}; expected one of {SPECTRAL_SCHEMES!r}"
        )
    xs = np.asarray(x, dtype=float)
    if np.any(xs < -1e-15) or np.any(xs > np.pi + 1e-12):
        raise ParameterError("generating functions are evaluated on [0, pi]")
    xs = np.clip(xs, 0.0, np.pi)
    theta = 0.5 * alpha * (xs - np.pi)
    shifts = wt.SHIFTS[scheme]
    terms = [lam * np.cos(theta - s * xs) for lam, s in zip(wt._lambdas(alpha, shifts), shifts)]
    out = np.where(xs == 0.0, 0.0, (2.0 * np.sin(xs / 2.0)) ** alpha * sum(terms))
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def scan_sign(alpha: float, scheme: str, samples: int) -> GeneratingFunctionScan:
    """Sample the generating function uniformly on [0, pi] and report extrema."""
    samples = count_at_least("samples", samples, 64, "samples")
    xs = np.linspace(0.0, np.pi, samples)
    f = generating_function(alpha, scheme, xs)
    imin = int(np.argmin(f))
    imax = int(np.argmax(f))
    return GeneratingFunctionScan(
        alpha=alpha,
        scheme=scheme,
        samples=samples,
        min_value=float(f[imin]),
        max_value=float(f[imax]),
        argmin=float(xs[imin]),
        argmax=float(xs[imax]),
    )


def _failing_minor(s: np.ndarray) -> int | None:
    """Order of the first leading minor of the symmetric ``s`` that is not
    positive definite, or ``None`` if ``s`` is positive definite.

    Every leading minor of a positive definite matrix is positive definite,
    so after one Cholesky factorization of ``s`` the order is found by
    bisection over leading minors: at most ``ceil(log2 n) + 1``
    factorizations in all.
    """

    def definite(k: int) -> bool:
        try:
            np.linalg.cholesky(s[:k, :k])
        except np.linalg.LinAlgError:
            return False
        return True

    good, bad = 0, len(s)  # the leading minor of order good is definite, of bad not
    if definite(bad):
        return None
    while bad - good > 1:
        mid = (good + bad) // 2
        if definite(mid):
            good = mid
        else:
            bad = mid
    return bad


def certify_negative_definite(T: ToeplitzOperator) -> CertificationResult:
    """Certify that a matrix is negative definite via its symmetric part.

    A real matrix is negative definite exactly when its symmetric part is,
    so ``-(T + T^T)/2`` is formed densely and handed to a Cholesky
    factorization.  Success certifies negative definiteness; failure reports
    the order of the first non-positive-definite leading minor as witness.
    """
    dense = T.to_dense()
    minor = _failing_minor(-(dense + dense.T) / 2.0)
    return CertificationResult(minor is None, failing_minor=minor)


def rayleigh_bound_check(T: ToeplitzOperator, alpha: float, scheme: str) -> bool:
    """Check every Rayleigh quotient against the generating-function range.

    The Rayleigh quotients of ``(T + T^T)/2`` fill the interval between its
    extreme eigenvalues, so the check is exact: the eigenvalues from
    ``eigvalsh`` must lie inside ``[min f, max f]`` (widened by ``1e-10``),
    where the range comes from :func:`scan_sign` with 4096 samples.
    """
    scan = scan_sign(alpha, scheme, 4096)
    dense = T.to_dense()
    eigenvalues = np.linalg.eigvalsh((dense + dense.T) / 2.0)
    return bool(
        scan.min_value - 1e-10 <= eigenvalues[0] and eigenvalues[-1] <= scan.max_value + 1e-10
    )
