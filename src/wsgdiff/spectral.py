"""Generating functions and definiteness certification for the difference matrices.

The symmetric part of a Toeplitz matrix built from difference weights has a
real, even generating function ``f(alpha; x)`` — the cosine series whose
coefficients are the weights.  Classical Toeplitz spectral bounds place
every Rayleigh quotient of the symmetric part inside ``[min f, max f]``, so
the sign of ``f`` on ``[0, pi]`` decides definiteness and, through it,
unconditional stability of the solvers.  This module evaluates the one
closed form of ``f`` for every shift scheme, scans its sign, certifies
negative definiteness of assembled matrices by attempted Cholesky
factorization, and spot-checks the spectral bounds with random Rayleigh
quotients.

No eigensolver is used anywhere: factorization success/failure and sampled
Rayleigh quotients carry all the spectral content the package needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import weights as wt
from .errors import ParameterError
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
    if samples < 64:
        raise ParameterError(f"need at least 64 samples, got {samples}")
    xs = np.linspace(0.0, np.pi, int(samples))
    f = generating_function(alpha, scheme, xs)
    imin = int(np.argmin(f))
    imax = int(np.argmax(f))
    return GeneratingFunctionScan(
        alpha=alpha,
        scheme=scheme,
        samples=int(samples),
        min_value=float(f[imin]),
        max_value=float(f[imax]),
        argmin=float(xs[imin]),
        argmax=float(xs[imax]),
    )


def certify_negative_definite(T: ToeplitzOperator) -> CertificationResult:
    """Certify that a matrix is negative definite via its symmetric part.

    A real matrix is negative definite exactly when its symmetric part is,
    so ``-(T + T^T)/2`` is formed densely and handed to a Cholesky
    factorization.  Success certifies negative definiteness; failure reports
    the order of the first non-positive-definite leading minor as witness.
    """
    dense = T.to_dense()
    s = -(dense + dense.T) / 2.0
    _, info = lapack.dpotrf(s, lower=1)
    if info == 0:
        return CertificationResult(True)
    if info < 0:  # pragma: no cover - illegal argument, not reachable via API
        raise ParameterError(f"factorization rejected argument {-info}")
    return CertificationResult(False, failing_minor=int(info))


def rayleigh_bound_check(
    T: ToeplitzOperator,
    alpha: float,
    scheme: str,
    trials: int,
    *,
    samples: int = 4096,
    seed: int = 0,
) -> bool:
    """Check sampled Rayleigh quotients against the generating-function range.

    For random unit vectors ``v``, the quotient ``v^T ((T + T^T)/2) v`` must
    lie inside ``[min f, max f]`` (widened by ``1e-10``), where the range
    comes from :func:`scan_sign` with at least 4096 samples.
    """
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    scan = scan_sign(alpha, scheme, max(int(samples), 4096))
    lo, hi = scan.min_value - 1e-10, scan.max_value + 1e-10
    dense = T.to_dense()
    s = (dense + dense.T) / 2.0
    rng = np.random.default_rng(seed)
    for _ in range(int(trials)):
        v = rng.standard_normal(T.n)
        v /= np.linalg.norm(v)
        q = float(v @ s @ v)
        if not (lo <= q <= hi):
            return False
    return True
