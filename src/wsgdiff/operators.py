"""Toeplitz difference matrices and grid-operator application.

The weighted-shifted difference approximations act on a uniform grid
``x_i = a + i h`` as Toeplitz matrices with entry ``w_{i-j+p}`` at (i, j),
where ``p`` is the scheme's largest shift (``weights.SHIFTS``).  Every
scheme tag has ``p = 1``, so its matrix is lower Hessenberg: the
superdiagonal carries ``w_0`` and the main diagonal ``w_1``.  This module
assembles those matrices, applies the left/right operators directly to
grid functions (stencil-wise, without forming a matrix — the redundancy
lets tests catch indexing mistakes), gives the stencil columns that
multiply the Dirichlet end values, and provides an FFT-accelerated
Toeplitz matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import weights as wt
from .errors import ParameterError

__all__ = [
    "GridFunction1D",
    "ToeplitzOperator",
    "assemble_wsgd_matrix",
    "assemble_shifted_pair_matrix",
    "operator_weights",
    "apply_left_wsgd",
    "apply_right_wsgd",
    "toeplitz_matvec_fft",
]


@dataclass(frozen=True)
class GridFunction1D:
    """Nodal values of a function on the uniform grid ``x_i = a + i h``.

    ``values`` holds all ``N + 1`` nodes including both endpoints.
    """

    values: np.ndarray
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 3:
            raise ParameterError("a 1D grid function needs at least 3 nodes (N >= 2)")
        if not self.b > self.a:
            raise ParameterError(f"domain must satisfy b > a, got [{self.a}, {self.b}]")
        object.__setattr__(self, "values", values)

    @property
    def n_intervals(self) -> int:
        return self.values.size - 1

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n_intervals


#: Largest order :meth:`ToeplitzOperator.to_dense` forms.  One float64 array
#: of this order takes 512 MiB and a dense solver holds several, so a larger
#: one fails with ``ParameterError`` before anything is allocated.
DENSE_MAX_ORDER = 8192


@dataclass(frozen=True)
class ToeplitzOperator:
    """A Toeplitz matrix stored by its first column and first row."""

    first_col: np.ndarray = field(repr=False)
    first_row: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        col = np.asarray(self.first_col, dtype=float)
        row = np.asarray(self.first_row, dtype=float)
        if col.ndim != 1 or row.ndim != 1 or col.size != row.size or col.size < 1:
            raise ParameterError("first column and first row must be 1D and equally long")
        if col[0] != row[0]:
            raise ParameterError("first column and first row must share the corner entry")
        object.__setattr__(self, "first_col", col)
        object.__setattr__(self, "first_row", row)

    @property
    def n(self) -> int:
        return self.first_col.size

    def to_dense(self) -> np.ndarray:
        """The full matrix; orders above ``DENSE_MAX_ORDER`` are refused."""
        if self.n > DENSE_MAX_ORDER:
            raise ParameterError(
                f"a dense matrix of order {self.n} ({8 * self.n**2 / 2**30:.1f} GiB) exceeds"
                f" the cap of order {DENSE_MAX_ORDER}"
            )
        return scipy.linalg.toeplitz(self.first_col, self.first_row)

    def transpose(self) -> "ToeplitzOperator":
        return ToeplitzOperator(self.first_row, self.first_col)

    @property
    def T(self) -> "ToeplitzOperator":
        return self.transpose()


def operator_weights(alpha: float, scheme: str, count: int) -> np.ndarray:
    """Difference weights for any scheme tag, as a plain array.

    ``"gl"`` gives the raw first-order coefficients used with shift 1; the
    other tags give the second/third-order combinations.
    """
    if scheme == wt.GL:
        return wt.grunwald_coefficients(alpha, count).values
    if scheme in wt.PAIR_SCHEMES:
        return wt.wsgd2_weights(alpha, scheme, count).values
    if scheme == wt.PQR:
        return wt.wsgd3_weights(alpha, count).values
    raise ParameterError(f"unsupported scheme {scheme!r}; expected one of {wt.SCHEME_TAGS!r}")


def _toeplitz(v: np.ndarray, n: int, p: int) -> ToeplitzOperator:
    """Toeplitz matrix of order n with entry (i, j) = ``v_{i-j+p}``, zero off v's range."""
    k = np.arange(n)

    def pick(idx: np.ndarray) -> np.ndarray:
        return np.where((idx >= 0) & (idx < v.size), v[np.clip(idx, 0, v.size - 1)], 0.0)

    return ToeplitzOperator(pick(k + p), pick(p - k))


def assemble_wsgd_matrix(alpha: float, scheme: str, n: int) -> ToeplitzOperator:
    """Difference matrix of order n for a pair or ``"pqr"``: entry (i, j) = ``w_{i-j+1}``.

    The superdiagonal carries ``w_0``, the main diagonal ``w_1``, the k-th
    subdiagonal ``w_{k+1}``; everything above the superdiagonal is zero.
    A pair needs ``n >= 2`` and ``"pqr"`` needs ``n >= 3``.
    """
    if scheme not in (*wt.PAIR_SCHEMES, wt.PQR):
        raise ParameterError(
            f"expected scheme {wt.P1Q0!r}, {wt.P1QM1!r} or {wt.PQR!r}, got {scheme!r}"
        )
    shifts = wt.SHIFTS[scheme]
    if n < len(shifts):
        raise ParameterError(f"matrix order must be at least {len(shifts)}, got {n}")
    return _toeplitz(operator_weights(alpha, scheme, n + 1), n, shifts[0])


def assemble_shifted_pair_matrix(alpha: float, p: int, q: int, n: int) -> ToeplitzOperator:
    """Difference matrix for an arbitrary shift pair: entry (i, j) = ``v_{i-j+p}``.

    Weights with negative index are zero, so ``p`` controls how many
    superdiagonals are populated.
    """
    if n < 2:
        raise ParameterError(f"matrix order must be at least 2, got {n}")
    p, q = int(p), int(q)
    count = max(n + p, n, 3 + abs(p - q))
    return _toeplitz(wt.shifted_pair_weights(alpha, p, q, count).values, n, p)


def _scheme_weights_for_grid(alpha: float, scheme: str, count: int) -> np.ndarray:
    w = operator_weights(alpha, scheme, max(count, 4))
    return w[:count]


def apply_left_wsgd(u: GridFunction1D, alpha: float, scheme: str) -> np.ndarray:
    """Left-sided fractional difference at the interior nodes.

    Returns ``r_i = h^{-alpha} * sum_{k=0}^{i+1} w_k u_{i-k+1}`` for
    ``i = 1 .. N-1``.  The stencil reaches both endpoint values, so no
    separate boundary handling is needed here.
    """
    n_nodes = u.values.size
    w = _scheme_weights_for_grid(alpha, scheme, n_nodes)
    full = np.convolve(w, u.values)
    return full[2:n_nodes] / u.h**alpha


def apply_right_wsgd(u: GridFunction1D, alpha: float, scheme: str) -> np.ndarray:
    """Right-sided fractional difference at the interior nodes.

    Returns ``r_i = h^{-alpha} * sum_{k=0}^{N-i+1} w_k u_{i+k-1}`` for
    ``i = 1 .. N-1`` — the mirror image of :func:`apply_left_wsgd`.
    """
    n_nodes = u.values.size
    w = _scheme_weights_for_grid(alpha, scheme, n_nodes)
    full = np.convolve(w, u.values[::-1])
    return full[2:n_nodes][::-1] / u.h**alpha


def boundary_columns(alpha: float, scheme: str, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stencil coefficients multiplying the two endpoint values.

    For the interior system of size ``n = N - 1``, the left-sided operator
    couples row i to ``u_0`` through ``w_{i+1}`` and to ``u_N`` only in the
    last row through ``w_0``; the right-sided operator mirrors this.
    Returns ``(left_of_u0, right_of_u0, left_of_uN, right_of_uN)``.
    """
    if n < 1:
        raise ParameterError(f"interior size must be positive, got {n}")
    w = _scheme_weights_for_grid(alpha, scheme, n + 2)
    left_u0 = w[2:n + 2].copy()
    right_u0 = np.zeros(n)
    right_u0[0] = w[0]
    left_uN = np.zeros(n)
    left_uN[-1] = w[0]
    right_uN = w[2:n + 2][::-1].copy()
    return left_u0, right_u0, left_uN, right_uN


def toeplitz_matvec_fft(T: ToeplitzOperator, v: np.ndarray) -> np.ndarray:
    """Toeplitz matrix-vector product via circulant embedding and the FFT.

    Delegates to :func:`scipy.linalg.matmul_toeplitz`.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size != T.n:
        raise ParameterError(f"vector length {v.size} does not match operator order {T.n}")
    return scipy.linalg.matmul_toeplitz((T.first_col, T.first_row), v)
