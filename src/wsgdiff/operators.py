"""Toeplitz difference matrices and grid-operator application.

The weighted-shifted difference approximations act on a uniform grid
``x_i = a + i h`` as Toeplitz matrices with entry ``w_{i-j+p}`` at (i, j),
where ``p`` is the scheme's largest shift (``weights.SHIFTS``).  Every
scheme tag has ``p = 1``, so its matrix is lower Hessenberg: the
superdiagonal carries ``w_0`` and the main diagonal ``w_1``.  This module
assembles those matrices, applies the left/right operators directly to
grid functions (stencil-wise, without forming a matrix — the redundancy
lets tests catch indexing mistakes), gives the stencil columns that
multiply the Dirichlet end values, and splits a centrosymmetric matrix
into its even and odd halves from its top rows (``_MirrorHalves``, which
the dense 1D step and the 2D eigenbasis share).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from . import weights as wt
from .errors import ParameterError, count_at_least, real_number

__all__ = [
    "GridFunction1D",
    "ToeplitzOperator",
    "assemble_wsgd_matrix",
    "operator_weights",
    "apply_left_wsgd",
    "apply_right_wsgd",
    "boundary_columns",
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
        for name in ("a", "b"):
            object.__setattr__(self, name, real_number(f"domain end {name}", getattr(self, name)))
        if not self.b > self.a:
            raise ParameterError(f"domain must be finite with b > a, got [{self.a}, {self.b}]")
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

    def rows(self, count: int) -> np.ndarray:
        """The first ``count`` rows, as a read-only view; orders above
        ``DENSE_MAX_ORDER`` are refused before anything is allocated.

        Row ``i`` is the window ``n-1-i`` of the first column reversed and
        followed by the rest of the first row, so the rows are ``count``
        overlapping windows of one array.
        """
        if self.n > DENSE_MAX_ORDER:
            raise ParameterError(
                f"a dense matrix of order {self.n} ({8 * self.n**2 / 2**30:.1f} GiB) exceeds"
                f" the cap of order {DENSE_MAX_ORDER}"
            )
        line = np.concatenate((self.first_col[::-1], self.first_row[1:]))
        return np.lib.stride_tricks.sliding_window_view(line, self.n)[::-1][:count]

    def to_dense(self) -> np.ndarray:
        """The full matrix, C-ordered: a copy of :meth:`rows`, capped alike."""
        return self.rows(self.n).copy()

    @property
    def T(self) -> "ToeplitzOperator":
        return ToeplitzOperator(self.first_row, self.first_col)


#: ``1/sqrt(2)``, the entries of the even/odd change of basis.
_HALF_ROOT = float(np.sqrt(0.5))


@dataclass(frozen=True)
class _MirrorHalves:
    """The even/odd split of order ``n``, for the centrosymmetric matrices,
    ``J M J = M`` with ``J`` the reversal (Cantoni & Butler, Linear Algebra
    Appl. 13 (1976) 275).

    With ``m = n // 2`` and ``p = n - m``, the orthogonal change of basis
    ``P`` maps ``u`` to its even half, ``(u[:m] + (J u)[:m]) / sqrt(2)``
    followed, for odd ``n``, by the middle entry ``u[m]``, and its odd half,
    ``(u[:m] - (J u)[:m]) / sqrt(2)``, padded to order ``p`` with a zero.
    ``P M P^T`` is block diagonal: an even block of order ``p`` and an odd
    block of order ``m``, both read off the top ``p`` rows of ``M``.
    """

    n: int

    @property
    def m(self) -> int:
        return self.n // 2

    @property
    def p(self) -> int:
        return self.n - self.n // 2

    def blocks(self, top: np.ndarray) -> np.ndarray:
        """The even and odd blocks of the matrix whose top ``p`` rows are
        ``top``, written into one ``(2, p, p)`` array; for odd ``n`` the odd
        block's padding row and column are zero."""
        m, p = self.m, self.p
        left, right = top[:, :p], top[:, ::-1][:, :p]
        halves = np.empty((2, p, p))
        np.add(left, right, out=halves[0])
        np.subtract(left, right, out=halves[1])
        if m < p:
            # the middle row and column enter P once each, not twice
            halves[0, m] *= _HALF_ROOT
            halves[0, :, m] *= _HALF_ROOT
            halves[1, m] = halves[1, :, m] = 0.0
        return halves

    def split(self, u: np.ndarray) -> np.ndarray:
        """``P u`` for each vector on the last axis of ``u``, as the ``(...,
        2, p)`` array of its even and odd halves."""
        m = self.m
        s = np.zeros(u.shape[:-1] + (2, self.p))
        top, bottom = u[..., :m], u[..., ::-1][..., :m]
        np.add(top, bottom, out=s[..., 0, :m])
        np.subtract(top, bottom, out=s[..., 1, :m])
        s *= _HALF_ROOT
        if m < self.p:
            s[..., 0, m] = u[..., m]
        return s

    def join(self, s: np.ndarray) -> np.ndarray:
        """``P^T s``: the C-ordered ``(..., n)`` vectors whose halves are the
        ``(..., 2, p)`` array ``s``."""
        m = self.m
        u = np.empty(s.shape[:-2] + (self.n,))
        even, odd = s[..., 0, :m], s[..., 1, :m]
        np.add(even, odd, out=u[..., :m])
        np.subtract(even, odd, out=u[..., ::-1][..., :m])
        u *= _HALF_ROOT
        if m < self.p:
            u[..., m] = s[..., 0, m]
        return u


def operator_weights(alpha: float, scheme: str, count: int) -> np.ndarray:
    """Difference weights for any scheme tag, as a plain array.

    ``"gl"`` gives the raw first-order coefficients used with shift 1; the
    other tags give the second/third-order combinations.
    """
    if scheme == wt.GL:
        return wt.grunwald_coefficients(alpha, count)
    if scheme in wt.PAIR_SCHEMES:
        return wt.wsgd2_weights(alpha, scheme, count)
    if scheme == wt.PQR:
        return wt.wsgd3_weights(alpha, count)
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
    n = count_at_least("n", n, len(shifts), "rows")
    return _toeplitz(operator_weights(alpha, scheme, n + 1), n, shifts[0])


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


def boundary_columns(
    alpha: float, scheme: str, n: int, left: float | np.ndarray, right: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stencil coefficients multiplying the two endpoint values, weighted by
    the diffusivities ``left`` and ``right`` (scalars, or one per row).

    For the interior system of size ``n = N - 1``, the left-sided operator
    couples row i to ``u_0`` through ``w_{i+1}`` and to ``u_N`` only in the
    last row through ``w_0``; the right-sided operator mirrors this.
    Returns ``(c0, cN)``, the columns of ``u_0`` and ``u_N`` in ``left`` times
    the left-sided operator plus ``right`` times the right-sided one, so
    ``(1, 0)`` gives the left-sided columns and ``(0, 1)`` the right-sided.
    """
    n = count_at_least("n", n, 1, "interior nodes")
    w = _scheme_weights_for_grid(alpha, scheme, n + 2)
    # the left-sided column of u_0, and the right-sided one; u_N's mirror them
    inner, corner = w[2:n + 2], np.zeros(n)
    corner[0] = w[0]
    return left * inner + right * corner, left * corner[::-1] + right * inner[::-1]
