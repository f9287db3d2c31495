"""Independent oracle implementations used only by the test suite.

Everything here is computed by a different route than the package under
test: binomial coefficients through log-gamma instead of the recursion,
matrices through literal double loops instead of Toeplitz constructors,
convergence reports through ``csv.DictReader`` instead of the CLI, time
steps through pinned-row or Kronecker assemblies instead of the eliminated
interior systems.  Agreement between the two routes is the
point of most tests, so nothing in this module may import solver logic.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.linalg import solve as dense_solve
from scipy.special import gammaln

# ---------------------------------------------------------------------------
# Coefficient oracles
# ---------------------------------------------------------------------------


def binomial_gl(alpha: float, count: int) -> np.ndarray:
    """Signed binomial coefficients of (1 - z)**alpha via log-gamma.

    g_k = (-1)^k C(alpha, k) = Gamma(k - alpha) / (Gamma(-alpha) Gamma(k + 1)).
    Log-gamma keeps the ratio finite for large k; the overall sign for
    k >= 2 is the sign of 1/Gamma(-alpha), which is negative on (0, 1) and
    positive on (1, 2).  Integer orders are handled exactly.
    """
    g = np.zeros(count)
    g[0] = 1.0
    if count == 1:
        return g
    if alpha == int(alpha):
        a = int(alpha)
        from math import comb

        for k in range(1, min(count, a + 1)):
            g[k] = (-1.0) ** k * comb(a, k)
        return g
    g[1] = -alpha
    if count == 2:
        return g
    tail_sign = -1.0 if alpha < 1.0 else 1.0
    k = np.arange(2, count, dtype=float)
    # Gamma(-alpha) = Gamma(2 - alpha) / ((-alpha)(1 - alpha)); fold the
    # rational prefactor in exactly to avoid lgamma at negative arguments.
    log_mag = gammaln(k - alpha) - gammaln(k + 1.0) - gammaln(2.0 - alpha)
    g[2:] = tail_sign * np.exp(log_mag) * abs(alpha * (1.0 - alpha))
    return g


def pair_lambdas(alpha: float, p: int, q: int) -> tuple[float, float]:
    """Textbook combination weights for a two-shift pair."""
    return (alpha - 2.0 * q) / (2.0 * (p - q)), (2.0 * p - alpha) / (2.0 * (p - q))


def pair_weights_from_binomial(alpha: float, p: int, q: int, count: int) -> np.ndarray:
    """Two-shift weights built on the log-gamma coefficients (no recursion).

    w_k = lam1 g_k + lam2 g_{k-p+q}; for q > p the second term reaches
    q - p coefficients past ``count``, so those are generated too.
    """
    lam1, lam2 = pair_lambdas(alpha, p, q)
    off = p - q
    g = binomial_gl(alpha, count + max(0, -off))
    w = lam1 * g[:count]
    if off > 0:
        w[off:] += lam2 * g[:-off]
    else:
        w += lam2 * g[-off:]
    return w


def triple_lambdas(alpha: float) -> tuple[float, float, float]:
    """Reduced combination weights for shifts (1, 0, -1)."""
    return (
        5.0 * alpha / 24.0 + alpha * alpha / 8.0,
        1.0 + alpha / 12.0 - alpha * alpha / 4.0,
        -7.0 * alpha / 24.0 + alpha * alpha / 8.0,
    )


def triple_weights_from_binomial(alpha: float, count: int) -> np.ndarray:
    lam1, lam2, lam3 = triple_lambdas(alpha)
    g = binomial_gl(alpha, count)
    mu = lam1 * g.copy()
    mu[1:] += lam2 * g[:-1]
    mu[2:] += lam3 * g[:-2]
    return mu


# ---------------------------------------------------------------------------
# Matrix oracles
# ---------------------------------------------------------------------------


def dense_shift_matrix(weights: np.ndarray, n: int, shift: int) -> np.ndarray:
    """Literal double-loop fill of A[i, j] = w_{i - j + shift}."""
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            k = i - j + shift
            if 0 <= k < weights.size:
                a[i, j] = weights[k]
    return a


def theta_scheme_matrices(
    alpha: float,
    shifts: tuple[int, int],
    diffusivities: tuple[float, float],
    n: int,
    scale: float,
    theta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The step matrices ``(I - theta B, I + (1-theta) B)`` of the
    theta-weighted 1D scheme on ``n`` interior nodes, for constant
    diffusivities ``(kl, kr)``: ``B = scale (kl A + kr A^T)``, ``scale =
    tau/h**alpha``, with ``A`` the double-loop fill of the log-gamma weights
    of the shift pair ``(p, q)``, diagonal shift 1."""
    p, q = shifts
    a = dense_shift_matrix(pair_weights_from_binomial(alpha, p, q, n + 2), n, 1)
    kl, kr = diffusivities
    b = scale * (kl * a + kr * a.T)
    eye = np.eye(n)
    return eye - theta * b, eye + (1.0 - theta) * b


def dense_triple_sum_matrix(alpha: float, n: int) -> np.ndarray:
    """Three shifted coefficient Toeplitz matrices combined explicitly."""
    lam1, lam2, lam3 = triple_lambdas(alpha)
    g = binomial_gl(alpha, n + 2)
    return (
        lam1 * dense_shift_matrix(g, n, 1)
        + lam2 * dense_shift_matrix(g, n, 0)
        + lam3 * dense_shift_matrix(g, n, -1)
    )


# ---------------------------------------------------------------------------
# Analytic fractional derivatives of monomials
# ---------------------------------------------------------------------------


def rl_left_monomial(alpha: float, k: float, x) -> np.ndarray:
    """Left-sided derivative (base 0) of x**k: Gamma(k+1)/Gamma(k+1-alpha) x^{k-alpha}."""
    x = np.asarray(x, dtype=float)
    lg = gammaln(k + 1.0) - gammaln(k + 1.0 - alpha)
    return np.exp(lg) * x ** (k - alpha)


def rl_right_monomial(alpha: float, k: float, x) -> np.ndarray:
    """Right-sided derivative (base 1) of (1-x)**k."""
    x = np.asarray(x, dtype=float)
    lg = gammaln(k + 1.0) - gammaln(k + 1.0 - alpha)
    return np.exp(lg) * (1.0 - x) ** (k - alpha)


#: (power, coefficient) expansion of x^3 (1-x)^3 = x^3 - 3x^4 + 3x^5 - x^6.
BUMP_TERMS = ((3, 1.0), (4, -3.0), (5, 3.0), (6, -1.0))


def bump(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return x**3 * (1.0 - x) ** 3


def bump_rl_left(alpha: float, x) -> np.ndarray:
    """Left-sided derivative of the cubic bump, term by term."""
    return sum(c * rl_left_monomial(alpha, k, x) for k, c in BUMP_TERMS)


def bump_rl_right(alpha: float, x) -> np.ndarray:
    """Right-sided derivative of the cubic bump (symmetric under x -> 1-x)."""
    x = np.asarray(x, dtype=float)
    return sum(c * rl_right_monomial(alpha, k, x) for k, c in BUMP_TERMS)


# ---------------------------------------------------------------------------
# Generating-function series oracle
# ---------------------------------------------------------------------------


def series_generating_function(alpha: float, scheme: str, x, terms: int) -> np.ndarray:
    """Partial sum of the defining series sum_k w_k cos((k-1) x).

    The weights come from the log-gamma coefficients combined here, so this
    never touches the package's recursion or closed forms.
    """
    if scheme == "p1q0":
        w = pair_weights_from_binomial(alpha, 1, 0, terms)
    elif scheme == "p1qm1":
        w = pair_weights_from_binomial(alpha, 1, -1, terms)
    elif scheme == "pqr":
        w = triple_weights_from_binomial(alpha, terms)
    else:
        raise ValueError(f"no series oracle for scheme {scheme!r}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    k = np.arange(terms)
    out = np.cos(np.outer(x, k - 1.0)) @ w
    return out if out.size > 1 else float(out[0])


# ---------------------------------------------------------------------------
# Classical (integer-order) reference steps
# ---------------------------------------------------------------------------


def tridiag_second_difference(n: int) -> np.ndarray:
    """The n x n matrix with 1 on the off-diagonals and -2 on the diagonal."""
    t = np.zeros((n, n))
    np.fill_diagonal(t, -2.0)
    np.fill_diagonal(t[1:], 1.0)
    np.fill_diagonal(t[:, 1:], 1.0)
    return t


def classical_cn_heat_run(
    u0: np.ndarray,
    kappa: float,
    h: float,
    tau: float,
    steps: int,
    source,
    xi: np.ndarray,
) -> np.ndarray:
    """Trapezoidal-in-time heat stepping with homogeneous Dirichlet data.

    Source sampled as the average of the two endpoint values, matching the
    package's default sampling.
    """
    n = u0.size
    b = (tau * kappa / h**2) * tridiag_second_difference(n)
    lhs = np.eye(n) - 0.5 * b
    rhs_m = np.eye(n) + 0.5 * b
    u = u0.copy()
    for step in range(steps):
        t_now = step * tau
        t_next = (step + 1) * tau
        fv = 0.5 * (np.asarray(source(xi, t_now)) + np.asarray(source(xi, t_next)))
        u = dense_solve(lhs, rhs_m @ u + tau * fv)
    return u


def classical_pr_adi_heat_step(
    u: np.ndarray, f_mid: np.ndarray, tau: float, hx: float, hy: float
) -> np.ndarray:
    """Textbook alternating-sweep heat step for du/dt = u_xx + u_yy + f.

    Interior unknowns shaped (nx, ny) with x on axis 0; homogeneous
    Dirichlet data.
    """
    nx, ny = u.shape
    dx = tridiag_second_difference(nx) / hx**2
    dy = tridiag_second_difference(ny) / hy**2
    a = 0.5 * tau
    v = dense_solve(np.eye(nx) - a * dx, u + a * (u @ dy.T) + a * f_mid)
    rhs = v + a * (dx @ v) + a * f_mid
    return dense_solve(np.eye(ny) - a * dy, rhs.T).T


def kron_two_level_step(
    dx_op: np.ndarray,
    dy_op: np.ndarray,
    u: np.ndarray,
    f_mid: np.ndarray,
    tau: float,
    *,
    lod_source_correction: bool = False,
) -> np.ndarray:
    """Dense factored two-level step, x-fastest vectorization.

    Solves (I - a Kx)(I - a Ky) u' = (I + a Kx)(I + a Ky) u + tau F with
    a = tau/2; with ``lod_source_correction`` the right side gains the
    (tau^3/4) Kx Ky F term produced by sweeping the source through both
    one-dimensional factors.
    """
    nx = dx_op.shape[0]
    ny = dy_op.shape[0]
    a = 0.5 * tau
    kx = np.kron(np.eye(ny), dx_op)
    ky = np.kron(dy_op, np.eye(nx))
    eye = np.eye(nx * ny)
    u_vec = u.flatten(order="F")
    f_vec = f_mid.flatten(order="F")
    rhs = (eye + a * kx) @ ((eye + a * ky) @ u_vec) + tau * f_vec
    if lod_source_correction:
        rhs += (tau**3 / 4.0) * (kx @ (ky @ f_vec))
    out = dense_solve((eye - a * kx) @ (eye - a * ky), rhs)
    return out.reshape((nx, ny), order="F")


def line_operator(
    w: np.ndarray, diffusivities: tuple[float, float], order: float, h: float, n: int
) -> np.ndarray:
    """Rows of a two-sided operator at the n interior nodes of a line, over
    all n + 2 of its nodes, boundary nodes included.

    Row i is node i + 1; entry (i, j) is a double-loop fill of
    kl * w_{i-j+2} + kr * w_{j-i} with ``(kl, kr) = diffusivities``, divided
    by ``h**order``.  Columns 1..n are the interior operator, and columns 0
    and n + 1 act on the boundary values.
    """
    op = np.zeros((n, n + 2))
    for i in range(n):
        for j in range(n + 2):
            for k, kappa in ((i - j + 2, diffusivities[0]), (j - i, diffusivities[1])):
                if 0 <= k < w.size:
                    op[i, j] += kappa * w[k]
    return op / h**order


def pr_boundary_lines_step(
    wx: np.ndarray,
    wy: np.ndarray,
    x_diffusivities: tuple[float, float],
    y_diffusivities: tuple[float, float],
    alpha: float,
    beta: float,
    hx: float,
    hy: float,
    u: np.ndarray,
    f_mid: np.ndarray,
    g_now: np.ndarray,
    g_next: np.ndarray,
    tau: float,
) -> np.ndarray:
    """One factored two-half-sweep step with Dirichlet data on the y-boundaries.

    ``u`` and ``f_mid`` hold interior values, shaped (nx, ny); ``g_now`` and
    ``g_next`` the data on the lines y = ay and y = by at the interior
    x-nodes, shaped (nx, 2), at t_n and t_n + tau.  Dy acts on all ny + 2
    y-lines through its literal ny x (ny + 2) rows (:func:`line_operator`),
    so the data enter through its first and last columns: stage 1 solves
    (I - a Dx) V = U + a Dy [g_now, U] + a F, and stage 2 solves
    (I - a Dy) [g_next, U'] = (I + a Dx) V + a F on the interior nodes,
    with a = tau/2.
    """
    nx, ny = u.shape
    a = 0.5 * tau
    dx = line_operator(wx, x_diffusivities, alpha, hx, nx)[:, 1:-1]
    dy = line_operator(wy, y_diffusivities, beta, hy, ny)
    lines_now = np.column_stack((g_now[:, 0], u, g_now[:, 1]))
    v = dense_solve(np.eye(nx) - a * dx, u + a * (lines_now @ dy.T) + a * f_mid)
    lines_next = np.zeros((nx, ny + 2))
    lines_next[:, [0, -1]] = g_next
    rhs = v + a * (dx @ v) + a * f_mid + a * (lines_next @ dy.T)
    return dense_solve(np.eye(ny) - a * dy[:, 1:-1], rhs.T).T


def lod_boundary_swept_step(
    wx: np.ndarray,
    wy: np.ndarray,
    x_diffusivities: tuple[float, float],
    y_diffusivities: tuple[float, float],
    alpha: float,
    beta: float,
    h: float,
    u: np.ndarray,
    f_lines: np.ndarray,
    tau: float,
) -> np.ndarray:
    """One locally-one-dimensional step, stage 1 swept along every y-line.

    ``u`` holds the interior unknowns, shaped (nx, ny); ``f_lines`` the
    midpoint source at the interior x-nodes on all ny + 2 y-lines, the two
    boundary lines included.  Stage 1 solves (I - a Dx) V = (I + a Dx)(U +
    a F) on every line, with U = 0 on the two boundary lines.  Stage 2
    solves (I - a Dy) U' = (I + a Dy) V + a (I - a Dy) F across y, where
    Dy acts on all ny + 2 lines through its literal (ny) x (ny + 2) rows
    (:func:`line_operator`), so the boundary lines enter through its first
    and last columns.  a = tau/2, and one spacing h serves both axes.
    """
    nx, ny = u.shape
    a = 0.5 * tau
    dx = line_operator(wx, x_diffusivities, alpha, h, nx)[:, 1:-1]
    dy = line_operator(wy, y_diffusivities, beta, h, ny)
    u_lines = np.zeros((nx, ny + 2))
    u_lines[:, 1:-1] = u
    eye_x = np.eye(nx)
    v_lines = dense_solve(eye_x - a * dx, (eye_x + a * dx) @ (u_lines + a * f_lines))
    rhs = (
        v_lines[:, 1:-1]
        + a * (v_lines @ dy.T)
        + a * (f_lines[:, 1:-1] - a * (f_lines @ dy.T))
    )
    return dense_solve(np.eye(ny) - a * dy[:, 1:-1], rhs.T).T


def pinned_row_cn_step(
    weights: np.ndarray,
    dl: np.ndarray,
    dr: np.ndarray,
    theta: float,
    tau: float,
    h: float,
    alpha: float,
    u_full: np.ndarray,
    f_interior: np.ndarray,
    ga_next: float,
    gb_next: float,
) -> np.ndarray:
    """One trapezoidal step on the full (N+1)-node system with pinned ends.

    Builds the (N+1) x (N+1) operator with entry (i, j) = w_{i-j+1} (left)
    plus its transpose pattern (right), weighted per interior row; boundary
    rows are identities set to the next-level Dirichlet data.  The interior
    block of the result is the oracle for the eliminated boundary-column
    formulation.
    """
    m = u_full.size
    full_left = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            k = i - j + 1
            if 0 <= k < weights.size:
                full_left[i, j] = weights[k]
    full_right = full_left.T.copy()
    scale = tau / h**alpha
    b_full = np.zeros((m, m))
    b_full[1:-1, :] = scale * (
        dl[:, None] * full_left[1:-1, :] + dr[:, None] * full_right[1:-1, :]
    )
    lhs = np.eye(m) - theta * b_full
    rhs = (np.eye(m) + (1.0 - theta) * b_full) @ u_full
    rhs[1:-1] += tau * f_interior
    lhs[0, :] = 0.0
    lhs[0, 0] = 1.0
    rhs[0] = ga_next
    lhs[-1, :] = 0.0
    lhs[-1, -1] = 1.0
    rhs[-1] = gb_next
    return dense_solve(lhs, rhs)


# ---------------------------------------------------------------------------
# Report oracle
# ---------------------------------------------------------------------------

#: The columns of a convergence report that hold an error record's fields.
_RECORD_COLUMNS = {
    "N": int, "M": int, "max_err": float, "l2_err": float, "rate_max": float, "rate_l2": float
}


def report_records(path) -> list[dict]:
    """The error-record fields of each row of a convergence-report CSV, read
    by ``csv.DictReader``: counts as ints, errors and rates as floats, an
    empty rate as ``None``; compare with ``dataclasses.asdict`` of a record."""
    with open(path, newline="") as fh:
        return [
            {key: kind(row[key]) if row[key] else None for key, kind in _RECORD_COLUMNS.items()}
            for row in csv.DictReader(fh)
        ]
