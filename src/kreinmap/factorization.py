"""Convolution operators, the accelerant test, and triangular factorization.

The central object is the layer-stripping solve for the lower kernel X of

    X(x,t) + F(x,t) + int_0^x X(x,s) F(s,t) ds = 0,   0 <= t <= x <= 1,

discretized row by row with the trapezoid rule on [0, x_i]. Everything else
here (the accelerant test, the Krein solve, the two-sided factorization of
I + F) is built on that solve plus the operator algebra in quadops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldFormatError, NotAccelerantError, SingularSystemError
from .fields import Accelerant, GridSpec, Kernel2D
from .quadops import _flatten, _unflatten, mixed_norm, nystrom_weights, op_from_kernel

__all__ = [
    "convolution_kernel",
    "AccelerantTest",
    "is_accelerant",
    "solve_glm",
    "solve_krein",
    "factorize",
]


def convolution_kernel(h: Accelerant, grid: GridSpec | None = None) -> Kernel2D:
    """The difference kernel F(x_i, x_j) = h(x_i - x_j) on a node grid.

    The target grid must have the same step as the accelerant's node grid or
    be its 2N refinement; both read h at exact sample indices.
    """
    if grid is None:
        grid = h.grid
    if grid.N == h.grid.N:
        stride = 2
    elif grid.N == 2 * h.grid.N:
        stride = 1
    else:
        raise FieldFormatError(
            f"convolution grid {grid.N} is neither the accelerant grid "
            f"{h.grid.N} nor its refinement"
        )
    m = grid.N + 1
    i, j = np.indices((m, m))
    idx = 2 * h.grid.N + stride * (i - j)
    return Kernel2D(h.r, grid, "full", h.values[idx])


@dataclass
class AccelerantTest:
    """Outcome of the truncated-convolution singular value sweep."""

    accepted: bool
    min_singular_value: float
    worst_alpha: float
    alphas: np.ndarray
    sigma_min: np.ndarray
    sigma_max: np.ndarray

    @property
    def margins(self) -> np.ndarray:
        return self.sigma_min / self.sigma_max


def is_accelerant(h: Accelerant) -> AccelerantTest:
    """Sweep the breakpoints alpha = x_1 .. x_N of the truncated equation

        f(x) + int_0^alpha h(x - t) f(t) dt = 0

    and test each restricted matrix I + H_alpha for numerical invertibility.
    A breakpoint is flagged when the smallest singular value is at most
    1e-8 times the largest. The restriction to [0, alpha] in both
    variables is unitarily equivalent, via the index flip, to the same
    matrix built from the reflected accelerant, so the verdict is
    reflection-invariant on the grid.
    """
    N, r = h.grid.N, h.r
    conv = convolution_kernel(h).values
    sig_min = np.empty(N)
    sig_max = np.empty(N)
    for k in range(1, N + 1):
        w = h.grid.trapezoid(k)
        blocks = conv[: k + 1, : k + 1] * w[None, :, None, None]
        dim = (k + 1) * r
        A = blocks.transpose(0, 2, 1, 3).reshape(dim, dim)
        A = A + np.eye(dim)
        sigma = np.linalg.svd(A, compute_uv=False)
        sig_max[k - 1] = sigma[0]
        sig_min[k - 1] = sigma[-1]
    margins = sig_min / sig_max
    worst = int(np.argmin(margins))
    alphas = np.arange(1, N + 1) / N
    return AccelerantTest(
        accepted=bool(np.all(margins > 1e-8)),
        min_singular_value=float(sig_min.min()),
        worst_alpha=float(alphas[worst]),
        alphas=alphas,
        sigma_min=sig_min,
        sigma_max=sig_max,
    )


def solve_glm(
    f_kernel: Kernel2D,
    *,
    edge_plus: np.ndarray | None = None,
    edge_minus: np.ndarray | None = None,
) -> Kernel2D:
    """Row-by-row solve of the lower-triangular layer equation.

    Row i solves x_i A_i = -b_i on the nodes of [0, x_i], where
    A_i = I + D_tau F carries the trapezoid weights of that interval (half
    weight at both endpoints) and b_i is the block row F[i, :i+1]. Each row
    must be uniquely solvable, otherwise the offending x_i is reported.

    The collocation at t = x_i sits on the edge of the triangle, where a
    difference kernel F(x, t) = h(x - t) may jump. There the stored diagonal
    sample (a two-sided average) is the wrong datum twice over: the
    inhomogeneous term wants the limit from x - t -> 0+, and the quadrature
    endpoint F(s, t)|_{s=t=x_i} wants s - t -> 0-. The mirror case is the
    collocation at t = 0, whose endpoint F(s, t)|_{s=t=0} wants s - t -> 0+.
    Callers with a jump pass those limits as edge_plus / edge_minus (n x n
    blocks); every interior crossing of the jump keeps the average, which is
    exactly the composite one-sided trapezoid rule.

    The rows are nested. Let S = I + D F with the full weight at every node
    but x_0, which keeps the half weight, and edge_plus in its first
    diagonal block. Then A_i is the leading (i+1)-block of S changed in its
    last block row only: A_i = S_i + E_i W_i, with E_i selecting that row
    and W_i = -(step/2) b_i + delta_i e_i, where
    delta_i = (step/2)(edge_minus + edge_plus) - step F[i, i] puts the half
    weight and edge_minus at the moving endpoint. So one LU of S without
    pivoting, S = L U, serves every row:

    - Y = tril(B U^-1) L^-1, with B the stacked b_i and a block-lower mask
      after the first product, holds every y_i = b_i S_i^-1 (two GEMMs);
    - Z_i = W_i S_i^-1 = -(step/2) y_i + delta_i (U^-1)_ii L^-1[i, :];
    - an n x n Woodbury step finishes the row:
      x_i = -y_i + (y_i E_i)(I + Z_i E_i)^-1 Z_i.

    L^-1 and U^-1 come from one recursive pass that, like the rest, does
    its work in matrix products, so the whole solve costs O(N^3 n^3)
    against O(N^4 n^3) for N separate solves.

    The sweep certifies the A_i, not the S_i, and an LU without pivoting
    is only as good as the leading blocks of S. So every row's residual
    x_i A_i + b_i is computed in full (one GEMM with S plus the last-row
    term), and any row above 1e-10 times max(1, max|x_i|), or not finite,
    is solved again by one dense solve of A_i. Only a row that fails that
    dense solve too raises SingularSystemError. The LU runs with numpy's
    floating-point warnings off: a zero or tiny pivot shows up as flagged
    rows, not as a warning.
    """
    grid, n = f_kernel.grid, f_kernel.n
    m, step = grid.N + 1, grid.step
    dim = m * n
    F = f_kernel.values
    nodes = np.arange(m)
    f_diag = F[nodes, nodes]
    plus = f_diag if edge_plus is None else np.broadcast_to(edge_plus, f_diag.shape)
    minus = f_diag if edge_minus is None else np.broadcast_to(edge_minus, f_diag.shape)
    delta = 0.5 * step * (minus + plus) - step * f_diag

    rows = np.repeat(nodes, n)
    right_of_diagonal = rows[None, :] > rows[:, None]

    eye = np.eye(n)
    with np.errstate(all="ignore"):
        inv = _shared_matrix(F, plus, step)
        _lu_inverses(inv)
        inv_diag = _unflatten(inv, n)[nodes, nodes]
        u_inv_diag = np.triu(inv_diag)
        l_inv_diag = np.tril(inv_diag, -1) + eye
        y = _stacked_rhs(F, plus, right_of_diagonal) @ np.triu(inv)  # B U^-1
        y[right_of_diagonal] = 0.0
        inv[~np.tri(dim, k=-1, dtype=bool)] = 0.0  # inv is L^-1 from here on
        inv.flat[:: dim + 1] = 1.0
        y = y @ inv  # Y = tril(B U^-1) L^-1

        # Woodbury: x_i = -(I + (step/2) C_i) y_i + C_i G_i L^-1[i, :]
        # with G_i = delta_i (U^-1)_ii and C_i = Y_ii (I + Z_ii)^-1
        y_diag = _unflatten(y, n)[nodes, nodes]
        g = delta @ u_inv_diag
        z_diag = -0.5 * step * y_diag + g @ l_inv_diag
        try:
            c = np.linalg.solve(np.swapaxes(eye + z_diag, 1, 2), np.swapaxes(y_diag, 1, 2))
            c = np.swapaxes(c, 1, 2)
        except np.linalg.LinAlgError:  # some I + Z_ii exactly singular
            c = np.full_like(y_diag, np.nan)
        x_rows = -(eye + 0.5 * step * c) @ y.reshape(m, n, dim)
        del y
        x_rows += (c @ g) @ inv.reshape(m, n, dim)
        del inv
        x = x_rows.reshape(dim, dim)

        # residual x_i A_i + b_i = x_i S_i + (I - (step/2) X_ii) b_i + X_ii delta_i e_i
        x_diag = _unflatten(x, n)[nodes, nodes]
        residual = x @ _shared_matrix(F, plus, step)
        rhs = _stacked_rhs(F, plus, right_of_diagonal)
        residual += rhs
        rhs_rows = rhs.reshape(m, n, dim)
        residual.reshape(m, n, dim)[...] -= 0.5 * step * (x_diag @ rhs_rows)
        del rhs, rhs_rows
        _unflatten(residual, n)[nodes, nodes] += x_diag @ delta
        residual[right_of_diagonal] = 0.0
        worst = np.abs(residual.reshape(m, n * dim)).max(axis=1)
        scale = np.maximum(1.0, np.abs(x_rows.reshape(m, n * dim)).max(axis=1))
        flagged = ~(worst <= 1e-10 * scale)  # a NaN compares False and is flagged

    X = np.ascontiguousarray(_unflatten(x, n))
    X[~np.tri(m, dtype=bool)] = 0.0
    X[0, 0] = -plus[0]
    for i in np.flatnonzero(flagged[1:]) + 1:
        X[i, : i + 1] = _dense_row(f_kernel, i, edge_plus, edge_minus)
    return Kernel2D(n, grid, "lower", X)


def _shared_matrix(F: np.ndarray, plus: np.ndarray, step: float) -> np.ndarray:
    """S = I + D F flattened, with the full weight at every node but x_0,
    which keeps the half weight, and plus[0] in block (0, 0)."""
    m, n = F.shape[0], F.shape[2]
    s = np.empty((m * n, m * n), dtype=np.complex128)
    _unflatten(s, n)[...] = F
    s[:n, :n] = plus[0]
    s *= step
    s[:n] *= 0.5
    s.flat[:: m * n + 1] += 1.0
    return s


def _stacked_rhs(F: np.ndarray, plus: np.ndarray, right_of_diagonal: np.ndarray) -> np.ndarray:
    """B: flattened row i is b_i = F[i, :i+1] with plus[i] as its diagonal
    block, zero to the right of it."""
    m, n = F.shape[0], F.shape[2]
    b = np.empty((m * n, m * n), dtype=np.complex128)
    _unflatten(b, n)[...] = F
    b[right_of_diagonal] = 0.0
    nodes = np.arange(m)
    _unflatten(b, n)[nodes, nodes] = plus
    return b


def _dense_row(
    f_kernel: Kernel2D,
    i: int,
    edge_plus: np.ndarray | None,
    edge_minus: np.ndarray | None,
) -> np.ndarray:
    """Blocks X[i, :i+1] of solve_glm's row i >= 1 by one dense solve of
    A_i: its fallback for rows the nested LU leaves inaccurate, and the
    reference it is tested against. Raises SingularSystemError when the
    row residual exceeds 1e-10 times max(1, max|row|)."""
    n = f_kernel.n
    d = (i + 1) * n
    tau = f_kernel.grid.trapezoid(i)
    block = _flatten(f_kernel.values[: i + 1, : i + 1])
    eye = np.eye(d, dtype=np.complex128)
    A = np.repeat(tau, n)[:, None] * block + eye
    rhs = block[d - n :]
    if edge_minus is not None:
        A[d - n :, d - n :] = eye[:n, :n] + tau[-1] * edge_minus
    if edge_plus is not None:
        A[:n, :n] = eye[:n, :n] + tau[0] * edge_plus
        rhs = rhs.copy()
        rhs[:, d - n :] = edge_plus
    try:
        row = np.linalg.solve(A.T, -rhs.T).T
    except np.linalg.LinAlgError:
        raise SingularSystemError(i / f_kernel.grid.N)
    residual = np.max(np.abs(row @ A + rhs))
    scale = max(1.0, float(np.max(np.abs(row))))
    if not np.isfinite(residual) or residual > 1e-10 * scale:
        raise SingularSystemError(i / f_kernel.grid.N, f"row residual {residual:.3e}")
    return row.reshape(n, i + 1, n).transpose(1, 0, 2)


def _lu_inverses(a: np.ndarray) -> None:
    """The inverse factors of a = L U, the LU factorization without
    pivoting (L unit lower, U upper), in place: L^-1 strictly below the
    diagonal (its unit diagonal implied), U^-1 on and above it.

    Recursive halving puts the work into matrix products. With
    a = [[A11, A12], [A21, A22]] and the inverse factors of A11 in hand,
    U12 = L11^-1 A12 and L21 = A21 U11^-1; the Schur complement
    A22 - L21 U12 gives those of the trailing block; then
    (L^-1)_21 = -L22^-1 L21 L11^-1 and (U^-1)_12 = -U11^-1 U12 U22^-1.
    A zero pivot spoils only its own leaf of at most 32 rows and what
    follows: the inverse factors of the leading blocks before that leaf
    are unaffected.
    """
    m = a.shape[0]
    if m <= 32:
        for k in range(m - 1):
            a[k + 1 :, k] /= a[k, k]
            a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
        try:
            l_inv = np.linalg.inv(np.tril(a, -1) + np.eye(m))
            u_inv = np.linalg.inv(np.triu(a))
        except np.linalg.LinAlgError:  # an exactly zero pivot
            l_inv = u_inv = np.full_like(a, np.nan)
        a[...] = np.triu(u_inv) + np.tril(l_inv, -1)
        return
    h = m // 2
    _lu_inverses(a[:h, :h])
    l11 = np.tril(a[:h, :h], -1) + np.eye(h)
    u11 = np.triu(a[:h, :h])
    u12 = l11 @ a[:h, h:]
    l21 = a[h:, :h] @ u11
    a[h:, h:] -= l21 @ u12
    _lu_inverses(a[h:, h:])
    l22 = np.tril(a[h:, h:], -1) + np.eye(m - h)
    u22 = np.triu(a[h:, h:])
    a[h:, :h] = -(l22 @ l21) @ l11
    a[:h, h:] = -(u11 @ u12) @ u22


def solve_krein(h: Accelerant, grid: GridSpec | None = None) -> Kernel2D:
    """Lower kernel r_h of the Krein equation driven by h(x - t).

    Accelerants in the image of the inverse map generically jump at 0, so
    the edge collocation is fed one-sided values of h recovered by quadratic
    extrapolation from the three nearest samples on each side. For h smooth
    through 0 the extrapolations coincide with the stored sample to cubic
    order (exactly, for constant h) and the plain solve is recovered.
    """
    conv = convolution_kernel(h, grid)
    stride = 2 if conv.grid.N == h.grid.N else 1
    c = 2 * h.grid.N
    v = h.values
    plus = 3.0 * v[c + stride] - 3.0 * v[c + 2 * stride] + v[c + 3 * stride]
    minus = 3.0 * v[c - stride] - 3.0 * v[c - 2 * stride] + v[c - 3 * stride]
    return solve_glm(conv, edge_plus=plus, edge_minus=minus)


def factorize(f_kernel: Kernel2D, leak_tol: float = 5e-8):
    """Split I + F into inverse triangular factors.

    Returns (l_plus, l_minus) with l_plus lower and l_minus upper such that
    at the matrix level (I + L+)^-1 (I + L-)^-1 = I + F. The product
    (I + L+)(I + F) - I must come out upper triangular up to solver
    round-off; its strict-lower leakage is checked against leak_tol before
    masking.
    """
    grid, n = f_kernel.grid, f_kernel.n
    l_plus = solve_glm(f_kernel)
    m_plus = op_from_kernel(l_plus).M
    m_f = op_from_kernel(f_kernel).M
    u = m_plus + m_f + m_plus @ m_f

    m = grid.N + 1
    ublocks = u.reshape(m, n, m, n).transpose(0, 2, 1, 3)
    i, j = np.indices((m, m))
    leak_vals = np.where((j < i)[:, :, None, None], ublocks, 0.0)
    leak_kernel = Kernel2D(
        n, grid, "full", leak_vals / grid.weights[None, :, None, None]
    )
    leakage = mixed_norm(leak_kernel, 1)
    if leakage > leak_tol:
        raise SingularSystemError(
            1.0, f"factorization leakage {leakage:.3e} exceeds {leak_tol:.1e}"
        )

    umasked = np.where((j >= i)[:, :, None, None], ublocks, 0.0)
    u_upper = np.ascontiguousarray(umasked.transpose(0, 2, 1, 3)).reshape(m * n, m * n)
    minus_mat = np.linalg.solve(np.eye(m * n) + u_upper, np.eye(m * n)) - np.eye(m * n)

    tw_up = nystrom_weights(grid, "upper")
    mb = minus_mat.reshape(m, n, m, n).transpose(0, 2, 1, 3)
    vals = np.zeros_like(mb)
    pos = tw_up > 0
    vals[pos] = mb[pos] / tw_up[pos][:, None, None]
    l_minus = Kernel2D(n, grid, "upper", vals)
    return l_plus, l_minus
