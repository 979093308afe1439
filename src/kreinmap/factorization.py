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
from .quadops import mixed_norm, nystrom_weights, op_from_kernel

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

    Row i solves X_row (I + D_tau F) = -F_row on the nodes of [0, x_i],
    where D_tau carries the trapezoid weights of that interval (half weight
    at both endpoints). Rows are independent; each must be uniquely
    solvable, otherwise the offending x_i is reported.

    The collocation at t = x_i sits on the edge of the triangle, where a
    difference kernel F(x, t) = h(x - t) may jump. There the stored diagonal
    sample (a two-sided average) is the wrong datum twice over: the
    inhomogeneous term wants the limit from x - t -> 0+, and the quadrature
    endpoint F(s, t)|_{s=t=x_i} wants s - t -> 0-. The mirror case is the
    collocation at t = 0, whose endpoint F(s, t)|_{s=t=0} wants s - t -> 0+.
    Callers with a jump pass those limits as edge_plus / edge_minus (n x n
    blocks); every interior crossing of the jump keeps the average, which is
    exactly the composite one-sided trapezoid rule.
    """
    N, n = f_kernel.grid.N, f_kernel.n
    F = f_kernel.values
    Fflat = np.ascontiguousarray(F.transpose(0, 2, 1, 3)).reshape(
        (N + 1) * n, (N + 1) * n
    )
    X = np.zeros_like(F)
    X[0, 0] = -F[0, 0] if edge_plus is None else -edge_plus
    eye = np.eye((N + 1) * n, dtype=np.complex128)
    for i in range(1, N + 1):
        d = (i + 1) * n
        tau = f_kernel.grid.trapezoid(i)
        A = np.repeat(tau, n)[:, None] * Fflat[:d, :d] + eye[:d, :d]
        rhs = Fflat[i * n : (i + 1) * n, :d]
        if edge_minus is not None:
            A[d - n :, d - n :] = eye[:n, :n] + tau[-1] * edge_minus
        if edge_plus is not None:
            A[:n, :n] = eye[:n, :n] + tau[0] * edge_plus
            rhs = rhs.copy()
            rhs[:, d - n :] = edge_plus
        try:
            row = np.linalg.solve(A.T, -rhs.T).T
        except np.linalg.LinAlgError:
            raise SingularSystemError(i / N)
        residual = np.max(np.abs(row @ A + rhs))
        scale = max(1.0, float(np.max(np.abs(row))))
        if not np.isfinite(residual) or residual > 1e-10 * scale:
            raise SingularSystemError(i / N, f"row residual {residual:.3e}")
        X[i, : i + 1] = row.reshape(n, i + 1, n).transpose(1, 0, 2)
    return Kernel2D(n, f_kernel.grid, "lower", X)


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
