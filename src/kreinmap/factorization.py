"""The accelerant test, the Krein solve and triangular factorization.

The central object is the layer-stripping solve for the lower kernel X of

    X(x,t) + F(x,t) + int_0^x X(x,s) F(s,t) ds = 0,   0 <= t <= x <= 1,

discretized row by row with the trapezoid rule on [0, x_i]. The accelerant
test and the Krein solve read the convolution kernel F(x, t) = h(x - t) as
one flat block Toeplitz matrix T (_toeplitz_matrix), and every Krein solve
takes the kernels of h and of its reflection from one nested LU on it
(_krein_rows). The two-sided factorization of I + F is built on the same
solve, and also works with the weighted operator matrices of quadops
(op_from_kernel, invert_identity_plus).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FieldFormatError, NotAccelerantError, SingularSystemError
from .fields import Accelerant, GridSpec, Kernel2D
from .quadops import (
    _block_spectral_norms,
    _flatten,
    _real_if_exact,
    _unflatten,
    invert_identity_plus,
    mixed_norm,
    nystrom_weights,
    op_from_kernel,
)

__all__ = [
    "AccelerantTest",
    "is_accelerant",
    "solve_glm",
    "solve_krein",
    "factorize",
]


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
    1e-8 times the largest. This always runs the full sweep (_sweep), on a
    T of its own; the gate of theta, CLI theta, krein_solution and CLI
    verify (_gated_krein_rows) runs the same sweep on its own T, and only
    for an input that neither of its certificates (the Schur norm bound
    and the numerical range bound) can certify. The restriction to
    [0, alpha] in both variables is unitarily equivalent, via the index
    flip, to the same matrix built from the reflected accelerant, so the
    verdict is reflection-invariant on the grid.

    I + H_alpha at alpha = x_k is A_k = I + T_k W_k, with T_k the leading
    (k+1) r block of the Toeplitz matrix T of _toeplitz_matrix and W_k the
    trapezoid weights of [0, x_k]. When T has small numerical rank p,
    _low_rank_sweep reads sigma_min and sigma_max of every A_k from a
    2p x 2p core, O(N^2 r^2 (k + p^2/r)) in all: a range sketch of T with
    k = 16 columns, doubled while p comes within 8 of k, gives p and
    T ~ P R^H, whose residual E = T - P R^H enters the error bound
    e = step |E|_F + 4 (N+1) r eps (1 + step (s_1 + |E|_F)), s_1 the
    largest singular value of the sketch. No O(N^3 r^3) factorization of
    T runs. Every other truncation (all of them when T is not low-rank)
    takes one dense SVD, O(N^4 r^3) for the whole sweep. A truncation whose
    compressed margin lies within 3e of 1e-8, or within 6e of the smallest
    compressed margin, is decided by the dense SVD too; the smallest is
    final from its core only when it is isolated, more than 3e from 1e-8
    and more than 6e below every other margin. So accepted and worst_alpha
    are those of the dense sweep, and every singular value agrees with it
    to within e.

    Only the nodes alpha = x_k are tested, so an I + H_alpha that is
    singular strictly between two nodes goes unseen.  For the constant
    h = c = -1/(x_20 + step/2) at N = 100, 1 + c alpha vanishes at
    alpha = 0.205, yet the sweep accepts with a minimum margin of 2.4e-2
    (at alpha = 0.21).

    A real accelerant (every imaginary part exactly zero) is swept in real
    arithmetic: T and every I + H_alpha are then real matrices, whose
    singular values are the same, up to round-off, whether the SVDs and
    QRs run in float64 or complex128, and the real factorizations do a
    fraction of the complex ones' floating-point work.  Any nonzero
    imaginary part, however small, keeps the complex path (quadops._real_if_exact).
    """
    return _sweep(h, _toeplitz_matrix(h))


def _sweep(h: Accelerant, t: np.ndarray) -> AccelerantTest:
    """is_accelerant's sweep on t = _toeplitz_matrix(h), which it leaves as it is."""
    N, r = h.grid.N, h.r
    sig_min, sig_max, dense = _low_rank_sweep(t, h.grid, r)
    for k in np.flatnonzero(dense) + 1:
        sig_max[k - 1], sig_min[k - 1] = _truncation_extremes(t, h.grid, r, k)
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


# The low-rank sweep runs only when 2p <= _CORE_FRACTION (N+1) r. With one
# BLAS thread it beat the dense sweep up to 2p / ((N+1) r) of about 0.3 at
# N = 50, 0.5 at N = 100 and 0.6 at N = 200, so a quarter keeps it ahead.
_CORE_FRACTION = 0.25
# The first sketch of T has this many columns; a sketch that finds more
# than all but 8 of its columns above the rank cut is drawn again with
# twice as many.
_SKETCH_COLUMNS = 16


def _low_rank_sweep(t: np.ndarray, grid: GridSpec, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sigma_min and sigma_max of every A_k = I + T_k W_k from a low-rank
    factorization of T, and the mask of truncations is_accelerant must
    still decompose densely.

    _sketched_factor gives T ~ P R^H of rank p, n = (N+1) r, or None, and
    then every truncation is left to the dense SVD: when T times the sketch
    or its projection is not finite, or when 2p > _CORE_FRACTION n. No
    O(n^3) factorization of T runs.

    A_k ~ I + P_k B_k^H with B_k = W_k R_k. The R factor of
    [P_k, B_k] = Q' [R_P, R_B] gives A_k ~ I + Q' R_P R_B^H Q'^H, and for
    (k+1) r > 2p that is C_k = I + R_P R_B^H on range Q' and the identity
    on its complement, so the singular values of A_k are those of C_k and
    1. C_k and its adjoint fix the null spaces of R_B^H and R_P^H, each of
    dimension >= p, so sigma_1(C_k) >= 1 >= sigma_2p(C_k): these are
    sigma_max and sigma_min. Rows of P and R past a truncation are zeroed,
    which leaves R unchanged, so consecutive truncations share one batched
    QR and one batched SVD; each batch holds about one n x n array. The
    truncations with (k+1) r <= 2p take one dense SVD each here, of size
    at most 2p.

    T = P R^H + E, with |E|_F summed over panels of 32 rows of E, and
    |E W_k|_2 <= step |E|_2 <= step |E|_F, so by Weyl's inequality dropping
    E moves every singular value by at most step |E|_F. With the round-off
    of the SVDs and the QR the compressed values lie within
    e = step |E|_F + 4 n eps (1 + step (s_1 + |E|_F)) of the dense ones,
    where s_1 + |E|_F >= sigma_1(T), s_1 being the largest singular value
    of the sketch's factor; the rounding in forming E is of order
    p eps step sigma_1, which the 4 n eps term covers since p <= n/8. A
    poor sketch only widens e. Since both sigma_max are at least 1 - e,
    every margin lies within 3e. A truncation whose margin lies within 3e
    of 1e-8, or within 6e of the smallest compressed margin, is left to the
    dense SVD as well. The smallest compressed margin is final when it lies
    more than 3e from 1e-8 and every other margin of the sweep, the dense
    ones of (k+1) r <= 2p included, lies more than 6e above it: it is then
    the smallest margin of the dense sweep too, on the same side of 1e-8.

    A T that is exactly zero (h = 0) makes every A_k exactly I, so every
    sigma is 1 and no SVD runs.
    """
    N, n, step = grid.N, t.shape[0], grid.step
    if not t.any():
        return np.ones(N), np.ones(N), np.zeros(N, dtype=bool)
    sig_min, sig_max = np.empty(N), np.empty(N)
    dense = np.ones(N, dtype=bool)
    with np.errstate(all="ignore"):
        factor = _sketched_factor(t)
        if factor is None:
            return sig_min, sig_max, dense
        pr, s_1 = factor
        p = pr.shape[1] // 2
        rh = pr[:, p:].conj().T
        panels = (t[lo : lo + 32] - pr[lo : lo + 32, :p] @ rh for lo in range(0, n, 32))
        residual = np.sqrt(sum(np.vdot(e, e).real for e in panels))  # |E|_F
        err = step * residual + 4 * n * np.finfo(float).eps * (1.0 + step * (s_1 + residual))
        ks = np.arange(max(1, 2 * p // r), N + 1)  # (k+1) r > 2p
        for k in range(1, ks[0]):
            sig_max[k - 1], sig_min[k - 1] = _truncation_extremes(t, grid, r, k)
        for chunk in np.array_split(ks, -(-2 * p * len(ks) // n)):
            rows = (chunk[-1] + 1) * r
            node, last = np.arange(rows) // r, chunk[:, None]
            ends = (node == 0) | (node == last)
            w = np.where(node <= last, np.where(ends, 0.5 * step, step), 0.0)
            stack = pr[None, :rows] * (w > 0)[:, :, None]
            stack[:, :, p:] *= w[:, :, None]
            rf = np.linalg.qr(stack, mode="r")
            core = rf[:, :, :p] @ rf[:, :, p:].conj().transpose(0, 2, 1)
            core += np.eye(2 * p)
            sigma = np.linalg.svd(core, compute_uv=False)
            sig_max[chunk - 1] = sigma[:, 0]
            sig_min[chunk - 1] = sigma[:, -1]
        dense[: ks[0] - 1] = False
        dense[ks - 1] = ~_decided_by_core(sig_min / sig_max, ks - 1, err)
    return sig_min, sig_max, dense


@np.errstate(all="ignore")
def _sketched_factor(t: np.ndarray) -> tuple[np.ndarray, float] | None:
    """([P, R], s_1) with T ~ P R^H of rank p from a range sketch, or None
    when the sweep must decompose every truncation densely.

    The adaptive range finder of N. Halko, P.-G. Martinsson and J. A. Tropp
    (SIAM Review 53, 2011, Alg. 4.2), with Omega the fixed n x k sign
    matrix of _sign_matrix, k = _SKETCH_COLUMNS at first (at most n): Q is
    the QR of Y = T Omega, and the SVD of the k x n matrix Q^H T,
    U Sigma V^H, has the singular values s_1 >= s_2 >= ... The rank p is
    the sketch's own cut #{s_i > n eps s_1}, numpy's matrix_rank cut, at
    least 1. None when 2p > _CORE_FRACTION n; while p > k - 8 and k < n, k
    doubles and the sketch is drawn again. Truncated to rank p,
    P = Q U_p Sigma_p and R = V_p, O(n^2 k) in all. None as well when Y or
    Q^H T is not finite, which is tested before any QR or SVD sees them,
    with numpy's floating-point warnings off.
    """
    n = t.shape[0]
    eps = np.finfo(float).eps
    k = min(_SKETCH_COLUMNS, n)
    while True:
        y = t @ _sign_matrix(n, k)
        if not np.isfinite(y).all():
            return None
        q = np.linalg.qr(y)[0]
        projected = q.conj().T @ t
        if not np.isfinite(projected).all():
            return None
        u, s, vh = np.linalg.svd(projected, full_matrices=False)
        p = max(1, int(np.count_nonzero(s > n * eps * s[0])))
        if 2 * p > _CORE_FRACTION * n:
            return None
        if p <= k - 8 or k == n:
            break
        k = min(2 * k, n)
    return np.concatenate((q @ (u[:, :p] * s[:p]), vh[:p].conj().T), axis=1), float(s[0])


def _decided_by_core(margins: np.ndarray, core: np.ndarray, err: float) -> np.ndarray:
    """Which of the compressed margins[core], each within 3 err of its
    dense value, are final: those more than 3 err from 1e-8 and more than
    6 err above the smallest of them, and that smallest one when every
    other entry of margins lies more than 6 err above it. A NaN compares
    False and is never final."""
    compressed = margins[core]
    low = compressed.min()
    final = (np.abs(compressed - 1e-8) > 3 * err) & (compressed > low + 6 * err)
    j = int(np.argmin(compressed))
    others = np.delete(margins, core[j])
    final[j] = abs(low - 1e-8) > 3 * err and bool(np.all(others > low + 6 * err))
    return final


def _sign_matrix(n: int, k: int) -> np.ndarray:
    """The fixed n x k test matrix of _low_rank_sweep's sketch: +1 or -1 by
    the top bit of SplitMix64's output for the states 1 .. n k, in numpy's
    uint64 arithmetic, which wraps without a warning. It draws nothing
    from numpy.random, whose import would cost every process about 13 ms."""
    z = np.arange(1, n * k + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return np.where(z < np.uint64(1 << 63), 1.0, -1.0).reshape(n, k)


def _truncation_extremes(t: np.ndarray, grid: GridSpec, r: int, k: int) -> tuple[float, float]:
    """(sigma_max, sigma_min) of A_k = I + T_k W_k by one dense values-only
    SVD of size (k+1) r."""
    dim = (k + 1) * r
    a = t[:dim, :dim] * np.repeat(grid.trapezoid(k), r)
    a += np.eye(dim)
    sigma = np.linalg.svd(a, compute_uv=False)
    return sigma[0], sigma[-1]


def _toeplitz_matrix(h: Accelerant, grid: GridSpec | None = None) -> np.ndarray:
    """T = [h(x_i - x_j)] over all N + 1 nodes of grid, h's own by default
    or its 2N refinement, as one ((N+1) r)^2 matrix, node-major: one copy
    of a sliding-window view of the samples that grid reads. Any other grid
    raises FieldFormatError. I + H_alpha is I + T_k W_k with T_k its
    leading (k+1) r block and W_k the trapezoid weights of [0, x_k], and
    the Krein rows solve on it (_krein_rows). Real (float64) when every
    sample it reads has imaginary part exactly zero (quadops._real_if_exact)."""
    grid = h.grid if grid is None else grid
    stride = {h.grid.N: 2, 2 * h.grid.N: 1}.get(grid.N)
    if stride is None:
        raise FieldFormatError(
            f"convolution grid {grid.N} is neither the accelerant grid "
            f"{h.grid.N} nor its refinement"
        )
    # the reversed samples read h(1 - k step), so windows[p, :, :, j] is
    # h(1 - (p + j) step) and row i = p reversed is h(x_i - x_j)
    windows = sliding_window_view(h.values[::stride][::-1], grid.N + 1, axis=0)
    return _flatten(_real_if_exact(windows[::-1].transpose(0, 3, 1, 2))[0])


# The smallest margin a certificate must prove before the sweep is skipped.
# It sits two orders above the sweep's own 1e-8, so no round-off in a bound
# can carry an input that the sweep rejects.
_CERTIFY_FLOOR = 1e-6
_LEAK_TOL = 5e-8  # the strict-lower leakage factorize lets pass as round-off


def _norm_bound(h: Accelerant) -> float:
    """rho >= |H_alpha|_2 for every alpha at once, in O(N r^3); inf or nan
    when the block norms overflow.

    I + H_alpha is the leading block of I + T D with T the block Toeplitz
    matrix [h(x_i - x_j)] over all N + 1 nodes and D the trapezoid weights,
    each at most step. Bounding every block by its spectral norm
    b_d = |h(d/N)|_2 (quadops._block_spectral_norms) and applying the
    Schur test to [b_{i-j}] gives
    |H_alpha|_2 <= rho := step * sqrt(max row sum * max column sum) for
    every alpha at once. The row sums and the column sums of [b_{i-j}]
    are the same N + 1 sliding windows of b_{-N..N}, so rho is step times
    the largest of them, read from one cumsum. The same test gives
    |T|_2 <= rho / step.
    """
    N = h.grid.N
    with np.errstate(over="ignore", invalid="ignore"):
        b = _block_spectral_norms(h.values[::2])  # b_d, d = -N..N
        sums = np.cumsum(np.concatenate(([0.0], b)))
        return h.grid.step * float(np.max(sums[N + 1 :] - sums[: N + 1]))


def _certified_margin(rho: float) -> float | None:
    """The Schur norm bound: a lower bound on every margin of
    is_accelerant's sweep, or None.

    With rho = _norm_bound(h) every sigma_min is at least 1 - rho and
    every sigma_max at most 1 + rho, so every margin is at least
    (1 - rho)/(1 + rho). That bound is returned when it is at least
    _CERTIFY_FLOOR (rho <= 1 - 2e-6, about), so the sweep would accept.
    Otherwise, and when rho overflows to inf or nan, None: the bound
    certifies nothing.
    """
    bound = (1.0 - rho) / (1.0 + rho)
    return bound if bound >= _CERTIFY_FLOOR else None


def _numerical_range_margin(t: np.ndarray, step: float, rho: float) -> float | None:
    """The numerical range bound: a lower bound on every margin of
    is_accelerant's sweep, or None. t is _toeplitz_matrix(h), step that of
    h's grid and rho _norm_bound(h).

    Let lam be the smallest eigenvalue of the Hermitian part (T + T^H)/2,
    one values-only eigvalsh of size (N+1) r, O(N^3 r^3). With W_k the
    trapezoid weights of [0, x_k], A_k = I + T_k W_k and
    M_k = W_k^(1/2) A_k W_k^(-1/2) = I + W_k^(1/2) T_k W_k^(1/2):

    - Re <M_k x, x> >= (1 + step min(0, lam)) |x|^2, since the Hermitian
      part of T_k is a principal block of that of T, whose eigenvalues
      interlace, and every weight is at most step (Kato's field-of-values
      bound);
    - sigma_min(A_k) >= sigma_min(M_k) / sqrt(2), since
      min w / max w >= 1/2;
    - sigma_max(A_k) <= 1 + rho.

    So every margin is at least (1 + step min(0, lam - slack)) /
    (sqrt(2) (1 + rho)), where slack = 4 (N+1) r eps rho / step covers the
    backward error of eigvalsh on |T|_2 <= rho / step. The bound is
    returned when it is at least _CERTIFY_FLOOR. It certifies an accretive
    I + H_alpha: h of positive type (the Fourier transform of a positive
    measure, such as any constant c > 0), whose Hermitian part is positive
    semi-definite, and inputs not far from one. None, before any eigvalsh,
    when rho alone rules the floor out, which includes rho inf or nan.

    t is left as it is. Besides it, at most two ((N+1) r)^2 arrays are
    live here: its conjugate (complex h only) and T + T^H, whose lowest
    eigenvalue is 2 lam; eigvalsh then works on one copy of the sum.
    """
    denominator = np.sqrt(2.0) * (1.0 + rho)
    if not 1.0 / denominator >= _CERTIFY_FLOOR:
        return None
    t = t + t.conj().T
    lam = 0.5 * float(np.linalg.eigvalsh(t)[0])
    slack = 4.0 * t.shape[0] * np.finfo(float).eps * rho / step
    bound = (1.0 + step * min(0.0, lam - slack)) / denominator
    return bound if bound >= _CERTIFY_FLOOR else None


def _gated_krein_rows(h: Accelerant) -> tuple[float, str | None, np.ndarray, np.ndarray | None]:
    """(margin, certificate, X, Z): the accept-or-sweep gate shared by
    theta, CLI theta, krein_solution and CLI verify on an accelerant, then
    _krein_rows on h's own grid, both on the one T of _toeplitz_matrix.

    Two certificates are tried in turn, both on rho = _norm_bound(h),
    computed once from the samples: the Schur norm bound of
    _certified_margin, O(N r^3), and, when it fails, the numerical range
    bound of _numerical_range_margin on T, one O(N^3 r^3) eigvalsh. An
    input either certifies is accepted without a sweep; margin is that
    lower bound and certificate names it ("Schur norm bound" or "numerical
    range bound"). Any other input runs is_accelerant's sweep on the same
    T (_sweep), in O(N^2 r^2 (k + p^2/r)) from a range sketch of k >= 16
    columns when T has a small numerical rank p, and in O(N^4 r^3)
    otherwise, below the Krein solve's peak memory, so one T serves the
    gate, the sweep and the rows. margin is then the sweep's minimum, with
    certificate None, and a rejection raises NotAccelerantError from the
    sweep's worst truncation, so every rejection comes from the sweep.
    """
    t = _toeplitz_matrix(h)
    rho = _norm_bound(h)
    margin, certificate = _certified_margin(rho), "Schur norm bound"
    if margin is None:
        margin, certificate = _numerical_range_margin(t, h.grid.step, rho), "numerical range bound"
    if margin is None:
        test = _sweep(h, t)
        if not test.accepted:
            raise NotAccelerantError(test.worst_alpha, float(test.margins.min()))
        margin, certificate = float(test.margins.min()), None
    return margin, certificate, *_krein_rows(h, t, h.grid)


def solve_glm(f_kernel: Kernel2D) -> Kernel2D:
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
    solve_glm reads the stored diagonal for both; the Krein solve
    (_krein_rows) hands _nested_solve those limits of h as edge_plus and
    edge_minus (n x n blocks). Every interior crossing of the jump keeps
    the average, which is exactly the composite one-sided trapezoid rule.

    The rows are nested. Let S = I + D F with the full weight at every node
    but x_0, which keeps the half weight, and edge_plus in its first
    diagonal block. Then A_i is the leading (i+1)-block of S changed in its
    last block row only: A_i = S_i + E_i W_i, with E_i selecting that row
    and W_i = -(step/2) b_i + delta_i e_i, where
    delta_i = (step/2)(edge_minus + edge_plus) - step F[i, i] puts the half
    weight and edge_minus at the moving endpoint. So one LU of S without
    pivoting, S = L U, serves every row:

    - y_i = b_i S_i^-1 needs no product with a whole factor: off its
      diagonal block it is an n x n matrix times the block row L^-1[i, :],
      read off the last block row of S_i^-1 = U_i^-1 L_i^-1, and Y_ii is
      a batched product of the block rows of B with the block columns of
      U^-1 (_last_block_rows). Row 0 has its diagonal block only;
    - Z_i = W_i S_i^-1 = -(step/2) y_i + delta_i (U^-1)_ii L^-1[i, :];
    - an n x n Woodbury step finishes the row:
      x_i = -y_i + (y_i E_i)(I + Z_i E_i)^-1 Z_i, again an n x n matrix
      times L^-1[i, :] off the diagonal block.

    L^-1 and U^-1 come from one recursive pass that, like the rest, does
    its work in matrix products; it is the only O(N^3 n^3) step besides
    the residual check, against O(N^4 n^3) for N separate solves, and the
    rows cost O(N^2 n^3).

    The solve itself, _nested_solve, takes F flattened to the matrix
    [(x, a), (t, b)], as is_accelerant's T is: S is a scaled copy of it,
    B is read off it in panels of block rows and every dense row's A_i is
    a slice; solve_glm flattens its kernel once. The same factors solve
    z_i A_i = -c_i for the leading blocks c_i = c[:, :(i+1) n] of any one
    n x (N+1) n row c:
    y'_i = c_i S_i^-1 is (c U^-1)[:, :(i+1) n] L_i^-1, one row times U^-1
    and then a running sum over the block rows of L^-1, O(N^2 n^3), and
    the Woodbury step reuses Z_ii and G_i = delta_i (U^-1)_ii. This is how
    the Krein equation of h(-x) comes for free (_krein_pair): with Pi
    reversing the block order of [0, x_i], the matrix of the reflected
    problem is Pi A_i Pi, since a difference kernel is block Toeplitz, the
    trapezoid weights are flip-symmetric and reflection swaps the two
    one-sided edges, and its right-hand side is c_i Pi, with c the first
    block row of F (the first n rows of the flat matrix) and edge_minus in
    block 0. The reflected row i is then z_i Pi.

    The sweep certifies the A_i, not the S_i, and an LU without pivoting
    is only as good as the leading blocks of S. So every row's residual
    x_i A_i + b_i is computed in full, from F in panels of rows, and any
    row above 1e-10 times max(1, max|x_i|), or not finite, is solved
    again by one dense solve of A_i. Only a row that fails that
    dense solve too raises SingularSystemError. The LU runs with numpy's
    floating-point warnings off: a zero or tiny pivot shows up as flagged
    rows, not as a warning.

    When F and both edges are real (quadops._real_if_exact), as the Krein
    kernels of a real accelerant are, the nested LU, the Woodbury step and
    the residual run in float64, and the rows stay float64 unless a dense
    fallback row is written into them.
    """
    x, _ = _nested_solve(_flatten(f_kernel.values), f_kernel.grid, None, None)
    return Kernel2D(f_kernel.n, f_kernel.grid, "lower", x)


def _nested_solve(
    f: np.ndarray, grid: GridSpec, edge_plus: np.ndarray | None, edge_minus: np.ndarray | None,
    c: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """solve_glm's blocks X for the kernel F on grid, flattened to the
    ((N+1) n)^2 matrix f, and, for an n x (N+1) n row c, the blocks Z
    whose row i solves z_i A_i = -c[:, :(i+1) n] (None without c), both
    from one nested LU as solve_glm describes, as (N+1, N+1, n, n) views.
    Z[0, 0] = -c[:, :n], as X[0, 0] = -edge_plus. An edge left None is
    F[k, k] at every node. Each row of either family passes the same
    residual check and has the same dense fallback; the float64 path is
    taken when f, both edges and c are all real. f is left as it is, and
    three more ((N+1) n)^2 arrays are live at a time: S, which the LU
    turns into U^-1, and L^-1; once U^-1 is freed, Z, whose buffer first
    holds the y'_i, and X, written over L^-1. The rest works on panels of
    max(48, 8192 / ((N+1) n)) rows."""
    m, step, dim = grid.N + 1, grid.step, f.shape[0]
    n = dim // m
    nodes = np.arange(m)
    f_diag = _unflatten(f, n)[nodes, nodes]
    plus = f_diag if edge_plus is None else np.broadcast_to(edge_plus, f_diag.shape)
    minus = f_diag if edge_minus is None else np.broadcast_to(edge_minus, f_diag.shape)
    if c is None:
        f, f_diag, plus, minus = _real_if_exact(f, f_diag, plus, minus)
    else:
        f, f_diag, plus, minus, c = _real_if_exact(f, f_diag, plus, minus, c)
    delta, jump = 0.5 * step * (minus + plus) - step * f_diag, plus - f_diag
    panel = max(48, 8192 // dim) // n or 1  # block rows: 48 rows, or 8192 entries

    eye = np.eye(n)
    with np.errstate(all="ignore"):
        u_inv = _shared_matrix(f, plus, step)
        l_inv = _lu_inverses(u_inv)  # u_inv holds U^-1 from here on
        l_inv_diag = _unflatten(l_inv, n)[nodes, nodes]
        y_coef, y_diag = _last_block_rows(f, plus, jump, u_inv, l_inv_diag, step, panel)
        u_inv_diag = _unflatten(u_inv, n)[nodes, nodes]
        c_u = None if c is None else c @ u_inv
        del u_inv
        # Woodbury: x_i = -(I + (step/2) C_i) y_i + C_i G_i L^-1[i, :]
        # with G_i = delta_i (U^-1)_ii and C_i = Y_ii (I + Z_ii)^-1
        g = delta @ u_inv_diag
        z_diag = -0.5 * step * y_diag + g @ l_inv_diag
        rows = l_inv.reshape(m, n, dim)
        families = []  # (rows, right-hand side row), None for the rows of B
        if c is not None:  # before X, which overwrites L^-1
            # z_i = -y'_i - (step/2) C'_i y_i + C'_i G_i L^-1[i, :] with
            # C'_i = Y'_ii (I + Z_ii)^-1; y'_i sums the block rows l <= i of
            # L^-1, each times block l of c U^-1, in the buffer of Z
            z = np.matmul(c_u.reshape(n, m, n).transpose(1, 0, 2), rows)
            np.cumsum(z, axis=0, out=z)
            coef = _right_divide(_unflatten(z.reshape(dim, dim), n)[nodes, nodes], eye + z_diag)
            _row_combination(-0.5 * step * coef, coef @ g, y_coef, y_diag, l_inv_diag, rows, panel, z)
            families.append((z.reshape(dim, dim), c))
        coef = _right_divide(y_diag, eye + z_diag)
        _row_combination(-(eye + 0.5 * step * coef), coef @ g, y_coef, y_diag, l_inv_diag, rows, panel)
        families.insert(0, (l_inv, None))

        # residual x_i A_i + b'_i (b'_i = b_i or c_i) on panels of rows, zero right of column hi:
        # x_i A_i = x_i + (x_i w_i) T[:hi, :hi] + ends_i in block i + first_i in block 0, w_i
        # the trapezoid weights of [0, x_i], and b_i = T[i, :hi] + (plus_i - F_ii) in block i
        block_of = np.arange(dim) // n
        weights = np.where(block_of == 0, 0.5 * step, step)
        half_minus, corner = 0.5 * step * (minus - f_diag), 0.5 * step * (plus[0] - f_diag[0])
        for j, (solved, rhs_row) in enumerate(families):
            ends = _unflatten(solved, n)[nodes, nodes] @ half_minus + (jump if rhs_row is None else 0.0)
            families[j] = (solved, rhs_row, ends, solved[:, :n] @ corner, np.empty((2, m)))
        for i0 in range(0, m, panel):
            i1 = min(i0 + panel, m)
            lo, hi, k = i0 * n, i1 * n, np.arange(i0, i1)
            w = np.where(block_of[lo:hi, None] == block_of[:hi], 0.5 * step, weights[:hi])  # half at x_i
            right = block_of[lo:hi, None] < block_of[:hi]
            for solved, rhs_row, ends, first, worst in families:
                x = solved[lo:hi, :hi]
                residual = (x * w) @ f[:hi, :hi]
                residual[:, :n] += first[lo:hi]
                residual += x
                if rhs_row is None:
                    residual += f[lo:hi, :hi]
                else:
                    residual.reshape(i1 - i0, n, hi)[...] += rhs_row[:, :hi]
                residual.reshape(i1 - i0, n, i1, n)[k - i0, :, k] += ends[i0:i1]
                residual[right] = 0.0
                worst[0, i0:i1] = np.abs(residual, out=residual).real.reshape(i1 - i0, -1).max(axis=1)
                del residual  # in place above: no second array of its size
                worst[1, i0:i1] = np.abs(x).reshape(i1 - i0, -1).max(axis=1)

    blocks, upper = [], block_of[:, None] < block_of
    for solved, rhs_row, *_, (worst, scale) in families:
        flags = ~(worst <= 1e-10 * np.maximum(1.0, scale))  # a NaN compares False and is flagged
        solved[upper] = 0.0
        X = _unflatten(solved, n)
        if flags[1:].any():  # the dense rows are complex
            X = X.astype(np.complex128)
        X[0, 0] = -plus[0] if rhs_row is None else -rhs_row[:, :n]
        for i in np.flatnonzero(flags[1:]) + 1:
            X[i, : i + 1] = _dense_row(f, grid, i, plus, minus, rhs_row)
        blocks.append(X)
    return blocks[0], (blocks[1] if c is not None else None)


def _last_block_rows(
    f: np.ndarray, plus: np.ndarray, jump: np.ndarray, u_inv: np.ndarray, l_inv_diag: np.ndarray,
    step: float, panel: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(M, Y_diag): every y_i = b_i S_i^-1 is M_i L^-1[i, :] off its
    diagonal block and Y_ii on it, for S = L U and jump_i = plus_i - F_ii.

    R_i = (U^-1)_ii L^-1[i, :] is the last block row of S_i^-1, and block
    row i >= 1 of S_i is e_i + step F[i, :i+1], so
    y_i = (e_i - R_i)/step + jump_i R_i and M_i = (jump_i - I/step) (U^-1)_ii.
    On the diagonal block e_i - R_i cancels (it lost 1.3e-12 and 3.8e-12
    relative on a Gaussian and a random accelerant at N = 400), so
    Y_ii = (sum_k b_ik (U^-1)_ki) (L^-1)_ii comes from batched products of
    panels of block rows of B (_rhs_panel) with block columns of U^-1. Row
    0 has no block off its diagonal, where S's half weight would change M_0."""
    n = plus.shape[-1]
    m = f.shape[0] // n
    columns = u_inv.reshape(-1, m, n).transpose(1, 0, 2)  # block column i of U^-1
    y_diag = [
        (_rhs_panel(f, plus, i, min(i + panel, m)) @ columns[i : i + panel]) @ l_inv_diag[i : i + panel]
        for i in range(0, m, panel)
    ]
    y_coef = (jump - np.eye(n) / step) @ _unflatten(u_inv, n)[np.arange(m), np.arange(m)]
    return y_coef, np.concatenate(y_diag)


def _rhs_panel(f: np.ndarray, plus: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """Block rows i0 .. i1 - 1 of B, b_i = F[i, :i+1] with plus[i] as its
    diagonal block, as (i1 - i0, n, (N+1) n): a copy of those rows of F.
    Right of b_i it keeps F, which meets only zeros of U^-1."""
    n = plus.shape[-1]
    b = f[i0 * n : i1 * n].reshape(i1 - i0, n, -1, n).copy()
    b[np.arange(i1 - i0), :, np.arange(i0, i1)] = plus[i0:i1]
    return b.reshape(i1 - i0, n, -1)


def _row_combination(
    left: np.ndarray, right: np.ndarray, y_coef: np.ndarray, y_diag: np.ndarray, l_inv_diag: np.ndarray,
    rows: np.ndarray, panel: int, less: np.ndarray | None = None,
) -> None:
    """left_i y_i + right_i L^-1[i, :] for every row i, y from
    _last_block_rows and rows the block rows of L^-1, (N+1, n, (N+1) n),
    written over rows (row i read for row i alone), or, given less, minus
    less over less: per panel, one batched product of n x n matrices with
    block rows of L^-1, the diagonal blocks then set from Y_ii."""
    m, n, _ = rows.shape
    coef, diagonal = left @ y_coef + right, left @ y_diag + right @ l_inv_diag
    out = rows if less is None else less
    for i0 in range(0, m, panel):
        i1, k = min(i0 + panel, m), np.arange(min(panel, m - i0))
        part = coef[i0:i1] @ rows[i0:i1]
        part.reshape(i1 - i0, n, m, n)[k, :, i0 + k] = diagonal[i0:i1]
        out[i0:i1] = part if less is None else np.subtract(part, less[i0:i1], out=part)


def _right_divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i b_i^-1 for stacks of n x n blocks; all NaN when some b_i is
    exactly singular."""
    try:
        return np.swapaxes(np.linalg.solve(np.swapaxes(b, 1, 2), np.swapaxes(a, 1, 2)), 1, 2)
    except np.linalg.LinAlgError:
        return np.full_like(a, np.nan)


def _shared_matrix(f: np.ndarray, plus: np.ndarray, step: float) -> np.ndarray:
    """S = I + D F from the flat F, a scaled copy with the full weight at
    every node but x_0, which keeps the half weight, and plus[0] in block
    (0, 0)."""
    n = plus.shape[-1]
    s = step * f
    s[:n, :n] = step * plus[0]
    s[:n] *= 0.5
    s.flat[:: s.shape[0] + 1] += 1.0
    return s


def _dense_row(
    f: np.ndarray, grid: GridSpec, i: int, plus: np.ndarray, minus: np.ndarray, c: np.ndarray | None = None
) -> np.ndarray:
    """Blocks X[i, :i+1] of solve_glm's row i >= 1 for the flat F on grid
    by one dense solve of A_i, whose weighted block is the leading
    (i+1) n block of f: _nested_solve's fallback for rows the nested LU
    leaves inaccurate, and the reference it is tested against. plus and
    minus hold the edges per node as _nested_solve forms them: the Krein
    edges of _krein_rows, or the diagonal block F[k, k] for solve_glm.
    Given a row c, the right-hand side is c[:, :(i+1) n] in place of b_i,
    as for _nested_solve's second family. Raises SingularSystemError when
    the row residual exceeds 1e-10 times max(1, max|row|)."""
    n = plus.shape[-1]
    d = (i + 1) * n
    tau = grid.trapezoid(i)
    eye = np.eye(d, dtype=np.complex128)
    A = np.repeat(tau, n)[:, None] * f[:d, :d] + eye
    A[:n, :n] = eye[:n, :n] + tau[0] * plus[0]
    A[d - n :, d - n :] = eye[:n, :n] + tau[-1] * minus[i]
    if c is None:
        rhs = f[d - n : d, :d].copy()
        rhs[:, d - n :] = plus[i]
    else:
        rhs = c[:, :d]
    try:
        row = np.linalg.solve(A.T, -rhs.T).T
    except np.linalg.LinAlgError:
        raise SingularSystemError(i / grid.N)
    residual = np.max(np.abs(row @ A + rhs))
    scale = max(1.0, float(np.max(np.abs(row))))
    if not np.isfinite(residual) or residual > 1e-10 * scale:
        raise SingularSystemError(i / grid.N, f"row residual {residual:.3e}")
    return row.reshape(n, i + 1, n).transpose(1, 0, 2)


def _lu_inverses(a: np.ndarray) -> np.ndarray:
    """The inverse factors of a = L U, the LU factorization without
    pivoting (L unit lower, U upper): U^-1 overwrites a, zero below its
    diagonal, and L^-1 is returned, zero above it.

    Recursive halving puts the work into matrix products. With
    a = [[A11, A12], [A21, A22]] and the inverse factors of A11 in hand,
    U12 = L11^-1 A12 and L21 = A21 U11^-1; the Schur complement
    A22 - L21 U12 gives those of the trailing block; then
    (L^-1)_21 = -L22^-1 L21 L11^-1 and (U^-1)_12 = -U11^-1 U12 U22^-1.
    The two factors live in two arrays, so no block is masked but the
    leaves of at most 32 rows, which eliminate by rank-1 updates and
    invert their two triangles. A zero pivot spoils only its own leaf and
    what follows: the inverse factors of the leading blocks before that
    leaf are unaffected. No array of a's size but L^-1 is allocated.
    """
    l_inv = np.empty_like(a)
    with np.errstate():  # restores numpy's buffer size on the way out
        np.setbufsize(1024)  # for the strided block updates, 8192 items by default
        _lu_halves(a, l_inv)
    return l_inv


def _lu_halves(a: np.ndarray, l_inv: np.ndarray) -> None:
    """_lu_inverses' recursion: U^-1 into a, L^-1 into l_inv. U12, L21 and
    the Schur product sit in blocks written later or cleared, products are
    written with out=, and (-P) C is -(P C) to the bit."""
    m = a.shape[0]
    if m <= 32:
        for k in range(m - 1):
            a[k + 1 :, k] /= a[k, k]
            a[k + 1 :, k + 1 :] -= a[k + 1 :, k, None] * a[k, k + 1 :]
        lower, eye = np.tri(m, k=-1, dtype=bool), np.eye(m)  # np.tril and np.triu, one mask
        try:  # both triangles in one batched inverse
            l_i, u_i = np.linalg.inv(np.stack((np.where(lower, a, 0.0) + eye, np.where(lower, 0.0, a))))
            l_inv[...] = np.where(lower, l_i, 0.0) + eye
            a[...] = np.where(lower, 0.0, u_i)
        except np.linalg.LinAlgError:  # an exactly zero pivot
            l_inv[...] = a[...] = np.nan
        return
    h = m // 2
    _lu_halves(a[:h, :h], l_inv[:h, :h])
    u12, l21, spare = l_inv[:h, h:], l_inv[h:, :h], a[h:, :h]
    np.matmul(l_inv[:h, :h], a[:h, h:], out=u12)
    np.matmul(spare, a[:h, :h], out=l21)  # A21 is free from here on
    a[h:, h:] -= np.matmul(l21, u12, out=l_inv[h:, h:])
    _lu_halves(a[h:, h:], l_inv[h:, h:])
    np.negative(np.matmul(l_inv[h:, h:], l21, out=spare), out=spare)
    np.matmul(spare, l_inv[:h, :h], out=l21)  # (L^-1)_21 over L21
    np.negative(np.matmul(a[:h, :h], u12, out=a[:h, h:]), out=a[:h, h:])
    np.matmul(a[:h, h:], a[h:, h:], out=u12)
    a[:h, h:] = u12  # (U^-1)_12
    u12[...] = spare[...] = 0.0


def solve_krein(h: Accelerant) -> Kernel2D:
    """Lower kernel r_h of the Krein equation driven by h(x - t), the
    direct kernel of _krein_pair on h's own grid."""
    return Kernel2D(h.r, h.grid, "lower", _krein_pair(h)[0])


def _krein_pair(h: Accelerant, grid: GridSpec | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of the Krein kernels of h and of reflect(h) on grid, from
    one nested LU on _toeplitz_matrix(h, grid) (_krein_rows).

    grid is h's own by default, which solve_krein and block_krein_kernel
    read, or its 2N refinement, which folded_lower_factor reads.
    """
    grid = h.grid if grid is None else grid
    return _krein_kernels(*_krein_rows(h, _toeplitz_matrix(h, grid), grid))


def _krein_kernels(x: np.ndarray, z: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The direct and reflected Krein kernel blocks from the rows X, Z of
    _krein_rows: row k of the reflected kernel is the block reversal of
    z_k. An exactly even h (Z None) has one kernel, returned twice."""
    if z is None:
        return x, x
    k, t = np.indices(x.shape[:2])
    reflected = z[k, k - t].astype(np.complex128, copy=False)  # z_k reversed; t > k wraps
    reflected[t > k] = 0.0
    return x, reflected


def _krein_rows(h: Accelerant, t: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, np.ndarray | None]:
    """The blocks X of the Krein kernel of h on grid and the blocks Z whose
    row k, block-reversed, is row k of that of reflect(h), from one nested
    LU on t = _toeplitz_matrix(h, grid); Z is None for an h whose samples
    equal their reversal bit for bit, which is its own reflection. Every
    Krein solve of the package runs here.

    Accelerants in the image of the inverse map generically jump at 0, so
    the edge collocation (solve_glm) is fed one-sided values h(0+), h(0-)
    recovered by quadratic extrapolation from the three nearest samples on
    each side, read off t as F[k, 0] = h(x_k) and F[0, k] = h(-x_k). For h
    smooth through 0 the extrapolations coincide with the stored sample to
    cubic order (exactly, for constant h) and the plain solve is recovered.

    Row k of Z solves z_k A_k = -c_k, with A_k the direct row matrix and
    c_k the first block row of F on [0, x_k] with h(0-) in block 0
    (solve_glm gives the flip identity); _nested_solve reads it off the
    direct solve's factors, and X is the same to the byte with or without
    it. So the t = 0 columns that theta reads (forward_map._potential) are
    X[:, 0] and the diagonal blocks Z[k, k].
    """
    n = h.r
    F = _unflatten(t, n)
    plus = 3.0 * F[1, 0] - 3.0 * F[2, 0] + F[3, 0]
    minus = 3.0 * F[0, 1] - 3.0 * F[0, 2] + F[0, 3]
    c = None
    if h.values.tobytes() != h.values[::-1].tobytes():
        c = t[:n].copy()
        c[:, :n] = minus
    return _nested_solve(t, grid, plus, minus, c)


def factorize(f_kernel: Kernel2D):
    """Split I + F into inverse triangular factors.

    Returns (l_plus, l_minus) with l_plus lower and l_minus upper such that
    at the matrix level (I + L+)^-1 (I + L-)^-1 = I + F. The product
    (I + L+)(I + F) - I must come out upper triangular up to solver
    round-off; a strict-lower leakage above 5e-8 in the mixed norm raises
    SingularSystemError before masking.
    """
    grid, n = f_kernel.grid, f_kernel.n
    l_plus = solve_glm(f_kernel)
    m_plus = op_from_kernel(l_plus)
    m_f = op_from_kernel(f_kernel)
    u = m_plus + m_f + m_plus @ m_f

    m = grid.N + 1
    ublocks = _unflatten(u, n)
    i, j = np.indices((m, m))
    leak_vals = np.where((j < i)[:, :, None, None], ublocks, 0.0)
    leak_kernel = Kernel2D(
        n, grid, "full", leak_vals / grid.weights[None, :, None, None]
    )
    leakage = mixed_norm(leak_kernel, 1)
    if leakage > _LEAK_TOL:
        raise SingularSystemError(
            1.0, f"factorization leakage {leakage:.3e} exceeds {_LEAK_TOL:.1e}"
        )

    u_upper = _flatten(np.where((j >= i)[:, :, None, None], ublocks, 0.0))
    mb = _unflatten(invert_identity_plus(u_upper), n)
    tw_up = nystrom_weights(grid, "upper")
    vals = np.zeros_like(mb)
    pos = tw_up > 0
    vals[pos] = mb[pos] / tw_up[pos][:, None, None]
    l_minus = Kernel2D(n, grid, "upper", vals)
    return l_plus, l_minus
