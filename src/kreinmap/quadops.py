"""Nystrom-style discretization of integral operators on [0,1].

A kernel K with declared support becomes the block matrix
M[i][j] = w(i,j) K(x_i, x_j), where w is the trapezoid rule matched to the
support: global weights for full kernels, the restricted rule on [0, x_i]
(resp. [x_i, 1]) for lower (resp. upper) kernels. Triangular supports carry
their diagonal with half weight, and the degenerate row (empty interval)
is zero. The matrix is held flattened, block (x, s) at rows (x, a) and
columns (s, b), so that an operator product is one matrix product.  The
same layout makes a block-wise product one matrix product per row or per
column: _row_times multiplies every block of row i on the left by one
n x n matrix, _times_column every block of column j on the right, so no
caller runs one small product per block.

Operators are plain ndarrays, built only where a dense operator is needed
(the factorization and the spectral radius probe). The inverse map's
product kernel runs two unexported array layers from here, adjoint_op and
its cross term compose, one GEMM of the two weighted triangular factors,
so the weight algebra of operator products stays here.
The discrete resolvent (invert_identity_plus) is one dense LU for every
matrix, triangular or not, so numpy is the only library the package needs.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import FieldFormatError, SingularSystemError
from .fields import Accelerant, GridSpec, Kernel2D, Potential

__all__ = [
    "nystrom_weights",
    "op_from_kernel",
    "invert_identity_plus",
    "mixed_norm",
    "field_norm",
]


def nystrom_weights(grid: GridSpec, support: str) -> np.ndarray:
    """(N+1, N+1) quadrature weight matrix for the given support.  The
    upper rule on [x_i, 1] is the lower rule on [0, x_{N-i}] reversed in
    both indices, since the trapezoid weights are symmetric."""
    N = grid.N
    if support == "full":
        return np.broadcast_to(grid.weights, (N + 1, N + 1)).copy()
    if support == "upper":
        return nystrom_weights(grid, "lower")[::-1, ::-1]
    if support != "lower":
        raise FieldFormatError(f"unknown support {support!r}")
    w = np.zeros((N + 1, N + 1))
    for i in range(1, N + 1):
        w[i, : i + 1] = grid.trapezoid(i)
    return w


def _flatten(blocks: np.ndarray) -> np.ndarray:
    """Kernel blocks [x, s, a, b] as the matrix [(x, a), (s, b)], so that a
    sum over s and b is one matrix product."""
    m, _, n, _ = blocks.shape
    return np.ascontiguousarray(blocks.transpose(0, 2, 1, 3).reshape(m * n, m * n))


def _unflatten(flat: np.ndarray, n: int) -> np.ndarray:
    """The inverse of _flatten, as a view."""
    m = flat.shape[0] // n
    return flat.reshape(m, n, m, n).transpose(0, 2, 1, 3)


def _row_times(left: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """left[i] @ blocks[i, j] for every block of blocks [i, j, a, b]: one
    product per row i, of the n x n left[i] with row i laid out as the
    n x (c n) matrix [a, (j, b)].  That layout is free for blocks held
    as [i, a, j, b], as _substitute returns them."""
    m, c, n, _ = blocks.shape
    out = left @ blocks.transpose(0, 2, 1, 3).reshape(m, n, c * n)
    return out.reshape(m, n, c, n).transpose(0, 2, 1, 3)


def _times_column(blocks: np.ndarray, right: np.ndarray) -> np.ndarray:
    """blocks[i, j] @ right[j] for every block of blocks [i, j, a, b]: one
    product per column j, of column j laid out as the (m n) x n matrix
    [(i, a), b] with the n x n right[j]."""
    m, c, n, _ = blocks.shape
    out = blocks.transpose(1, 0, 2, 3).reshape(c, m * n, n) @ right
    return out.reshape(c, m, n, n).transpose(1, 0, 2, 3)


def _real_if_exact(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays' real parts if no entry of any has a nonzero imaginary
    part, else the arrays as given: the exact test for float64 arithmetic."""
    exact = not any(np.iscomplexobj(a) and a.imag.any() for a in arrays)
    return tuple(a.real for a in arrays) if exact else arrays


def op_from_kernel(kernel: Kernel2D) -> np.ndarray:
    """The weighted flattened operator matrix of a kernel (identity excluded)."""
    w = nystrom_weights(kernel.grid, kernel.support)
    return _flatten(w[:, :, None, None] * kernel.values)


def compose(a: np.ndarray, b: np.ndarray, grid: GridSpec) -> np.ndarray:
    """int_0^min(x,t) a(x,s) b(s,t) ds for lower blocks a and upper blocks b.

    One GEMM of the flattened factors: a carries the lower rule on [0, x]
    and b the lower rule on [0, t] divided by the global rule, so that their
    product is the trapezoid rule on [0, min(x,t)] except on the interior
    grid diagonal, where both reads hit their endpoint together and leave a
    quarter-weight deficit that is patched.  Where min(x,t) = 0 the result
    is zero.  Takes and returns (N+1, N+1, n, n) blocks in their own dtype:
    the inverse map passes real blocks for a potential of the real class.
    """
    w = nystrom_weights(grid, "lower")
    left = _flatten(w[:, :, None, None] * a)
    right = _flatten((w.T / grid.weights[:, None])[:, :, None, None] * b)
    out = _unflatten(left @ right, a.shape[2])
    d = np.arange(1, grid.N)
    out[d, d] += 0.25 * grid.step * (a[d, d] @ b[d, d])
    return out


def invert_identity_plus(m: np.ndarray) -> np.ndarray:
    """Gamma with (I + m)(I + Gamma) = I, i.e. the discrete resolvent.

    m is a square operator matrix (see op_from_kernel); anything else raises
    FieldFormatError.  Every matrix goes through one dense LU.  A triangular
    I + m, such as the upper one factorize inverts for scalar kernels, needs
    no branch of its own: each column of an upper-triangular matrix is
    already zero below the diagonal, so partial pivoting swaps no rows and
    the LU is the triangular solve plus an elimination that changes
    nothing.  A numerically singular I + m raises with the smallest singular
    value attached.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise FieldFormatError(f"operator matrix shape {m.shape} is not a square matrix")
    dim = m.shape[0]
    A = np.eye(dim, dtype=np.complex128) + m
    rhs = np.eye(dim, dtype=np.complex128)
    try:
        inv = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        sigma = np.linalg.svd(A, compute_uv=False)
        raise SingularSystemError(float("nan"), f"sigma_min = {sigma[-1]:.3e}")
    residual = np.max(np.abs(A @ inv - rhs))
    if not np.isfinite(residual) or residual > 1e-6:
        sigma = np.linalg.svd(A, compute_uv=False)
        raise SingularSystemError(float("nan"), f"sigma_min = {sigma[-1]:.3e}")
    return inv - rhs


def adjoint_op(blocks: np.ndarray) -> np.ndarray:
    """Blocks of the adjoint kernel K*(x,t) = K(t,x)^H, in their own dtype;
    the adjoint of a lower kernel is upper and vice versa."""
    return np.conj(blocks.transpose(1, 0, 3, 2))


def _block_spectral_norms(blocks: np.ndarray) -> np.ndarray:
    if blocks.shape[-1] == 1:
        return np.abs(blocks[..., 0, 0])
    return np.linalg.norm(blocks, ord=2, axis=(-2, -1))


def _check_order(p) -> None:
    """Refuse an order p that is not a finite real number >= 1: nan passes
    a plain p < 1 test, and p = inf gives 1.0 for every field."""
    if not (isinstance(p, numbers.Real) and np.isfinite(p) and p >= 1):
        raise FieldFormatError(f"order p must be a finite number >= 1, got {p!r}")


def _finite(norm) -> float:
    if not np.isfinite(norm):  # computed under np.errstate, so no warning
        raise FieldFormatError("the norm overflows floating point")
    return float(norm)


@np.errstate(over="ignore", invalid="ignore")
def mixed_norm(kernel: Kernel2D, p: float = 1.0) -> float:
    """max over rows and columns of the discrete L_p norm of the block sizes.

    Row i contributes (sum_j w_j ||K(x_i, x_j)||^p)^(1/p) with the global
    trapezoid weights, columns symmetrically; block sizes are spectral norms.
    A norm that overflows floating point raises FieldFormatError."""
    _check_order(p)
    sizes = _block_spectral_norms(kernel.values)
    w = kernel.grid.weights
    rows = (sizes ** p @ w) ** (1.0 / p)
    cols = (w @ sizes ** p) ** (1.0 / p)
    return _finite(max(rows.max(), cols.max()))


@np.errstate(over="ignore", invalid="ignore")
def field_norm(f, p: float = 1.0) -> float:
    """Discrete L_p norm of an accelerant (on [-1,1]) or potential (on [0,1]);
    a norm that overflows floating point raises FieldFormatError."""
    _check_order(p)
    if isinstance(f, Accelerant):
        w = f.grid.refined().trapezoid(4 * f.grid.N)  # 4N half steps on [-1,1]
        sizes = _block_spectral_norms(f.values)
    elif isinstance(f, Potential):
        w = f.grid.weights
        sizes = _block_spectral_norms(f.full())
    else:
        raise FieldFormatError(f"field_norm does not apply to {type(f).__name__}")
    return _finite((w @ sizes ** p) ** (1.0 / p))
