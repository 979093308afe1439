"""Nystrom-style discretization of integral operators on [0,1].

A kernel K with declared support becomes the block matrix
M[i][j] = w(i,j) K(x_i, x_j), where w is the trapezoid rule matched to the
support: global weights for full kernels, the restricted rule on [0, x_i]
(resp. [x_i, 1]) for lower (resp. upper) kernels. Triangular supports carry
their diagonal with half weight, and the degenerate row (empty interval)
is zero. This is what makes products of triangular operators agree with the
iterated integrals to second order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import FieldFormatError, SingularSystemError
from .fields import Accelerant, GridSpec, Kernel2D, Potential

__all__ = [
    "DiscOp",
    "nystrom_weights",
    "op_from_kernel",
    "compose",
    "invert_identity_plus",
    "adjoint_op",
    "mixed_norm",
    "field_norm",
]


@dataclass(frozen=True)
class DiscOp:
    """Dense matrix realization of an integral operator (identity excluded)."""

    n: int
    grid: GridSpec
    M: np.ndarray

    def __post_init__(self):
        dim = (self.grid.N + 1) * self.n
        M = np.ascontiguousarray(self.M, dtype=np.complex128)
        if M.shape != (dim, dim):
            raise FieldFormatError(f"operator matrix shape {M.shape}, expected {(dim, dim)}")
        object.__setattr__(self, "M", M)

    def blocks(self) -> np.ndarray:
        """View the matrix as (N+1, N+1, n, n)."""
        return _unflatten(self.M, self.n)


def nystrom_weights(grid: GridSpec, support: str) -> np.ndarray:
    """(N+1, N+1) quadrature weight matrix for the given support."""
    N = grid.N
    if support == "full":
        return np.broadcast_to(grid.weights, (N + 1, N + 1)).copy()
    w = np.zeros((N + 1, N + 1))
    if support == "lower":
        for i in range(1, N + 1):
            w[i, : i + 1] = grid.trapezoid(i)
    elif support == "upper":
        for i in range(N):
            w[i, i:] = grid.trapezoid(N - i)
    else:
        raise FieldFormatError(f"unknown support {support!r}")
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


def op_from_kernel(kernel: Kernel2D) -> DiscOp:
    w = nystrom_weights(kernel.grid, kernel.support)
    blocks = w[:, :, None, None] * kernel.values
    return DiscOp(kernel.n, kernel.grid, _flatten(blocks))


def _check_compatible(a: DiscOp, b: DiscOp):
    if a.n != b.n or a.grid.N != b.grid.N:
        raise FieldFormatError("operators live on different grids or block sizes")


def compose(a: DiscOp, b: DiscOp) -> DiscOp:
    _check_compatible(a, b)
    return DiscOp(a.n, a.grid, a.M @ b.M)


def _is_triangular(M: np.ndarray):
    if not np.any(np.triu(M, 1)):
        return "lower"
    if not np.any(np.tril(M, -1)):
        return "upper"
    return None


def invert_identity_plus(op: DiscOp) -> DiscOp:
    """Gamma with (I + M)(I + Gamma) = I, i.e. the discrete resolvent.

    Elementwise-triangular matrices go through a triangular solve; everything
    else through a dense LU. A numerically singular I + M raises with the
    smallest singular value attached.
    """
    dim = op.M.shape[0]
    A = np.eye(dim, dtype=np.complex128) + op.M
    rhs = np.eye(dim, dtype=np.complex128)
    tri = _is_triangular(op.M)
    try:
        if tri is not None:
            inv = scipy.linalg.solve_triangular(A, rhs, lower=(tri == "lower"))
        else:
            inv = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        sigma = np.linalg.svd(A, compute_uv=False)
        raise SingularSystemError(float("nan"), f"sigma_min = {sigma[-1]:.3e}")
    residual = np.max(np.abs(A @ inv - rhs))
    if not np.isfinite(residual) or residual > 1e-6:
        sigma = np.linalg.svd(A, compute_uv=False)
        raise SingularSystemError(float("nan"), f"sigma_min = {sigma[-1]:.3e}")
    return DiscOp(op.n, op.grid, inv - rhs)


def adjoint_op(op: DiscOp) -> DiscOp:
    """Kernel-level adjoint K*(x,t) = K(t,x)^H, realized as W^-1 M^H W."""
    w = np.repeat(op.grid.weights, op.n)
    M_adj = (op.M.conj().T * w[None, :]) / w[:, None]
    return DiscOp(op.n, op.grid, M_adj)


def _block_spectral_norms(blocks: np.ndarray) -> np.ndarray:
    if blocks.shape[-1] == 1:
        return np.abs(blocks[..., 0, 0])
    return np.linalg.norm(blocks, ord=2, axis=(-2, -1))


def mixed_norm(kernel: Kernel2D, p: float = 1.0) -> float:
    """max over rows and columns of the discrete L_p norm of the block sizes.

    Row i contributes (sum_j w_j ||K(x_i, x_j)||^p)^(1/p) with the global
    trapezoid weights, columns symmetrically; block sizes are spectral norms.
    """
    if p < 1:
        raise FieldFormatError(f"order p must be >= 1, got {p}")
    sizes = _block_spectral_norms(kernel.values)
    w = kernel.grid.weights
    rows = (sizes ** p @ w) ** (1.0 / p)
    cols = (w @ sizes ** p) ** (1.0 / p)
    return float(max(rows.max(), cols.max()))


def field_norm(f, p: float = 1.0) -> float:
    """Discrete L_p norm of an accelerant (on [-1,1]) or potential (on [0,1])."""
    if p < 1:
        raise FieldFormatError(f"order p must be >= 1, got {p}")
    if isinstance(f, Accelerant):
        w = f.grid.refined().trapezoid(4 * f.grid.N)  # 4N half steps on [-1,1]
        sizes = _block_spectral_norms(f.values)
    elif isinstance(f, Potential):
        w = f.grid.weights
        sizes = _block_spectral_norms(f.full())
    else:
        raise FieldFormatError(f"field_norm does not apply to {type(f).__name__}")
    return float((w @ sizes ** p) ** (1.0 / p))
