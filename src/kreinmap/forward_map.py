"""The forward map: accelerant to off-diagonal Dirac potential.

The potential is read off the t = 0 trace of the Krein kernels of h and of
its reflection. Both come from one nested LU on the flattened Toeplitz
matrix T = [h(x_i - x_j)] (factorization._krein_rows): the reflected
equation is the direct one seen through the block-order flip, so its rows
are read off the direct solve's factors. theta, CLI theta, krein_solution
and CLI verify build T once, in factorization._gated_krein_rows, whose
accelerant gate and Krein rows share it; q_plus and q_minus are read from
those rows by _potential alone. The folded kernel and the lower factor
built from half-argument reads are the bridge to the inverse direction;
both are assembled purely from exact sample reads (the lower factor solves
the Krein pair on the refined 2N grid so that (x +/- t)/2 is always a
node).

Between the private layers the kernel blocks travel as plain arrays:
_krein_pair and _krein_kernels give (N+1, N+1, r, r) blocks, _block_kernel
stacks them, and dirac_verify._derivative_identity reads them. A Kernel2D
is built only where a public function returns one.
"""

from __future__ import annotations

import numpy as np

from .factorization import _gated_krein_rows, _krein_pair
from .fields import (
    Accelerant,
    Kernel2D,
    Potential,
    _fold_lines,
    _half_argument_reads,
)

__all__ = ["theta", "folded_kernel", "block_krein_kernel", "folded_lower_factor"]


def theta(h: Accelerant) -> Potential:
    """Forward map: q_plus = i r_h(x, 0), q_minus = -i r_reflected(x, 0).

    Rejects inputs that fail the accelerant sweep. The sweep runs only when
    neither certificate of factorization._gated_krein_rows can certify
    h: the Schur norm bound, O(N r^3), and the numerical range bound, one
    O(N^3 r^3) eigvalsh on T; a certified h is one the sweep would accept,
    and the sweep reads the same T.
    Both t = 0 columns come from one nested LU on the same T, whose inverse
    factors are its one O(N^3 r^3) step besides the residual check, and
    _potential reads them from the rows, so no kernel table is gathered.
    An exactly even h solves one family and reuses it. Besides T the solve
    holds three ((N+1) r)^2 arrays at a time and panels of rows
    (factorization._nested_solve).
    """
    _, _, x, z = _gated_krein_rows(h)
    return _potential(h, x, z)


def _potential(h: Accelerant, x: np.ndarray, z: np.ndarray | None) -> Potential:
    """theta(h) from the rows X, Z of factorization._krein_rows on h's own
    grid: r_h(x_k, 0) is X[k, 0] and r_reflected(x_k, 0) the diagonal block
    Z[k, k], or X[k, 0] again when Z is None (an even h)."""
    nodes = np.arange(h.grid.N + 1)
    reflected = x[:, 0] if z is None else z[nodes, nodes]
    return Potential(h.r, h.grid, 1j * x[:, 0], -1j * reflected)


def folded_kernel(h: Accelerant) -> Kernel2D:
    """2r x 2r kernel whose blocks read h at (x-t)/2, (x+t)/2 and their
    negatives, with an overall factor 1/2. All four reads are exact sample
    indices on the half-step grid, tabulated by fields._fold_lines."""
    r, m = h.r, h.grid.N + 1
    # block (a, b) of the 2r x 2r kernel is vals[:, :, a, :, b]
    vals = np.empty((m, m, 2, r, 2, r), dtype=np.complex128)
    for (a, b), idx in _fold_lines(h.grid.N).items():
        vals[:, :, a, :, b] = h.values[idx]
    return Kernel2D(2 * r, h.grid, "full", 0.5 * vals.reshape(m, m, 2 * r, 2 * r))


def block_krein_kernel(h: Accelerant) -> Kernel2D:
    """diag(r_h, r_reflected) as one lower 2r x 2r kernel."""
    return Kernel2D(2 * h.r, h.grid, "lower", _block_kernel(*_krein_pair(h)))


def _block_kernel(direct: np.ndarray, reflected: np.ndarray) -> np.ndarray:
    """The blocks of block_krein_kernel from those of the Krein pair."""
    m, _, r, _ = direct.shape
    vals = np.zeros((m, m, 2 * r, 2 * r), dtype=np.complex128)
    vals[:, :, :r, :r] = direct
    vals[:, :, r:, r:] = reflected
    return vals


def folded_lower_factor(h: Accelerant) -> Kernel2D:
    """Lower kernel L(x,t) combining half-argument reads of the Krein kernels.

    L(x,t) = (1/2) { R(x, (x+t)/2) + R(x, (x-t)/2) B } with R the block
    Krein kernel. Both second arguments live on the half-step grid, so the
    Krein equation is solved on the 2N refinement and read back exactly.
    """
    N, r = h.grid.N, h.r
    r_direct, r_reflected = _krein_pair(h, h.grid.refined())

    m = N + 1
    i, j, near, far = _half_argument_reads(N)
    rows = 2 * i
    vals = np.zeros((m, m, 2 * r, 2 * r), dtype=np.complex128)
    vals[i, j, :r, :r] = 0.5 * r_direct[rows, far]
    vals[i, j, :r, r:] = 0.5 * r_direct[rows, near]
    vals[i, j, r:, :r] = 0.5 * r_reflected[rows, near]
    vals[i, j, r:, r:] = 0.5 * r_reflected[rows, far]
    return Kernel2D(2 * r, h.grid, "lower", vals)
