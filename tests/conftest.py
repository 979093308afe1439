"""Shared builders and the convergence-ratio rule used across the suite."""

import numpy as np
import pytest

from kreinmap import Accelerant, GridSpec, Kernel2D, Potential
from kreinmap.factorization import _toeplitz_matrix
from kreinmap.quadops import _unflatten


def ratio_ok(err_coarse: float, err_fine: float, factor: float = 3.0, floor: float = 1e-11) -> bool:
    """Doubling-the-grid improvement test with a round-off floor.

    Identities that the discretization satisfies exactly sit at machine
    noise on every grid; their ratios are meaningless and both errors
    below the floor counts as a pass.
    """
    if err_coarse < floor and err_fine < floor:
        return True
    return err_coarse / max(err_fine, 1e-300) >= factor


def const_accelerant(c: complex, n_cells: int, r: int = 1) -> Accelerant:
    grid = GridSpec(n_cells)
    vals = np.zeros((4 * n_cells + 1, r, r), dtype=np.complex128)
    vals[:] = c * np.eye(r)
    return Accelerant(r, grid, vals)


def toeplitz_kernel(h: Accelerant, grid: GridSpec | None = None) -> Kernel2D:
    """The difference kernel h(x_i - x_j) on h's grid or its 2N refinement,
    as a full Kernel2D of the flat T that the forward layer solves on."""
    grid = h.grid if grid is None else grid
    return Kernel2D(h.r, grid, "full", _unflatten(_toeplitz_matrix(h, grid), h.r))


def gauss_accelerant(amp: float, n_cells: int) -> Accelerant:
    grid = GridSpec(n_cells)
    x = -1.0 + np.arange(4 * n_cells + 1) / (2 * n_cells)
    return Accelerant(1, grid, (amp * np.exp(-(x**2)))[:, None, None].astype(complex))


# c = -1.25 (1 + d) at N = 40 has its smallest margin, 0.98509 d, at alpha = 0.8.
# These d put it 5e-14 above and below 1e-8, inside the error band 3e (about
# 2.5e-13 here) of the low-rank sweep, so only a dense SVD may decide them.
_IN_BAND = {"above": 1.015141794377392e-08, "below": 1.0151316430127347e-08}


def in_band_accelerant(side: str) -> Accelerant:
    """The constant -1.25 (1 + d) at N = 40 whose smallest margin lies 5e-14
    "above" or "below" the sweep's threshold 1e-8."""
    return const_accelerant(-1.25 * (1 + _IN_BAND[side]), 40)


# c = -0.95 at N = 16 is an accelerant (1 - 0.95 alpha > 0) that neither
# certificate covers: its Schur norm bound rho = 0.95 (1 + 1/N) = 1.009
# exceeds 1, and the smallest eigenvalue of the Hermitian part of its
# Toeplitz matrix gives 1 + step lam = -0.009 < 0. So it is accepted only by
# the sweep (minimum margin 0.0487); c = 0.5 at N = 16 has rho = 0.53 and is
# certified without one.
SWEPT, CERTIFIED = const_accelerant(-0.95, 16), const_accelerant(0.5, 16)


def linear_potential(n_cells: int) -> Potential:
    grid = GridSpec(n_cells)
    x = grid.nodes
    qp = (0.3 * (1.0 + x))[:, None, None].astype(complex)
    qm = np.full((n_cells + 1, 1, 1), 0.2, dtype=np.complex128)
    return Potential(1, grid, qp, qm)


def const_potential(value: complex, n_cells: int) -> Potential:
    """q+ = q- = value, r = 1."""
    c = np.full((n_cells + 1, 1, 1), value, dtype=np.complex128)
    return Potential(1, GridSpec(n_cells), c, c.copy())


def r2_potential() -> Potential:
    """Seeded complex 2 x 2 potential, linear in x, at N = 16."""
    rng = np.random.default_rng(2)
    x = np.linspace(0.0, 1.0, 17)[:, None, None]
    a, b, c, d = 0.4 * (rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2)))
    return Potential(2, GridSpec(16), a + x * b, c + x * d)


def random_accelerant(seed: int, r: int = 2, n_cells: int = 32, scale: float = 0.3) -> Accelerant:
    """Complex Gaussian samples, non-hermitian on purpose."""
    rng = np.random.default_rng(seed)
    m = 4 * n_cells + 1
    vals = scale * (rng.standard_normal((m, r, r)) + 1j * rng.standard_normal((m, r, r)))
    return Accelerant(r, GridSpec(n_cells), vals)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
