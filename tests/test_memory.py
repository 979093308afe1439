"""Memory pins of the forward and inverse layers, measured with tracemalloc.

One "dim^2" is one ((N+1) r)^2 array in the dtype at hand. The Krein solve
holds T, the LU's two inverse factors and then X and Z, and works on panels
of rows beside them, so theta peaks near four of them, T included. The
nested LU holds L^-1 beyond its input and writes every other block in
place. Each solve leaves T and its input kernel as they were.

One "K" is one (N+1)^2 (2r)^2 complex array, a kernel on q's grid. The
march of the inverse map hands out its kept rows in blocks of a fixed byte
budget, so upsilon holds K_Q and K_{Q*} and little else, and
transformation_kernels P+ and P-.
"""

import numpy as np
import pytest
from conftest import random_accelerant, toeplitz_kernel, traced_peak

import kreinmap
from kreinmap import Accelerant, GridSpec, Potential, factorization


def _uneven_complex(n_cells: int) -> Accelerant:
    """0.3 e^{-u^2} (1 + i u / 2): complex and uneven, so theta solves both
    row families on a complex T."""
    u = -1.0 + np.arange(4 * n_cells + 1) / (2 * n_cells)
    return Accelerant(1, GridSpec(n_cells), (0.3 * np.exp(-(u**2)) * (1 + 0.5j * u))[:, None, None])


def _swept(n_cells: int) -> Accelerant:
    """-0.999 + 0.001 i u: neither certificate covers it, so theta sweeps
    it before the Krein solve."""
    u = -1.0 + np.arange(4 * n_cells + 1) / (2 * n_cells)
    return Accelerant(1, GridSpec(n_cells), (-0.999 + 0.001j * u)[:, None, None])


@pytest.mark.parametrize("h", [_uneven_complex(200), _swept(200)], ids=["uneven-complex", "swept"])
def test_theta_peaks_near_four_matrices(h):
    dim2 = ((h.grid.N + 1) * h.r) ** 2 * np.dtype(np.complex128).itemsize
    _, peak = traced_peak(kreinmap.theta, h)
    assert peak <= 4.2 * dim2, f"{peak / dim2:.2f} dim^2"


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("dim", [200, 201, 256])
def test_lu_inverses_allocates_one_matrix_and_clears_its_halves(dim, dtype):
    rng = np.random.default_rng(dim)
    a = (rng.standard_normal((dim, dim)) + dim * np.eye(dim)).astype(dtype)
    if dtype is np.complex128:
        a += 1j * rng.standard_normal((dim, dim))
    u_inv = a.copy()
    l_inv, peak = traced_peak(factorization._lu_inverses, u_inv)
    assert peak <= 1.5 * a.nbytes, f"{peak / a.nbytes:.2f} dim^2"
    # the blocks that held U12 and L21 during the recursion end exactly zero
    assert not np.tril(u_inv, -1).any() and not np.triu(l_inv, 1).any()
    assert np.allclose(l_inv @ a @ u_inv, np.eye(dim), atol=1e-12)


def _singular_block() -> Accelerant:
    """c = -1/(x_50 + step/2) at N = 100 with one unread sample changed:
    uneven, and its rows from 50 on go to the dense fallback."""
    vals = np.full((401, 1, 1), -1.0 / (0.5 + 0.005), dtype=np.complex128)
    vals[1] += 1e-3
    return Accelerant(1, GridSpec(100), vals)


@pytest.mark.parametrize(
    "h",
    [_uneven_complex(40), random_accelerant(3, r=2, n_cells=24, scale=0.1), _singular_block()],
    ids=["uneven-complex", "random-r2", "dense-fallback"],
)
def test_forward_solves_leave_their_inputs_as_they_were(h):
    t = factorization._toeplitz_matrix(h)
    kept = t.copy()
    factorization._krein_rows(h, t, h.grid)
    assert t.tobytes() == kept.tobytes()

    values = h.values.copy()
    kreinmap.solve_krein(h)
    assert h.values.tobytes() == values.tobytes()

    kernel = toeplitz_kernel(h)
    values = kernel.values.copy()
    kreinmap.solve_glm(kernel)
    assert kernel.values.tobytes() == values.tobytes()


def _general_complex(n_cells: int, r: int) -> Potential:
    """Random complex q+ and q-: neither of the real class nor self-adjoint,
    so the march runs the four chains of Q and Q*."""
    rng = np.random.default_rng(3)
    shape = (n_cells + 1, r, r)
    draw = lambda: 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return Potential(r, GridSpec(n_cells), draw(), draw())


@pytest.mark.parametrize("fn", [kreinmap.upsilon, kreinmap.transformation_kernels])
@pytest.mark.parametrize("n_cells, r", [(200, 1), (100, 2)], ids=["r1-N200", "r2-N100"])
def test_inverse_map_holds_its_kernels_and_one_block_of_rows(fn, n_cells, r):
    # with every kept row of the march held at once, upsilon peaked at 6.1 K
    # and transformation_kernels at 3.6 K; streamed, 2.5-2.8 K
    q = _general_complex(n_cells, r)
    k = (n_cells + 1) ** 2 * (2 * r) ** 2 * np.dtype(np.complex128).itemsize
    _, peak = traced_peak(fn, q)
    assert peak <= 3.0 * k, f"{peak / k:.2f} K"
