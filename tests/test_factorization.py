"""Convolution kernel, accelerant sweep, GLM row solves, triangular split."""

import warnings

import numpy as np
import pytest

from conftest import const_accelerant, random_accelerant, ratio_ok
from kreinmap import (
    Accelerant,
    GridSpec,
    Kernel2D,
    convolution_kernel,
    factorize,
    folded_kernel,
    is_accelerant,
    mixed_norm,
    op_from_kernel,
    reflect,
    solve_glm,
    solve_krein,
    theta,
)
from kreinmap import factorization
from kreinmap.factorization import _dense_row


def test_convolution_reads_exact_samples():
    n_cells = 8
    g = GridSpec(n_cells)
    pts = -1.0 + np.arange(4 * n_cells + 1) / (2 * n_cells)
    h = Accelerant(1, g, pts[:, None, None].astype(complex))  # h(u) = u
    f = convolution_kernel(h)
    x = g.nodes
    assert np.array_equal(f.values[:, :, 0, 0], x[:, None] - x[None, :])


def test_convolution_constant():
    f = convolution_kernel(const_accelerant(0.7, 8))
    assert np.all(f.values == 0.7)


def test_accelerant_sweep_trivial_cases():
    rep0 = is_accelerant(const_accelerant(0.0, 16))
    assert rep0.accepted and rep0.min_singular_value == pytest.approx(1.0)
    rep = is_accelerant(const_accelerant(0.5, 16))
    assert rep.accepted
    assert rep.margins.min() > 0.4  # 1 + 0.5*alpha stays well away from zero


def test_accelerant_sweep_rejects_critical_constant():
    # alpha* = 0.8 solves 1 + c*alpha = 0 for c = -1.25; with 5 | N the
    # sweep lands a node on it and the restricted matrix is exactly singular
    rep = is_accelerant(const_accelerant(-1.25, 40))
    assert not rep.accepted
    assert abs(rep.worst_alpha - 0.8) <= 0.05
    assert rep.margins.min() < 1e-12


def test_accelerant_sweep_reflection_invariant():
    for seed in range(20):
        h = random_accelerant(seed, r=2, n_cells=32)
        a = is_accelerant(h)
        b = is_accelerant(reflect(h))
        assert a.accepted == b.accepted, f"seed {seed}"
        # index-flip unitary equivalence: identical singular values
        assert np.allclose(a.sigma_min, b.sigma_min, rtol=1e-9, atol=1e-12)


def test_glm_zero_kernel():
    g = GridSpec(8)
    x = solve_glm(Kernel2D(1, g, "full", np.zeros((9, 9, 1, 1))))
    assert x.support == "lower"
    assert np.all(x.values == 0)


def _glm_constant_error(n_cells: int) -> float:
    kappa = 0.5
    g = GridSpec(n_cells)
    m = n_cells + 1
    f = Kernel2D(1, g, "full", np.full((m, m, 1, 1), kappa, dtype=complex))
    x = solve_glm(f)
    i, j = np.indices((m, m))
    exact = np.where(j <= i, -kappa / (1.0 + kappa * g.nodes)[:, None], 0.0)
    return float(np.max(np.abs(x.values[:, :, 0, 0] - exact)))


def test_glm_constant_closed_form():
    e50, e100 = _glm_constant_error(50), _glm_constant_error(100)
    assert e100 < 1e-4
    assert ratio_ok(e50, e100)


def test_glm_allones_block_closed_form():
    # F^h for scalar h = c has all four blocks c/2; E^2 = 2E collapses the
    # block problem onto the scalar rank-one one
    c = 0.5
    h = const_accelerant(c, 64)
    x = solve_glm(folded_kernel(h))
    g = h.grid
    m = 65
    i, j = np.indices((m, m))
    rho = -(c / 2.0) / (1.0 + c * g.nodes)
    exact = np.where((j <= i)[:, :, None, None], rho[:, None, None, None] * np.ones((1, 1, 2, 2)), 0.0)
    assert np.max(np.abs(x.values - exact)) < 5e-4


def test_krein_constant_closed_form():
    c = 0.5
    h = const_accelerant(c, 200)
    r = solve_krein(h)
    x = h.grid.nodes
    i, j = np.indices((201, 201))
    exact = np.where(j <= i, (-c / (1.0 + c * x))[:, None], 0.0)
    err = np.max(np.abs(r.values[:, :, 0, 0] - exact))
    assert err <= 1e-3


def test_krein_row_residuals():
    # the defining discrete equation should be satisfied to solver accuracy
    h = const_accelerant(0.5, 32)
    r = solve_krein(h)
    f = convolution_kernel(h)
    for i in (2, 16, 32):
        row = r.values[i, : i + 1, 0, 0]
        wloc = np.full(i + 1, 1.0 / 32)
        wloc[0] = wloc[-1] = 0.5 / 32
        res = row + f.values[i, : i + 1, 0, 0] + row @ (wloc[:, None] * f.values[: i + 1, : i + 1, 0, 0])
        # interior residual only; the diagonal collocation uses one-sided
        # edge data, so test against the smooth-case closed form instead
        assert np.max(np.abs(res[1:i])) < 1e-10


def _random_full_kernel(seed: int, n_cells: int, n: int = 2) -> Kernel2D:
    rng = np.random.default_rng(seed)
    m = n_cells + 1
    vals = rng.standard_normal((m, m, n, n)) + 1j * rng.standard_normal((m, m, n, n))
    k = Kernel2D(n, GridSpec(n_cells), "full", vals)
    scale = 0.4 / mixed_norm(k, 1.0)
    return Kernel2D(n, k.grid, "full", scale * vals)


def _reconstruction_error(f: Kernel2D) -> tuple:
    l_plus, l_minus = factorize(f)
    dim = f.values.shape[0] * f.n
    eye = np.eye(dim)
    lo = eye + op_from_kernel(l_plus).M
    up = eye + op_from_kernel(l_minus).M
    recon = np.linalg.inv(lo) @ np.linalg.inv(up)
    target = eye + op_from_kernel(f).M
    return float(np.max(np.abs(recon - target))), lo, up


def test_factorize_reconstructs_seeded():
    for seed in range(5):
        f = _random_full_kernel(seed, 16)
        err, _, _ = _reconstruction_error(f)
        assert err < 1e-10, f"seed {seed}"


def _block_doolittle(c: np.ndarray, n: int) -> tuple:
    """No-pivot block LU, unit blocks on the lower factor's diagonal."""
    m = c.shape[0] // n
    cb = c.reshape(m, n, m, n).transpose(0, 2, 1, 3)
    low = np.zeros((m, m, n, n), dtype=np.complex128)
    up = np.zeros_like(low)
    eye = np.eye(n)
    for i in range(m):
        low[i, i] = eye
        for j in range(i, m):
            up[i, j] = cb[i, j] - sum(low[i, k] @ up[k, j] for k in range(i))
        for j in range(i + 1, m):
            rhs = cb[j, i] - sum(low[j, k] @ up[k, i] for k in range(i))
            low[j, i] = np.linalg.solve(up[i, i].T, rhs.T).T
    flat = lambda blocks: np.ascontiguousarray(blocks.transpose(0, 2, 1, 3)).reshape(m * n, m * n)
    return flat(low), flat(up)


def _block_flip(m: int, n: int) -> np.ndarray:
    """Permutation reversing block order while keeping intra-block order."""
    idx = np.concatenate([np.arange((m - 1 - i) * n, (m - i) * n) for i in range(m)])
    return np.eye(m * n)[idx]


def _block_diag_of(mat: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros_like(mat)
    for i in range(mat.shape[0] // n):
        sl = slice(i * n, (i + 1) * n)
        out[sl, sl] = mat[sl, sl]
    return out


def test_factorize_matches_dense_brute_force():
    """UL split of (I+F)^-1 via block flip + block Doolittle.

    (I+F)^-1 = (I+L-)(I+L+) is upper times lower at the block level; after
    reversing the block order that is an ordinary block LU problem, and
    no-pivot LU with unit lower diagonal blocks is unique. The factors are
    compared after moving the diagonal-block normalization to one side.
    """
    n = 2
    for seed in range(5):
        f = _random_full_kernel(seed, 8, n)
        _, lo, up = _reconstruction_error(f)
        dim = lo.shape[0]
        m = dim // n
        eye = np.eye(dim)
        b = np.linalg.inv(eye + op_from_kernel(f).M)
        flip = _block_flip(m, n)
        low_f, up_f = _block_doolittle(flip @ b @ flip, n)
        u_brute = flip @ low_f @ flip
        l_brute = flip @ up_f @ flip
        d_scale = _block_diag_of(up, n)
        u_fact = up @ np.linalg.inv(d_scale)
        l_fact = d_scale @ lo
        assert np.max(np.abs(u_fact - u_brute)) < 1e-10, f"seed {seed}"
        assert np.max(np.abs(l_fact - l_brute)) < 1e-10, f"seed {seed}"


def _dense_glm(f: Kernel2D, plus, minus) -> np.ndarray:
    """solve_glm row by row, each row one dense solve: the reference."""
    x = np.zeros_like(f.values)
    x[0, 0] = -(f.values[0, 0] if plus is None else plus)
    for i in range(1, f.grid.N + 1):
        x[i, : i + 1] = _dense_row(f, i, plus, minus)
    return x


@pytest.fixture
def fallback_rows(monkeypatch):
    """The rows solve_glm hands to its dense fallback, in call order."""
    rows = []

    def counted(f, i, *edges):
        rows.append(i)
        return _dense_row(f, i, *edges)

    monkeypatch.setattr(factorization, "_dense_row", counted)
    return rows


_GLM_KERNELS = {
    "direct": convolution_kernel,
    "reflected": lambda h: convolution_kernel(reflect(h)),
    "refined": lambda h: convolution_kernel(h, h.grid.refined()),
    "folded": folded_kernel,
}


@pytest.mark.parametrize("kind", sorted(_GLM_KERNELS))
def test_nested_solve_matches_dense_rows(fallback_rows, kind):
    # 25 seeded accelerants per kernel kind, 100 in all: r = 1..3, N from 8
    # to 200 (r = 1 only from 100 up), each edge term on or off. The refined
    # and folded kernels have twice the rows or the block size, so their N
    # stops at 100 to keep the dense reference quick.
    sizes = (8, 16, 32, 64, 8, 16, 32, 100, 8, 200)
    for seed in range(25):
        r = 1 if seed % 10 >= 7 else 1 + seed % 3
        n_cells = sizes[seed % 10]
        if kind in ("refined", "folded"):
            n_cells = min(n_cells, 100)
        h = random_accelerant(seed, r=r, n_cells=n_cells, scale=0.3)
        f = _GLM_KERNELS[kind](h)
        rng = np.random.default_rng(seed)
        edges = 0.3 * (rng.standard_normal((2, f.n, f.n)) + 1j * rng.standard_normal((2, f.n, f.n)))
        plus = edges[0] if seed % 2 else None
        minus = edges[1] if seed % 4 >= 2 else None
        ref = _dense_glm(f, plus, minus)
        got = solve_glm(f, edge_plus=plus, edge_minus=minus).values
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), f"seed {seed}"
        assert fallback_rows == [], f"seed {seed}: the nested LU alone should do"


@pytest.mark.parametrize("k", [100, 50, 20])
def test_nested_solve_falls_back_on_singular_leading_blocks(fallback_rows, k):
    # for c = -1/(x_k + step/2) the leading block S_k of the shared matrix
    # is singular (det S_k = 1 + c (x_k + step/2)), though no A_i is and the
    # sweep accepts c. Without the fallback the rows after k are wrong by
    # 2e-2 relative for k = 50 and 20. For k = N the tiny pivot feeds only
    # the last row, whose Woodbury step absorbs it, and no row is flagged.
    n_cells = 100
    c = -1.0 / (k / n_cells + 0.5 / n_cells)
    h = const_accelerant(c, n_cells)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        theta(h)
        got = solve_krein(h).values
    edge = np.array([[c]], dtype=complex)  # the one-sided limits of a constant
    ref = _dense_glm(convolution_kernel(h), edge, edge)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
    if k < n_cells:
        assert fallback_rows, "no row went to the dense fallback"


@pytest.mark.parametrize("n", [1, 2])
def test_nested_solve_survives_a_zero_pivot(fallback_rows, n):
    # edge_plus = -(2/step) I zeroes the first diagonal block of the shared
    # matrix, so its LU divides by zero at once, while every A_i stays
    # regular. Each row must then come from the dense solve, with no warning.
    f = _random_full_kernel(n, 16, n)
    plus = -2.0 * f.grid.N * np.eye(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = solve_glm(f, edge_plus=plus).values
    assert fallback_rows == list(range(1, 17))
    ref = _dense_glm(f, plus, None)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
