"""Forward map and the folded kernel constructions."""

import numpy as np
import pytest

from conftest import const_accelerant, gauss_accelerant, random_accelerant
from kreinmap import (
    Kernel2D,
    NotAccelerantError,
    block_krein_kernel,
    folded_kernel,
    folded_lower_factor,
    mixed_norm,
    solve_glm,
    solve_krein,
    theta,
)
from kreinmap.factorization import _krein_pair


def test_theta_constant_closed_form():
    # r_h(x, t) = -c/(1+cx) for constant scalar h; the one-sided edge
    # handling makes constants exact, so the bound here is round-off
    c = 0.5
    q = theta(const_accelerant(c, 100))
    x = q.grid.nodes
    target = -1j * c / (1.0 + c * x)
    assert np.max(np.abs(q.q_plus[:, 0, 0] - target)) < 1e-12
    assert np.max(np.abs(q.q_minus[:, 0, 0] + target)) < 1e-12


def test_theta_even_accelerant_pairs_blocks():
    # for h(-x) = h(x) the reflected solve is bitwise the same solve
    q = theta(gauss_accelerant(0.3, 32))
    assert np.array_equal(q.q_minus, -q.q_plus)


@pytest.mark.parametrize(
    "h", [gauss_accelerant(0.3, 32), random_accelerant(0)], ids=["r1", "r2"]
)
def test_theta_is_the_t0_trace_of_the_krein_kernels(h):
    # q_plus = i r_h(x, 0) and q_minus = -i r_reflected(x, 0), to the byte;
    # test_krein_pair_matches_two_krein_solves compares r_reflected with
    # the Krein rows of reflect(h) solved alone
    q = theta(h)
    r_direct, r_reflected = _krein_pair(h)
    assert q.q_plus.tobytes() == (1j * solve_krein(h).values[:, 0]).tobytes()
    assert q.q_plus.tobytes() == (1j * r_direct[:, 0]).tobytes()
    assert q.q_minus.tobytes() == (-1j * r_reflected[:, 0]).tobytes()


def test_theta_rejects_critical_constant():
    with pytest.raises(NotAccelerantError) as exc:
        theta(const_accelerant(-1.25, 40))
    assert abs(exc.value.alpha - 0.8) <= 0.05
    assert "0.8" in str(exc.value)


def test_folded_kernel_constant_blocks():
    f = folded_kernel(const_accelerant(0.5, 8))
    assert f.support == "full"
    assert np.all(f.values == 0.25)


def test_folded_kernel_characteristic_lines():
    h = random_accelerant(7, r=2, n_cells=8)
    f = folded_kernel(h)
    r = 2
    v = f.values
    # top-left block constant along x - t = const, top-right along x + t
    assert np.array_equal(v[1:, 1:, :r, :r], v[:-1, :-1, :r, :r])
    assert np.array_equal(v[1:, :-1, :r, r:], v[:-1, 1:, :r, r:])
    # bottom blocks read the reflected arguments
    assert np.array_equal(v[1:, :-1, r:, :r], v[:-1, 1:, r:, :r])
    assert np.array_equal(v[1:, 1:, r:, r:], v[:-1, :-1, r:, r:])
    # and the diagonal reads h(0) plus/minus exact sample offsets
    assert np.array_equal(v[0, 0, :r, :r], 0.5 * h.values[2 * h.grid.N])


def test_block_krein_kernel_is_diagonal():
    h = random_accelerant(11, r=1, n_cells=16, scale=0.1)
    big = block_krein_kernel(h)
    assert big.support == "lower"
    assert np.all(big.values[:, :, 0, 1] == 0)
    assert np.all(big.values[:, :, 1, 0] == 0)
    assert np.array_equal(big.values[:, :, 0, 0], solve_krein(h).values[:, :, 0, 0])


def test_folded_lower_factor_constant_closed_form():
    c = 0.5
    h = const_accelerant(c, 64)
    lf = folded_lower_factor(h)
    x = h.grid.nodes
    rho = -c / (1.0 + c * x)
    m = 65
    i, j = np.indices((m, m))
    expected = np.where(
        (j <= i)[:, :, None, None],
        0.5 * rho[:, None, None, None] * np.ones((1, 1, 2, 2)),
        0.0,
    )
    assert np.max(np.abs(lf.values - expected)) < 1e-12


@pytest.mark.parametrize("maker", [lambda: const_accelerant(0.5, 100), lambda: gauss_accelerant(0.3, 100)])
def test_folded_factor_agrees_with_glm(maker):
    # two independent routes to the lower factor of I + F^h
    h = maker()
    lf = folded_lower_factor(h)
    glm = solve_glm(folded_kernel(h))
    diff = Kernel2D(lf.n, lf.grid, "lower", lf.values - glm.values)
    assert mixed_norm(diff, 1.0) < 5e-3
