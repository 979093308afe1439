"""Discrete operator layer: weights, composition, resolvents, norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinmap import (
    DiscOp,
    GridSpec,
    Kernel2D,
    SingularSystemError,
    adjoint_op,
    compose,
    field_norm,
    invert_identity_plus,
    mixed_norm,
    nystrom_weights,
    op_from_kernel,
)
from conftest import const_accelerant, linear_potential


def _random_op(rng, n_cells=8, n=1, scale=0.1):
    dim = (n_cells + 1) * n
    m = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return DiscOp(n, GridSpec(n_cells), m)


def test_weights_integrate_constants():
    g = GridSpec(10)
    full = nystrom_weights(g, "full")
    low = nystrom_weights(g, "lower")
    up = nystrom_weights(g, "upper")
    assert np.allclose(full.sum(axis=1), 1.0)
    # row i of the lower triangle integrates over [0, x_i]
    assert np.allclose(low.sum(axis=1), g.nodes)
    assert np.allclose(up.sum(axis=1), 1.0 - g.nodes)
    # the diagonal belongs to both triangles, so lower+upper exceeds full
    # exactly there and nowhere else
    diff = low + up - full
    assert np.count_nonzero(diff - np.diag(np.diag(diff))) == 0


def test_kernel_op_roundtrip(rng):
    g = GridSpec(8)
    vals = rng.standard_normal((9, 9, 2, 2)) + 1j * rng.standard_normal((9, 9, 2, 2))
    i, j = np.indices((9, 9))
    masks = {"full": i >= 0, "lower": j <= i, "upper": j >= i}
    for support, keep in masks.items():
        masked = np.where(keep[:, :, None, None], vals, 0)
        blocks = op_from_kernel(Kernel2D(2, g, support, masked)).blocks()
        weighted = nystrom_weights(g, support)[:, :, None, None] * masked
        assert np.array_equal(blocks, weighted), support


def test_compose_is_matrix_product(rng):
    a = _random_op(rng)
    b = _random_op(rng)
    c = compose(a, b)
    assert np.allclose(c.M, a.M @ b.M)


def test_adjoint_respects_inner_product(rng):
    op = _random_op(rng, n=2)
    w = np.repeat(op.grid.weights, 2)
    f = rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size)
    g = rng.standard_normal(w.size) + 1j * rng.standard_normal(w.size)
    lhs = np.vdot(g * w, op.M @ f)
    rhs = np.vdot(adjoint_op(op).M @ g * w, f)
    assert abs(lhs - rhs) < 1e-12
    assert np.allclose(adjoint_op(adjoint_op(op)).M, op.M)


def test_resolvent_inverts(rng):
    op = _random_op(rng, n=2, scale=0.2)
    gamma = invert_identity_plus(op)
    dim = op.M.shape[0]
    eye = np.eye(dim)
    assert np.max(np.abs((eye + op.M) @ (eye + gamma.M) - eye)) < 1e-12


def test_resolvent_triangular_path_matches_dense(rng):
    g = GridSpec(8)
    vals = rng.standard_normal((9, 9, 1, 1)) * 0.3 + 0j
    i, j = np.indices((9, 9))
    vals[j > i] = 0.0
    k = Kernel2D(1, g, "lower", vals)
    op = op_from_kernel(k)
    gamma = invert_identity_plus(op)
    dense = np.linalg.solve(np.eye(9) + op.M, np.eye(9)) - np.eye(9)
    assert np.max(np.abs(gamma.M - dense)) < 1e-12


def test_resolvent_rejects_singular():
    g = GridSpec(8)
    m = np.zeros((9, 9), dtype=complex)
    m[0, 0] = -1.0
    with pytest.raises(SingularSystemError):
        invert_identity_plus(DiscOp(1, g, m))


def test_resolvent_identity_seeded_pairs():
    """gamma(a1) - gamma(a2) = (e + gamma(a1)) (a2 - a1) (e + gamma(a2))."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a1 = _random_op(rng, n_cells=8, n=2, scale=0.15)
        a2 = _random_op(rng, n_cells=8, n=2, scale=0.15)
        g1 = invert_identity_plus(a1).M
        g2 = invert_identity_plus(a2).M
        eye = np.eye(a1.M.shape[0])
        lhs = g1 - g2
        rhs = (eye + g1) @ (a2.M - a1.M) @ (eye + g2)
        assert np.max(np.abs(lhs - rhs)) < 1e-10, f"seed {seed}"


def test_mixed_norm_constant_kernel():
    g = GridSpec(8)
    k = Kernel2D(1, g, "full", np.full((9, 9, 1, 1), 0.7 + 0j))
    # each row and column integrates the constant over [0,1]
    assert mixed_norm(k, 1.0) == pytest.approx(0.7, abs=1e-15)
    assert mixed_norm(k, 2.0) == pytest.approx(0.7, abs=1e-15)
    with pytest.raises(Exception):
        mixed_norm(k, 0.5)


def test_field_norms():
    h = const_accelerant(0.5, 8)
    assert field_norm(h, 1.0) == pytest.approx(1.0, abs=1e-14)  # |c| * |[-1,1]|
    q = linear_potential(8)
    # |Q(x)| = max(q_plus, q_minus) = 0.3(1+x) pointwise
    expected = np.trapezoid(0.3 * (1 + GridSpec(8).nodes), dx=1 / 8)
    assert field_norm(q, 1.0) == pytest.approx(expected, abs=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(1.0, 4.0))
def test_mixed_norm_homogeneous(seed, p):
    rng = np.random.default_rng(seed)
    g = GridSpec(8)
    vals = rng.standard_normal((9, 9, 1, 1)) + 1j * rng.standard_normal((9, 9, 1, 1))
    k = Kernel2D(1, g, "full", vals)
    k3 = Kernel2D(1, g, "full", 3.0 * vals)
    assert mixed_norm(k3, p) == pytest.approx(3.0 * mixed_norm(k, p), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_compose_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (_random_op(rng) for _ in range(3))
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert np.max(np.abs(left.M - right.M)) < 1e-13
