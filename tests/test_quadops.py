"""Discrete operator layer: weights, composition, resolvents, norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreinmap import (
    FieldFormatError,
    GridSpec,
    Kernel2D,
    SingularSystemError,
    field_norm,
    invert_identity_plus,
    mixed_norm,
    nystrom_weights,
    op_from_kernel,
)
from kreinmap.quadops import _row_times, _times_column, adjoint_op, compose
from conftest import const_accelerant, linear_potential


def _random_op(rng, n_cells=8, n=1, scale=0.1):
    dim = (n_cells + 1) * n
    return scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


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
        flat = op_from_kernel(Kernel2D(2, g, support, masked))
        blocks = flat.reshape(9, 2, 9, 2).transpose(0, 2, 1, 3)
        weighted = nystrom_weights(g, support)[:, :, None, None] * masked
        assert np.array_equal(blocks, weighted), support


def _random_triangular(rng, support, n_cells, n):
    m = n_cells + 1
    vals = rng.standard_normal((m, m, n, n)) + 1j * rng.standard_normal((m, m, n, n))
    i, j = np.indices((m, m))
    keep = j <= i if support == "lower" else j >= i
    return np.where(keep[:, :, None, None], vals, 0)


@pytest.mark.parametrize("n", [2, 4])  # the block sizes of r = 1 and r = 2
def test_compose_matches_trapezoid_loops(rng, n):
    n_cells = 8
    a = _random_triangular(rng, "lower", n_cells, n)
    b = _random_triangular(rng, "upper", n_cells, n)
    step = 1.0 / n_cells
    expected = np.zeros((n_cells + 1, n_cells + 1, n, n), dtype=complex)
    for x in range(n_cells + 1):
        for t in range(n_cells + 1):
            top = min(x, t)  # the trapezoid rule on [0, min(x,t)]; empty at 0
            for s in range(top + 1) if top else ():
                w = 0.5 * step if s in (0, top) else step
                expected[x, t] += w * a[x, s] @ b[s, t]
    got = compose(a, b, GridSpec(n_cells))
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
    # real blocks, as the inverse map passes for the real class, stay real
    real = compose(a.real, b.real, GridSpec(n_cells))
    assert real.dtype == np.float64


def test_adjoint_op_is_conjugate_transpose(rng):
    vals = rng.standard_normal((9, 9, 2, 2)) + 1j * rng.standard_normal((9, 9, 2, 2))
    i, j = np.indices((9, 9))
    masks = {"full": i >= 0, "lower": j <= i, "upper": j >= i}
    for support, keep in masks.items():
        k = np.where(keep[:, :, None, None], vals, 0)
        adj = adjoint_op(k)
        for x, t in [(0, 0), (3, 5), (5, 3), (8, 2)]:
            assert np.array_equal(adj[x, t], k[t, x].conj().T)
        assert np.array_equal(adjoint_op(adj), k), support
    assert adjoint_op(vals.real).dtype == np.float64


def _random_blocks(rng, shape, dtype):
    vals = rng.standard_normal(shape)
    return vals if dtype == np.float64 else vals + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("r", [1, 2])
def test_block_products_match_stacked_matmul(rng, dtype, r):
    m, n = 9, 2 * r
    # a full square grid, c < m leading columns, and the [x, a, t, b] memory
    # layout of _substitute's output, viewed as blocks [x, t, a, b]
    held = _random_blocks(rng, (m, n, 5, n), dtype).transpose(0, 2, 1, 3)
    inputs = [_random_blocks(rng, (m, m, n, n), dtype),
              _random_blocks(rng, (m, 5, n, n), dtype), held]
    for blocks in inputs:
        c = blocks.shape[1]
        left = _random_blocks(rng, (m, n, n), dtype)
        right = _random_blocks(rng, (c, n, n), dtype)
        for out, ref in ((_row_times(left, blocks), left[:, None] @ blocks),
                         (_times_column(blocks, right), blocks @ right[None, :])):
            assert out.shape == ref.shape and out.dtype == ref.dtype
            assert np.max(np.abs(out - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_resolvent_inverts(rng):
    op = _random_op(rng, n=2, scale=0.2)
    gamma = invert_identity_plus(op)
    eye = np.eye(op.shape[0])
    assert np.max(np.abs((eye + op) @ (eye + gamma) - eye)) < 1e-12


def test_resolvent_triangular_path_matches_dense(rng):
    # triangular input takes the same dense LU as any other matrix; the oracle
    # is the defining residual, not a second solve. The upper r = 2 case is
    # block-upper with full diagonal blocks, the shape factorize inverts.
    g = GridSpec(8)
    i, j = np.indices((9, 9))
    for support, n in [("lower", 1), ("upper", 1), ("upper", 2)]:
        vals = rng.standard_normal((9, 9, n, n)) * 0.3 + 0j
        vals[(j > i) if support == "lower" else (j < i)] = 0.0
        op = op_from_kernel(Kernel2D(n, g, support, vals))
        gamma = invert_identity_plus(op)
        eye = np.eye(op.shape[0])
        residual = (eye + op) @ (eye + gamma) - eye
        assert np.max(np.abs(residual)) < 1e-12, (support, n)


def test_resolvent_rejects_singular(rng):
    m = np.zeros((9, 9), dtype=complex)
    m[0, 0] = -1.0
    with pytest.raises(SingularSystemError, match="sigma_min = "):
        invert_identity_plus(m)
    # exactly singular triangular I + m: one zero on the diagonal
    for tri in (np.tril, np.triu):
        m = tri(rng.standard_normal((9, 9)) * 0.3 + 0j)
        m[4, 4] = -1.0
        with pytest.raises(SingularSystemError, match="sigma_min = "):
            invert_identity_plus(m)


@pytest.mark.parametrize("shape", [(9,), (9, 8), (0, 0), (2, 9, 9)])
def test_resolvent_refuses_non_square_input(shape):
    with pytest.raises(FieldFormatError, match="not a square matrix"):
        invert_identity_plus(np.zeros(shape, dtype=complex))


def test_resolvent_identity_seeded_pairs():
    """gamma(a1) - gamma(a2) = (e + gamma(a1)) (a2 - a1) (e + gamma(a2))."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a1 = _random_op(rng, n_cells=8, n=2, scale=0.15)
        a2 = _random_op(rng, n_cells=8, n=2, scale=0.15)
        g1 = invert_identity_plus(a1)
        g2 = invert_identity_plus(a2)
        eye = np.eye(a1.shape[0])
        lhs = g1 - g2
        rhs = (eye + g1) @ (a2 - a1) @ (eye + g2)
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


@pytest.mark.parametrize("p", [np.inf, np.nan, -np.inf, 0.5, "2"])
def test_norms_refuse_orders_that_are_not_finite_numbers_at_least_one(p):
    # p = inf gave 1.0 for every input (the sup of const 0.5 is 0.5) and
    # p = nan gave nan, since nan < 1 is false
    k = Kernel2D(1, GridSpec(8), "full", np.full((9, 9, 1, 1), 0.5 + 0j))
    message = f"order p must be a finite number >= 1, got {p!r}"
    for norm, field in ((mixed_norm, k), (field_norm, const_accelerant(0.5, 16))):
        with pytest.raises(FieldFormatError) as info:
            norm(field, p)
        assert str(info.value) == message


@pytest.mark.parametrize(
    "field, p",
    [
        (const_accelerant(1e200, 16), 2.0),  # warned "overflow encountered in power"
        (const_accelerant(1e308, 16), 1.0),  # warned "overflow encountered in matmul"
        (const_accelerant(1e200, 16, r=2), 3.0),
    ],
    ids=["power", "matmul", "r2"],
)
def test_field_norm_refuses_overflow(field, p):
    with pytest.raises(FieldFormatError, match="^the norm overflows floating point$"):
        field_norm(field, p)


@pytest.mark.parametrize("value, p", [(1e200, 2.0), (1e160, 2.5)], ids=["p2", "p2.5"])
def test_mixed_norm_refuses_overflow(value, p):
    lower = np.where(np.tri(17, dtype=bool), value + 0j, 0.0)[:, :, None, None]
    with pytest.raises(FieldFormatError, match="^the norm overflows floating point$"):
        mixed_norm(Kernel2D(1, GridSpec(16), "lower", lower), p)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(1.0, 4.0))
def test_mixed_norm_homogeneous(seed, p):
    rng = np.random.default_rng(seed)
    g = GridSpec(8)
    vals = rng.standard_normal((9, 9, 1, 1)) + 1j * rng.standard_normal((9, 9, 1, 1))
    k = Kernel2D(1, g, "full", vals)
    k3 = Kernel2D(1, g, "full", 3.0 * vals)
    assert mixed_norm(k3, p) == pytest.approx(3.0 * mixed_norm(k, p), rel=1e-12)
