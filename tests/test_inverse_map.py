"""Inverse map: transformation kernels, Volterra resolvent, extraction."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    const_accelerant,
    const_potential,
    gauss_accelerant,
    linear_potential,
    random_accelerant,
    ratio_ok,
)
from kreinmap import (
    FieldFormatError,
    GridSpec,
    Kernel2D,
    Potential,
    SingularSystemError,
    characteristic_extract,
    field_norm,
    folded_kernel,
    folded_lower_factor,
    potential_adjoint,
    resolvent_product_kernel,
    resolvent_volterra,
    structural_constants,
    theta,
    trace_extract,
    transformation_kernels,
    transmutation_kernel,
    upsilon,
)
from kreinmap.fields import _half_argument_reads
from kreinmap.inverse_map import (
    _chain_coefficients,
    _chain_reads,
    _kernel_chains,
    _midpoint_fill,
    _product_column,
    _refined_coefficients,
    _resolvent_values,
    _self_adjoint,
    _substitute,
    _transmutation_pair,
    _transmutation_values,
)


def _zero_potential(n_cells: int, r: int = 1) -> Potential:
    z = np.zeros((n_cells + 1, r, r), dtype=np.complex128)
    return Potential(r, GridSpec(n_cells), z, z)


def _random_potential(seed: int, n_cells: int = 8, r: int = 1, scale: float = 0.4) -> Potential:
    rng = np.random.default_rng(seed)
    m = n_cells + 1
    draw = lambda: scale * (rng.standard_normal((m, r, r)) + 1j * rng.standard_normal((m, r, r)))
    return Potential(r, GridSpec(n_cells), draw(), draw())


def test_transformation_kernels_vanish_for_zero_potential():
    p_plus, p_minus = transformation_kernels(_zero_potential(8))
    assert np.all(p_plus.values == 0)
    assert np.all(p_minus.values == 0)


@pytest.mark.parametrize("r", [1, 2])
def test_transformation_kernels_block_symmetry(r):
    q = _random_potential(1, r=r)
    sc = structural_constants(r)
    p_plus, p_minus = transformation_kernels(q)
    assert np.max(np.abs(p_plus.values @ sc.J - sc.J @ p_plus.values)) < 1e-12
    assert np.max(np.abs(p_minus.values @ sc.J + sc.J @ p_minus.values)) < 1e-12


def _dense_transformation_kernels(q: Potential) -> tuple[np.ndarray, np.ndarray]:
    """Stack the coupled equations into one linear system, loops and all."""
    n_cells = q.grid.N
    m = n_cells + 1
    n = 2 * q.r
    step = q.grid.step
    sc = structural_constants(q.r)
    jq = sc.J @ q.full()

    pairs = [(i, j) for i in range(m) for j in range(i + 1)]
    where = {pair: t for t, pair in enumerate(pairs)}
    t_count = len(pairs)

    def slot(kind, pair, row):
        return (kind * t_count + where[pair]) * n + row

    dim = 2 * t_count * n
    a = np.zeros((dim, dim), dtype=np.complex128)
    for kind in (0, 1):  # 0: plus equation, 1: minus equation
        for (i, j) in pairs:
            for row in range(n):
                e = slot(kind, (i, j), row)
                a[e, e] += 1.0
                if i == j:
                    continue
                for s in range(j, i + 1):
                    w = step * (0.5 if s in (i, j) else 1.0)
                    for rp in range(n):
                        a[e, slot(1 - kind, (s, s - j), rp)] -= w * jq[s, row, rp]

    plus = np.zeros((m, m, n, n), dtype=np.complex128)
    minus = np.zeros_like(plus)
    for col in range(n):
        b = np.zeros(dim, dtype=np.complex128)
        for (i, j) in pairs:
            for row in range(n):
                b[slot(1, (i, j), row)] = jq[j, row, col]
        x = np.linalg.solve(a, b)
        for (i, j) in pairs:
            for row in range(n):
                plus[i, j, row, col] = x[slot(0, (i, j), row)]
                minus[i, j, row, col] = x[slot(1, (i, j), row)]
    return plus, minus


def test_transformation_kernels_against_dense_solve():
    # the strong constant potentials grow the kernels like e^{|Q| x}, so
    # they are compared relative to the kernels' size; potentials the march
    # does not resolve are refused (see the test below)
    # r >= 2 makes a b != b a, so swapped chains or coefficients show
    cases = [
        (_random_potential(2), None),
        (_random_potential(2, r=2), None),
        (_random_potential(2, r=3), None),
        (const_potential(10.0, 8), 1e-12),
    ]
    for q, rel in cases:
        plus_ref, minus_ref = _dense_transformation_kernels(q)
        p_plus, p_minus = transformation_kernels(q)
        tol = 1e-10
        if rel is not None:
            tol = rel * max(np.max(np.abs(p_plus.values)), np.max(np.abs(p_minus.values)))
        assert np.max(np.abs(p_plus.values - plus_ref)) < tol
        assert np.max(np.abs(p_minus.values - minus_ref)) < tol


def _dense_chains(co: np.ndarray, step: float) -> np.ndarray:
    """The trapezoid system of _kernel_chains as one dense linear system per
    chain, [c, k, i, j] = (U if k == 0 else V)(x_i, x_j):

        U(x_i,x_j) = step sum''_{s=j..i} alpha(s) V(s, s-j)
        V(x_i,x_j) = step sum''_{s=j..i} beta(s) U(s, s-j) + beta(x_j)

    with half weight at both ends of the sum, which is empty for i = j.  The
    unknowns are the blocks below the diagonal; the diagonal U = 0,
    V = beta is known and enters the right-hand side.
    """
    m, chains, _, r, _ = co.shape
    pairs = [(i, j) for i in range(m) for j in range(i)]
    slot = {p: n for n, p in enumerate(pairs)}
    at = lambda k, p: slice((2 * slot[p] + k) * r, (2 * slot[p] + k + 1) * r)
    out = np.zeros((chains, 2, m, m, r, r), dtype=np.complex128)
    for c in range(chains):
        coef = co[:, c]
        a = np.eye(2 * len(pairs) * r, dtype=np.complex128)
        b = np.zeros((2 * len(pairs) * r, r), dtype=np.complex128)
        for i, j in pairs:
            b[at(1, (i, j))] = coef[j, 1]
            for s in range(j, i + 1):
                w = step * (0.5 if s in (i, j) else 1.0)
                if j == 0:  # (s, s) is on the diagonal: V = beta there, U = 0
                    b[at(0, (i, j))] += w * coef[s, 0] @ coef[s, 1]
                    continue
                for k in (0, 1):
                    a[at(k, (i, j)), at(1 - k, (s, s - j))] -= w * coef[s, k]
        x = np.linalg.solve(a, b)
        for i, j in pairs:
            for k in (0, 1):
                out[c, k, i, j] = x[at(k, (i, j))]
        out[c, 1, np.arange(m), np.arange(m)] = coef[:, 1]
    return out


def _natural_chains(co: np.ndarray, step: float, stride: int) -> np.ndarray:
    """_kernel_chains read in the layout of _dense_chains, [c, k, l, j]."""
    m = co.shape[0]
    return np.stack(_chain_reads(_kernel_chains(co, step, stride), stride, 0, 1, m), axis=1)


@pytest.mark.parametrize("chains", [1, 2, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_kernel_chains_solve_their_trapezoid_system(chains, r):
    rng = np.random.default_rng(10 * chains + r)
    for m in (2, 3, 5, 9):
        step = 1.0 / (m - 1)
        shape = (m, chains, 2, r, r)
        co = 0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        ref = _dense_chains(co, step)
        for stride in (1, 2):
            got = _natural_chains(co, step, stride)
            assert got.dtype == np.complex128
            np.testing.assert_allclose(got, ref[:, :, ::stride], rtol=1e-12, atol=0)
        # real coefficients march in float64
        got = _natural_chains(co.real.copy(), step, 1)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, _dense_chains(co.real, step).real, rtol=1e-12, atol=0)


def _plain_march(co: np.ndarray, step: float) -> np.ndarray:
    """The march of _kernel_chains, every row kept, in the natural layout
    [c, k, i, j], one chain and one column at a time: with rev reading
    column i - j, row_i = P_i (hist + H_i rev(hist)) and then
    hist += 2 H_i rev(row_i)."""
    m, chains, _, r, _ = co.shape
    h = 0.5 * step * co
    out = np.zeros((chains, 2, m, m, r, r), dtype=co.dtype)
    for c in range(chains):
        b, h0, h1 = co[:, c, 1], h[:, c, 0], h[:, c, 1]
        hist = np.zeros((2, m, r, r), dtype=co.dtype)
        hist[1] = b  # V's source beta(x_j)
        u0 = np.zeros((r, r), dtype=co.dtype)
        for i in range(m):
            row = np.zeros((2, i + 1, r, r), dtype=co.dtype)
            for j in range(1, i):
                row[0, j] = np.linalg.solve(
                    np.eye(r) - h0[i] @ h1[i], hist[0, j] + h0[i] @ hist[1, i - j]
                )
                row[1, j] = np.linalg.solve(
                    np.eye(r) - h1[i] @ h0[i], hist[1, j] + h1[i] @ hist[0, i - j]
                )
            # U(x_i, 0) by the trapezoid rule; the rest of the border is closed-form
            if i:
                u0 = u0 + h0[i - 1] @ b[i - 1] + h0[i] @ b[i]
            row[0, 0], row[1, 0], row[1, i] = u0, b[0], b[i]
            out[c, :, i, : i + 1] = row
            # the endpoint term of row i, twice into the history of the
            # interior columns and once into column i, which starts here
            hist[0, 1:i] += 2 * h0[i] @ row[1, i - 1 : 0 : -1]
            hist[1, 1:i] += 2 * h1[i] @ row[0, i - 1 : 0 : -1]
            if i:
                hist[0, i] += h0[i] @ b[0]
                hist[1, i] += h1[i] @ u0
    return out


@pytest.mark.parametrize("r", [1, 2, 3])
def test_march_writes_its_skewed_state_as_the_plain_march(r):
    # the march holds V reversed against U and writes it one column to the
    # right each row, taking V's new column in at column 1; read back, it
    # gives the plain march, one chain, row and column at a time
    pair = (_random_potential(r, 16, r), _random_potential(r + 10, 16, r))
    co = np.concatenate([_chain_coefficients(q.q_plus, q.q_minus) for q in pair], axis=1)
    ref = _plain_march(co, 1 / 16)
    for stride in (1, 2):
        got = _natural_chains(co, 1 / 16, stride)
        assert np.abs(got - ref[:, :, ::stride]).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("value, rho", [(16.0, "1"), (40.0, "2.5")])
def test_transformation_kernels_refuse_unresolved_potential(value, rho):
    # at (step/2) q = 1 the pairing matrix of the march is singular, and
    # beyond it the march solves a system that no longer approximates P
    message = f"grid too coarse for the potential: (step/2) rho(JQ) = {rho}"
    with pytest.raises(FieldFormatError, match=f"^{re.escape(message)}$"):
        transformation_kernels(const_potential(value, 8))


def test_transmutation_kernel_zero_potential():
    k = transmutation_kernel(_zero_potential(8))
    assert np.all(k.values == 0)


def _four_term_transmutation(q: Potential) -> np.ndarray:
    """K(x,t) = (1/2){P+(near) + P+(far)B + P-(near)B + P-(far)}, literally.

    near = (x-t)/2 and far = (x+t)/2 are node reads of the full kernels
    solved on the refined grid.
    """
    fine = Potential(q.r, q.grid.refined(), _midpoint_fill(q.q_plus), _midpoint_fill(q.q_minus))
    p_plus, p_minus = transformation_kernels(fine)
    pp, pm = p_plus.values, p_minus.values
    b = structural_constants(q.r).B
    m = q.grid.N + 1
    vals = np.zeros((m, m, 2 * q.r, 2 * q.r), dtype=np.complex128)
    for i in range(m):
        for j in range(i + 1):
            near, far = i - j, i + j
            vals[i, j] = 0.5 * (
                pp[2 * i, near] + pp[2 * i, far] @ b + pm[2 * i, near] @ b + pm[2 * i, far]
            )
    return vals


@pytest.mark.parametrize(
    "q",
    [_random_potential(4), _random_potential(4, r=2), const_potential(10.0, 50)],
    ids=["random-r1", "random-r2", "const10-N50"],
)
def test_transmutation_kernel_against_four_term_formula(q):
    ref = _four_term_transmutation(q)
    k = transmutation_kernel(q)
    assert np.max(np.abs(k.values - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "q",
    [
        _random_potential(5, n_cells=n, r=r)
        for n in (8, 30)
        for r in (1, 2, 3)
    ]
    + [const_potential(10.0, 50)],
    ids=[f"random-r{r}-N{n}" for n in (8, 30) for r in (1, 2, 3)] + ["const10-N50"],
)
def test_one_march_gives_both_transmutation_kernels_exactly(q):
    # the stacked march of Q and Q* repeats each potential's own march bit for bit
    co = np.concatenate([_refined_coefficients(p)[0] for p in (q, potential_adjoint(q))], axis=1)
    k_q, k_star = _transmutation_values(co, 0.5 * q.grid.step)
    assert np.array_equal(k_q, transmutation_kernel(q).values)
    assert np.array_equal(k_star, transmutation_kernel(potential_adjoint(q)).values)
    # so does the pair upsilon marches, with Q*'s coefficients read off q's
    k_low, k_low_star, _ = _transmutation_pair(q)
    assert np.array_equal(k_low, k_q) and np.array_equal(k_low_star, k_star)


def _index_table_transmutation(chains: np.ndarray, n_cells: int) -> list[np.ndarray]:
    """K from the kept rows of a march of chain pairs on the refined grid,
    read through the index tables of fields._half_argument_reads and
    written into zeros: chains[1 + l, c, k, a, e, b] holds U(x_2l, x_e) at
    k = 0 and V(x_2l, x_{2l-e}) at k = 1 (see _kernel_chains)."""
    rows = chains[1:]
    u = rows[:, :, 0].transpose(1, 0, 3, 2, 4)  # [c, l, t, a, b]
    v = np.zeros_like(u)
    for l in range(n_cells + 1):
        v[:, l, : 2 * l + 1] = rows[l, :, 1, :, 2 * l :: -1].transpose(0, 2, 1, 3)
    r = chains.shape[3]
    i, j, near, far = _half_argument_reads(n_cells)
    kernels = []
    for a in range(0, chains.shape[1], 2):
        (ua, ub), (va, vb) = u[a : a + 2], v[a : a + 2]
        vals = np.zeros((n_cells + 1, n_cells + 1, 2 * r, 2 * r), dtype=chains.dtype)
        vals[i, j, :r, :r] = 0.5 * (ua[i, near] + vb[i, near])
        vals[i, j, r:, r:] = 0.5 * (ub[i, near] + va[i, near])
        vals[i, j, :r, r:] = 0.5 * (ua[i, far] + vb[i, far])
        vals[i, j, r:, :r] = 0.5 * (ub[i, far] + va[i, far])
        kernels.append(vals)
    return kernels


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 10_000),
    st.sampled_from([8, 16, 50]),
    st.sampled_from([1, 2, 3]),
    st.sampled_from([np.float64, np.complex128]),
)
def test_strided_transmutation_reads_match_the_index_tables(seed, n_cells, r, dtype):
    # random kept rows of four chains, zero where the march leaves zeros:
    # the strided reads give K exactly as the index tables do, and every
    # read of the strict upper triangle lands on zeros
    rng = np.random.default_rng(seed)
    m = 2 * n_cells + 1
    chains = np.zeros((n_cells + 2, 4, 2, r, m, r), dtype=dtype)
    for l in range(n_cells + 1):
        shape = (4, 2, r, 2 * l + 1, r)
        rows = rng.standard_normal(shape)
        if dtype is np.complex128:
            rows = rows + 1j * rng.standard_normal(shape)
        chains[1 + l, ..., : 2 * l + 1, :] = rows
    co = np.zeros((m, 4, 2, r, r), dtype=dtype)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("kreinmap.inverse_map._kernel_chains", lambda co, step, stride: chains)
        kernels = _transmutation_values(co, 0.5 / n_cells)
    upper = np.triu_indices(n_cells + 1, 1)
    for got, ref in zip(kernels, _index_table_transmutation(chains, n_cells), strict=True):
        assert got.dtype == dtype
        assert np.array_equal(got, ref)
        assert np.all(got[upper] == 0.0)


def _const_blocks(q_plus: complex, q_minus: complex, n_cells: int) -> Potential:
    """r = 1 potential with constant blocks q+ = q_plus, q- = q_minus."""
    block = lambda value: np.full((n_cells + 1, 1, 1), value, dtype=np.complex128)
    return Potential(1, GridSpec(n_cells), block(q_plus), block(q_minus))


OVERFLOW = "transformation kernels overflow floating point; the potential is too large"


@pytest.mark.parametrize(
    "q, message",
    [
        (const_potential(200.0, 50), "grid too coarse for the potential: (step/2) rho(JQ) = 1"),
        (const_potential(750.0, 200), OVERFLOW),
        # the same refusals on the self-adjoint and the real-class paths
        (_const_blocks(40, 40, 8), "grid too coarse for the potential: (step/2) rho(JQ) = 1.25"),
        (_const_blocks(40j, -30j, 8), "grid too coarse for the potential: (step/2) rho(JQ) = 1.08"),
        (_const_blocks(750, 750, 200), OVERFLOW),
        (_const_blocks(750j, -700j, 200), OVERFLOW),
        (_const_blocks(750j, -750j, 200), OVERFLOW),
    ],
    ids=[
        "too-coarse",
        "overflow",
        "too-coarse-self-adjoint",
        "too-coarse-real",
        "overflow-self-adjoint",
        "overflow-real",
        "overflow-both",
    ],
)
def test_product_kernel_refusals_keep_their_text(q, message):
    with pytest.raises(FieldFormatError, match=f"^{re.escape(message)}$"):
        resolvent_product_kernel(q)


@pytest.mark.parametrize("build", [transmutation_kernel, resolvent_product_kernel, upsilon])
def test_refined_potential_overflow_is_refused_without_a_warning(build):
    # finite samples near the float64 limit overflow the cubic midpoint fill
    q = const_potential(1e308, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FieldFormatError, match="^refined potential overflow floating point"):
            build(q)


def _random_blocks(seed: int, n_cells: int = 32, r: int = 2) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    shape = (n_cells + 1, r, r)
    return 0.4 * rng.standard_normal(shape), 0.4 * rng.standard_normal(shape)


def _hermitian_t(a: np.ndarray) -> np.ndarray:
    return np.conj(a.transpose(0, 2, 1))


STRUCTURED_IDS = [
    "closed-form-1.5",
    "const10",
    "const0.3i",
    "linear",
    "theta-gauss",
    "random-r2-real",
    "random-r2-self-adjoint",
    "random-r2-both",
    "random-r2-neither",
]


def _structured_cases():
    x = GridSpec(50).nodes
    closed = (-1.5j / (1.0 + 1.5 * x))[:, None, None]  # theta of the constant 1.5
    a, b = _random_blocks(11)
    c = a + 1j * b
    grid = GridSpec(32)
    return [
        # (potential, real class, self-adjoint)
        (Potential(1, GridSpec(50), closed, -closed), True, True),
        (const_potential(10.0, 50), False, True),
        (const_potential(0.3j, 50), True, False),
        (linear_potential(50), False, False),
        # real-class, but self-adjoint only up to the rounding of its Krein solves
        (theta(gauss_accelerant(0.3, 50)), True, False),
        (Potential(2, grid, 1j * a, 1j * b), True, False),
        (Potential(2, grid, c, _hermitian_t(c)), False, True),
        (Potential(2, grid, 1j * a, _hermitian_t(1j * a)), True, True),
        (Potential(2, grid, c, b + 1j * a), False, False),
    ]


@pytest.mark.parametrize(
    "q, real, self_adjoint",
    _structured_cases(),
    ids=STRUCTURED_IDS,
)
def test_structured_paths_agree_with_the_general_path(monkeypatch, q, real, self_adjoint):
    adj = potential_adjoint(q)
    co = _chain_coefficients(q.q_plus, q.q_minus)
    assert _self_adjoint(co, _chain_coefficients(adj.q_plus, adj.q_minus)) == self_adjoint
    assert co.dtype == (np.float64 if real else np.complex128)
    h, _ = upsilon(q)
    f = resolvent_product_kernel(q)
    for out in (h, f, transmutation_kernel(q)):
        assert out.values.dtype == np.complex128
    # the reference: every potential on the complex path with two resolvents
    monkeypatch.setattr("kreinmap.inverse_map._self_adjoint", lambda co, co_star: False)
    monkeypatch.setattr(
        "kreinmap.inverse_map._chain_coefficients",
        lambda q_plus, q_minus: _chain_coefficients(q_plus, q_minus).astype(np.complex128),
    )
    h_ref, _ = upsilon(q)
    f_ref = resolvent_product_kernel(q)
    if real or self_adjoint:
        assert np.abs(h.values - h_ref.values).max() <= 1e-12 * np.abs(h_ref.values).max()
        assert np.abs(f.values - f_ref.values).max() <= 1e-12 * np.abs(f_ref.values).max()
    else:
        assert np.array_equal(h.values, h_ref.values)
        assert np.array_equal(f.values, f_ref.values)


@pytest.mark.parametrize(
    "q",
    [_random_potential(5, n_cells=30, r=r) for r in (1, 2, 3)]
    + [case[0] for case in _structured_cases()],
    ids=[f"random-r{r}" for r in (1, 2, 3)] + STRUCTURED_IDS,
)
def test_adjoint_coefficients_are_read_off_q(monkeypatch, q):
    # the chain coefficients of Q* that upsilon hands its structure test are
    # those of the refined potential_adjoint(q), value for value and in the
    # same dtype; their bits may differ in the signs of zeros alone (they do
    # for const10 and linear), which array_equal does not see
    seen = []

    def recorded(co, co_star):
        seen.append((co, co_star))
        return _self_adjoint(co, co_star)

    monkeypatch.setattr("kreinmap.inverse_map._self_adjoint", recorded)
    upsilon(q)
    refined = lambda p: _chain_coefficients(_midpoint_fill(p.q_plus), _midpoint_fill(p.q_minus))
    ((co, co_star),) = seen
    ref = refined(potential_adjoint(q))
    assert np.array_equal(co, refined(q))
    assert co_star.dtype == ref.dtype and np.array_equal(co_star, ref)


def test_transmutation_matches_folded_factor():
    # the two sides of the inverse problem meet here: K built from Q alone,
    # L built from h alone, for Q = theta(h)
    h = const_accelerant(0.5, 100)
    k = transmutation_kernel(theta(h))
    lf = folded_lower_factor(h)
    assert np.max(np.abs(k.values - lf.values)) < 5e-3


def _lower_random(seed: int, n_cells: int, n: int = 1, scale: float = 0.5) -> Kernel2D:
    rng = np.random.default_rng(seed)
    m = n_cells + 1
    vals = scale * (rng.standard_normal((m, m, n, n)) + 1j * rng.standard_normal((m, m, n, n)))
    i, j = np.indices((m, m))
    vals[j > i] = 0.0
    return Kernel2D(n, GridSpec(n_cells), "lower", vals)


def _row_equation_residual(k: Kernel2D, l: Kernel2D) -> float:
    """Worst residual of the discrete equations the resolvent solver satisfies.

    L(x,t) + K(x,t) + int_t^x K(x,s) L(s,t) ds = 0 with the per-interval
    trapezoid on [t, x], restated with plain loops over nodes and blocks.
    """
    step = k.grid.step
    kv, lv = k.values, l.values
    m = k.grid.N + 1
    worst = 0.0
    for i in range(m):
        for j in range(i + 1):
            acc = np.zeros((k.n, k.n), dtype=np.complex128)
            if j < i:
                for s in range(j, i + 1):
                    w = step * (0.5 if s in (j, i) else 1.0)
                    acc += w * (kv[i, s] @ lv[s, j])
            worst = max(worst, np.abs(kv[i, j] + lv[i, j] + acc).max())
    return worst


def test_resolvent_volterra_satisfies_row_equations():
    k = _lower_random(3, 16)
    assert _row_equation_residual(k, resolvent_volterra(k)) < 1e-13


@pytest.mark.parametrize(
    "build",
    [
        lambda: _lower_random(4, 16, n=4),  # r = 2: the blocks do not commute
        lambda: transmutation_kernel(const_potential(10.0, 50)),  # K grows like e^{|Q|}
    ],
    ids=["r2_blocks", "strong_q10"],
)
def test_resolvent_volterra_row_equations_wider(build):
    k = build()
    l = resolvent_volterra(k)
    assert l.support == "lower"
    assert _row_equation_residual(k, l) < 1e-13 * np.abs(k.values).max()


@pytest.mark.parametrize("n, real", [(2, True), (4, False)], ids=["r1_real", "r2_complex"])
def test_substitution_blocks_meet_at_their_edges(n, real):
    # at N = 40 the substitution solves rows 1-16, 17-32 and 33-40 as three
    # dense blocks, each on the history of the blocks before it
    values = _lower_random(6, 40, n=n).values
    if real:
        values = values.real.copy()
    k = Kernel2D(n, GridSpec(40), "lower", values + 0j)
    bound = 1e-13 * np.abs(k.values).max()
    l = resolvent_volterra(k)
    assert _row_equation_residual(k, l) < bound
    # a column that starts inside a block starts exactly: L(t, t) = -K(t, t)
    # and zeros above
    d = np.arange(41)
    assert np.array_equal(l.values[d, d], -k.values[d, d])
    assert not l.values[np.triu_indices(41, 1)].any()
    if real:
        # in float64, as the product kernel of a real-class potential runs it
        real_l = _resolvent_values(values, k.grid.step)
        assert real_l.dtype == np.float64
        assert _row_equation_residual(k, Kernel2D(n, k.grid, "lower", real_l + 0j)) < bound
    # a one-column solve is column 0 of the full one
    full = _substitute(values, -values, k.grid.step)
    one = _substitute(values, -values[:, :1], k.grid.step)
    assert np.abs(one[:, 0] - full[:, 0]).max() <= 1e-13 * np.abs(full[:, 0]).max()


@pytest.mark.parametrize("support", ["upper", "full"])
def test_resolvent_volterra_refuses_non_lower_kernels(support):
    low = _lower_random(5, 8, n=2)
    vals = low.values.transpose(1, 0, 3, 2) if support == "upper" else low.values
    with pytest.raises(FieldFormatError, match="requires a lower kernel"):
        resolvent_volterra(Kernel2D(2, low.grid, support, vals))


def test_resolvent_constant_closed_form():
    kappa = 0.5
    n_cells = 200
    g = GridSpec(n_cells)
    m = n_cells + 1
    i, j = np.indices((m, m))
    vals = np.where(j <= i, kappa + 0.0j, 0.0)[:, :, None, None]
    l = resolvent_volterra(Kernel2D(1, g, "lower", vals))
    x = g.nodes
    exact = np.where(j <= i, -kappa * np.exp(-kappa * (x[:, None] - x[None, :])), 0.0)
    err = np.max(np.abs(l.values[:, :, 0, 0] - exact))
    assert err <= 2e-3


def test_resolvent_closed_form_second_order():
    def run(n_cells):
        kappa = 0.5
        g = GridSpec(n_cells)
        m = n_cells + 1
        i, j = np.indices((m, m))
        vals = np.where(j <= i, kappa + 0.0j, 0.0)[:, :, None, None]
        l = resolvent_volterra(Kernel2D(1, g, "lower", vals))
        x = g.nodes
        exact = np.where(j <= i, -kappa * np.exp(-kappa * (x[:, None] - x[None, :])), 0.0)
        return float(np.max(np.abs(l.values[:, :, 0, 0] - exact)))

    assert ratio_ok(run(50), run(100))


def test_resolvent_rejects_singular_diagonal():
    n_cells = 8
    g = GridSpec(n_cells)
    m = n_cells + 1
    vals = np.zeros((m, m, 1, 1), dtype=np.complex128)
    # 1 + (step/2) K(x_i, x_i) = 0 wrecks the forward substitution
    vals[np.arange(m), np.arange(m)] = -2.0 * n_cells
    with pytest.raises(SingularSystemError, match=r"x = 0\.125 \(volterra substitution\)"):
        resolvent_volterra(Kernel2D(1, g, "lower", vals))


def test_product_kernel_zero_potential():
    f = resolvent_product_kernel(_zero_potential(8))
    assert np.all(f.values == 0)


def test_characteristic_extract_inverts_folding():
    for seed in (0, 1, 2):
        h = random_accelerant(seed, r=2, n_cells=32)
        back = characteristic_extract(folded_kernel(h))
        assert np.max(np.abs(back.values - h.values)) < 1e-12, f"seed {seed}"


def test_trace_extract_reads_boundary_exactly():
    h = random_accelerant(4, r=2, n_cells=16)
    back = trace_extract(folded_kernel(h))
    assert np.array_equal(back.values, h.values)


def test_trace_extract_reads_the_named_block_where_two_lines_meet():
    # a kernel that is no fold: its blocks disagree where column t = 1 of two
    # of them reads the same sample, at u = -1/2, 0 and 1/2
    rng = np.random.default_rng(11)
    N, r = 16, 2
    shape = (N + 1, N + 1, 2 * r, 2 * r)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    h = trace_extract(Kernel2D(2 * r, GridSpec(N), "full", vals)).values
    assert np.array_equal(h[N], 2.0 * vals[0, N, r:, :r])  # block (1,0) at (x_0, x_N)
    assert np.array_equal(h[2 * N], 2.0 * vals[N, N, :r, :r])  # block (0,0) at (x_N, x_N)
    assert np.array_equal(h[3 * N], 2.0 * vals[0, N, r:, r:])  # block (1,1) at (x_0, x_N)


def test_characteristic_extract_dilutes_single_entry_noise():
    h = random_accelerant(5, r=1, n_cells=16)
    f = folded_kernel(h)
    vals = f.values.copy()
    eps = 1e-3
    vals[5, 3, 0, 0] += eps  # interior entry, off the boundary column
    noisy = Kernel2D(f.n, f.grid, "full", vals)
    robust = characteristic_extract(noisy)
    literal = trace_extract(noisy)
    assert np.array_equal(literal.values, h.values)  # boundary column untouched
    err = np.max(np.abs(robust.values - h.values))
    assert 0 < err < 2 * eps / 10  # the line through (5,3) holds >= 10 samples


def test_upsilon_zero_potential():
    h, report = upsilon(_zero_potential(8))
    assert np.all(h.values == 0)
    assert report["resolution"].residual == 0.0
    assert report.passed


def test_upsilon_inverts_theta_smooth():
    h = gauss_accelerant(0.3, 50)
    q = theta(h)
    back, report = upsilon(q)
    rel = field_norm(
        type(h)(h.r, h.grid, back.values - h.values), 1.0
    ) / field_norm(h, 1.0)
    assert rel < 5e-4
    # (step/2) rho(JQ) on the refined grid, step = 1/(2N), for r = 1
    nodes = 0.25 * h.grid.step * np.sqrt(np.abs(q.q_plus * q.q_minus)).max()
    assert report["resolution"].residual == pytest.approx(nodes, rel=1e-2)
    assert report.passed


def _closed_form_potential(c: float, n_cells: int) -> Potential:
    """theta of the constant accelerant c: q+ = -ic/(1 + cx) = -q-."""
    qp = (-1j * c / (1.0 + c * GridSpec(n_cells).nodes))[:, None, None]
    return Potential(1, GridSpec(n_cells), qp, -qp)


@pytest.mark.parametrize(
    "case",
    [-0.8, 0.5, 5.0, "gauss"],
    ids=["const-0.8", "const0.5", "const5", "theta-gauss"],
)
def test_upsilon_converges_at_second_order(case):
    errors = []
    for n in (50, 100, 200):
        if case == "gauss":
            truth = gauss_accelerant(0.3, n)
            q = theta(truth)
        else:
            truth = const_accelerant(case, n)
            q = _closed_form_potential(case, n)
        h, _ = upsilon(q)
        errors.append(np.abs(h.values - truth.values).max())
    assert ratio_ok(errors[0], errors[1]) and ratio_ok(errors[1], errors[2]), errors


def test_upsilon_matches_the_trace_of_the_full_product_kernel():
    # the column's two substitutions and the full F's resolvents and
    # compose are two trapezoid discretizations of the same column: they
    # differ at O(step^2) on a complex r = 2 potential in neither class
    gaps = []
    for n in (16, 32, 64):
        rng = np.random.default_rng(2)
        x = GridSpec(n).nodes[:, None, None]
        a, b, c, d = 0.4 * (rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2)))
        q = Potential(2, GridSpec(n), a + x * b, c + x * d)
        h, _ = upsilon(q)
        literal = trace_extract(resolvent_product_kernel(q))
        gap = np.abs(h.values - literal.values).max()
        assert gap <= q.grid.step**2 * np.abs(literal.values).max()
        gaps.append(gap)
    assert ratio_ok(gaps[0], gaps[1]) and ratio_ok(gaps[1], gaps[2]), gaps


def test_column_substitutions_refuse_a_singular_endpoint_factor():
    # I + (step/2) K(x_5, x_5) = 0 at step = 1/8, in K_Q or in K_{Q*} alone:
    # the refusal names its node, also where the substitution for u runs on
    # K_{Q*} flipped in both arguments (not at the flipped x = 0.375)
    singular = np.zeros((9, 9, 2, 2))
    singular[5, 5] = -16.0 * np.eye(2)
    zero = np.zeros_like(singular)
    for k_low, k_star in ((singular, zero), (zero, singular)):
        with pytest.raises(SingularSystemError, match=r"x = 0\.625 \(volterra substitution\)"):
            _product_column(k_low, k_star, GridSpec(8))


def test_refusals_name_a_node_inside_a_later_block():
    # I + (step/2) K(x_20, x_20) = 0 at N = 40, in the second block of rows
    # (17-32), with a random lower K around it
    k = _lower_random(8, 40, n=2).values.copy()
    k[20, 20] = -80.0 * np.eye(2)
    message = r"x = 0\.5 \(volterra substitution\)"
    with pytest.raises(SingularSystemError, match=message):
        resolvent_volterra(Kernel2D(2, GridSpec(40), "lower", k))
    other = _lower_random(9, 40, n=2).values
    for k_low, k_star in ((k, other), (other, k)):
        with pytest.raises(SingularSystemError, match=message):
            _product_column(k_low, k_star, GridSpec(40))
