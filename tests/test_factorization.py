"""Convolution kernel, accelerant sweep, GLM row solves, triangular split."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    const_accelerant,
    gauss_accelerant,
    in_band_accelerant,
    random_accelerant,
    ratio_ok,
    toeplitz_kernel,
)
from kreinmap import (
    Accelerant,
    GridSpec,
    Kernel2D,
    Potential,
    factorize,
    folded_kernel,
    is_accelerant,
    mixed_norm,
    op_from_kernel,
    reflect,
    solve_glm,
    solve_krein,
    theta,
    upsilon,
)
from kreinmap import factorization
from kreinmap.errors import FieldFormatError
from kreinmap.factorization import _dense_row
from kreinmap.quadops import _flatten, _real_if_exact, _unflatten


def test_convolution_reads_exact_samples():
    n_cells = 8
    g = GridSpec(n_cells)
    pts = -1.0 + np.arange(4 * n_cells + 1) / (2 * n_cells)
    h = Accelerant(1, g, pts[:, None, None].astype(complex))  # h(u) = u
    f = toeplitz_kernel(h)
    x = g.nodes
    assert np.array_equal(f.values[:, :, 0, 0], x[:, None] - x[None, :])


def test_convolution_constant():
    f = toeplitz_kernel(const_accelerant(0.7, 8))
    assert np.all(f.values == 0.7)


@pytest.mark.parametrize("r", [1, 2])
def test_convolution_window_matches_index_gather(r):
    h = random_accelerant(r, r=r, n_cells=16)
    real = Accelerant(r, h.grid, h.values.real)
    for grid, stride in ((h.grid, 2), (h.grid.refined(), 1)):
        i, j = np.indices((grid.N + 1, grid.N + 1))
        # T, one copy of the window view, is the flattened gather to the
        # byte, in float64 when every sample it reads is real
        for g, dtype in ((h, np.complex128), (real, np.float64)):
            t = factorization._toeplitz_matrix(g, grid)
            ref = _real_if_exact(_flatten(g.values[2 * h.grid.N + stride * (i - j)]))[0]
            assert t.flags.c_contiguous
            assert t.dtype == ref.dtype == dtype
            assert t.tobytes() == ref.tobytes()
    for n_cells in (8, 24, 64):
        with pytest.raises(FieldFormatError, match="neither the accelerant grid"):
            factorization._toeplitz_matrix(h, GridSpec(n_cells))


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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
@pytest.mark.parametrize("c, n_cells", [(-1.3, 100), (-1.1, 200)])
def test_accelerant_sweep_rejects_an_off_node_constant(c, n_cells):
    # for h = c, I + H_alpha is singular at alpha = 1/|c|, so no c <= -1 is
    # an accelerant; here 1/|c| falls between two nodes, whose margins stay
    # near 1e-3, and the sweep, which tests the nodes alone, accepts
    assert not is_accelerant(const_accelerant(c, n_cells)).accepted


def test_accelerant_sweep_reflection_invariant():
    for seed in range(20):
        h = random_accelerant(seed, r=2, n_cells=32)
        a = is_accelerant(h)
        b = is_accelerant(reflect(h))
        assert a.accepted == b.accepted, f"seed {seed}"
        # index-flip unitary equivalence: identical singular values
        assert np.allclose(a.sigma_min, b.sigma_min, rtol=1e-9, atol=1e-12)


def _real_r2_accelerant() -> Accelerant:
    h = random_accelerant(3, r=2, n_cells=24)
    return Accelerant(2, h.grid, h.values.real.astype(complex))


def _one_complex_sample() -> Accelerant:
    # the sweep reads only the even samples; u = x_1 is one of them
    vals = const_accelerant(0.5, 40).values.copy()
    vals[2 * 40 + 2] += 0.2j
    return Accelerant(1, GridSpec(40), vals)


def _fourier_r2() -> Accelerant:
    # three complex exponentials with 2 x 2 coefficients: T has rank 6
    rng = np.random.default_rng(5)
    grid = GridSpec(40)
    u = -1.0 + np.arange(4 * grid.N + 1) / (2 * grid.N)
    coef = 0.3 * (rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2)))
    waves = np.exp(1j * np.pi * np.outer(u, np.arange(1, 4)))
    return Accelerant(2, grid, np.einsum("uj,jab->uab", waves, coef))


# At N = 40 the minimum margin of c = -1.25 (1 + d) is 0.98509 d, at alpha = 0.8;
# these two d put it at 1.04e-8 and 0.96e-8, within 1e-9 of the threshold.
_NEAR_THRESHOLD = {"above": 1.0557421929539808e-8, "below": 9.745312550344436e-9}


_SWEEP_INPUTS = {
    "c=0.5": (const_accelerant(0.5, 40), True),
    "c=-1.25": (const_accelerant(-1.25, 40), True),
    "gauss": (gauss_accelerant(0.3, 40), False),
    "real-r2": (_real_r2_accelerant(), False),
    "one-complex-sample": (_one_complex_sample(), False),
    "c=-1.25-N100": (const_accelerant(-1.25, 100), True),
    "fourier-r2": (_fourier_r2(), True),
    "gauss-N80": (gauss_accelerant(0.3, 80), True),
    "near-threshold-above": (const_accelerant(-1.25 * (1 + _NEAR_THRESHOLD["above"]), 40), True),
    "near-threshold-below": (const_accelerant(-1.25 * (1 + _NEAR_THRESHOLD["below"]), 40), True),
    "in-band-above": (in_band_accelerant("above"), True),
    "in-band-below": (in_band_accelerant("below"), True),
}


@pytest.mark.parametrize("h, low_rank", list(_SWEEP_INPUTS.values()), ids=list(_SWEEP_INPUTS))
def test_accelerant_sweep_matches_complex_svd(h, low_rank):
    # pin which inputs the low-rank sweep serves, then check it against the
    # dense SVDs
    _, _, dense = factorization._low_rank_sweep(
        factorization._toeplitz_matrix(h), h.grid, h.r
    )
    assert (not dense.all()) == low_rank
    _assert_sweep_matches_complex_svd(h)


def _assert_sweep_matches_complex_svd(h: Accelerant) -> None:
    # reference: every I + H_alpha built and decomposed in complex128
    N, r = h.grid.N, h.r
    conv = toeplitz_kernel(h).values
    ref_min, ref_max = np.empty(N), np.empty(N)
    for k in range(1, N + 1):
        w = h.grid.trapezoid(k)
        dim = (k + 1) * r
        a = (conv[: k + 1, : k + 1] * w[None, :, None, None]).transpose(0, 2, 1, 3)
        sigma = np.linalg.svd(a.reshape(dim, dim) + np.eye(dim), compute_uv=False)
        ref_max[k - 1], ref_min[k - 1] = sigma[0], sigma[-1]
    margins = ref_min / ref_max
    rep = is_accelerant(h)
    scale = ref_max.max()
    assert np.max(np.abs(rep.sigma_min - ref_min)) <= 1e-12 * scale
    assert np.max(np.abs(rep.sigma_max - ref_max)) <= 1e-12 * scale
    assert rep.accepted == bool(np.all(margins > 1e-8))
    assert rep.worst_alpha == (int(np.argmin(margins)) + 1) / N


def _forward_like(seed: int) -> dict:
    """The input families of the forward benchmark workload: constants at
    N = 100 and 200 (one of them the rejected c = -1.25), and smooth complex
    series of three Fourier terms, r = 1 at N = 100 and 200 and r = 2 at
    N = 50, scaled to a mean spectral norm of 0.18."""
    rng = np.random.default_rng(seed)
    inputs = {
        "const100": const_accelerant(rng.uniform(-0.7, 2.0), 100),
        "const200": const_accelerant(rng.uniform(0.2, 4.0), 200),
        "reject100": const_accelerant(-1.25, 100),
        "reject200": const_accelerant(-1.25, 200),
    }
    for r, n_cells in ((1, 100), (1, 200), (2, 50)):
        u = -1.0 + np.arange(4 * n_cells + 1) / (2 * n_cells)
        coef = rng.standard_normal((3, 2, r, r)) + 1j * rng.standard_normal((3, 2, r, r))
        vals = sum(
            (coef[k, 0] * np.cos(np.pi * k * u)[:, None, None]
             + coef[k, 1] * np.sin(np.pi * k * u)[:, None, None]) / (1 + k)
            for k in range(3)
        )
        vals *= 0.18 / np.mean(np.linalg.norm(vals, 2, axis=(1, 2)))
        inputs[f"smooth{r}_{n_cells}"] = Accelerant(r, GridSpec(n_cells), vals)
    return {f"{name}-seed{seed}": h for name, h in inputs.items()}


def _twenty_waves() -> Accelerant:
    # twenty complex exponentials at N = 200: T has numerical rank 19, more
    # than the first sketch of 16 columns can show, so it is drawn again
    rng = np.random.default_rng(20)
    u = -1.0 + np.arange(801) / 400
    waves = np.exp(1j * np.pi * np.outer(u, np.arange(1, 21)))
    return Accelerant(1, GridSpec(200), 0.01 * (waves @ rng.standard_normal(20))[:, None, None])


_RANK_INPUTS = {name: h for name, (h, _) in _SWEEP_INPUTS.items()}
for _seed in (1, 2, 3):
    _RANK_INPUTS.update(_forward_like(_seed))
_RANK_INPUTS["twenty-waves"] = _twenty_waves()


@pytest.mark.parametrize("h", list(_RANK_INPUTS.values()), ids=list(_RANK_INPUTS))
def test_sketch_rank_matches_the_values_only_cut(h):
    # the rank the sketch reads off itself against numpy's matrix_rank cut
    # of T's own singular values, which the sweep took before: the same p,
    # and the same verdict on whether the low-rank path runs
    t = factorization._toeplitz_matrix(h)
    n = t.shape[0]
    s = np.linalg.svd(t, compute_uv=False)
    p = max(1, int(np.count_nonzero(s > n * np.finfo(float).eps * s[0])))
    factor = factorization._sketched_factor(t)
    if 2 * p > factorization._CORE_FRACTION * n:
        assert factor is None
    else:
        assert factor is not None and factor[0].shape == (n, 2 * p)


def test_overflowing_sketch_sends_the_sweep_dense():
    # T = 1e308 everywhere is finite, but T Omega is not: the sweep tests
    # the sketch before any QR or SVD sees it and decomposes densely, with
    # no warning and no LinAlgError
    h = const_accelerant(1e308, 16)
    t = factorization._toeplitz_matrix(h)
    assert np.isfinite(t).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert factorization._sketched_factor(t) is None
        _, _, dense = factorization._low_rank_sweep(t, h.grid, 1)
        assert dense.all()
        assert not is_accelerant(h).accepted


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.sampled_from([1, 2]),
    n_cells=st.sampled_from([24, 40, 64, 100]),
    freqs=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=3),
    scale=st.floats(0.05, 3.0),
)
def test_low_rank_sweep_matches_complex_svd(seed, r, n_cells, freqs, scale):
    # a sum of complex exponentials with r x r coefficients: T has rank at
    # most 3 r, so the sketch and the cores decide all but a few truncations
    rng = np.random.default_rng(seed)
    shape = (len(freqs), r, r)
    coef = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    u = -1.0 + np.arange(4 * n_cells + 1) / (2 * n_cells)
    waves = np.exp(1j * np.pi * np.outer(u, freqs))
    h = Accelerant(r, GridSpec(n_cells), np.einsum("uj,jab->uab", waves, coef))
    _, _, dense = factorization._low_rank_sweep(factorization._toeplitz_matrix(h), h.grid, r)
    assert not dense.all()
    _assert_sweep_matches_complex_svd(h)


@pytest.mark.parametrize(
    "margins, final",
    [
        ([0.5, 0.3, 0.2, 0.9], [True, True, True]),  # an isolated minimum
        ([0.5, 0.2, 0.2 + 1e-13, 0.9], [False, False, True]),  # a near tie in the core
        ([0.2 + 1e-13, 0.5, 0.2, 0.9], [True, False, True]),  # a near tie with a dense margin
        ([0.5, 0.9, 1e-8 + 1e-13], [True, False]),  # a minimum at the threshold
        ([0.5, 0.9, 1e-8 + 1e-12], [True, True]),
        ([0.5, np.nan, 0.3], [False, False]),
    ],
)
def test_core_decides_clear_margins_and_an_isolated_minimum(margins, final):
    # margins[0] is a dense margin, the rest compressed ones within
    # 3 err = 3e-13 of their dense values
    got = factorization._decided_by_core(np.array(margins), np.arange(1, len(margins)), 1e-13)
    assert got.tolist() == final


def _schur_rho(h: Accelerant) -> float:
    # step * sqrt(max row sum * max column sum) of the dense [|h(x_i - x_j)|_2]
    N = h.grid.N
    i, j = np.indices((N + 1, N + 1))
    blocks = h.values[2 * N + 2 * (i - j)]
    b = np.linalg.svd(blocks, compute_uv=False)[..., 0]
    return h.grid.step * np.sqrt(b.sum(axis=1).max() * b.sum(axis=0).max())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.sampled_from([1, 2]),
    n_cells=st.sampled_from([8, 10, 16, 24]),
    complex_values=st.booleans(),
    rho=st.floats(0.01, 1.5),
)
def test_certified_margin_never_exceeds_the_sweep(seed, r, n_cells, complex_values, rho):
    rng = np.random.default_rng(seed)
    shape = (4 * n_cells + 1, r, r)
    vals = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_values else 0)
    h = Accelerant(r, GridSpec(n_cells), vals.astype(complex))
    h = Accelerant(r, h.grid, h.values * (rho / _schur_rho(h)))
    for g in (h, reflect(h)):
        bound = factorization._certified_margin(factorization._norm_bound(g))
        if rho < 0.999:
            assert bound == pytest.approx((1 - rho) / (1 + rho), rel=1e-9)
        if rho > 1.001:
            assert bound is None
        if bound is not None:
            rep = is_accelerant(g)
            assert rep.accepted
            assert rep.margins.min() >= bound


def test_certified_margin_leaves_the_between_node_constant_to_the_sweep():
    # 1 + c alpha vanishes between two nodes for c = -1/(x_20 + step/2);
    # the bound must not certify it, so the sweep still decides it
    n_cells = 100
    h = const_accelerant(-1.0 / (20 / n_cells + 0.5 / n_cells), n_cells)
    assert _schur_rho(h) > 1
    assert factorization._certified_margin(factorization._norm_bound(h)) is None
    assert factorization._certified_margin(factorization._norm_bound(reflect(h))) is None


@pytest.mark.parametrize("sign, certificate", [(1, "numerical range bound"), (-1, None)])
def test_schur_bound_below_the_floor_certifies_nothing(sign, certificate):
    # rho = |c| (1 + 1/N) = 1 - 1.5e-6 bounds every margin below by
    # (1 - rho)/(1 + rho) = 7.5e-7, under _CERTIFY_FLOOR: the Schur bound
    # certifies nothing, c > 0 goes to the numerical range bound and c < 0
    # to the sweep, and every margin reported clears the floor
    n_cells = 16
    h = const_accelerant(sign * (1 - 1.5e-6) / (1 + 1 / n_cells), n_cells)
    rho = factorization._norm_bound(h)
    assert rho == pytest.approx(1 - 1.5e-6, rel=1e-12)
    assert factorization._certified_margin(rho) is None
    margin, got, _, _ = factorization._gated_krein_rows(h)
    assert got == certificate
    assert margin >= factorization._CERTIFY_FLOOR


@pytest.mark.parametrize(
    "h",
    [
        const_accelerant(0.5, 16),
        const_accelerant(0.5, 16, r=2),
        const_accelerant(-0.95, 16),
        const_accelerant(-1.0 / (20 / 100 + 0.5 / 100), 100),
        gauss_accelerant(0.3, 40),
        random_accelerant(1, r=1, n_cells=32, scale=0.01),
        random_accelerant(0, r=2, n_cells=16, scale=0.1),
    ],
    ids=["c=0.5", "c=0.5-r2", "c=-0.95", "between-nodes", "gauss", "random-r1", "random-r2"],
)
def test_norm_bound_keeps_the_schur_verdict_and_printed_margin(h):
    # _norm_bound reads its block norms through quadops._block_spectral_norms,
    # |h| for r = 1 where a batched 1 x 1 SVD ran: against the dense SVD
    # reference the verdict and the margin CLI theta prints are unchanged
    rho, ref = factorization._norm_bound(h), _schur_rho(h)
    assert rho == pytest.approx(ref, rel=1e-14)
    bound, ref_bound = factorization._certified_margin(rho), factorization._certified_margin(ref)
    assert (bound is None) == (ref_bound is None)
    if bound is not None:
        assert f"{bound:.6f}" == f"{ref_bound:.6f}"


@pytest.mark.parametrize("c", [1e300, np.finfo(float).max])
def test_certified_margin_of_an_overflowing_accelerant_is_none(c):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r in (1, 2):
            rho = factorization._norm_bound(const_accelerant(c, 16, r=r))
            assert factorization._certified_margin(rho) is None


def _positive_type(rng, r: int, n_cells: int, complex_values: bool) -> np.ndarray:
    # sum_k P_k e^{i w_k u} (cos(w_k u) when real) with P_k = G_k G_k^H >= 0:
    # every Toeplitz matrix [h(x_i - x_j)] of it is Hermitian positive
    # semi-definite
    u = -1.0 + np.arange(4 * n_cells + 1) / (2 * n_cells)
    g = rng.standard_normal((3, r, r))
    if complex_values:
        g = g + 1j * rng.standard_normal((3, r, r))
    p = g @ np.conj(np.swapaxes(g, 1, 2))
    w = rng.uniform(-12.0, 12.0, 3)
    phase = np.exp(1j * np.outer(u, w)) if complex_values else np.cos(np.outer(u, w))
    return np.einsum("uk,kab->uab", phase, p)


def _numerical_range_margin(h: Accelerant):
    t = factorization._toeplitz_matrix(h)
    return factorization._numerical_range_margin(t, h.grid.step, factorization._norm_bound(h))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.sampled_from([1, 2]),
    n_cells=st.sampled_from([8, 10, 16, 24]),
    complex_values=st.booleans(),
    rho=st.floats(1.01, 20.0),
    noise=st.floats(0.0, 2.0),
)
def test_numerical_range_margin_never_exceeds_the_sweep(
    seed, r, n_cells, complex_values, rho, noise
):
    # positive-type h beyond the Schur norm bound (rho > 1), then the same h
    # plus an arbitrary perturbation of relative size noise, large enough to
    # leave about half of them uncertified
    rng = np.random.default_rng(seed)
    grid = GridSpec(n_cells)
    h = Accelerant(r, grid, _positive_type(rng, r, n_cells, complex_values).astype(complex))
    h = Accelerant(r, grid, h.values * (rho / _schur_rho(h)))
    shape = h.values.shape
    kick = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_values else 0)
    size = np.mean(np.linalg.norm(h.values, 2, axis=(1, 2)))
    perturbed = Accelerant(r, grid, h.values + noise * size * kick / np.abs(kick).max())
    assert factorization._certified_margin(factorization._norm_bound(h)) is None
    assert _numerical_range_margin(h) is not None  # positive type is certified
    for g in (h, reflect(h), perturbed, reflect(perturbed)):
        bound = _numerical_range_margin(g)
        if bound is not None:
            assert bound >= factorization._CERTIFY_FLOOR
            rep = is_accelerant(g)
            assert rep.accepted
            assert rep.margins.min() >= bound


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize(
    "c, n_cells, accepted",
    [
        (-1.25, 40, False),  # 1 + c alpha = 0 on the node alpha = 0.8
        (-1.0 / (20 / 100 + 0.5 / 100), 100, True),  # 1 + c alpha = 0 between two nodes
        (-0.95, 16, True),  # rho = 1.009, 1 + step lam = -0.009
        (-16 / 17 * (1 - 1e-7), 16, True),  # bound 3.5e-8, below the floor
        (1e10, 16, False),  # positive type, but margins below 1e-8
        (1e300, 16, False),
        (np.finfo(float).max, 16, False),
    ],
    ids=["-1.25", "between-nodes", "-0.95", "floor", "1e10", "1e300", "float-max"],
)
def test_neither_certificate_covers_these_constants(r, c, n_cells, accepted):
    # the sweep alone decides these: every rejection, and the two accepted
    # inputs that sit closest to a singular I + H_alpha
    h = const_accelerant(c, n_cells, r=r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = factorization._norm_bound(h)
        assert factorization._certified_margin(rho) is None
        t = factorization._toeplitz_matrix(h)
        assert factorization._numerical_range_margin(t, h.grid.step, rho) is None
        assert is_accelerant(h).accepted == accepted


@pytest.mark.parametrize(
    "h",
    [gauss_accelerant(0.3, 40), const_accelerant(-0.95, 16), _real_r2_accelerant()],
    ids=["gauss", "c=-0.95", "real-r2"],
)
def test_real_krein_solve_agrees_with_the_complex_path(monkeypatch, h):
    dtypes = set()
    lu_inverses = factorization._lu_inverses

    def recorded(a):
        dtypes.add(a.dtype)
        return lu_inverses(a)

    monkeypatch.setattr(factorization, "_lu_inverses", recorded)
    real = solve_krein(h)
    assert dtypes == {np.dtype(np.float64)}
    assert real.values.dtype == np.complex128

    # an imaginary part of 1e-300 on one sample the solve reads keeps the
    # complex path and moves no real part
    dtypes.clear()
    vals = h.values.copy()
    vals[2 * h.grid.N + 2] += 1e-300j
    ref = solve_krein(Accelerant(h.r, h.grid, vals)).values
    assert dtypes == {np.dtype(np.complex128)}
    assert np.max(np.abs(real.values - ref)) <= 1e-12 * np.max(np.abs(ref))


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
    f = toeplitz_kernel(h)
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
    lo = eye + op_from_kernel(l_plus)
    up = eye + op_from_kernel(l_minus)
    recon = np.linalg.inv(lo) @ np.linalg.inv(up)
    target = eye + op_from_kernel(f)
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
        b = np.linalg.inv(eye + op_from_kernel(f))
        flip = _block_flip(m, n)
        low_f, up_f = _block_doolittle(flip @ b @ flip, n)
        u_brute = flip @ low_f @ flip
        l_brute = flip @ up_f @ flip
        d_scale = _block_diag_of(up, n)
        u_fact = up @ np.linalg.inv(d_scale)
        l_fact = d_scale @ lo
        assert np.max(np.abs(u_fact - u_brute)) < 1e-10, f"seed {seed}"
        assert np.max(np.abs(l_fact - l_brute)) < 1e-10, f"seed {seed}"


def _node_edges(f: Kernel2D, edge) -> np.ndarray:
    """An edge per node, the diagonal blocks of f in place of a missing one."""
    d = np.arange(f.grid.N + 1)
    return f.values[d, d] if edge is None else np.broadcast_to(edge, f.values[d, d].shape)


def _dense_glm(f: Kernel2D, plus, minus) -> np.ndarray:
    """solve_glm row by row, each row one dense solve: the reference."""
    x = np.zeros_like(f.values)
    x[0, 0] = -(f.values[0, 0] if plus is None else plus)
    flat, plus, minus = _flatten(f.values), _node_edges(f, plus), _node_edges(f, minus)
    for i in range(1, f.grid.N + 1):
        x[i, : i + 1] = _dense_row(flat, f.grid, i, plus, minus)
    return x


@pytest.fixture
def fallback_rows(monkeypatch):
    """The rows solve_glm hands to its dense fallback, in call order."""
    rows = []

    def counted(f, grid, i, *edges):
        rows.append(i)
        return _dense_row(f, grid, i, *edges)

    monkeypatch.setattr(factorization, "_dense_row", counted)
    return rows


_GLM_KERNELS = {
    "direct": toeplitz_kernel,
    "reflected": lambda h: toeplitz_kernel(reflect(h)),
    "refined": lambda h: toeplitz_kernel(h, h.grid.refined()),
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
        got = factorization._nested_solve(_flatten(f.values), f.grid, plus, minus)[0]
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), f"seed {seed}"
        assert fallback_rows == [], f"seed {seed}: the nested LU alone should do"


def _two_gemm_y(b: np.ndarray, u_inv: np.ndarray, l_inv: np.ndarray, n: int) -> np.ndarray:
    """Y = tril(B U^-1) L^-1, the block-lower mask after the first GEMM:
    every y_i = b_i S_i^-1 the long way, the reference."""
    rows = np.arange(b.shape[0]) // n
    y = b @ u_inv
    y[rows[None, :] > rows[:, None]] = 0.0
    return y @ l_inv


@pytest.mark.parametrize("kind", sorted(_GLM_KERNELS))
def test_last_block_rows_give_y_without_the_two_gemms(kind):
    # y_i off its diagonal block from the last block row of S_i^-1, and
    # Y_ii from one batched product, against the two GEMMs on the same
    # factors: r = 1..3, edge_plus on and off (edge_minus does not enter
    # Y), N from 8 to 200. Taking Y_ii from e_i - R_i as well would exceed
    # the bound, by 1.3e-13 to 2.2e-13 relative on the N = 200 cases
    cases = [(1, 8), (1, 32), (1, 100), (1, 200), (2, 8), (2, 16), (2, 64), (3, 8), (3, 16), (3, 32)]
    for seed, (r, n_cells) in enumerate(cases * 2):
        h = random_accelerant(seed, r=r, n_cells=n_cells, scale=0.3)
        f = _GLM_KERNELS[kind](h)
        n, m, step = f.n, f.grid.N + 1, f.grid.step
        F = f.values
        f_diag = F[np.arange(m), np.arange(m)]
        rng = np.random.default_rng(seed)
        edge = 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        plus = np.broadcast_to(edge, f_diag.shape) if seed % 2 else f_diag
        rows = np.repeat(np.arange(m), n)
        s = factorization._shared_matrix(_flatten(F), plus, step)
        u_inv = s.copy()
        l_inv = factorization._lu_inverses(u_inv)
        b = factorization._stacked_rhs(_flatten(F), plus, rows[None, :] > rows[:, None])
        y_coef, y_diag = factorization._last_block_rows(b, u_inv, l_inv, plus - f_diag, step, n)
        got = factorization._row_combination(np.eye(n), np.zeros((n, n)), y_coef, y_diag, l_inv, n)
        ref = _two_gemm_y(b, u_inv, l_inv, n)
        err = np.max(np.abs(got.reshape(ref.shape) - ref))
        assert err <= 1e-13 * np.max(np.abs(ref)), f"seed {seed}"


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
    ref = _dense_glm(toeplitz_kernel(h), edge, edge)
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
        got = factorization._nested_solve(_flatten(f.values), f.grid, plus, None)[0]
    assert fallback_rows == list(range(1, 17))
    ref = _dense_glm(f, plus, None)
    assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1, 2])
def test_second_family_survives_a_zero_pivot(fallback_rows, n):
    # the same zero pivot with an arbitrary first-row right-hand side c:
    # every row of both families comes from a dense solve, with no warning
    f = _random_full_kernel(n, 16, n)
    plus = -2.0 * f.grid.N * np.eye(n)
    rng = np.random.default_rng(n)
    c = rng.standard_normal((n, 17 * n)) + 1j * rng.standard_normal((n, 17 * n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, z = factorization._nested_solve(_flatten(f.values), f.grid, plus, None, c)
    assert fallback_rows == list(range(1, 17)) * 2
    ref = _dense_glm(f, plus, None)
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))
    ref = np.zeros_like(z)
    ref[0, 0] = -c[:, :n]
    for i in range(1, 17):
        ref[i, : i + 1] = _dense_row(_flatten(f.values), f.grid, i, _node_edges(f, plus), _node_edges(f, None), c)
    assert np.max(np.abs(z - ref)) <= 1e-10 * np.max(np.abs(ref))


def _smooth_r2_upsilon() -> Accelerant:
    # a smooth complex 2 x 2 potential; its accelerant jumps at u = 0
    rng = np.random.default_rng(7)
    x = GridSpec(32).nodes[:, None, None]
    a, b, c, d = 0.15 * (rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2)))
    qp = a + b * np.cos(np.pi * x) + c * np.sin(2 * np.pi * x)
    qm = d + c * np.cos(2 * np.pi * x) - b * x
    return upsilon(Potential(2, GridSpec(32), qp, qm))[0]


def _uneven_at_a_half_step(h: Accelerant) -> Accelerant:
    # a change to one odd sample, which the solve on h's own grid never
    # reads, makes h uneven without changing either Krein system
    vals = h.values.copy()
    vals[1] += 1e-3
    return Accelerant(h.r, h.grid, vals)


def _direct_krein_rows(h: Accelerant) -> np.ndarray:
    """The Krein rows of h alone, the reference for _krein_pair: one
    _nested_solve on T with the extrapolated edges h(0+), h(0-) and no
    second family."""
    t = factorization._toeplitz_matrix(h)
    F = _unflatten(t, h.r)
    plus = 3.0 * F[1, 0] - 3.0 * F[2, 0] + F[3, 0]
    minus = 3.0 * F[0, 1] - 3.0 * F[0, 2] + F[0, 3]
    return factorization._nested_solve(t, h.grid, plus, minus)[0]


_SINGULAR_BLOCK = const_accelerant(-1.0 / (50 / 100 + 0.5 / 100), 100)


@pytest.mark.parametrize(
    "h",
    [
        _smooth_r2_upsilon(),
        _real_r2_accelerant(),
        random_accelerant(4, r=3, n_cells=24, scale=0.05),
        _uneven_at_a_half_step(_SINGULAR_BLOCK),
    ],
    ids=["upsilon-r2", "real-r2", "random-r3", "singular-block"],
)
def test_krein_pair_matches_two_krein_solves(monkeypatch, fallback_rows, h):
    factored = []
    lu_inverses = factorization._lu_inverses

    def recorded(a):
        factored.append(a)
        return lu_inverses(a)

    monkeypatch.setattr(factorization, "_lu_inverses", recorded)
    direct, reflected = factorization._krein_pair(h)
    # one nested LU: one call of _lu_inverses factors all of S
    dim = (h.grid.N + 1) * h.r
    (s,) = [a for a in factored if a.shape[0] == dim]
    pair_rows = list(fallback_rows)
    # the second family leaves the direct rows as they are, to the byte
    assert direct.tobytes() == _direct_krein_rows(h).tobytes()
    ref = _direct_krein_rows(reflect(h))
    assert np.max(np.abs(reflected - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert reflected.dtype == np.complex128
    assert not reflected[~np.tri(h.grid.N + 1, dtype=bool)].any()  # a lower kernel
    real = not h.values.imag.any()
    assert s.dtype == np.dtype(np.float64 if real else np.complex128)
    if h.grid.N == 100:
        # the rows of the singular leading block S_50 and after it, in both
        # families, but rows 51 and 52 of the direct one, whose residuals
        # pass the check
        assert pair_rows == [50, *range(53, 101), *range(50, 101)]
    else:
        assert pair_rows == []


def test_krein_pair_of_an_even_accelerant_solves_once(fallback_rows):
    for h in (gauss_accelerant(0.3, 32), _SINGULAR_BLOCK):
        direct, reflected = factorization._krein_pair(h)
        assert reflected is direct
        assert direct.tobytes() == _direct_krein_rows(reflect(h)).tobytes()
    assert fallback_rows, "the singular leading block sends rows to the fallback"
