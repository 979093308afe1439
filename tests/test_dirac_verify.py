"""Cross-checks against the differential system and the probe harnesses."""

import json
import re

import numpy as np
import pytest

from conftest import (
    const_accelerant,
    const_potential,
    gauss_accelerant,
    linear_potential,
    r2_potential,
    random_accelerant,
    ratio_ok,
)
from kreinmap import (
    Accelerant,
    GridSpec,
    Kernel2D,
    NotAccelerantError,
    Potential,
    block_krein_kernel,
    check_fundamental_representation,
    check_krein_derivative_identity,
    decimate_accelerant,
    decimate_potential,
    field_norm,
    identity_suite,
    krein_solution,
    lipschitz_probe,
    nystrom_weights,
    resolvent_product_kernel,
    roundtrip_report,
    solve_cauchy,
    spectral_radius_probe,
    structural_constants,
    theta,
    transformation_kernels,
    transmutation_kernel,
    transmuted_solution,
    upsilon,
)
from kreinmap import dirac_verify, factorization
from kreinmap.cli import main, write_field
from kreinmap.dirac_verify import _halved_rows, _triangle_compose, apply_wave_operator
from kreinmap.errors import FieldFormatError, SingularSystemError
from kreinmap.inverse_map import _resolvent_factors


def _zero_potential(n_cells: int) -> Potential:
    z = np.zeros((n_cells + 1, 1, 1), dtype=np.complex128)
    return Potential(1, GridSpec(n_cells), z, z)


def test_cauchy_free_evolution():
    lam = 1.3
    y = solve_cauchy(_zero_potential(32), lam)
    x = GridSpec(32).nodes
    assert np.max(np.abs(y[:, 0, 0] - np.exp(1j * lam * x))) < 1e-8
    assert np.max(np.abs(y[:, 1, 1] - np.exp(-1j * lam * x))) < 1e-8
    assert np.max(np.abs(y[:, 0, 1])) < 1e-12


def test_cauchy_determinant_conserved():
    # the generator is traceless, so det Y = 1 along the whole interval
    y = solve_cauchy(linear_potential(32), 1.0 + 0.5j)
    dets = np.linalg.det(y)
    assert np.max(np.abs(dets - 1.0)) < 1e-8


def test_cauchy_refuses_unresolved_step():
    # exact |Y(1)_00| = 1; the step 1/32 returned 4e-10, 2e9 and 1e147
    q = _zero_potential(8)
    for lam in (80.0, 100.0, 1e3):
        with pytest.raises(FieldFormatError, match="does not resolve"):
            solve_cauchy(q, lam)
    y = solve_cauchy(q, 10.0)
    assert abs(abs(y[-1, 0, 0]) - 1.0) < 1e-3


def _cauchy_generator(q: Potential, lam: complex):
    """The generator -J (lam - Q(x)) of solve_cauchy as a closure, with Q
    interpolated linearly between its node samples."""
    J = structural_constants(q.r).J
    qfull = q.full()
    N = q.grid.N

    def generator(x: float) -> np.ndarray:
        pos = min(max(x, 0.0), 1.0) * N
        cell = min(int(pos), N - 1)
        frac = pos - cell
        qx = (1.0 - frac) * qfull[cell] + frac * qfull[cell + 1]
        return -lam * J + J @ qx

    return generator


def _cauchy_reference(q: Potential, lam: complex) -> np.ndarray:
    """solve_cauchy's march with the generator as a per-stage closure: the
    RK4 step matrix of every step, folded per cell in the march's order."""
    generator = _cauchy_generator(q, lam)
    N = q.grid.N
    substeps = 4
    hh = q.grid.step / substeps
    eye = np.eye(2 * q.r)
    out = np.zeros((N + 1, 2 * q.r, 2 * q.r), dtype=np.complex128)
    out[0] = eye
    for i in range(N):
        cell = None
        for k in range(substeps):
            x0 = i * q.grid.step + k * hh
            g0, g1, g2 = generator(x0), generator(x0 + 0.5 * hh), generator(x0 + hh)
            k2 = g1 @ (eye + 0.5 * hh * g0)
            k3 = g1 @ (eye + 0.5 * hh * k2)
            k4 = g2 @ (eye + hh * k3)
            phi = eye + (hh / 6.0) * (g0 + 2.0 * k2 + 2.0 * k3 + k4)
            cell = phi if cell is None else phi @ cell
        out[i + 1] = cell @ out[i]
    return out


def _classical_rk4(q: Potential, lam: complex) -> np.ndarray:
    """The classical RK4 march of Y itself, four stages per step, with the
    generator as a per-stage closure."""
    generator = _cauchy_generator(q, lam)
    N = q.grid.N
    substeps = 4
    hh = q.grid.step / substeps
    out = np.zeros((N + 1, 2 * q.r, 2 * q.r), dtype=np.complex128)
    y = np.eye(2 * q.r, dtype=np.complex128)
    out[0] = y
    for i in range(N):
        for k in range(substeps):
            x0 = i * q.grid.step + k * hh
            g1 = generator(x0) @ y
            g2 = generator(x0 + 0.5 * hh) @ (y + 0.5 * hh * g1)
            g3 = generator(x0 + 0.5 * hh) @ (y + 0.5 * hh * g2)
            g4 = generator(x0 + hh) @ (y + hh * g3)
            y = y + (hh / 6.0) * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
        out[i + 1] = y
    return out


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("lam", [0.0, 1.0, -2.5, 1.0 + 0.5j, 3.0 - 2.0j])
def test_cauchy_tabulated_generator_matches_closure_bitwise(r, lam):
    rng = np.random.default_rng(r)
    g = GridSpec(16)
    shape = (g.N + 1, r, r)
    qp, qm = (0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
              for _ in range(2))
    q = Potential(r, g, qp, qm)
    assert np.array_equal(solve_cauchy(q, lam), _cauchy_reference(q, lam))


@pytest.mark.parametrize("n_cells", [16, 64])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("lam", [0.0, 1.0, -2.5, 1.0 + 0.5j, 3.0 - 2.0j])
def test_cauchy_step_matrices_match_classical_rk4(n_cells, r, lam):
    # the step matrix applies the same four stages, so only rounding differs
    rng = np.random.default_rng(r)
    shape = (n_cells + 1, r, r)
    qp, qm = (0.5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
              for _ in range(2))
    q = Potential(r, GridSpec(n_cells), qp, qm)
    ref = _classical_rk4(q, lam)
    assert np.max(np.abs(solve_cauchy(q, lam) - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("q", [linear_potential(32), r2_potential()], ids=["r1", "r2"])
def test_cauchy_lambda_batch_repeats_each_lambda_bitwise(q):
    batch = dirac_verify._cauchy_march(q, dirac_verify.DEFAULT_LAMBDAS)
    alone = np.stack([solve_cauchy(q, lam) for lam in dirac_verify.DEFAULT_LAMBDAS])
    assert batch.shape == alone.shape
    assert batch.tobytes() == alone.tobytes()


@pytest.mark.parametrize(
    "lams, refused",
    [((1.0, 300.0, 200.0), 300.0), ((0.0, 200.0, 1e3), 200.0), ((1.0, np.nan, 300.0), np.nan)],
    ids=["unresolved", "first-unresolved", "not-finite"],
)
def test_cauchy_lambda_batch_refuses_as_its_first_refused_lambda(lams, refused):
    q = linear_potential(16)
    with pytest.raises(FieldFormatError) as alone:
        solve_cauchy(q, refused)
    with pytest.raises(FieldFormatError, match=f"^{re.escape(str(alone.value))}$"):
        dirac_verify._cauchy_march(q, lams)


def _substitute_layout(blocks):
    """The same blocks held as inverse_map._substitute returns them: a view
    whose flattened [(x, a), (s, b)] layout is contiguous."""
    return np.ascontiguousarray(blocks.transpose(0, 2, 1, 3)).transpose(0, 2, 1, 3)


def test_triangle_compose_against_loops():
    rng = np.random.default_rng(7)
    n_cells, n = 12, 4  # r = 2
    m = n_cells + 1
    step = 1.0 / n_cells
    low = np.tril(np.ones((m, m), dtype=bool))
    a, b = (
        np.where(low[:, :, None, None], rng.standard_normal((m, m, n, n))
                 + 1j * rng.standard_normal((m, m, n, n)), 0.0)
        for _ in range(2)
    )
    cases = {
        "complex": (a, b),
        # quadops._flatten returns a view of b in this layout, as of L
        "substitute layout": (a, _substitute_layout(b)),
        "float64": (a.real.copy(), _substitute_layout(b.real)),
    }
    d = np.arange(m)
    for case, (a, b) in cases.items():
        a_before, b_before = a.copy(), b.copy()
        got = _triangle_compose(_halved_rows(a), _halved_rows(b), step)
        # the factors are read, never written
        assert np.array_equal(a, a_before) and np.array_equal(b, b_before), case
        worst = 0.0
        for x in range(m):
            for t in range(x):
                acc = np.zeros((n, n), dtype=np.complex128)
                for s in range(t, x + 1):
                    w = step * (0.5 if s in (t, x) else 1.0)
                    acc += w * (a[x, s] @ b[s, t])
                worst = max(worst, np.abs(got[x, t] - acc).max())
        assert worst < 1e-13, case
        assert np.all(got[d, d] == 0), case  # the interval [x_i, x_i] is empty


def test_krein_solution_lambda_zero_closed_form():
    h = const_accelerant(0.5, 100)
    (phi,) = krein_solution(h, (0.0,))
    x = h.grid.nodes
    target = 1.0 / (1.0 + 0.5 * x)
    assert np.max(np.abs(phi[:, 0, 0] - target)) < 1e-12
    assert np.max(np.abs(phi[:, 1, 0] - target)) < 1e-12


def test_krein_solution_oscillatory_closed_form():
    # for constant h the s-integral is elementary:
    # phi_1 = e^{i lam x} (1 - c/(1+cx) * (1 - e^{-2 i lam x}) / (2 i lam))
    c, lam = 0.5, 1.0
    h = const_accelerant(c, 100)
    (phi,) = krein_solution(h, (lam,))
    x = h.grid.nodes
    target = np.exp(1j * lam * x) * (
        1.0 - c / (1.0 + c * x) * (1.0 - np.exp(-2j * lam * x)) / (2j * lam)
    )
    assert np.max(np.abs(phi[:, 0, 0] - target)) < 1e-4


def test_krein_solution_gates_on_accelerant():
    with pytest.raises(NotAccelerantError):
        krein_solution(const_accelerant(-1.25, 40), (0.0,))


@pytest.mark.parametrize(
    "lams, message",
    [
        (0.5, "lams must be a sequence of numbers, got 0.5"),
        ("0.5", "lams must be a sequence of numbers, got '0.5'"),
        ([], "empty lams"),
        (["x"], "lambda must be a finite number, got 'x'"),
        ([1.0, np.nan], "lambda must be a finite number, got nan"),
        ([True], "lambda must be a finite number, got True"),
    ],
    ids=["bare_lambda", "string_lams", "no_lams", "string_lambda", "nan_lambda", "bool_lambda"],
)
def test_krein_solution_refuses_malformed_lambdas(monkeypatch, lams, message):
    # a bare number and "x" raised TypeErrors, and [] ran the gate and both
    # Krein solves for an empty result; now none of them reaches the gate
    def no_gate(*args):
        raise AssertionError("the gate ran before the lambdas were checked")

    monkeypatch.setattr(dirac_verify, "_gated_krein_rows", no_gate)
    with pytest.raises(FieldFormatError) as info:
        krein_solution(const_accelerant(0.5, 16), lams)
    assert str(info.value) == message


def _krein_solution_table(h: Accelerant, lams) -> np.ndarray:
    """krein_solution with, per lambda and kernel, the (N+1)^2 table of
    e^{-+2i lam (x_i - x_t)} contracted by einsum: the reference."""
    r1, r2 = factorization._krein_pair(h)  # the kernels' blocks
    x = h.grid.nodes
    tw = nystrom_weights(h.grid, "lower")
    idx = np.arange(h.grid.N + 1)
    lag = np.abs(idx[:, None] - idx[None, :])  # i - t wherever tw is nonzero
    eye = np.eye(h.r)
    phis = np.zeros((len(lams), h.grid.N + 1, 2 * h.r, h.r), dtype=np.complex128)
    for phi, lam in zip(phis, lams):
        s1 = np.einsum("it,itab->iab", tw * np.exp(-2j * lam * x)[lag], r1)
        s2 = np.einsum("it,itab->iab", tw * np.exp(2j * lam * x)[lag], r2)
        phi[:, : h.r] = np.exp(1j * lam * x)[:, None, None] * (eye + s1)
        phi[:, h.r :] = np.exp(-1j * lam * x)[:, None, None] * (eye + s2)
    return phis


@pytest.mark.parametrize(
    "h",
    [const_accelerant(0.5, 16), random_accelerant(3, r=2, n_cells=16, scale=0.1)],
    ids=["c=0.5", "random-r2"],
)
def test_krein_solution_matches_the_phase_tables(h):
    # the separated phases, centred at x = 1/2, against the per-lambda
    # tables, where the phases grow as e^{600 (x_i - x_t)} or oscillate
    lams = (300j, -300j, 50 + 3j)
    got = krein_solution(h, lams)
    ref = _krein_solution_table(h, lams)
    for g, f in zip(got, ref):
        assert np.max(np.abs(g - f)) <= 1e-10 * np.max(np.abs(f))


@pytest.mark.parametrize("lam", [800j, 1e308], ids=["growing_phase", "huge_lambda"])
def test_krein_solution_refuses_overflow(lam):
    # both leaked a RuntimeWarning and returned non-finite columns
    with pytest.raises(FieldFormatError, match="Krein solution overflows floating point"):
        krein_solution(const_accelerant(0.5, 16), (lam,))


@pytest.mark.parametrize(
    "lam, message",
    [
        (800j, "transmuted solution overflows floating point"),
        (np.inf, "lambda must be a finite number, got inf"),
        (np.nan, "lambda must be a finite number, got nan"),
        (True, "lambda must be a finite number, got True"),
    ],
    ids=["growing_phase", "inf", "nan", "bool"],
)
def test_transmuted_solution_refuses_nonfinite(lam, message):
    kernel = transmutation_kernel(linear_potential(16))
    with pytest.raises(FieldFormatError, match=re.escape(message)):
        transmuted_solution(kernel, lam)


@pytest.mark.parametrize(
    "lam",
    [True, np.nan, np.inf, complex(1.0, np.nan), "x", None],
    ids=["bool", "nan", "inf", "nan_imag", "string", "none"],
)
def test_solve_cauchy_refuses_a_lambda_that_is_not_a_finite_number(lam):
    # True used to march lambda = 1, the non-finite values were refused as an
    # unresolved RK4 step, and "x" and None raised TypeError
    message = f"lambda must be a finite number, got {lam!r}"
    with pytest.raises(FieldFormatError, match=re.escape(message)):
        solve_cauchy(linear_potential(16), lam)


def test_solution_routes_agree():
    h = gauss_accelerant(0.3, 100)
    q = theta(h)
    lam = 1.0 + 0.5j
    (a,) = krein_solution(h, (lam,))
    b = solve_cauchy(q, lam) @ structural_constants(1).a_col
    c = transmuted_solution(transmutation_kernel(q), lam)
    assert np.max(np.abs(a - b)) < 5e-3
    assert np.max(np.abs(a - c)) < 5e-3
    assert np.max(np.abs(b - c)) < 5e-3


def test_representation_report_smooth():
    q = theta(gauss_accelerant(0.3, 100))
    report = check_fundamental_representation(q)
    assert report.passed
    names = [e.name for e in report.entries]
    assert "representation_0" in names and "representation_1+0.5i" in names


_CONFTEST_POTENTIALS = {
    "general": linear_potential(16),
    "real-class": const_potential(0.3j, 16),
    "self-adjoint": const_potential(1.0, 16),
    "r2": r2_potential(),
}


def _diag_phases(lam: complex, z: np.ndarray, r: int) -> np.ndarray:
    """The diagonal of E(z) = diag(e^{i lam z} I, e^{-i lam z} I), z.shape + (2r,)."""
    return np.concatenate([np.exp(1j * lam * z)[..., None].repeat(r, -1),
                           np.exp(-1j * lam * z)[..., None].repeat(r, -1)], axis=-1)


@pytest.mark.parametrize("q", _CONFTEST_POTENTIALS.values(), ids=_CONFTEST_POTENTIALS.keys())
def test_representation_matches_per_lambda_phase_tables(q):
    # reference: one (N+1)^2 phase table per lambda and kernel, contracted
    # by einsum; the check factors E(x - 2t) = E(x) E(-2t) instead
    plus, minus = transformation_kernels(q)
    x = q.grid.nodes
    tw = nystrom_weights(q.grid, "lower")
    report = check_fundamental_representation(q)
    for lam in dirac_verify.DEFAULT_LAMBDAS:
        y_rep = (
            _diag_phases(lam, x, q.r)[:, :, None] * np.eye(2 * q.r)
            + np.einsum("ij,ijab,ijb->iab", tw, plus.values,
                        _diag_phases(lam, x[:, None] - 2.0 * x[None, :], q.r))
            + np.einsum("ij,ijab,ijb->iab", tw, minus.values,
                        _diag_phases(lam, 2.0 * x[None, :] - x[:, None], q.r))
        )
        ref = np.max(np.abs(y_rep - solve_cauchy(q, lam)))
        name = f"representation_{dirac_verify._lam_label(lam)}"
        assert abs(report[name].residual - ref) <= 1e-13, name


@pytest.mark.parametrize("q", _CONFTEST_POTENTIALS.values(), ids=_CONFTEST_POTENTIALS.keys())
def test_suite_entries_match_stacked_block_products(q):
    # the entries the suite forms by row and column products and by the
    # diagonal of J, against one stacked 2r x 2r product per block
    J = structural_constants(q.r).J
    qfull = q.full()
    k, l, _ = _resolvent_factors(q)
    d = np.arange(q.grid.N + 1)
    wave_k, mask_k = apply_wave_operator(k, q.grid, "lower")
    wave_l, mask_l = apply_wave_operator(l, q.grid, "lower")
    expected = {
        "wave_K": np.max(np.abs((wave_k + qfull[:, None] @ k)[mask_k])),
        "diag_K": np.max(np.abs(k[d, d] @ J - J @ k[d, d] - qfull)),
        "wave_L": np.max(np.abs((wave_l - l @ qfull[None, :])[mask_l])),
        "diag_L": np.max(np.abs(J @ l[d, d] - l[d, d] @ J - qfull)),
    }
    report = identity_suite(q)
    for name, value in expected.items():
        assert abs(report[name].residual - value) <= 1e-12 * value, name


@pytest.mark.parametrize(
    "h",
    [gauss_accelerant(0.3, 32), const_accelerant(0.5, 16), random_accelerant(0, r=2, n_cells=16)],
    ids=["gauss", "const", "r2"],
)
def test_derivative_identity_matches_stacked_block_products(h):
    # the target R(x, 0) B R(x, t) B as one stacked product per block, with B
    # a matrix, against the suite's column swaps and row products
    rk = block_krein_kernel(h)
    B = structural_constants(h.r).B
    m = h.grid.N + 1
    i, j = np.indices((m, m))
    low = j <= i
    w = np.zeros_like(rk.values)
    w[low] = rk.values[i[low], (i - j)[low]]
    dw, mask = dirac_verify._line_deriv(w, 0, True, h.grid.step)
    target = (rk.values[:, 0] @ B)[:, None] @ (rk.values @ B)
    expected = np.max(np.abs((dw - target)[mask & low]))
    residual = check_krein_derivative_identity(h)["derivative_identity"].residual
    assert abs(residual - expected) <= 1e-12 * expected


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["float64", "complex128"])
@pytest.mark.parametrize("region", ["lower", "upper"])
def test_wave_operator_exact_on_quadratics(region, dtype):
    # both difference stencils are exact on quadratics, so the operator
    # application must be exact too, masks and edge selection included
    g = GridSpec(16)
    m = 17
    x = g.nodes
    cmat = np.array([[1.0, 2.0], [0.5, 1.0]]).astype(dtype)
    if dtype is np.complex128:
        cmat *= 1.0 - 0.5j
    f = (x[:, None] ** 2 + 3.0 * x[None, :] ** 2)[:, :, None, None] * cmat
    i, j = np.indices((m, m))
    inside = j <= i if region == "lower" else j >= i
    f[~inside] = 0.0
    out, mask = apply_wave_operator(f, g, region)
    assert f.dtype == dtype and out.dtype == np.complex128
    sc = structural_constants(1)
    dx = (2.0 * x[:, None] * np.ones((1, m)))[:, :, None, None] * cmat
    dt = (np.ones((m, 1)) * 6.0 * x[None, :])[:, :, None, None] * cmat
    target = sc.J @ dx + dt @ sc.J
    assert not mask[~inside].any()
    err = np.abs(out - target)[mask]
    assert err.size > 0
    assert np.max(err) < 1e-12
    assert not out[~mask].any()


def test_wave_operator_masks_short_lines():
    g = GridSpec(16)
    blocks = np.zeros((17, 17, 2, 2))
    _, mask = apply_wave_operator(blocks, g, "lower")
    # the corner (0, 0) line has a single point in each direction
    assert not mask[0, 0]
    assert mask[8, 4]
    # only the two triangles: a stencil over the full square crosses the diagonal
    with pytest.raises(FieldFormatError, match="unknown region 'full'"):
        apply_wave_operator(blocks, g, "full")
    with pytest.raises(FieldFormatError, match="kernel block size 3 is odd"):
        apply_wave_operator(np.zeros((17, 17, 3, 3)), g, "lower")


def test_identity_suite_passes_and_converges():
    h50 = gauss_accelerant(0.3, 50)
    h100 = gauss_accelerant(0.3, 100)
    rep50 = identity_suite(theta(h50))
    rep100 = identity_suite(theta(h100))
    assert rep50.passed and rep100.passed
    for name in ("wave_K", "wave_L", "wave_F_lower", "wave_F_upper"):
        assert ratio_ok(rep50[name].residual, rep100[name].residual), name
    # discrete-exact entries stay at round-off on both grids
    for name in ("diag_K", "boundary_K", "boundary_L", "reciprocity_KL"):
        assert rep100[name].residual < 1e-11, name


def test_identity_suite_refuses_exactly_what_upsilon_refuses():
    # both march on the refined grid, where (step/2) |q| = 0.5 at N = 8:
    # q+- = 16j makes the restricted system of the substitution singular,
    # and q+- = 16 is resolved, though the potential's own grid is not
    with pytest.raises(SingularSystemError) as by_upsilon:
        upsilon(const_potential(16j, 8))
    with pytest.raises(SingularSystemError) as by_suite:
        identity_suite(const_potential(16j, 8))
    assert type(by_suite.value) is type(by_upsilon.value)
    assert str(by_suite.value) == str(by_upsilon.value) == (
        "singular restricted system at x = 0.125 (volterra substitution)"
    )

    h, upsilon_report = upsilon(const_potential(16.0, 8))
    assert np.isfinite(h.values).all() and upsilon_report.passed
    assert len(identity_suite(const_potential(16.0, 8)).entries) == len(SUITE_TOLS)


@pytest.mark.parametrize(
    "q",
    [
        linear_potential(16),
        const_potential(0.3j, 16),
        r2_potential(),
    ],
    ids=["linear", "real-class", "r2"],
)
def test_identity_suite_reads_the_boundaries_of_the_product_kernel(q):
    # boundary_F_* come from the one-sided parts of F; off the diagonal they
    # hold what the assembled resolvent_product_kernel(q) holds
    sc = structural_constants(q.r)
    f = resolvent_product_kernel(q).values
    N = q.grid.N
    expected = {
        "boundary_F_row": np.max(np.abs(f[1:N, 0] @ sc.a_row.conj().T)),
        "boundary_F_col": np.max(np.abs(sc.a_row @ f[0, 1:N])),
    }
    report = identity_suite(q)
    for name, value in expected.items():
        assert abs(report[name].residual - value) <= 1e-14 * value, name


def test_krein_derivative_identity_converges():
    h50 = gauss_accelerant(0.3, 50)
    h100 = gauss_accelerant(0.3, 100)
    r50 = check_krein_derivative_identity(h50)["derivative_identity"].residual
    r100 = check_krein_derivative_identity(h100)["derivative_identity"].residual
    assert r100 < 5e-3
    assert ratio_ok(r50, r100)


def _constant_lower(kappa: float, n_cells: int) -> Kernel2D:
    m = n_cells + 1
    i, j = np.indices((m, m))
    vals = np.where(j <= i, kappa + 0.0j, 0.0)[:, :, None, None]
    return Kernel2D(1, GridSpec(n_cells), "lower", vals)


def test_spectral_decay_of_volterra_powers():
    k = _constant_lower(1.0, 64)
    seq = spectral_radius_probe(k, 16)
    # the raw norm ||M^16|| collapses; the rooted sequence decays monotonically
    # once factorial decay takes over
    assert seq[15] ** 16 <= 1e-3 * seq[0]
    tail = seq[3:]
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_spectral_sequence_mirrors_under_flip():
    low = _constant_lower(1.0, 64)
    up = Kernel2D(1, low.grid, "upper", np.ascontiguousarray(low.values.transpose(1, 0, 3, 2)))
    a = np.array(spectral_radius_probe(low, 8))
    b = np.array(spectral_radius_probe(up, 8))
    # index-reversal conjugation is exactly unitary for the weight pattern
    assert np.max(np.abs(a - b) / a) < 1e-12


def test_spectral_radius_probe_refuses_overflowing_powers(capfd):
    # the square of this operator overflows: numpy warned three times, LAPACK
    # printed a DLASCL complaint and the SVD of the inf power did not converge
    m = 17
    vals = np.where(np.tri(m, dtype=bool)[:, :, None, None], 1e200, 0.0) * np.ones((m, m, 2, 2))
    kernel = Kernel2D(2, GridSpec(16), "lower", vals)
    with pytest.raises(FieldFormatError, match="power 2 of the operator overflows"):
        spectral_radius_probe(kernel, 4)
    assert capfd.readouterr() == ("", "")


def test_spectral_radius_probe_forms_only_the_powers_it_reads(monkeypatch):
    class Counted(np.ndarray):
        products = 0

        def __matmul__(self, other):
            Counted.products += 1
            return super().__matmul__(other)

    build = dirac_verify.op_from_kernel
    monkeypatch.setattr(dirac_verify, "op_from_kernel", lambda k: build(k).view(Counted))
    seq = spectral_radius_probe(_constant_lower(1.0, 16), 4)
    # M^2, M^3 and M^4, and not M^5, which no entry reads
    assert len(seq) == 4
    assert Counted.products == 3


@pytest.mark.parametrize(
    "s_max, message",
    [
        (2.5, "s_max must be an integer, got 2.5"),
        (True, "s_max must be an integer, got True"),
        (0, "s_max must be >= 1, got 0"),
        (-3, "s_max must be >= 1, got -3"),
    ],
    ids=["fractional", "bool", "zero", "negative"],
)
def test_spectral_radius_probe_refuses_malformed_s_max(monkeypatch, s_max, message):
    # 2.5 raised a TypeError and 0 returned []
    def no_matrix(*args):
        raise AssertionError("the operator was built before s_max was checked")

    monkeypatch.setattr(dirac_verify, "op_from_kernel", no_matrix)
    with pytest.raises(FieldFormatError) as info:
        spectral_radius_probe(_constant_lower(1.0, 16), s_max)
    assert str(info.value) == message


def test_lipschitz_probe_deterministic():
    h = const_accelerant(0.5, 32)
    a = lipschitz_probe("theta", h, scales=(1e-3,), trials=3, seed=7)
    b = lipschitz_probe("theta", h, scales=(1e-3,), trials=3, seed=7)
    assert a == b
    stats = a["scales"][0]
    assert stats["skipped"] == 0
    assert stats["mean"] is not None and stats["mean"] > 0


def test_lipschitz_probe_skip_keeps_the_random_stream(monkeypatch):
    h = const_accelerant(0.5, 32)
    scale = 1e-3

    def run(rejected_call):
        calls, ratios = [], []

        def spy_norm(field, p):
            value = field_norm(field, p)
            if isinstance(field, Potential):  # the difference of two theta images
                ratios.append(value / scale)
            return value

        def stub_theta(field):
            calls.append(field)
            if len(calls) == rejected_call:
                raise NotAccelerantError(0.5, 0.0)
            return theta(field)

        monkeypatch.setattr(dirac_verify, "field_norm", spy_norm)
        monkeypatch.setattr(dirac_verify, "theta", stub_theta)
        probe = lipschitz_probe("theta", h, scales=(scale,), trials=3, seed=7)
        return probe["scales"][0], ratios

    plain, ratios = run(None)
    # the center is theta's first call, so the second candidate is its third
    stats, kept = run(3)
    assert plain["skipped"] == 0 and stats["skipped"] == 1
    assert plain["mean"] == float(np.mean(ratios))
    # the third candidate sees the same draws whether or not the second is rejected
    assert kept == [ratios[0], ratios[2]]
    assert (stats["mean"], stats["min"], stats["max"]) == (
        float(np.mean(kept)), min(kept), max(kept)
    )


@pytest.mark.parametrize(
    "scales, trials, message",
    [
        ((1e-3, -1e-3), 2, "scale must be a finite number > 0, got -0.001"),
        ((0.0,), 2, "scale must be a finite number > 0, got 0.0"),
        ((np.inf,), 2, "scale must be a finite number > 0, got inf"),
        ((np.nan,), 2, "scale must be a finite number > 0, got nan"),
        ((1e-3,), 0, "trials must be >= 1, got 0"),
        ((1e-3,), -1, "trials must be >= 1, got -1"),
        ((1e-3,), 2.5, "trials must be an integer, got 2.5"),
        (1e-3, 2, "scales must be a sequence of numbers, got 0.001"),
        (("1e-3",), 2, "scale must be a finite number > 0, got '1e-3'"),
        ((), 2, "empty scales"),
        ("1e-3", 2, "scales must be a sequence of numbers, got '1e-3'"),
    ],
    ids=["negative", "zero", "inf", "nan", "no_trials", "negative_trials",
         "fractional_trials", "bare_scale", "string_scale", "no_scales", "string_scales"],
)
def test_lipschitz_probe_refuses_malformed_arguments(monkeypatch, scales, trials, message):
    # a negative scale gave a negative mean ratio, zero divided by zero,
    # inf and nan blamed the accelerant and trials = -1 reported Nones;
    # trials = 2.5, a bare scale and a tuple holding a string raised bare
    # TypeErrors, no scales gave an empty report and a string was refused
    # as its first character
    def no_map(*args):
        raise AssertionError("a map ran before the arguments were checked")

    monkeypatch.setattr(dirac_verify, "theta", no_map)
    monkeypatch.setattr(dirac_verify, "upsilon", no_map)
    for map_id, center in (("theta", const_accelerant(0.5, 16)),
                           ("upsilon", linear_potential(16))):
        with pytest.raises(FieldFormatError) as info:
            lipschitz_probe(map_id, center, scales=scales, trials=trials)
        assert str(info.value) == message


@pytest.mark.parametrize("seed", [-1, "x", 1.5])
def test_lipschitz_probe_refuses_seeds_the_generator_refuses(monkeypatch, seed):
    def no_map(*args):
        raise AssertionError("a map ran before the arguments were checked")

    monkeypatch.setattr(dirac_verify, "theta", no_map)
    with pytest.raises(FieldFormatError, match=f"^seed {re.escape(repr(seed))} is not a valid"):
        lipschitz_probe("theta", const_accelerant(0.5, 16), scales=(1e-3,), trials=2, seed=seed)


def test_roundtrip_report_both_directions():
    h = const_accelerant(0.5, 64)
    rep_h = roundtrip_report(h, ladder=(16, 32, 64), final_tol=5e-3)
    assert rep_h.passed
    assert all(r >= 3.0 for r in rep_h.metadata["ratios"])

    q = linear_potential(64)
    rep_q = roundtrip_report(q, ladder=(16, 32, 64), final_tol=5e-3)
    assert rep_q.passed


@pytest.mark.parametrize("field", [const_accelerant(0.5, 32), linear_potential(32)], ids=["h", "q"])
def test_roundtrip_entries_are_the_composed_maps(field):
    # each entry is the relative L1 error of upsilon(theta(h)) or
    # theta(upsilon(q)) on its rung, to the bit
    report = roundtrip_report(field, ladder=(16, 32))
    for entry, n in zip(report.entries, (16, 32)):
        if isinstance(field, Potential):
            start = decimate_potential(field, n)
            back = theta(upsilon(start)[0])
            diff = Potential(start.r, start.grid, back.q_plus - start.q_plus, back.q_minus - start.q_minus)
        else:
            start = decimate_accelerant(field, n)
            back = upsilon(theta(start))[0]
            diff = Accelerant(start.r, start.grid, back.values - start.values)
        assert entry.residual == field_norm(diff, 1.0) / field_norm(start, 1.0)


@pytest.mark.parametrize(
    "final_tol, ladder, message",
    [
        (np.inf, (8, 16), "final_tol must be a finite number > 0, got inf"),
        (np.nan, (8, 16), "final_tol must be a finite number > 0, got nan"),
        (-1.0, (8, 16), "final_tol must be a finite number > 0, got -1.0"),
        (0.0, (8, 16), "final_tol must be a finite number > 0, got 0.0"),
        (5e-3, (), "empty ladder"),
        (5e-3, (16.7, 32), "ladder rung must be an integer, got 16.7"),
        (5e-3, (True, 16), "ladder rung must be an integer, got True"),
        (5e-3, (16, 32, 32), "ladder repeats a rung: [16, 32, 32]"),
        (5e-3, 16, "ladder must be a sequence of integers, got 16"),
        (5e-3, "16", "ladder must be a sequence of integers, got '16'"),
    ],
    ids=["inf", "nan", "negative", "zero", "empty_ladder", "fractional_rung", "bool_rung",
         "repeated_rung", "bare_rung", "string_ladder"],
)
def test_roundtrip_report_refuses_malformed_arguments(monkeypatch, final_tol, ladder, message):
    # inf passed whatever the error, nan and -1 failed every ladder, and an
    # empty ladder passed with no entries; a fractional rung ran truncated
    # and a repeated one ran twice; a bare rung raised a TypeError and a
    # string was refused as its first character; now none of them reaches a map
    def no_map(*args):
        raise AssertionError("a map ran before the arguments were checked")

    monkeypatch.setattr(dirac_verify, "theta", no_map)
    monkeypatch.setattr(dirac_verify, "upsilon", no_map)
    with pytest.raises(FieldFormatError) as info:
        roundtrip_report(const_accelerant(0.5, 16), ladder=ladder, final_tol=final_tol)
    assert str(info.value) == message


SUITE_TOLS = [
    ("wave_K", 5e-2), ("diag_K", 5e-3), ("boundary_K", 5e-3),
    ("wave_L", 5e-2), ("diag_L", 5e-3), ("boundary_L", 5e-3),
    ("wave_F_lower", 5e-2), ("wave_F_upper", 5e-2),
    ("boundary_F_row", 5e-3), ("boundary_F_col", 5e-3),
    ("reciprocity_KL", 5e-3), ("reciprocity_LK", 5e-3),
]
# non-real lambda gets the looser tolerance
REPRESENTATION_TOLS = [
    ("representation_0", 5e-3), ("representation_1", 5e-3),
    ("representation_-1", 5e-3), ("representation_1+0.5i", 1e-2),
]


def test_report_tolerances_are_fixed(tmp_path, capsys):
    q = linear_potential(16)
    h = const_accelerant(0.5, 16)
    tols = lambda report: [(e.name, e.tol) for e in report.entries]
    assert tols(identity_suite(q)) == SUITE_TOLS
    assert tols(check_fundamental_representation(q)) == REPRESENTATION_TOLS
    assert tols(check_krein_derivative_identity(h)) == [("derivative_identity", 5e-3)]

    src = tmp_path / "h.json"
    write_field(str(src), h)
    assert main(["verify", "--in", str(src)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(e["name"], e["tol"]) for e in doc["entries"]] == (
        SUITE_TOLS + REPRESENTATION_TOLS
        + [("derivative_identity", 5e-3), ("glm_consistency", 5e-3)]
    )

    # only the finest rung carries a tolerance
    report = roundtrip_report(h, ladder=(8, 16), final_tol=1e-3)
    assert tols(report) == [("roundtrip_N8", np.inf), ("roundtrip_N16", 1e-3)]


def test_upsilon_then_theta_is_stable():
    q = linear_potential(50)
    h, _ = upsilon(q)
    q_back = theta(h)
    err = max(
        float(np.max(np.abs(q_back.q_plus - q.q_plus))),
        float(np.max(np.abs(q_back.q_minus - q.q_minus))),
    )
    assert err < 5e-3
