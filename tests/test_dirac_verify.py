"""Cross-checks against the differential system and the probe harnesses."""

import numpy as np
import pytest

from conftest import const_accelerant, gauss_accelerant, linear_potential, ratio_ok
from kreinmap import (
    GridSpec,
    Kernel2D,
    NotAccelerantError,
    Potential,
    apply_wave_operator,
    check_fundamental_representation,
    check_krein_derivative_identity,
    identity_suite,
    krein_solution,
    lipschitz_probe,
    roundtrip_report,
    solve_cauchy,
    spectral_radius_probe,
    structural_constants,
    theta,
    transmutation_kernel,
    transmuted_solution,
    upsilon,
)
from kreinmap.dirac_verify import _triangle_compose
from kreinmap.errors import FieldFormatError


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
    for lam, substeps in ((10.0, 4), (80.0, 40)):  # a finer step resolves 80
        y = solve_cauchy(q, lam, substeps)
        assert abs(abs(y[-1, 0, 0]) - 1.0) < 1e-3


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
    got = _triangle_compose(a, b, step)
    worst = 0.0
    for x in range(m):
        for t in range(x):
            acc = np.zeros((n, n), dtype=np.complex128)
            for s in range(t, x + 1):
                w = step * (0.5 if s in (t, x) else 1.0)
                acc += w * (a[x, s] @ b[s, t])
            worst = max(worst, np.abs(got[x, t] - acc).max())
    assert worst < 1e-13
    d = np.arange(m)
    assert np.all(got[d, d] == 0)  # the interval [x_i, x_i] is empty


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


def test_wave_operator_exact_on_quadratics():
    # both difference stencils are exact on quadratics, so the operator
    # application must be exact too, masks and edge selection included
    g = GridSpec(16)
    m = 17
    x = g.nodes
    cmat = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex)
    f = (x[:, None] ** 2 + 3.0 * x[None, :] ** 2)[:, :, None, None] * cmat
    i, j = np.indices((m, m))
    f[(j > i)] = 0.0
    kern = Kernel2D(2, g, "lower", f)
    out, mask = apply_wave_operator(kern, "lower")
    sc = structural_constants(1)
    dx = (2.0 * x[:, None] * np.ones((1, m)))[:, :, None, None] * cmat
    dt = (np.ones((m, 1)) * 6.0 * x[None, :])[:, :, None, None] * cmat
    target = sc.J @ dx + dt @ sc.J
    err = np.abs(out.values - target)[mask & (j <= i)]
    assert err.size > 0
    assert np.max(err) < 1e-12


def test_wave_operator_masks_short_lines():
    g = GridSpec(16)
    kern = Kernel2D(2, g, "lower", np.zeros((17, 17, 2, 2)))
    _, mask = apply_wave_operator(kern, "lower")
    # the corner (0, 0) line has a single point in each direction
    assert not mask[0, 0]
    assert mask[8, 4]


def test_identity_suite_passes_and_converges():
    h50 = gauss_accelerant(0.3, 50)
    h100 = gauss_accelerant(0.3, 100)
    rep50 = identity_suite(theta(h50))
    rep100 = identity_suite(theta(h100))
    assert rep50.passed and rep100.passed
    for name in ("wave_K", "wave_L", "wave_F_lower", "wave_F_upper"):
        assert ratio_ok(rep50[name].residual, rep100[name].residual), name
    # discrete-exact entries stay at round-off on both grids
    for name in ("diag_K", "boundary_K", "boundary_L", "symmetry_P", "reciprocity_KL"):
        assert rep100[name].residual < 1e-11, name


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


def test_lipschitz_probe_deterministic():
    h = const_accelerant(0.5, 32)
    a = lipschitz_probe("theta", h, scales=(1e-3,), trials=3, seed=7)
    b = lipschitz_probe("theta", h, scales=(1e-3,), trials=3, seed=7)
    assert a == b
    stats = a["scales"][0]
    assert stats["skipped"] == 0
    assert stats["mean"] is not None and stats["mean"] > 0


def test_roundtrip_report_both_directions():
    h = const_accelerant(0.5, 64)
    rep_h = roundtrip_report(h, ladder=(16, 32, 64), final_tol=5e-3)
    assert rep_h.passed
    assert all(r >= 3.0 for r in rep_h.metadata["ratios"])

    q = linear_potential(64)
    rep_q = roundtrip_report(q, ladder=(16, 32, 64), final_tol=5e-3)
    assert rep_q.passed


def test_upsilon_then_theta_is_stable():
    q = linear_potential(50)
    h, _ = upsilon(q)
    q_back = theta(h)
    err = max(
        float(np.max(np.abs(q_back.q_plus - q.q_plus))),
        float(np.max(np.abs(q_back.q_minus - q.q_minus))),
    )
    assert err < 5e-3
