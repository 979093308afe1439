"""The acceptance suite: twelve end-to-end guarantees, one test each.

Run with -v to get one verdict line per guarantee. Every tolerance here is
part of the package's documented contract (see the README table); nothing
in this module is tuned to the implementation.
"""

import time

import numpy as np

from conftest import (
    const_accelerant,
    gauss_accelerant,
    linear_potential,
    random_accelerant,
    ratio_ok,
)
from test_factorization import (
    _block_diag_of,
    _block_doolittle,
    _block_flip,
    _random_full_kernel,
    _reconstruction_error,
)
from test_quadops import _random_op

from kreinmap import (
    GridSpec,
    Kernel2D,
    characteristic_extract,
    check_krein_derivative_identity,
    factorize,
    folded_kernel,
    identity_suite,
    invert_identity_plus,
    is_accelerant,
    krein_solution,
    lipschitz_probe,
    mixed_norm,
    op_from_kernel,
    reflect,
    resolvent_product_kernel,
    resolvent_volterra,
    roundtrip_report,
    solve_cauchy,
    spectral_radius_probe,
    structural_constants,
    theta,
    transmutation_kernel,
    transmuted_solution,
    upsilon,
)


def _forward_error(n_cells: int) -> float:
    q = theta(const_accelerant(0.5, n_cells))
    x = q.grid.nodes
    return float(np.max(np.abs(q.q_plus[:, 0, 0] + 0.5j / (1.0 + 0.5 * x))))


def test_01_forward_map_constant_closed_form():
    start = time.monotonic()
    coarse, fine = _forward_error(100), _forward_error(200)
    assert fine <= 1e-3
    assert ratio_ok(coarse, fine, factor=3.0)
    assert time.monotonic() - start <= 10.0


def test_02_roundtrip_potential_to_potential():
    for h in (const_accelerant(0.5, 200), gauss_accelerant(0.3, 200)):
        start = time.monotonic()
        report = roundtrip_report(h, ladder=(50, 100, 200), final_tol=5e-3)
        assert report.passed
        assert all(r >= 3.0 for r in report.metadata["ratios"])
        assert time.monotonic() - start <= 60.0


def test_03_roundtrip_accelerant_to_accelerant():
    report = roundtrip_report(linear_potential(200), ladder=(50, 100, 200), final_tol=5e-3)
    assert report.passed
    assert all(r >= 3.0 for r in report.metadata["ratios"])


def test_04_product_kernel_matches_folded_kernel():
    h = const_accelerant(0.5, 200)
    f_q = resolvent_product_kernel(theta(h))
    f_h = folded_kernel(h)
    diff = Kernel2D(f_q.n, f_q.grid, "full", f_q.values - f_h.values)
    assert mixed_norm(diff, 1.0) <= 5e-3


def test_05_accelerant_detector():
    # the constant -1.25 turns singular at alpha = 0.8, which N = 200 hits
    bad = is_accelerant(const_accelerant(-1.25, 200))
    assert not bad.accepted
    assert abs(bad.worst_alpha - 0.8) <= 0.05

    assert is_accelerant(const_accelerant(0.5, 200)).accepted
    assert is_accelerant(const_accelerant(0.0, 200)).accepted

    for seed in range(20):
        h = random_accelerant(seed)
        assert is_accelerant(h).accepted == is_accelerant(reflect(h)).accepted, f"seed {seed}"


def test_06_solution_representations_agree():
    h = const_accelerant(0.5, 200)
    x = h.grid.nodes
    lams = (0.0, 1.0, 1.0 + 0.5j)
    phis = krein_solution(h, lams)
    target = 1.0 / (1.0 + 0.5 * x)
    assert np.max(np.abs(phis[0][:, 0, 0] - target)) <= 1e-3

    q = theta(h)
    kq = transmutation_kernel(q)
    a_col = structural_constants(1).a_col
    for lam, a in zip(lams, phis):
        b = solve_cauchy(q, lam) @ a_col
        c = transmuted_solution(kq, lam)
        assert np.max(np.abs(a - b)) <= 5e-3, f"lambda {lam}"
        assert np.max(np.abs(a - c)) <= 5e-3, f"lambda {lam}"
        assert np.max(np.abs(b - c)) <= 5e-3, f"lambda {lam}"


def test_07_identity_suite_converges():
    h100, h200 = gauss_accelerant(0.3, 100), gauss_accelerant(0.3, 200)
    rep100 = identity_suite(theta(h100))
    rep200 = identity_suite(theta(h200))
    rep100.entries.extend(check_krein_derivative_identity(h100).entries)
    rep200.entries.extend(check_krein_derivative_identity(h200).entries)
    assert rep200.passed, rep200.failures()
    coarse = {e.name: e.residual for e in rep100.entries}
    for entry in rep200.entries:
        assert ratio_ok(coarse[entry.name], entry.residual, factor=3.0), entry.name


def test_08_factorization_self_consistency():
    for seed in range(20):
        f = _random_full_kernel(seed, 64)
        # factorize enforces the strict-lower leakage bound 5e-8 itself
        err, _, _ = _reconstruction_error(f)
        assert err <= 1e-8, f"seed {seed}"

    n = 2
    for seed in range(10):
        f = _random_full_kernel(seed, 8, n)
        _, lo, up = _reconstruction_error(f)
        dim = lo.shape[0]
        eye = np.eye(dim)
        b = np.linalg.inv(eye + op_from_kernel(f))
        flip = _block_flip(dim // n, n)
        low_f, up_f = _block_doolittle(flip @ b @ flip, n)
        d_scale = _block_diag_of(up, n)
        assert np.max(np.abs(up @ np.linalg.inv(d_scale) - flip @ low_f @ flip)) <= 1e-10
        assert np.max(np.abs(d_scale @ lo - flip @ up_f @ flip)) <= 1e-10


def test_09_volterra_spectral_decay_and_closed_form():
    m = 65
    i, j = np.indices((m, m))
    vals = np.where(j <= i, 1.0 + 0.0j, 0.0)[:, :, None, None]
    seq = spectral_radius_probe(Kernel2D(1, GridSpec(64), "lower", vals), 16)
    assert seq[15] ** 16 <= 1e-3 * seq[0]

    kappa = 0.5
    g = GridSpec(200)
    i, j = np.indices((201, 201))
    vals = np.where(j <= i, kappa + 0.0j, 0.0)[:, :, None, None]
    resolvent = resolvent_volterra(Kernel2D(1, g, "lower", vals))
    x = g.nodes
    exact = np.where(j <= i, -kappa * np.exp(-kappa * (x[:, None] - x[None, :])), 0.0)
    assert np.max(np.abs(resolvent.values[:, :, 0, 0] - exact)) <= 2e-3


def test_10_characteristic_extraction_exact():
    for seed in range(5):
        h = random_accelerant(seed)
        back = characteristic_extract(folded_kernel(h))
        assert np.max(np.abs(back.values - h.values)) <= 1e-12, f"seed {seed}"


def test_11_resolvent_identity_seeded():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a1 = _random_op(rng, n_cells=8, n=2, scale=0.15)
        a2 = _random_op(rng, n_cells=8, n=2, scale=0.15)
        g1 = invert_identity_plus(a1)
        g2 = invert_identity_plus(a2)
        eye = np.eye(a1.shape[0])
        residual = g1 - g2 - (eye + g1) @ (a2 - a1) @ (eye + g2)
        assert np.max(np.abs(residual)) <= 1e-10, f"seed {seed}"


def test_12_lipschitz_stability_bands():
    scales = (1e-2, 1e-3, 1e-4)
    for map_id, center in (("theta", const_accelerant(0.5, 64)),
                           ("upsilon", linear_potential(64))):
        probe = lipschitz_probe(map_id, center, scales=scales, trials=10, seed=0)
        means = [s["mean"] for s in probe["scales"]]
        assert all(m is not None for m in means), probe
        assert max(means) / min(means) <= 1.5, (map_id, means)
