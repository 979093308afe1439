"""Independent checks tying the kernel machinery to the Dirac system.

The Cauchy solver here shares no code with the kernel solvers: it is a
classical one-step integrator applied to J Y' + Q Y = lam Y with linearly
interpolated potential samples. Everything else in the module compares the
transformation kernels, the resolvent factors, and the product kernel
against the identities they must satisfy, using finite differences that
never straddle the diagonal, where the kernels are only one-sidedly smooth.
A residual that overflows floating point comes out non-finite and fails its
report entry, without a numpy warning.
"""

from __future__ import annotations

import numpy as np

from .errors import FieldFormatError, NotAccelerantError
from .factorization import is_accelerant, solve_krein
from .fields import (
    Accelerant,
    DiagnosticReport,
    Kernel2D,
    Potential,
    decimate_accelerant,
    decimate_potential,
    potential_adjoint,
    reflect,
    structural_constants,
)
from .forward_map import block_krein_kernel, folded_kernel, theta
from .inverse_map import (
    assemble_product,
    characteristic_extract,
    resolvent_product_kernel,
    resolvent_product_parts,
    resolvent_volterra,
    transformation_kernels,
    transmutation_kernel,
    upsilon,
)
from .quadops import _flatten, _unflatten, field_norm, mixed_norm, nystrom_weights, op_from_kernel

__all__ = [
    "DEFAULT_LAMBDAS",
    "solve_cauchy",
    "krein_solution",
    "transmuted_solution",
    "check_fundamental_representation",
    "apply_wave_operator",
    "identity_suite",
    "check_krein_derivative_identity",
    "spectral_radius_probe",
    "lipschitz_probe",
    "roundtrip_report",
]

DEFAULT_LAMBDAS = (0.0, 1.0, -1.0, 1.0 + 0.5j)


def _lam_label(lam: complex) -> str:
    lam = complex(lam)
    if lam.imag == 0:
        return f"{lam.real:g}"
    return f"{lam.real:g}{lam.imag:+g}i"


def _free_evolution(lam: complex, x: np.ndarray, r: int) -> np.ndarray:
    """diag(e^{i lam x} I, e^{-i lam x} I) at every entry of x."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros(x.shape + (2 * r, 2 * r), dtype=np.complex128)
    eye = np.eye(r)
    out[..., :r, :r] = np.exp(1j * lam * x)[..., None, None] * eye
    out[..., r:, r:] = np.exp(-1j * lam * x)[..., None, None] * eye
    return out


@np.errstate(over="ignore", invalid="ignore")
def solve_cauchy(q: Potential, lam: complex, substeps: int = 4) -> np.ndarray:
    """Fundamental solution of J Y' + Q Y = lam Y, Y(0) = I, at the nodes.

    Classical fourth-order one-step integration of Y' = -J (lam - Q(x)) Y
    with step 1/(N*substeps) and Q interpolated linearly between its node
    samples. This is the oracle side of every representation check, so it
    deliberately touches none of the kernel code.

    The step hh must resolve the generator, whose norm is at most
    rho = |lam| + max_x ||Q(x)||_2.  RK4 leaves a relative error of about
    (hh rho)^5 / 120 per step, so the leading global error estimate is
    steps (hh rho)^5 / 120 over the steps = N*substeps of [0, 1].  Above
    5e-3 the integrator is no longer an oracle: on the zero potential at
    N = 8 it returns |Y(1)_00| = 4e-10 at lam = 80 and 2e9 at lam = 100,
    where the exact value is 1.  Such inputs raise FieldFormatError up
    front.  A solution that still overflows floating point raises
    FieldFormatError as well.
    """
    if substeps < 1:
        raise FieldFormatError(f"substeps must be >= 1, got {substeps}")
    sc = structural_constants(q.r)
    J = sc.J
    qfull = q.full()
    N = q.grid.N
    hh = q.grid.step / substeps
    q_max = np.linalg.norm(qfull, 2, axis=(1, 2)).max()  # a numpy float: overflows to inf
    estimate = N * substeps * (hh * (abs(lam) + q_max)) ** 5 / 120.0
    if not estimate <= 5e-3:  # a nan estimate is refused too
        raise FieldFormatError(
            f"Cauchy step {hh:.3g} does not resolve lambda = {_lam_label(lam)} with "
            f"max|Q| = {q_max:.3g}: RK4 error estimate {estimate:.3g} > 5e-3"
        )

    def generator(x: float) -> np.ndarray:
        pos = min(max(x, 0.0), 1.0) * N
        cell = min(int(pos), N - 1)
        frac = pos - cell
        qx = (1.0 - frac) * qfull[cell] + frac * qfull[cell + 1]
        return -lam * J + J @ qx

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
    if not np.isfinite(out).all():
        raise FieldFormatError(
            "Cauchy solution overflows floating point; the potential or lambda is too large"
        )
    return out


def krein_solution(h: Accelerant, lams) -> np.ndarray:
    """Solution columns built directly from the two Krein kernels.

    phi_1(x) = e^{i lam x} (I + int_0^x e^{-2 i lam s} r_h(x, x-s) ds) and
    phi_2 is the mirror with the reflected accelerant and conjugated phases.
    The stack (phi_1; phi_2) starts at (I; I) and solves the Dirac system
    with the potential theta(h). Neither the sweep nor the kernels depend
    on lam, so one of each serves every value in lams; the result has
    shape (len(lams), N + 1, 2r, r).
    """
    test = is_accelerant(h)
    if not test.accepted:
        raise NotAccelerantError(test.worst_alpha, float(test.margins.min()))
    r1 = solve_krein(h)
    r2 = solve_krein(reflect(h))
    grid = h.grid
    x = grid.nodes
    tw = nystrom_weights(grid, "lower")
    eye = np.eye(h.r)
    phis = np.zeros((len(lams), grid.N + 1, 2 * h.r, h.r), dtype=np.complex128)
    for phi, lam in zip(phis, lams):
        down = np.exp(-2j * lam * x)
        up = np.exp(2j * lam * x)
        for i in range(grid.N + 1):
            w1 = tw[i, : i + 1] * down[: i + 1]
            w2 = tw[i, : i + 1] * up[: i + 1]
            s1 = np.einsum("k,kab->ab", w1, r1.values[i, i::-1])
            s2 = np.einsum("k,kab->ab", w2, r2.values[i, i::-1])
            phi[i, : h.r] = np.exp(1j * lam * x[i]) * (eye + s1)
            phi[i, h.r :] = np.exp(-1j * lam * x[i]) * (eye + s2)
    return phis


def transmuted_solution(kernel: Kernel2D, lam: complex) -> np.ndarray:
    """phi_0 + int_0^x K(x,s) phi_0(s) ds for the distinguished columns."""
    if kernel.support != "lower":
        raise FieldFormatError("transmuted solution needs a lower kernel")
    if kernel.n % 2:
        raise FieldFormatError(f"kernel block size {kernel.n} is odd")
    r = kernel.n // 2
    sc = structural_constants(r)
    phi0 = _free_evolution(lam, kernel.grid.nodes, r) @ sc.a_col
    tw = nystrom_weights(kernel.grid, "lower")
    return phi0 + np.einsum("ij,ijab,jbc->iac", tw, kernel.values, phi0)


@np.errstate(over="ignore", invalid="ignore")
def check_fundamental_representation(
    q: Potential,
    lams=DEFAULT_LAMBDAS,
    substeps: int = 4,
    tol: float = 5e-3,
    imag_tol: float = 1e-2,
) -> DiagnosticReport:
    """Residual of the two-kernel representation of the fundamental solution.

    E(x) + int_0^x P+(x,t) E(x-2t) dt + int_0^x P-(x,t) E(2t-x) dt is
    compared with the integrated solution per spectral value. Non-real
    values get the looser tolerance; conditioning grows like e^{|Im lam|}.
    """
    plus, minus = transformation_kernels(q)
    grid = q.grid
    x = grid.nodes
    tw = nystrom_weights(grid, "lower")
    report = DiagnosticReport()
    for lam in lams:
        y_ode = solve_cauchy(q, lam, substeps)
        e_plus = _free_evolution(lam, x[:, None] - 2.0 * x[None, :], q.r)
        e_minus = _free_evolution(lam, 2.0 * x[None, :] - x[:, None], q.r)
        y_rep = (
            _free_evolution(lam, x, q.r)
            + np.einsum("ij,ijab,ijbc->iac", tw, plus.values, e_plus)
            + np.einsum("ij,ijab,ijbc->iac", tw, minus.values, e_minus)
        )
        residual = float(np.max(np.abs(y_rep - y_ode)))
        entry_tol = tol if complex(lam).imag == 0 else imag_tol
        report.add(f"representation_{_lam_label(lam)}", residual, entry_tol)
    report.metadata.update({"N": grid.N, "r": q.r, "substeps": substeps})
    return report


def _line_deriv(vals, axis, lo, hi, step):
    """Second-order derivative along one axis with per-line index bounds.

    lo/hi give, for each line, the first and last valid index on that axis;
    central differences inside, one-sided three-point stencils at the two
    ends. Lines shorter than three nodes are masked out entirely. The
    shifted arrays wrap around, but wrapped entries are only ever selected
    where the mask is already false.
    """
    m = vals.shape[axis]
    up1 = np.roll(vals, -1, axis=axis)
    up2 = np.roll(vals, -2, axis=axis)
    dn1 = np.roll(vals, 1, axis=axis)
    dn2 = np.roll(vals, 2, axis=axis)
    central = (up1 - dn1) / (2.0 * step)
    forward = (-3.0 * vals + 4.0 * up1 - up2) / (2.0 * step)
    backward = (3.0 * vals - 4.0 * dn1 + dn2) / (2.0 * step)
    idx = np.arange(m)
    if axis == 0:
        pos = idx[:, None]
        lo_b, hi_b = lo[None, :], hi[None, :]
    else:
        pos = idx[None, :]
        lo_b, hi_b = lo[:, None], hi[:, None]
    mask = (pos >= lo_b) & (pos <= hi_b) & (hi_b - lo_b >= 2)
    sel = np.where(
        (pos == lo_b)[..., None, None],
        forward,
        np.where((pos == hi_b)[..., None, None], backward, central),
    )
    sel = np.where(mask[..., None, None], sel, 0.0)
    return sel, mask


def apply_wave_operator(x_kernel: Kernel2D, region: str = "lower"):
    """The first-order operator J d/dx + (d/dt) J on a sampled kernel.

    Differences are confined to the named region so that no stencil crosses
    the diagonal. Returns the image kernel together with the mask of nodes
    where both directional stencils fit.
    """
    grid = x_kernel.grid
    N = grid.N
    m = N + 1
    idx = np.arange(m)
    zeros = np.zeros(m, dtype=int)
    full = np.full(m, N, dtype=int)
    if region == "lower":
        lo0, hi0 = idx, full
        lo1, hi1 = zeros, idx
    elif region == "upper":
        lo0, hi0 = zeros, idx
        lo1, hi1 = idx, full
    elif region == "full":
        lo0, hi0 = zeros, full
        lo1, hi1 = zeros, full
    else:
        raise FieldFormatError(f"unknown region {region!r}")
    dx, mask_x = _line_deriv(x_kernel.values, 0, lo0, hi0, grid.step)
    dt, mask_t = _line_deriv(x_kernel.values, 1, lo1, hi1, grid.step)
    if x_kernel.n % 2:
        raise FieldFormatError(f"kernel block size {x_kernel.n} is odd")
    sc = structural_constants(x_kernel.n // 2)
    out = sc.J @ dx + dt @ sc.J
    mask = mask_x & mask_t
    out[~mask] = 0
    return Kernel2D(x_kernel.n, grid, region, out), mask


def _masked_sup(arr: np.ndarray, mask: np.ndarray) -> float:
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(arr[mask])))


@np.errstate(over="ignore", invalid="ignore")
def identity_suite(
    q: Potential,
    algebraic_tol: float = 5e-3,
    derivative_tol: float = 5e-2,
) -> DiagnosticReport:
    """Residuals of every computable identity of the kernel calculus.

    Finite-difference entries (wave_*) carry derivative_tol, pointwise
    algebraic contractions carry algebraic_tol, and the two structural
    checks that hold at the matrix level (J-block symmetry of the
    transformation pair, the triangular resolvent identity) carry fixed
    tight tolerances.
    """
    sc = structural_constants(q.r)
    J, B = sc.J, sc.B
    astar = sc.a_row.conj().T
    qfull = q.full()
    grid = q.grid
    N = grid.N
    m = N + 1
    d = np.arange(m)
    report = DiagnosticReport()

    kq = transmutation_kernel(q)
    ak, mask_k = apply_wave_operator(kq, "lower")
    report.add(
        "wave_K",
        _masked_sup(ak.values + qfull[:, None] @ kq.values, mask_k),
        derivative_tol,
    )
    diag_k = kq.values[d, d]
    report.add(
        "diag_K", float(np.max(np.abs(diag_k @ J - J @ diag_k - qfull))), algebraic_tol
    )
    report.add(
        "boundary_K", float(np.max(np.abs(kq.values[1:N, 0] @ astar))), algebraic_tol
    )

    lq = resolvent_volterra(kq)
    al, mask_l = apply_wave_operator(lq, "lower")
    report.add(
        "wave_L",
        _masked_sup(al.values - lq.values @ qfull[None, :], mask_l),
        derivative_tol,
    )
    diag_l = lq.values[d, d]
    report.add(
        "diag_L", float(np.max(np.abs(J @ diag_l - diag_l @ J - qfull))), algebraic_tol
    )
    report.add(
        "boundary_L", float(np.max(np.abs(lq.values[:, 0] @ astar))), algebraic_tol
    )

    l_star = resolvent_volterra(transmutation_kernel(potential_adjoint(q)))
    parts = resolvent_product_parts(lq, l_star)
    i, j = np.indices((m, m))
    f_low = np.where((j <= i)[:, :, None, None], parts.cross, 0) + parts.lower.values
    af_low, mask_fl = apply_wave_operator(
        Kernel2D(2 * q.r, grid, "lower", f_low), "lower"
    )
    report.add("wave_F_lower", _masked_sup(af_low.values, mask_fl), derivative_tol)
    f_up = np.where((j >= i)[:, :, None, None], parts.cross, 0) + parts.upper.values
    af_up, mask_fu = apply_wave_operator(
        Kernel2D(2 * q.r, grid, "upper", f_up), "upper"
    )
    report.add("wave_F_upper", _masked_sup(af_up.values, mask_fu), derivative_tol)

    f_full = assemble_product(parts)
    report.add(
        "boundary_F_row",
        float(np.max(np.abs(f_full.values[1:N, 0] @ astar))),
        algebraic_tol,
    )
    report.add(
        "boundary_F_col",
        float(np.max(np.abs(sc.a_row @ f_full.values[0, 1:N]))),
        algebraic_tol,
    )

    plus, minus = transformation_kernels(q)
    symmetry = max(
        float(np.max(np.abs(plus.values @ J - J @ plus.values))),
        float(np.max(np.abs(minus.values @ J + J @ minus.values))),
    )
    report.add("symmetry_P", symmetry, 1e-8)

    low = j <= i
    report.add(
        "reciprocity_KL",
        _masked_sup(
            kq.values + lq.values + _triangle_compose(kq.values, lq.values, grid.step),
            low,
        ),
        algebraic_tol,
    )
    report.add(
        "reciprocity_LK",
        _masked_sup(
            kq.values + lq.values + _triangle_compose(lq.values, kq.values, grid.step),
            low,
        ),
        algebraic_tol,
    )

    report.metadata.update({"N": N, "r": q.r})
    return report


def _triangle_compose(a: np.ndarray, b: np.ndarray, step: float) -> np.ndarray:
    """int_t^x A(x,s) B(s,t) ds on j <= i, trapezoid weights on [x_j, x_i].

    Both factors are lower supported, so the plain index sum already runs
    over s in [j, i]: one GEMM of the flattened factors [(x, a), (s, b)].
    The two half-weight corrections then fix the endpoints.  They cancel the
    empty interval i == j only up to rounding, so its zero is set outright.
    """
    full = _unflatten(_flatten(a) @ _flatten(b), a.shape[2])
    d = np.arange(a.shape[0])
    full -= 0.5 * a[d, d][:, None] @ b
    full -= 0.5 * a @ b[d, d][None, :]
    full[d, d] = 0.0
    return step * full


@np.errstate(over="ignore", invalid="ignore")
def check_krein_derivative_identity(h: Accelerant, tol: float = 5e-3) -> DiagnosticReport:
    """Residual of d/dx R_H(x, x-t) = R_H(x, 0) B R_H(x, t) B on the triangle."""
    rk = block_krein_kernel(h)
    grid = h.grid
    N = grid.N
    m = N + 1
    i, j = np.indices((m, m))
    low = j <= i
    w = np.zeros_like(rk.values)
    w[low] = rk.values[i[low], (i - j)[low]]
    dw, mask = _line_deriv(w, 0, np.arange(m), np.full(m, N, dtype=int), grid.step)
    sc = structural_constants(h.r)
    head = rk.values[:, 0] @ sc.B
    target = head[:, None] @ (rk.values @ sc.B)
    report = DiagnosticReport()
    report.add(
        "derivative_identity", _masked_sup(dw - target, mask & low), tol
    )
    report.metadata.update({"N": N, "r": h.r})
    return report


def spectral_radius_probe(kernel: Kernel2D, s_max: int = 16) -> list:
    """Rooted operator norms ||M^s||^{1/s} of the induced matrix, s = 1..s_max."""
    mat = op_from_kernel(kernel).M
    power = mat.copy()
    out = []
    for s in range(1, s_max + 1):
        norm = float(np.linalg.norm(power, 2))
        out.append(norm ** (1.0 / s) if norm > 0 else 0.0)
        power = power @ mat
    return out


def lipschitz_probe(
    map_id: str,
    center,
    scales=(1e-2, 1e-3, 1e-4),
    trials: int = 10,
    seed: int = 0,
) -> dict:
    """Finite-difference Lipschitz ratios of one map around a center point.

    Seeded complex Gaussian perturbations are normalized to each scale in
    L1 and the ratio ||map(c+d) - map(c)||_1 / ||d||_1 is summarized per
    scale. Perturbations rejected by the map's domain test are skipped and
    counted; the random stream is consumed identically either way, so a
    fixed seed gives a fixed report.
    """
    rng = np.random.default_rng(seed)
    if map_id == "theta":
        if not isinstance(center, Accelerant):
            raise FieldFormatError("theta probe needs an accelerant center")
        base = theta(center)
    elif map_id == "upsilon":
        if not isinstance(center, Potential):
            raise FieldFormatError("upsilon probe needs a potential center")
        base, _ = upsilon(center)
    else:
        raise FieldFormatError(f"unknown map {map_id!r}")

    per_scale = []
    for scale in scales:
        ratios = []
        skipped = 0
        for _ in range(trials):
            if map_id == "theta":
                shape = center.values.shape
                draw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                raw = Accelerant(center.r, center.grid, draw)
                bump = draw * (scale / field_norm(raw, 1.0))
                candidate = Accelerant(center.r, center.grid, center.values + bump)
                try:
                    mapped = theta(candidate)
                except NotAccelerantError:
                    skipped += 1
                    continue
                diff = Potential(
                    base.r,
                    base.grid,
                    mapped.q_plus - base.q_plus,
                    mapped.q_minus - base.q_minus,
                )
            else:
                shape = center.q_plus.shape
                draw_p = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                draw_m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                raw = Potential(center.r, center.grid, draw_p, draw_m)
                factor = scale / field_norm(raw, 1.0)
                candidate = Potential(
                    center.r,
                    center.grid,
                    center.q_plus + factor * draw_p,
                    center.q_minus + factor * draw_m,
                )
                mapped, _ = upsilon(candidate)
                diff = Accelerant(
                    base.r, base.grid, mapped.values - base.values
                )
            ratios.append(field_norm(diff, 1.0) / scale)
        stats = {
            "scale": float(scale),
            "mean": float(np.mean(ratios)) if ratios else None,
            "min": float(np.min(ratios)) if ratios else None,
            "max": float(np.max(ratios)) if ratios else None,
            "skipped": skipped,
        }
        per_scale.append(stats)
    return {"map": map_id, "seed": seed, "trials": trials, "scales": per_scale}


def roundtrip_report(field, ladder=(50, 100, 200), final_tol: float = 5e-3) -> DiagnosticReport:
    """Self-consistency of the composed maps across a nested grid ladder.

    The input is restricted to each grid by exact decimation. Per grid the
    report records the relative L1 roundtrip error plus the gap between the
    two resolvent kernels the maps must share; only the finest error
    carries a tolerance, the coarser values and the consecutive ratios are
    informational metadata.
    """
    ladder = tuple(sorted(int(n) for n in ladder))
    report = DiagnosticReport()
    errors = []
    f_gaps = []
    for n_target in ladder:
        if isinstance(field, Accelerant):
            h_n = decimate_accelerant(field, n_target)
            q_n = theta(h_n)
            f_q = resolvent_product_kernel(q_n)
            back = characteristic_extract(f_q)  # what upsilon(q_n) returns
            num = field_norm(Accelerant(h_n.r, h_n.grid, back.values - h_n.values), 1.0)
            den = field_norm(h_n, 1.0)
        elif isinstance(field, Potential):
            q_n = decimate_potential(field, n_target)
            f_q = resolvent_product_kernel(q_n)
            h_n = characteristic_extract(f_q)
            back = theta(h_n)
            num = field_norm(
                Potential(
                    q_n.r, q_n.grid, back.q_plus - q_n.q_plus, back.q_minus - q_n.q_minus
                ),
                1.0,
            )
            den = field_norm(q_n, 1.0)
        else:
            raise FieldFormatError(f"cannot roundtrip {type(field).__name__}")
        err = num / den if den > 0 else num
        errors.append(err)
        f_gaps.append(_product_gap(f_q, h_n))
        tol = final_tol if n_target == ladder[-1] else np.inf
        report.add(f"roundtrip_N{n_target}", err, tol)
    ratios = [
        errors[k] / errors[k + 1] if errors[k + 1] > 0 else np.inf
        for k in range(len(errors) - 1)
    ]
    report.metadata.update(
        {
            "ladder": list(ladder),
            "errors": errors,
            "ratios": ratios,
            "f_residuals": f_gaps,
        }
    )
    return report


def _product_gap(f_q: Kernel2D, h: Accelerant) -> float:
    f_h = folded_kernel(h)
    diff = Kernel2D(f_q.n, f_q.grid, "full", f_q.values - f_h.values)
    return mixed_norm(diff, 1.0)
