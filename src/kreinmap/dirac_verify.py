"""Independent checks tying the kernel machinery to the Dirac system.

The Cauchy solver here shares no code with the kernel solvers: it is a
classical one-step integrator applied to J Y' + Q Y = lam Y with linearly
interpolated potential samples. Everything else in the module compares the
transformation kernels, the resolvent factors, and the product kernel
against the identities they must satisfy, using finite differences that
never straddle the diagonal, where the kernels are only one-sidedly smooth.
Each check reads the kernels from the code the maps run: identity_suite
from the product kernel's own factors, the representation check from
transformation_kernels.
The wave operator J d/dx + (d/dt) J (apply_wave_operator) is an array layer
on kernel blocks in their own dtype.  J and the free evolution E(x) =
diag(e^{i lam x} I, e^{-i lam x} I) are diagonal, so both are applied as
their diagonals, scaling rows and columns, and a 2r x 2r factor shared by
a whole row or column of a kernel is one matrix product per row or column
(quadops._row_times, quadops._times_column).  A residual that overflows
floating point comes out non-finite and fails its report entry, without a
numpy warning.

The report tolerances are module constants that no caller sets: 5e-2 on
the finite-difference wave_* entries, 1e-2 on the representation at
non-real lambda, and 5e-3 on every other entry.  Only
roundtrip_report takes its finest-grid tolerance as an argument.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import FieldFormatError, NotAccelerantError
from .factorization import _gated_krein_rows, _krein_kernels, solve_glm
from .fields import (
    Accelerant,
    DiagnosticReport,
    GridSpec,
    Kernel2D,
    Potential,
    _check_int,
    decimate_accelerant,
    decimate_potential,
    structural_constants,
)
from .forward_map import (
    _block_kernel,
    _potential,
    block_krein_kernel,
    folded_kernel,
    folded_lower_factor,
    theta,
)
from .inverse_map import (
    _require_resolved,
    _resolvent_factors,
    resolvent_product_parts,
    transformation_kernels,
    upsilon,
)
from .quadops import (
    _row_times,
    _times_column,
    _unflatten,
    field_norm,
    mixed_norm,
    nystrom_weights,
    op_from_kernel,
)

__all__ = [
    "DEFAULT_LAMBDAS",
    "solve_cauchy",
    "krein_solution",
    "transmuted_solution",
    "check_fundamental_representation",
    "identity_suite",
    "check_krein_derivative_identity",
    "spectral_radius_probe",
    "lipschitz_probe",
    "roundtrip_report",
]

DEFAULT_LAMBDAS = (0.0, 1.0, -1.0, 1.0 + 0.5j)
_SUBSTEPS = 4  # RK4 steps per grid cell in solve_cauchy
_TOL = 5e-3  # every report entry not named below
_WAVE_TOL = 5e-2  # finite-difference wave_* entries
_NONREAL_TOL = 1e-2  # representation at non-real lambda


def _lam_label(lam: complex) -> str:
    lam = complex(lam)
    if lam.imag == 0:
        return f"{lam.real:g}"
    return f"{lam.real:g}{lam.imag:+g}i"


def _free_evolution(lam: complex, x: np.ndarray, r: int) -> np.ndarray:
    """The diagonal of E(x) = diag(e^{i lam x} I, e^{-i lam x} I) at every
    entry of x: shape x.shape + (2r,).  E is diagonal, so it is applied by
    scaling rows, never as a 2r x 2r matrix product."""
    phases = np.stack([np.exp(1j * lam * x), np.exp(-1j * lam * x)], axis=-1)
    return np.repeat(phases, r, axis=-1)


def solve_cauchy(q: Potential, lam: complex) -> np.ndarray:
    """Fundamental solution of J Y' + Q Y = lam Y, Y(0) = I, at the nodes.

    Classical fourth-order one-step integration of Y' = -J (lam - Q(x)) Y
    with _SUBSTEPS = 4 steps per cell and Q interpolated linearly between
    its node samples. J Q(x) is tabulated once, at the three stage points
    x0, x0 + hh/2 and x0 + hh of every step.  The system is linear, so
    every RK4 step is a fixed 2r x 2r matrix applied to Y; all of them are
    built from the table at once, and the march multiplies Y by one
    product of four of them per cell (_cauchy_march). This is the oracle
    side of every representation check, so it deliberately touches none of
    the kernel code.

    The step hh = 1/(4N) must resolve the generator, whose norm is at most
    rho = |lam| + max_x ||Q(x)||_2.  RK4 leaves a relative error of about
    (hh rho)^5 / 120 per step, so the leading global error estimate is
    steps (hh rho)^5 / 120 over the 4N steps of [0, 1].  Above 5e-3 the
    integrator is no longer an oracle: on the zero potential at N = 8 it
    returns |Y(1)_00| = 4e-10 at lam = 80 and 2e9 at lam = 100, where the
    exact value is 1.  Such inputs raise FieldFormatError up front, and so
    does a lam that is not a finite number.  A solution that still
    overflows floating point raises FieldFormatError as well.
    """
    return _cauchy_march(q, (lam,))[0]


@np.errstate(over="ignore", invalid="ignore")
def _cauchy_march(q: Potential, lams: tuple) -> np.ndarray:
    """solve_cauchy at every lambda of lams, shape (len(lams), N + 1, 2r, 2r),
    from one march.

    The system is linear, so an RK4 step maps Y to Phi Y with a step matrix
    Phi that does not depend on Y.  With the generator G0, G1, G2 at the
    three stage points of a step,
        k2 = G1 (I + hh/2 G0),  k3 = G1 (I + hh/2 k2),  k4 = G2 (I + hh k3),
        Phi = I + hh/6 (G0 + 2 k2 + 2 k3 + k4),
    which gives, applied to Y, the classical stages G0 Y, k2 Y, k3 Y, k4 Y.
    Every step's Phi, for every lambda, comes from three stacked products,
    the four Phi of a cell are folded into one cell matrix by three more,
    and the march is then one product Y <- Phi_cell Y per cell.  The
    lambdas are stacked on a leading axis of the generator and of Y, so
    each lambda's solution is the one solve_cauchy gives it alone, bit for
    bit.  Each lambda is checked as solve_cauchy checks it, in the order of
    lams, before any march; the first refused one raises its message."""
    J = structural_constants(q.r).J
    qfull = q.full()
    N = q.grid.N
    hh = q.grid.step / _SUBSTEPS
    q_max = np.linalg.norm(qfull, 2, axis=(1, 2)).max()  # a numpy float: overflows to inf
    for lam in lams:
        _check_lambda(lam)
        estimate = N * _SUBSTEPS * (hh * (abs(lam) + q_max)) ** 5 / 120.0
        if not estimate <= 5e-3:  # a nan estimate is refused too
            raise FieldFormatError(
                f"Cauchy step {hh:.3g} does not resolve lambda = {_lam_label(lam)} with "
                f"max|Q| = {q_max:.3g}: RK4 error estimate {estimate:.3g} > 5e-3"
            )

    steps = np.arange(N * _SUBSTEPS)
    x0 = (steps // _SUBSTEPS) * q.grid.step + (steps % _SUBSTEPS) * hh
    pos = np.clip(np.stack([x0, x0 + 0.5 * hh, x0 + hh]), 0.0, 1.0) * N
    cell = np.minimum(pos.astype(int), N - 1)
    frac = (pos - cell)[..., None, None]
    qx = (1.0 - frac) * qfull[cell] + frac * qfull[cell + 1]
    # JQ at stage g of step s in cell i, [g, i, s], with an axis for lams;
    # J is diagonal, so it scales rows
    jq = (np.diagonal(J)[:, None] * qx).reshape(3, N, _SUBSTEPS, 1, 2 * q.r, 2 * q.r)
    g0, g1, g2 = jq + np.stack([-lam * J for lam in lams])
    eye = np.eye(2 * q.r)
    k2 = g1 @ (eye + 0.5 * hh * g0)
    k3 = g1 @ (eye + 0.5 * hh * k2)
    k4 = g2 @ (eye + hh * k3)
    phi = eye + (hh / 6.0) * (g0 + 2.0 * k2 + 2.0 * k3 + k4)
    cells = phi[:, 0]
    for s in range(1, _SUBSTEPS):
        cells = phi[:, s] @ cells

    out = np.zeros((N + 1, len(lams), 2 * q.r, 2 * q.r), dtype=np.complex128)
    out[0] = np.eye(2 * q.r)
    for i, cell_phi in enumerate(cells):
        out[i + 1] = cell_phi @ out[i]
    if not np.isfinite(out).all():
        raise FieldFormatError(
            "Cauchy solution overflows floating point; the potential or lambda is too large"
        )
    return out.transpose(1, 0, 2, 3)


def krein_solution(h: Accelerant, lams) -> np.ndarray:
    """Solution columns built directly from the two Krein kernels.

    phi_1(x) = e^{i lam x} (I + int_0^x e^{-2 i lam s} r_h(x, x-s) ds) and
    phi_2 is the mirror with the reflected accelerant and conjugated phases.
    The stack (phi_1; phi_2) starts at (I; I) and solves the Dirac system
    with the potential theta(h). h passes the same gate as in theta: the
    sweep runs only when neither the Schur norm bound nor the numerical
    range bound can certify h. Neither the gate nor the kernels depend on
    lam, so one of each serves every value in lams; the result has shape
    (len(lams), N + 1, 2r, r).  Substituting t = x - s, each integral
    carries the phase e^{-2 i lam (x_i - x_t)} for phi_1 and its conjugate
    form e^{2 i lam (x_i - x_t)} for phi_2, on the lower trapezoid weights,
    which are symmetric on [0, x_i]. The phase separates as
    e^{-2 i lam (x_i - 1/2)} e^{2 i lam (x_t - 1/2)}: the kernel times the
    phases of t is one product for all lams (_phase_integral), then scaled
    by the phases of x, and no (N+1)^2 phase table is built. Centred at
    x = 1/2, neither factor exceeds e^{|Im lam|} in size, so no factor
    over- or underflows where the product does not.  lams that is not a
    non-empty sequence of finite numbers raises FieldFormatError before the
    gate runs, and so does a solution that overflows floating point after
    it.
    """
    lams = _check_sequence(lams, "lams", "numbers")
    for lam in lams:
        _check_lambda(lam)
    r1, r2 = _krein_kernels(*_gated_krein_rows(h)[2:])
    grid, r = h.grid, h.r
    x = grid.nodes
    tw = nystrom_weights(grid, "lower")
    lam = np.asarray(lams, dtype=np.complex128)[:, None]  # [l, node]
    phis = np.empty((len(lams), grid.N + 1, 2 * r, r), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        down, up = np.exp(-2j * lam * (x - 0.5)), np.exp(2j * lam * (x - 0.5))
        s1 = _phase_integral(tw, r1, np.repeat(up[:, :, None], r, axis=-1))
        s2 = _phase_integral(tw, r2, np.repeat(down[:, :, None], r, axis=-1))
        phis[:, :, :r] = np.exp(1j * lam * x)[:, :, None, None] * (np.eye(r) + down[:, :, None, None] * s1)
        phis[:, :, r:] = np.exp(-1j * lam * x)[:, :, None, None] * (np.eye(r) + up[:, :, None, None] * s2)
    if not np.isfinite(phis).all():
        raise FieldFormatError("Krein solution overflows floating point; lambda is too large")
    return phis


@np.errstate(over="ignore", invalid="ignore")
def transmuted_solution(kernel: Kernel2D, lam: complex) -> np.ndarray:
    """phi_0 + int_0^x K(x,s) phi_0(s) ds for the distinguished columns; a
    lam that is not a finite number, or an overflow, raises FieldFormatError."""
    if kernel.support != "lower":
        raise FieldFormatError("transmuted solution needs a lower kernel")
    if kernel.n % 2:
        raise FieldFormatError(f"kernel block size {kernel.n} is odd")
    _check_lambda(lam)
    r = kernel.n // 2
    phi0 = _free_evolution(lam, kernel.grid.nodes, r)[:, :, None] * structural_constants(r).a_col
    tw = nystrom_weights(kernel.grid, "lower")
    phi = phi0 + np.einsum("ij,ijab,jbc->iac", tw, kernel.values, phi0)
    if not np.isfinite(phi).all():
        raise FieldFormatError("transmuted solution overflows floating point; lambda is too large")
    return phi


def _check_lambda(lam) -> None:
    """Refuse a lambda that is not a finite number, bool included."""
    if isinstance(lam, bool) or not (isinstance(lam, numbers.Number) and np.isfinite(lam)):
        raise FieldFormatError(f"lambda must be a finite number, got {lam!r}")


@np.errstate(over="ignore", invalid="ignore")
def check_fundamental_representation(q: Potential) -> DiagnosticReport:
    """Residual of the two-kernel representation of the fundamental solution.

    E(x) + int_0^x P+(x,t) E(x-2t) dt + int_0^x P-(x,t) E(2t-x) dt is
    compared with the solution integrated by solve_cauchy, at each lambda
    of DEFAULT_LAMBDAS.  A real lambda carries tolerance 5e-3 and a
    non-real one 1e-2, since conditioning grows like e^{|Im lam|}.  A
    potential the march does not resolve on its own grid raises
    FieldFormatError.

    E is diagonal, so E(x - 2t) = E(x) E(-2t) and E(2t - x) = E(-x) E(2t):
    each integral, for every lambda at once, is one product of the weighted
    kernel with the phases of t (_phase_integral), its columns then scaled
    by the phases of x.  No table over (x, t) pairs is built.
    """
    plus, minus = transformation_kernels(q)
    grid = q.grid
    x = grid.nodes
    tw = nystrom_weights(grid, "lower")

    def phases(at: np.ndarray) -> np.ndarray:  # E(at) for every lambda: [lam, node, b]
        return np.stack([_free_evolution(lam, at, q.r) for lam in DEFAULT_LAMBDAS])

    plus_part = _phase_integral(tw, plus.values, phases(-2.0 * x))
    minus_part = _phase_integral(tw, minus.values, phases(2.0 * x))
    y_rep = (phases(x)[:, :, None] * (np.eye(2 * q.r) + plus_part)
             + phases(-x)[:, :, None] * minus_part)
    residuals = np.max(np.abs(y_rep - _cauchy_march(q, DEFAULT_LAMBDAS)), axis=(1, 2, 3))
    report = DiagnosticReport()
    for lam, residual in zip(DEFAULT_LAMBDAS, residuals):
        entry_tol = _TOL if complex(lam).imag == 0 else _NONREAL_TOL
        report.add(f"representation_{_lam_label(lam)}", float(residual), entry_tol)
    report.metadata.update({"N": grid.N, "r": q.r, "substeps": _SUBSTEPS})
    return report


def _phase_integral(tw: np.ndarray, blocks: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """sum_t tw[x, t] blocks[x, t] diag(phases[l, t]) for every l, shape
    [l, x, a, b]: the weighted blocks laid out as [b, (x, a), t], one
    matrix per column b, times the phase columns [b, t, l]."""
    m, _, n, _ = blocks.shape
    weighted = (tw[:, :, None, None] * blocks).transpose(3, 0, 2, 1).reshape(n, m * n, m)
    out = weighted @ phases.transpose(2, 1, 0)
    return out.reshape(n, m, n, -1).transpose(3, 1, 2, 0)


def _line_deriv(vals, axis, diagonal_first, step):
    """Second-order derivative along one axis, on lines that run between
    the grid diagonal and an array edge.

    A line starts on the diagonal when diagonal_first and ends there
    otherwise, so no stencil crosses it: central differences inside, the
    one-sided three-point stencils at the diagonal and at the array edge.
    Returns the derivative and the mask of the nodes on lines of at least
    three nodes; entries off the mask carry no meaning.
    """
    v = vals if axis == 0 else vals.swapaxes(0, 1)  # line j is v[:, j]
    m = v.shape[0]
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * step)
    d = np.arange(m)
    if diagonal_first:  # line j runs from (j, j) down to the edge m - 1
        out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * step)
        j = d[: m - 2]
        out[j, j] = (-3.0 * v[j, j] + 4.0 * v[j + 1, j] - v[j + 2, j]) / (2.0 * step)
        mask = (d[:, None] >= d) & (d <= m - 3)
    else:  # line j runs from the edge 0 down to (j, j)
        out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * step)
        j = d[2:]
        out[j, j] = (3.0 * v[j, j] - 4.0 * v[j - 1, j] + v[j - 2, j]) / (2.0 * step)
        mask = (d[:, None] <= d) & (d >= 2)
    return (out, mask) if axis == 0 else (out.swapaxes(0, 1), mask.T)


def apply_wave_operator(blocks: np.ndarray, grid, region: str):
    """The first-order operator J d/dx + (d/dt) J on sampled kernel blocks.

    blocks[i, j] is the n x n block at the nodes (x_i, x_j) of the GridSpec
    grid, in its own dtype.
    Differences are confined to the named triangle, "lower" (t <= x) or
    "upper" (t >= x), so that no stencil crosses the diagonal; any other
    region and an odd block size raise FieldFormatError.  J is diagonal, so
    it scales rows on the left and columns on the right.  Returns the image
    blocks, zero off the mask, and the mask of nodes where both stencils fit.
    """
    if region not in ("lower", "upper"):
        raise FieldFormatError(f"unknown region {region!r}")
    n = blocks.shape[-1]
    if n % 2:
        raise FieldFormatError(f"kernel block size {n} is odd")
    dx, mask_x = _line_deriv(blocks, 0, region == "lower", grid.step)
    dt, mask_t = _line_deriv(blocks, 1, region == "upper", grid.step)
    d = np.diagonal(structural_constants(n // 2).J)
    out = d[:, None] * dx + dt * d
    mask = mask_x & mask_t
    out[~mask] = 0
    return out, mask


def _masked_sup(arr: np.ndarray, mask: np.ndarray) -> float:
    if not mask.any():
        return 0.0
    return float(np.max(np.abs(arr[mask])))


def _verify_potential(q: Potential) -> DiagnosticReport:
    """identity_suite(q) followed by the entries of
    check_fundamental_representation(q) (CLI verify on a potential).

    The representation check marches on the potential's own grid, which is
    coarser than the suite's, so the coarse guard runs first: a potential
    that grid does not resolve is refused as too coarse before any march.
    """
    _require_resolved(q.q_plus, q.q_minus, q.grid.step)
    report = identity_suite(q)
    report.entries.extend(check_fundamental_representation(q).entries)
    return report


def _verify_accelerant(h: Accelerant) -> DiagnosticReport:
    """_verify_potential(theta(h)) followed by the entries of
    check_krein_derivative_identity(h) and glm_consistency (CLI verify on
    an accelerant).  h passes the gate once, and theta and the derivative
    identity read the same Krein rows."""
    _, _, x, z = _gated_krein_rows(h)
    report = _verify_potential(_potential(h, x, z))
    report.entries.extend(_derivative_identity(_block_kernel(*_krein_kernels(x, z)), h.grid).entries)
    # dual-route factor check: the folded Krein factor against the
    # triangular factor recovered from the folded kernel itself
    lh = folded_lower_factor(h)
    glm = solve_glm(folded_kernel(h))
    diff = Kernel2D(lh.n, lh.grid, "lower", lh.values - glm.values)
    report.add("glm_consistency", mixed_norm(diff, 1.0), _TOL)
    return report


@np.errstate(over="ignore", invalid="ignore")
def identity_suite(q: Potential) -> DiagnosticReport:
    """Residuals of every computable identity of the kernel calculus.

    The finite-difference entries (wave_*) carry tolerance 5e-2, and the
    pointwise algebraic contractions and reciprocity identities 5e-3.
    K_Q, L and L* come from the product kernel's own _resolvent_factors,
    one march over the refined grid, and the upper part and cross term of F
    from its resolvent_product_parts, so a real-class or self-adjoint q
    takes the same float64 or one-resolvent route as
    resolvent_product_kernel, and the suite refuses what upsilon refuses.
    The full F is not assembled: its one-sided parts f_low (cross + L) and
    f_up (cross + L~) carry the wave_F entries, and the boundary_F entries
    read the off-diagonal lines that F shares with them.
    """
    sc = structural_constants(q.r)
    jd = np.diagonal(sc.J)
    astar = sc.a_row.conj().T
    qfull = q.full()
    grid = q.grid
    N = grid.N
    m = N + 1
    d = np.arange(m)
    report = DiagnosticReport()

    k_values, l_values, l_star_values = _resolvent_factors(q)
    wave, mask = apply_wave_operator(k_values, grid, "lower")
    report.add("wave_K", _masked_sup(wave + _row_times(qfull, k_values), mask), _WAVE_TOL)
    diag_k = k_values[d, d]
    report.add("diag_K", float(np.max(np.abs(diag_k * jd - jd[:, None] * diag_k - qfull))), _TOL)
    report.add("boundary_K", float(np.max(np.abs(k_values[1:N, 0] @ astar))), _TOL)

    wave, mask = apply_wave_operator(l_values, grid, "lower")
    report.add("wave_L", _masked_sup(wave - _times_column(l_values, qfull), mask), _WAVE_TOL)
    diag_l = l_values[d, d]
    report.add("diag_L", float(np.max(np.abs(jd[:, None] * diag_l - diag_l * jd - qfull))), _TOL)
    report.add("boundary_L", float(np.max(np.abs(l_values[:, 0] @ astar))), _TOL)

    upper, cross = resolvent_product_parts(l_values, l_star_values, grid)
    low = np.tri(m, dtype=bool)  # j <= i
    f_low = np.where(low[:, :, None, None], cross, 0) + l_values
    wave, mask = apply_wave_operator(f_low, grid, "lower")
    report.add("wave_F_lower", _masked_sup(wave, mask), _WAVE_TOL)
    f_up = np.where(low.T[:, :, None, None], cross, 0) + upper
    wave, mask = apply_wave_operator(f_up, grid, "upper")
    report.add("wave_F_upper", _masked_sup(wave, mask), _WAVE_TOL)

    # off the diagonal F is cross + L below it and cross + L~ above it
    # (assemble_product), which f_low and f_up already hold
    report.add("boundary_F_row", float(np.max(np.abs(f_low[1:N, 0] @ astar))), _TOL)
    report.add("boundary_F_col", float(np.max(np.abs(sc.a_row @ f_up[0, 1:N]))), _TOL)

    # (I + K)(I + L) = (I + L)(I + K) = I on the lower triangle
    k_plus_l = k_values + l_values
    halved_k, halved_l = _halved_rows(k_values), _halved_rows(l_values)
    for name, a, b in (("KL", halved_k, halved_l), ("LK", halved_l, halved_k)):
        residual = _masked_sup(k_plus_l + _triangle_compose(a, b, grid.step), low)
        report.add(f"reciprocity_{name}", residual, _TOL)

    report.metadata.update({"N": N, "r": q.r})
    return report


def _halved_rows(blocks: np.ndarray) -> np.ndarray:
    """Lower blocks [x, s, a, b] laid out as [x, a, s, b], the layout of
    the flat matrix [(x, a), (s, b)] of quadops._flatten, with the diagonal
    blocks halved: one copy, whatever the layout of blocks, which are left
    as they are."""
    halved = blocks.transpose(0, 2, 1, 3).copy()
    d = np.arange(halved.shape[0])
    halved[d, :, d] *= 0.5
    return halved


def _triangle_compose(a: np.ndarray, b: np.ndarray, step: float) -> np.ndarray:
    """int_t^x A(x,s) B(s,t) ds on j <= i, trapezoid weights on [x_j, x_i],
    for lower blocks A and B given as _halved_rows.

    Both factors are lower supported, so the plain index sum already runs
    over s in [j, i], and its endpoint terms are A(x_i, x_i) B(x_i, x_j) and
    A(x_i, x_j) B(x_j, x_j): the trapezoid rule is one GEMM of the flattened
    factors with the diagonal blocks of both halved.  The empty interval
    i == j keeps a quarter weight there, so its zero is set outright.
    """
    m, n = a.shape[:2]
    full = _unflatten(a.reshape(m * n, -1) @ b.reshape(m * n, -1), n)
    d = np.arange(m)
    full[d, d] = 0.0
    return step * full


@np.errstate(over="ignore", invalid="ignore")
def check_krein_derivative_identity(h: Accelerant) -> DiagnosticReport:
    """Residual of d/dx R_H(x, x-t) = R_H(x, 0) B R_H(x, t) B on the
    triangle, with tolerance 5e-3."""
    return _derivative_identity(block_krein_kernel(h).values, h.grid)


@np.errstate(over="ignore", invalid="ignore")
def _derivative_identity(rk: np.ndarray, grid: GridSpec) -> DiagnosticReport:
    """check_krein_derivative_identity on the blocks rk of
    block_krein_kernel(h) on h's grid."""
    r = rk.shape[2] // 2
    N = grid.N
    m = N + 1
    i, j = np.indices((m, m))
    low = j <= i
    w = np.zeros_like(rk)
    w[low] = rk[i[low], (i - j)[low]]
    dw, mask = _line_deriv(w, 0, True, grid.step)
    # B = [[0, I], [I, 0]] swaps the column halves of what it multiplies
    head = np.roll(rk[:, 0], r, axis=-1)
    target = _row_times(head, np.roll(rk, r, axis=-1))
    report = DiagnosticReport()
    report.add("derivative_identity", _masked_sup(dw - target, mask & low), _TOL)
    report.metadata.update({"N": N, "r": r})
    return report


@np.errstate(over="ignore", invalid="ignore")
def spectral_radius_probe(kernel: Kernel2D, s_max: int = 16) -> list:
    """Rooted operator norms ||M^s||^{1/s} of the induced matrix, s = 1..s_max;
    an s_max that is not an integer >= 1 and a power that overflows floating
    point raise FieldFormatError."""
    _check_int(s_max, "s_max", minimum=1)
    mat = op_from_kernel(kernel)
    power = mat.copy()
    out = []
    for s in range(1, s_max + 1):
        if not np.isfinite(power).all():
            raise FieldFormatError(f"power {s} of the operator overflows floating point")
        norm = float(np.linalg.norm(power, 2))
        out.append(norm ** (1.0 / s) if norm > 0 else 0.0)
        if s < s_max:
            power = power @ mat
    return out


def _samples(f) -> list:
    """The sample arrays of a field: [values] or [q_plus, q_minus]."""
    if isinstance(f, Accelerant):
        return [f.values]
    return [f.q_plus, f.q_minus]


def _difference(a, b):
    """The field a - b, sample by sample, of a's type and on a's grid."""
    return type(a)(a.r, a.grid, *(u - v for u, v in zip(_samples(a), _samples(b))))


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
    fixed seed gives a fixed report.  scales that are not a non-empty
    sequence of finite real numbers > 0, trials that is not an integer >= 1
    and a seed that np.random.default_rng refuses raise FieldFormatError
    before any map runs.
    """
    if map_id == "theta":
        if not isinstance(center, Accelerant):
            raise FieldFormatError("theta probe needs an accelerant center")
        apply = theta
    elif map_id == "upsilon":
        if not isinstance(center, Potential):
            raise FieldFormatError("upsilon probe needs a potential center")
        apply = lambda p: upsilon(p)[0]
    else:
        raise FieldFormatError(f"unknown map {map_id!r}")
    scales = _check_sequence(scales, "scales", "numbers")
    for scale in scales:
        _check_tol(scale, "scale")
    _check_int(trials, "trials", minimum=1)
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise FieldFormatError(f"seed {seed!r} is not a valid random seed ({exc})")

    base = apply(center)
    samples = _samples(center)
    per_scale = []
    for scale in scales:
        ratios = []
        skipped = 0
        for _ in range(trials):
            draws = [
                rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
                for v in samples
            ]
            factor = scale / field_norm(type(center)(center.r, center.grid, *draws), 1.0)
            candidate = type(center)(
                center.r, center.grid, *(v + factor * d for v, d in zip(samples, draws))
            )
            try:
                mapped = apply(candidate)
            except NotAccelerantError:
                skipped += 1
                continue
            ratios.append(field_norm(_difference(mapped, base), 1.0) / scale)
        stats = {
            "scale": float(scale),
            "mean": float(np.mean(ratios)) if ratios else None,
            "min": float(np.min(ratios)) if ratios else None,
            "max": float(np.max(ratios)) if ratios else None,
            "skipped": skipped,
        }
        per_scale.append(stats)
    return {"map": map_id, "seed": seed, "trials": trials, "scales": per_scale}


def _check_tol(tol: float, name: str = "final_tol") -> None:
    """Refuse a tolerance or probe scale that is not a finite real number
    > 0 (a nan or non-positive tolerance fails every ladder, inf passes
    any); name is how the caller spells the argument."""
    if not (isinstance(tol, numbers.Real) and np.isfinite(tol) and tol > 0):
        raise FieldFormatError(f"{name} must be a finite number > 0, got {tol!r}")


def _check_sequence(value, name: str, kind: str) -> tuple:
    """value as a non-empty tuple.  A string or a lone number is refused as
    a whole, not item by item; kind names what the items should be."""
    refusal = FieldFormatError(f"{name} must be a sequence of {kind}, got {value!r}")
    if isinstance(value, (str, bytes)):
        raise refusal
    try:
        items = tuple(value)
    except TypeError:
        raise refusal from None
    if not items:
        raise FieldFormatError(f"empty {name}")
    return items


def _check_ladder(ladder) -> tuple:
    """The rungs of a grid ladder, ascending.  A ladder that is not a
    non-empty sequence of integers, or that repeats a rung, raises
    FieldFormatError."""
    rungs = _check_sequence(ladder, "ladder", "integers")
    for n in rungs:
        _check_int(n, "ladder rung")
    rungs = tuple(sorted(int(n) for n in rungs))
    if len(set(rungs)) < len(rungs):
        raise FieldFormatError(f"ladder repeats a rung: {list(rungs)}")
    return rungs


def roundtrip_report(field, ladder=(50, 100, 200), final_tol: float = 5e-3) -> DiagnosticReport:
    """Self-consistency of the composed maps across a nested grid ladder.

    The input is restricted to each grid by exact decimation and sent
    through the two maps the package ships: upsilon(theta(h)) for an
    accelerant, theta(upsilon(q)) for a potential.  Per grid the report
    records the relative L1 roundtrip error; only the finest error carries
    a tolerance, the coarser values and the consecutive ratios are
    informational metadata.  A final_tol that is not a finite number > 0
    and a ladder that _check_ladder refuses raise FieldFormatError before
    any map runs.
    """
    _check_tol(final_tol)
    ladder = _check_ladder(ladder)
    report = DiagnosticReport()
    errors = []
    for n_target in ladder:
        if isinstance(field, Accelerant):
            start = decimate_accelerant(field, n_target)
            back = upsilon(theta(start))[0]
        elif isinstance(field, Potential):
            start = decimate_potential(field, n_target)
            back = theta(upsilon(start)[0])
        else:
            raise FieldFormatError(f"cannot roundtrip {type(field).__name__}")
        num = field_norm(_difference(back, start), 1.0)
        den = field_norm(start, 1.0)
        err = num / den if den > 0 else num
        errors.append(err)
        tol = final_tol if n_target == ladder[-1] else np.inf
        report.add(f"roundtrip_N{n_target}", err, tol)
    ratios = [
        errors[k] / errors[k + 1] if errors[k + 1] > 0 else np.inf
        for k in range(len(errors) - 1)
    ]
    report.metadata.update({"ladder": list(ladder), "errors": errors, "ratios": ratios})
    return report
