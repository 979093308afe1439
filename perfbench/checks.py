"""Correctness checks for the benchmark's outputs.

Each check takes plain arrays, exit codes and report objects, and returns a
list of failure messages (empty means the output is accepted). The checks
compare against closed forms or against properties the method must have,
and compute their own norms and singular values instead of calling the
program's helpers, so a fault in a shared helper cannot hide itself.
"""

from __future__ import annotations

import csv
import io
import json
import re

import numpy as np

# Tolerances: every bound below is a documented contract of the package
# (README acceptance table) or round-off for an exactly representable case.
ROUNDOFF = 1e-10  # theta of a constant is exact on the grid; future fast
#                   forward paths must match the dense solve to 1e-10
ROUNDTRIP_REL_L1 = 5e-3  # acceptance 02/03: composed-map relative L1 error
LADDER_RATIO = 3.0  # acceptance 02/07: improvement per grid doubling
RATIO_FLOOR = 1e-11  # both errors below this sit at round-off; ratio is moot
CLOSED_FORM_MAX = 5e-3  # upsilon of a closed-form potential, finest rung
SWEEP_MARGIN = 1e-8  # is_accelerant's default relative margin
SIGMA_REL = 1e-8  # reported singular values against an independent SVD
LIPSCHITZ_BAND = 1.5  # acceptance 12: ratio band across perturbation scales


def decode_field(text: str) -> tuple[dict, np.ndarray]:
    """Parse a field file with the json module alone: ([re, im] pairs)."""
    doc = json.loads(text)
    arr = np.asarray(doc["data"], dtype=np.float64)
    return doc, arr[..., 0] + 1j * arr[..., 1]


def trapezoid_weights(n_points: int, step: float) -> np.ndarray:
    w = np.full(n_points, step)
    w[0] = w[-1] = 0.5 * step
    return w


def potential_blocks(q_plus: np.ndarray, q_minus: np.ndarray) -> np.ndarray:
    """Node values [[0, q+], [q-, 0]] as (N+1, 2r, 2r) matrices."""
    m, r, _ = q_plus.shape
    full = np.zeros((m, 2 * r, 2 * r), dtype=np.complex128)
    full[:, :r, r:] = q_plus
    full[:, r:, :r] = q_minus
    return full


def rel_l1(got: np.ndarray, want: np.ndarray, step: float) -> float:
    """Relative L1 error of sampled matrix functions (first axis = nodes),
    trapezoid rule, spectral norm per node."""
    w = trapezoid_weights(want.shape[0], step)
    diff = np.linalg.norm(got - want, 2, axis=(-2, -1))
    ref = np.linalg.norm(want, 2, axis=(-2, -1))
    return float((w @ diff) / (w @ ref))


def check_closed_form_potential(q_plus, q_minus, c: float, n_cells: int) -> list:
    """theta of the constant accelerant c is q+ = -ic/(1+cx), q- = ic/(1+cx)."""
    x = np.arange(n_cells + 1) / n_cells
    exact = (-1j * c / (1.0 + c * x))[:, None, None]
    err = max(
        float(np.max(np.abs(q_plus - exact))), float(np.max(np.abs(q_minus + exact)))
    )
    if not err <= ROUNDOFF:
        return [f"theta(const {c:.6g}) at N={n_cells} off the closed form by {err:.3e}"]
    return []


_ALPHA = re.compile(r"alpha = ([-+0-9.eE]+)")


def check_rejection(code: int, message: str, n_cells: int, alpha_star: float) -> list:
    """A rejected accelerant exits 2 and names a worst alpha within one grid
    step of where I + H_alpha is singular."""
    out = []
    if code != 2:
        out.append(f"rejection at N={n_cells} exited {code}, expected 2")
    found = _ALPHA.search(message)
    if found is None:
        out.append(f"rejection at N={n_cells} names no alpha: {message.strip()!r}")
    elif not abs(float(found.group(1)) - alpha_star) <= 1.0 / n_cells + 1e-12:
        out.append(
            f"rejection at N={n_cells} names alpha {found.group(1)}, "
            f"expected {alpha_star:.6g} within {1.0 / n_cells:.3g}"
        )
    return out


def _sweep_sigmas(h_values: np.ndarray, n_cells: int, k: int) -> np.ndarray:
    """Singular values of I + H_alpha at alpha = k/N, built from the samples."""
    r = h_values.shape[-1]
    idx = np.arange(k + 1)
    blocks = h_values[2 * n_cells + 2 * (idx[:, None] - idx[None, :])]
    w = trapezoid_weights(k + 1, 1.0 / n_cells)
    mat = (blocks * w[None, :, None, None]).transpose(0, 2, 1, 3)
    mat = mat.reshape((k + 1) * r, (k + 1) * r) + np.eye((k + 1) * r)
    return np.linalg.svd(mat, compute_uv=False)


def parse_sweep_csv(text: str) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["alpha", "sigma_min", "sigma_max", "margin"]:
        raise ValueError("missing CSV header")
    return np.asarray([[float(v) for v in row] for row in rows[1:]])


def check_sweep_csv(
    code: int,
    text: str,
    h_values: np.ndarray,
    n_cells: int,
    accept: bool,
    alpha_star: float | None,
    probe_k: int,
) -> list:
    """check-accelerant --csv: exit code, one row per breakpoint, verdict,
    and the reported singular values at alpha = 1 and alpha = probe_k/N
    against an SVD made here."""
    out = []
    want_code = 0 if accept else 2
    if code != want_code:
        out.append(f"check-accelerant at N={n_cells} exited {code}, expected {want_code}")
    try:
        table = parse_sweep_csv(text)
    except ValueError as exc:
        return out + [f"check-accelerant at N={n_cells}: unreadable CSV ({exc})"]
    if table.shape != (n_cells, 4):
        return out + [f"check-accelerant at N={n_cells}: CSV shape {table.shape}"]
    alphas, margins = table[:, 0], table[:, 3]
    if not np.allclose(alphas, np.arange(1, n_cells + 1) / n_cells, rtol=0, atol=1e-15):
        out.append(f"check-accelerant at N={n_cells}: alphas are not the breakpoints")
    if accept and not np.all(margins > SWEEP_MARGIN):
        out.append(f"check-accelerant at N={n_cells}: accepted with a margin <= 1e-8")
    if alpha_star is not None:
        worst = float(alphas[int(np.argmin(margins))])
        if not abs(worst - alpha_star) <= 1.0 / n_cells + 1e-12:
            out.append(f"check-accelerant at N={n_cells}: worst alpha {worst:.6g}")
    for k in sorted({n_cells, probe_k}):
        sigma = _sweep_sigmas(h_values, n_cells, k)
        got = table[k - 1, 1:3]
        want = np.array([sigma[-1], sigma[0]])
        if not np.all(np.abs(got - want) <= SIGMA_REL * sigma[0]):
            out.append(
                f"check-accelerant at N={n_cells}, alpha={k / n_cells:.6g}: "
                f"sigma {got.tolist()} against {want.tolist()}"
            )
    return out


def check_roundtrip(got: np.ndarray, want: np.ndarray, step: float, label: str) -> list:
    err = rel_l1(got, want, step)
    if not err <= ROUNDTRIP_REL_L1:
        return [f"{label}: roundtrip relative L1 error {err:.3e} > {ROUNDTRIP_REL_L1}"]
    return []


def ratio_ok(coarse: float, fine: float) -> bool:
    if coarse < RATIO_FLOOR and fine < RATIO_FLOOR:
        return True
    return coarse / max(fine, 1e-300) >= LADDER_RATIO


def check_closed_form_accelerant(errors: dict, c: float) -> list:
    """upsilon of the image of the constant c: the max error against c must
    reach CLOSED_FORM_MAX on the finest rung and shrink >= 3x per doubling.
    errors maps N to max |h_N - c|."""
    grids = sorted(errors)
    out = []
    if not errors[grids[-1]] <= CLOSED_FORM_MAX:
        out.append(f"upsilon(const {c:.6g}) at N={grids[-1]}: error {errors[grids[-1]]:.3e}")
    for a, b in zip(grids, grids[1:]):
        if not ratio_ok(errors[a], errors[b]):
            out.append(
                f"upsilon(const {c:.6g}): error {errors[a]:.3e} at N={a} -> "
                f"{errors[b]:.3e} at N={b}, ratio below {LADDER_RATIO}"
            )
    return out


def check_report(report, label: str) -> list:
    """A DiagnosticReport passes when every residual is finite and within its
    own tolerance (the package's documented tolerances)."""
    bad = [
        f"{e.name}={e.residual:.3e} (tol {e.tol:.1e})"
        for e in report.entries
        if not (np.isfinite(e.residual) and e.residual <= e.tol)
    ]
    if not report.entries:
        return [f"{label}: empty report"]
    return [f"{label}: failed {', '.join(bad)}"] if bad else []


def check_ladder_ratios(report, label: str) -> list:
    errors = report.metadata["errors"]
    out = []
    for a, b in zip(errors, errors[1:]):
        if not ratio_ok(a, b):
            out.append(f"{label}: ladder errors {a:.3e} -> {b:.3e}, ratio below {LADDER_RATIO}")
    return out


def check_lipschitz(probe: dict, label: str) -> list:
    means = [s["mean"] for s in probe["scales"]]
    skipped = sum(s["skipped"] for s in probe["scales"])
    if skipped or any(m is None for m in means):
        return [f"{label}: {skipped} perturbations rejected"]
    if not max(means) / min(means) <= LIPSCHITZ_BAND:
        return [f"{label}: ratio band {max(means) / min(means):.3f} > {LIPSCHITZ_BAND}"]
    return []
