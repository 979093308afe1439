"""Sampled field types for the accelerant / Dirac-potential maps.

Everything downstream works on uniform grids. Kernels and potentials live on
the N-cell grid of [0,1]; accelerants are matrix functions on [-1,1] sampled
with step 1/(2N), i.e. 4N+1 samples. That step is chosen so that every
argument combination the kernel constructions use, x - t (step 1/N) and
(x +/- t)/2 (step 1/(2N)), lands exactly on a stored sample. No kernel read
ever interpolates.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache

import numpy as np

from .errors import FieldFormatError

__all__ = [
    "GridSpec",
    "Accelerant",
    "Potential",
    "Kernel2D",
    "StructuralConstants",
    "structural_constants",
    "DiagnosticReport",
    "ReportEntry",
    "reflect",
    "potential_adjoint",
    "decimate_accelerant",
    "decimate_potential",
]

SUPPORTS = ("lower", "upper", "full")


def _check_int(value, name: str, minimum: int | None = None) -> None:
    """Refuse a count or size that is not an integer, bool included, or is below minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise FieldFormatError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise FieldFormatError(f"{name} must be >= {minimum}, got {value!r}")


def _field_values(values, name: str, size, shape: tuple) -> np.ndarray:
    """values as a read-only complex128 array of shape + (size, size); raises
    FieldFormatError unless size is an integer >= 1 and values are finite."""
    _check_int(size, f"{name} block size", minimum=1)
    arr = np.ascontiguousarray(values, dtype=np.complex128)
    if not np.all(np.isfinite(arr.view(np.float64))):
        raise FieldFormatError(f"{name}: non-finite entries")
    if arr.shape != shape + (size, size):
        raise FieldFormatError(f"{name} shape {arr.shape}, expected {shape + (size, size)}")
    arr.setflags(write=False)
    return arr


def _fold_lines(N: int, column: int | None = None) -> dict:
    """{(a, b): the (N+1, N+1) array of the samples of h that block (a, b)
    of the folded kernel reads at (x_i, x_j)}: h((x-t)/2), h((x+t)/2),
    h(-(x+t)/2) and h(-(x-t)/2), with h(u) the sample 2N + 2N u.  With a
    column j given, the (N+1,) arrays of that column alone."""
    i, j = np.indices((N + 1, N + 1)) if column is None else (np.arange(N + 1), column)
    c = 2 * N
    return {(0, 0): c + (i - j), (0, 1): c + (i + j), (1, 0): c - (i + j), (1, 1): c - (i - j)}


def _half_argument_reads(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, near, far) over the lower triangle j <= i of the (N+1, N+1)
    grid: the node indices of (x_i, x_j) and the refined-grid indices
    near = i - j of (x-t)/2 and far = i + j of (x+t)/2.  A lower kernel
    read through the table is written at [i, j] into zeros."""
    i, j = np.tril_indices(N + 1)
    return i, j, i - j, i + j


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid x_i = i/N on [0,1] with trapezoid quadrature weights."""

    N: int

    def __post_init__(self):
        if not isinstance(self.N, (int, np.integer)) or self.N < 8 or self.N % 2:
            raise FieldFormatError(f"grid size must be an even integer >= 8, got {self.N}")

    @cached_property
    def nodes(self) -> np.ndarray:
        x = np.arange(self.N + 1) / self.N
        x.setflags(write=False)
        return x

    @cached_property
    def weights(self) -> np.ndarray:
        w = self.trapezoid(self.N)
        w.setflags(write=False)
        return w

    def trapezoid(self, cells: int) -> np.ndarray:
        """Composite trapezoid weights over `cells` steps of this grid:
        cells + 1 nodes, half weight at both endpoints. weights,
        nystrom_weights (one loop for its lower rule, which its upper rule
        reverses), field_norm, is_accelerant's dense truncations of T and
        the dense rows of _dense_row use it. These apply the half weights
        inline: _low_rank_sweep (its batched weights); _nested_solve (the
        half first block row of _shared_matrix, a scaled copy of the flat
        T, and delta, the half weight at each row's moving endpoint);
        _kernel_chains (the step/2 of its endpoint matrices H_i, the doubled
        history step and the half-weight ends of its column-0 cumulative
        sum); _substitute (the endpoint factors on the diagonal blocks of
        its block solves, and the half weight at s = t given back out of
        R), _require_invertible_endpoints (the same endpoint factors),
        compose's quarter-weight patch and _halved_rows, the halved
        diagonal blocks of the factors that _triangle_compose multiplies."""
        w = np.full(cells + 1, self.step)
        w[0] = w[-1] = 0.5 * self.step
        return w

    @property
    def step(self) -> float:
        return 1.0 / self.N

    def refined(self) -> "GridSpec":
        return GridSpec(2 * self.N)


@dataclass(frozen=True)
class Accelerant:
    """Matrix function h on [-1,1], sampled at -1 + k/(2N) for k = 0..4N.

    values[k] is the r x r matrix h(-1 + k/(2N)). The index of h(u) for a
    representable u is 2N + round(2N*u); all callers use exact integer
    arithmetic to form that index.
    """

    r: int
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = _field_values(self.values, "accelerant values", self.r, (4 * self.grid.N + 1,))
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Potential:
    """Off-diagonal Dirac potential on [0,1], stored as the two nonzero blocks.

    The full matrix at a node is [[0, q_plus], [q_minus, 0]], which
    anticommutes with J by construction.
    """

    r: int
    grid: GridSpec
    q_plus: np.ndarray
    q_minus: np.ndarray

    def __post_init__(self):
        for name in ("q_plus", "q_minus"):
            vals = _field_values(getattr(self, name), name, self.r, (self.grid.N + 1,))
            object.__setattr__(self, name, vals)

    def full(self) -> np.ndarray:
        """Node values as (N+1, 2r, 2r) matrices."""
        n = self.grid.N + 1
        q = np.zeros((n, 2 * self.r, 2 * self.r), dtype=np.complex128)
        q[:, : self.r, self.r:] = self.q_plus
        q[:, self.r:, : self.r] = self.q_minus
        return q


@dataclass(frozen=True)
class Kernel2D:
    """Matrix kernel sampled on the node grid of [0,1]^2.

    values[i, j] is the n x n block K(x_i, x_j). Entries outside the declared
    support are zero; the diagonal belongs to both triangles.
    """

    n: int
    grid: GridSpec
    support: str
    values: np.ndarray

    def __post_init__(self):
        if self.support not in SUPPORTS:
            raise FieldFormatError(f"unknown support {self.support!r}")
        m = self.grid.N + 1
        vals = _field_values(self.values, "kernel values", self.n, (m, m))
        if self.support != "full":
            above = ~np.tri(m, dtype=bool)  # j > i
            if self.support == "lower" and np.any(vals[above] != 0):
                raise FieldFormatError("nonzero entries above the diagonal in a lower kernel")
            if self.support == "upper" and np.any(vals[above.T] != 0):
                raise FieldFormatError("nonzero entries below the diagonal in an upper kernel")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class StructuralConstants:
    """The fixed matrices of the 2r x 2r block calculus.

    J = diag(-i I, i I), B swaps the two block rows, a_col = (I; I) is the
    initial value of the distinguished solution, a_row = (I, -I) enters the
    boundary contractions ((I + B) a_row^H = 0).
    """

    r: int
    J: np.ndarray
    B: np.ndarray
    a_col: np.ndarray
    a_row: np.ndarray


@lru_cache(maxsize=None)
def structural_constants(r: int) -> StructuralConstants:
    if r < 1:
        raise FieldFormatError(f"block dimension must be >= 1, got {r}")
    eye = np.eye(r, dtype=np.complex128)
    zero = np.zeros((r, r), dtype=np.complex128)
    J = np.block([[-1j * eye, zero], [zero, 1j * eye]])
    B = np.block([[zero, eye], [eye, zero]])
    a_col = np.vstack([eye, eye])
    a_row = np.hstack([eye, -eye])
    for arr in (J, B, a_col, a_row):
        arr.setflags(write=False)
    return StructuralConstants(r, J, B, a_col, a_row)


@dataclass
class ReportEntry:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.residual) and self.residual <= self.tol)


@dataclass
class DiagnosticReport:
    """Accumulates named residuals with tolerances plus free-form metadata."""

    entries: list = dc_field(default_factory=list)
    metadata: dict = dc_field(default_factory=dict)

    def add(self, name: str, residual: float, tol: float) -> ReportEntry:
        entry = ReportEntry(name, float(residual), float(tol))
        self.entries.append(entry)
        return entry

    def __getitem__(self, name: str) -> ReportEntry:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(entry.passed for entry in self.entries)

    def failures(self) -> list:
        return [entry.name for entry in self.entries if not entry.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "entries": [
                {
                    "name": e.name,
                    "residual": e.residual,
                    "tol": e.tol,
                    "passed": e.passed,
                }
                for e in self.entries
            ],
            "metadata": self.metadata,
        }


def reflect(h: Accelerant) -> Accelerant:
    """The reflected accelerant x -> h(-x): an exact index reversal."""
    return Accelerant(h.r, h.grid, h.values[::-1].copy())


def potential_adjoint(q: Potential) -> Potential:
    """Pointwise conjugate transpose: swaps and conjugates the two blocks."""
    conj_t = lambda a: np.conj(np.transpose(a, (0, 2, 1)))
    return Potential(q.r, q.grid, conj_t(q.q_minus), conj_t(q.q_plus))


def decimate_accelerant(h: Accelerant, n_target: int) -> Accelerant:
    """Exact restriction to a coarser nested grid (stride read, no smoothing)."""
    grid, stride = _nested_stride(h.grid, n_target)
    return Accelerant(h.r, grid, h.values[::stride].copy())


def decimate_potential(q: Potential, n_target: int) -> Potential:
    grid, stride = _nested_stride(q.grid, n_target)
    return Potential(q.r, grid, q.q_plus[::stride].copy(), q.q_minus[::stride].copy())


def _nested_stride(grid: GridSpec, n_target: int):
    target = GridSpec(n_target)  # refuses sizes that are no grid, 0 among them
    if grid.N % n_target:
        raise FieldFormatError(f"grid {grid.N} is not nested over target {n_target}")
    return target, grid.N // n_target
