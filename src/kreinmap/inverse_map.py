"""The inverse map: potential to accelerant through one column of the product kernel.

The accelerant is read off the product kernel F, with I + F = (I + L)(I + L~),
L the Volterra resolvent of the transmutation kernel K_Q and L~(x,t) =
L*(t,x)^H that of K_{Q*}.  upsilon needs only the column t = 1 of F, the
literal boundary trace, and that column is (I + L)u with u(s) = L~(s, 1) =
L*(1, s)^H.  So the chain is: the transformation kernels (one forward
march over the rows of the grid, handed out in blocks); K_Q and K_{Q*},
read from each block at exact half arguments of the refined grid; u, the
conjugate of column 0 of the resolvent of K_{Q*} transposed and flipped;
the column, the solution of (I + K_Q)v = u (_product_column); and its
scatter into the accelerant (_trace_column).  Both solves are one-column
calls of the one forward substitution (_substitute), O(N^2 r^3) as the
march is; no resolvent, cross term or full F is built.  Every solve is direct.

For an off-diagonal potential the transformation kernels have only four
nonzero r x r blocks, two independent chains (_kernel_chains).  The march
multiplies only those, one product per row, into one reused buffer of kept
rows, so no array of all its rows exists.  K reads each of its blocks as a
sum of two chain blocks; transformation_kernels scatters the chains into
zeroed full kernels, so P_plus commutes with J and P_minus anticommutes
exactly.  K_Q and K_{Q*} come from one march of four stacked chains over
the refined grid (_transmutation_pair) that keeps the even rows K reads.

The full-grid product kernel is built from its parts: the two resolvents,
each _substitute in every column, the cross term quadops.compose of L with
quadops.adjoint_op of L*, and the assembly.  identity_suite reads the parts
(_resolvent_factors, resolvent_product_parts); resolvent_product_kernel
assembles F.  characteristic_extract averages F along characteristic lines;
trace_extract reads its column t = 1 with the rule upsilon uses.

Two classes of potentials are closed under both maps, and the inverse map
runs each in cheaper arithmetic, by exact tests with no tolerance:

- the real class, where a = -i q_plus and b = i q_minus are real:
  _chain_coefficients then gives float64 coefficients, and the chains, K,
  both substitutions (or both resolvents and the cross term) follow;
- the self-adjoint potentials, equal to their adjoint value for value
  (_self_adjoint): K_{Q*} = K_Q and L* = L, so the march runs the two
  chains of Q alone, and one resolvent serves as both factors of F.

Between the layers the blocks travel as plain arrays in their own dtype
and are cast to complex128 once, where a public field is built; every
exported function takes and returns complex128 fields.

Two discretization conventions are easy to get wrong.  A Volterra equation
is solved by substitution with per-interval trapezoid weights, not read off
the inverted operator matrix, whose weight pattern is O(1/N) wrong along the
column edge: the half weight at the unknown's own node stays on the left as
the factor I + (step/2) K(x, x).  And the product kernel jumps across the
grid diagonal unless the potential is in the image of the forward map; the
stored grid, and upsilon's column at x = 1, hold the two-sided average
there, and the one-sided parts are available separately.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import FieldFormatError, SingularSystemError
from .fields import (
    Accelerant,
    DiagnosticReport,
    GridSpec,
    Kernel2D,
    Potential,
    _fold_lines,
)
from .quadops import _real_if_exact, _times_column, adjoint_op, compose

__all__ = [
    "transformation_kernels",
    "transmutation_kernel",
    "resolvent_volterra",
    "resolvent_product_kernel",
    "trace_extract",
    "characteristic_extract",
    "upsilon",
]


def _require_finite(what: str, a: np.ndarray) -> None:
    # callers compute under np.errstate: an overflow ends here, not in warnings
    if not np.isfinite(a).all():
        raise FieldFormatError(f"{what} overflow floating point; the potential is too large")


def _require_resolved(q_plus: np.ndarray, q_minus: np.ndarray, step: float) -> float:
    """Refuse the samples q_plus, q_minus of a potential whose trapezoid
    march with this step does not resolve it; otherwise return its
    resolution (step/2) rho(JQ), below one.

    The march approximates the transformation kernels only while
    h = (step/2) JQ(x_i) has spectral radius below one; at one the pairing
    matrix I - h^2 of _kernel_chains can be singular.  The test reads
    rho(h)^2 = rho(h^2), and h^2 = (step/2)^2 diag(ab, ba) with ab = q+ q-,
    the pairing product itself: rho(h) = 1 exactly (q+- = 16 at N = 8) is
    then refused, where the eigenvalues of h would round to just below one.
    Q* needs no guard of its own: its pairing product q-^H q+^H is
    (q+ q-)^H, whose eigenvalues are the conjugates of these.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        hh = (0.5 * step) ** 2 * (q_plus @ q_minus)
    rho2 = np.abs(np.linalg.eigvals(hh)).max() if np.isfinite(hh).all() else np.inf
    if rho2 >= 1.0:
        raise FieldFormatError(
            f"grid too coarse for the potential: (step/2) rho(JQ) = {np.sqrt(rho2):.3g}"
        )
    return float(np.sqrt(rho2))


def _self_adjoint(co: np.ndarray, co_star: np.ndarray) -> bool:
    """Whether the chain coefficients co of q equal those of its adjoint
    Q*, co_star, value for value, that is q = potential_adjoint(q).  There
    is no tolerance: theta of a real accelerant that is not exactly even is
    self-adjoint only up to the rounding of its two Krein kernels, and
    takes the general path."""
    return np.array_equal(co, co_star)


def _chain_coefficients(q_plus: np.ndarray, q_minus: np.ndarray) -> np.ndarray:
    """co[i, c, k]: alpha (k = 0) and beta (k = 1) of chains A, B at x_i
    of the potential with samples q_plus, q_minus, in float64 when
    a = -i q_plus and b = i q_minus are real (the real class, which
    _midpoint_fill keeps since its coefficients are real:
    quadops._real_if_exact)."""
    a, b = _real_if_exact(-1j * q_plus, 1j * q_minus)
    return np.stack([np.stack([a, b], axis=1), np.stack([b, a], axis=1)], axis=2)


# Bytes of _kernel_chains' buffer of kept rows (one row at least).  256-512 KiB
# ran upsilon fastest on perfbench's inverse inputs, and cut its RSS by 2 MB.
_ROWS_BYTES = 1 << 19


def _kernel_chains(co: np.ndarray, step: float, stride: int) -> Iterator[tuple[int, np.ndarray]]:
    """Nonzero r x r blocks of the transformation kernels, by row marching.

    With JQ = [[0, a], [b, 0]], a = -i q_plus and b = i q_minus, P_plus is
    block-diagonal and P_minus block-off-diagonal, and the coupled system
    splits into two independent chains of r x r kernels (U, V):

        U(x,t) = int_t^x alpha(s) V(s, s-t) ds
        V(x,t) = int_t^x beta(s) U(s, s-t) ds + beta(t)

    chain A is (U, V) = (P_plus[0,0], P_minus[1,0]) with (alpha, beta) = (a, b),
    chain B is (U, V) = (P_plus[1,1], P_minus[0,1]) with (alpha, beta) = (b, a).
    co[i, c, k] holds alpha (k = 0) and beta (k = 1) of chain c at x_i, for
    any number of chains on one grid, which march together, stacked.  Yields
    the kept rows i = l * stride in blocks (first, rows), views of one
    buffer of _ROWS_BYTES that the next block writes over, in co's dtype
    (float64 for the real class): rows[1 + k, c, 0, :, e] = U(x_i, x_e) and
    rows[1 + k, c, 1, :, e] = V(x_i, x_{i-e}) of chain c at l = first + k,
    zero outside 0 <= e <= i, and rows[0] zero (_chain_reads).  The body runs
    in the scope of its consumer, which ignores overflow (np.errstate) there.

    The trapezoid system is Volterra in x: one forward march over the rows
    x_i solves it exactly, in O(N^2 r^3).  Per chain, with
    H_i = (step/2) [[0, alpha(x_i)], [beta(x_i), 0]] acting on (U, V) and
    rev reading column i - j, row i is row_i = hist + e_i with the
    half-weight endpoint term e_i = H_i rev(row_i), where hist(j) is step
    times the trapezoid sum over [x_j, x_{i-1}], full weight at x_{i-1},
    plus V's source beta(x_j).  On the columns 1 <= j <= i-1 that gives

        row_i = P_i (hist + H_i rev(hist)),  P_i = (I - H_i^2)^-1,

    P_i = diag((I - h0 h1)^-1, (I - h1 h0)^-1), h0 = (step/2) alpha(x_i),
    h1 = (step/2) beta(x_i), nonsingular while rho(h) < 1, which
    _require_resolved checks, and the history advances by hist += 2 e_i.
    The march holds the history in the frame (U, Y), Y(e) = V(x_{i-e}):
    column j is then the very pair (U(x_j), V(x_{i-j})) that row i couples,
    so a row is one product of M_i = [[2P - I, 2P h0], [2P h1, 2P - I]]
    (V's r-column blocks swapped) into the state with Y one column to the
    right, the frame of row i + 1, and a kept row, the mean of the history
    before and after, a second product with (I + M_i)/2 = [[P, P h0],
    [P h1, P]].  Two states take turns, so no product overwrites its input.
    2P - I is formed as I + 2P h0 h1 (P - I = P h0 h1), keeping the low bits
    of its O(step^2) part: on random chains at r = 2 and 3 that halves the
    march's error.  All M_i come from one batched inverse.  Columns 0 and i
    are closed-form: U(x_i, x_i) = 0, V(x_i, x_i) = beta(x_i), V(x_i, 0) =
    beta(x_0), and U(x_i, 0) is one cumulative sum of step alpha beta.
    Column j of the history starts at row j as H_j (U(x_j, 0), beta(x_0))
    plus the source: U's part is in the state before the march, V's enters
    Y's column 1 before row j + 1.  Its consumers check every kept entry
    for overflow; one in a dropped row reaches the last row, which both keep.
    """
    m, chains, _, r, _ = co.shape
    h = 0.5 * step * co
    beta = co[:, :, 1]
    # U(x_i, 0): e_0 + 2 (e_1 + ... + e_{i-1}) + e_i with e_s = h0(x_s) beta(x_s)
    ends = h[:, :, 0] @ beta
    u0 = np.zeros_like(ends)
    u0[1:] = np.cumsum(np.concatenate([ends[:1], 2.0 * ends[1:-1]]), axis=0) + ends[1:]
    # V's column x_j as row j leaves it: H_j (U(x_j, 0), beta(x_0)) + (0, beta(x_j))
    enter = beta + h[:, :, 1] @ u0
    # the two states as [(k, a), (e, b)] matrices, read whole and written with
    # Y one column to the right; r slack entries per chain make that a reshape
    width = m * r
    state = np.zeros((2, chains, 2 * r * width + 2 * r), dtype=co.dtype)
    read = state[..., : 2 * r * width].reshape(2, chains, 2 * r, width)
    write = state.reshape(2, chains, 2, r * width + r)[..., : r * width]
    write = write.reshape(2, chains, 2, r, width)
    read[:, :, :r] = (h[:, :, 0] @ beta[0]).transpose(1, 2, 0, 3).reshape(chains, r, width)
    # (I + M_i)/2 and M_i - I of rows 2.. (rows 0 and 1 have no interior column)
    hh = h[2:] @ h[2:, :, ::-1]
    pair = np.linalg.inv(np.eye(r) - hh)
    keep = np.concatenate([pair, pair @ h[2:]], axis=-1)
    rise = 2.0 * np.concatenate([pair @ hh, pair @ h[2:]], axis=-1)
    for a in (keep, rise):
        a[:, :, 1] = np.roll(a[:, :, 1], r, axis=-1)
    advance = rise + np.eye(2 * r).reshape(2, r, 2 * r)
    keep = keep.reshape(m - 2, chains, 2 * r, 2 * r)
    kept = range(0, m, stride)  # row l in slot 1 + l % per, behind a zero row
    per = max(1, min(len(kept), _ROWS_BYTES // (chains * 2 * r * width * co.itemsize)))
    ends = {*kept[per - 1 :: per], kept[-1]}
    buffer = np.zeros((per + 1, chains, 2, r, m, r), dtype=co.dtype)
    rows = buffer.reshape(per + 1, chains, 2 * r, width)
    for i in range(m):
        if i > 1:
            x = read[i % 2]
            x[:, r:, r : 2 * r] = enter[i - 1]
            cols = slice(r, i * r)
            if i % stride == 0:
                np.matmul(keep[i - 2], x[:, :, cols], out=rows[1 + i // stride % per, :, :, cols])
            np.matmul(advance[i - 2], x[:, None, :, cols], out=write[1 - i % 2, ..., cols])
        if i in ends:
            first = i // stride // per * per
            at = np.arange(first * stride, i + 1, stride)
            block = buffer[: 1 + len(at)]
            block[1:, :, 0, :, 0], block[1:, :, 1, :, 0] = u0[at], beta[at]
            block[1 + np.arange(len(at)), :, 1, :, at] = beta[0]
            yield first, block


def _chain_reads(rows: np.ndarray, first: int, stride: int, skew: int, sign: int, cols: int) -> tuple:
    """Views (U, V)[c, k, j] of every chain of a block (first, rows) of
    _kernel_chains(., ., stride) at (x_i, x_t), i = stride * l, l = first + k,
    t = skew * l + sign * j, j < cols: U at column t of row i and V at
    column i - t, skew or stride - skew columns past the next row from row
    to row (numpy checks the block's bounds).  A read of t outside [0, i] at
    a column c, i - m < c < m for m columns a row, is a zero: past the row's
    data, or the zero tail of the row before it, rows[0] before the first."""
    n_rows, n, _, r, _, _ = rows.shape
    row, chain, kind, a, col, b = rows.strides
    shape, dtype, skip = (n, n_rows - 1, cols, r, r), rows.dtype, stride - skew
    u_at, v_at = row + skew * first * col, row + kind + skip * first * col
    u = np.ndarray(shape, dtype, rows, u_at, (chain, row + skew * col, sign * col, a, b))
    v = np.ndarray(shape, dtype, rows, v_at, (chain, row + skip * col, -sign * col, a, b))
    return u, v


@np.errstate(over="ignore", invalid="ignore")
def transformation_kernels(q: Potential) -> tuple[Kernel2D, Kernel2D]:
    """Solve the coupled system for the kernels of the solution representation.

    P_plus(x,t) = int_t^x JQ(s) P_minus(s, s-t) ds
    P_minus(x,t) = int_t^x JQ(s) P_plus(s, s-t) ds + JQ(t)

    The trapezoid-discretized system is solved exactly as two decoupled
    chains of r x r kernels (see _kernel_chains), read block by block
    (_chain_reads) into the full 2r x 2r kernels: P_plus = diag(U_A, U_B)
    and P_minus has V_B above and V_A below the diagonal, in complex128 also
    where a real-class potential marches in float64.  A potential too large
    for its grid (_require_resolved) and kernels that overflow floating
    point raise FieldFormatError.  P_plus commutes with J and P_minus
    anticommutes, exactly, since the chain blocks go into zeroed arrays.
    """
    _require_resolved(q.q_plus, q.q_minus, q.grid.step)
    r, n, m = q.r, 2 * q.r, q.grid.N + 1
    plus = np.zeros((m, m, n, n), dtype=np.complex128)
    minus = np.zeros_like(plus)
    co = _chain_coefficients(q.q_plus, q.q_minus)
    for first, rows in _kernel_chains(co, q.grid.step, 1):
        (ua, ub), (va, vb) = _chain_reads(rows, first, 1, 0, 1, m)
        at = slice(first, first + len(rows) - 1)
        plus[at, :, :r, :r], plus[at, :, r:, r:] = ua, ub
        minus[at, :, r:, :r], minus[at, :, :r, r:] = va, vb
    for kernel in (plus, minus):
        _require_finite("transformation kernels", kernel)
    return Kernel2D(n, q.grid, "lower", plus), Kernel2D(n, q.grid, "lower", minus)


@np.errstate(over="ignore", invalid="ignore")
def _midpoint_fill(samples: np.ndarray) -> np.ndarray:
    # cubic interpolation onto the refined grid; a linear fill leaves an
    # O(h^2) sawtooth at the odd nodes, invisible to centered differences but
    # amplified to O(h) by the one-sided stencils along the kernel edges
    f = samples
    out = np.empty((2 * (len(f) - 1) + 1,) + f.shape[1:], dtype=np.complex128)
    out[::2] = f
    out[3:-2:2] = (-f[:-3] + 9.0 * f[1:-2] + 9.0 * f[2:-1] - f[3:]) / 16.0
    out[1] = (5.0 * f[0] + 15.0 * f[1] - 5.0 * f[2] + f[3]) / 16.0
    out[-2] = (f[-4] - 5.0 * f[-3] + 15.0 * f[-2] + 5.0 * f[-1]) / 16.0
    _require_finite("refined potential", out)
    return out


def transmutation_kernel(q: Potential) -> Kernel2D:
    """Lower kernel K with phi(x) = phi0(x) + int_0^x K(x,s) phi0(s) ds.

    K(x,t) = (1/2){P+(x,(x-t)/2) + P+(x,(x+t)/2)B + P-(x,(x-t)/2)B + P-(x,(x+t)/2)}

    The transformation kernels are solved on the refined grid so that every
    half-argument is an exact node read.  Their trapezoid system approximates
    the kernels only while h = (step/2) JQ(x_i) has spectral radius below one
    there; a potential too large for its grid raises FieldFormatError.

    With B = [[0, I], [I, 0]] each of the four blocks of K is a sum of two
    chain blocks (see _kernel_chains), read at near = (x-t)/2 on the diagonal
    and at far = (x+t)/2 off it: K00 = (U_A + V_B)/2, K11 = (U_B + V_A)/2,
    and likewise K01, K10 at far (_transmutation_values).  A potential of the
    real class is marched in float64 and its K cast to complex128 at the end.
    """
    co, step, _ = _refined_coefficients(q)
    (k,) = _transmutation_values(co, step)
    return Kernel2D(2 * q.r, q.grid, "lower", k)


def _refined_coefficients(q: Potential) -> tuple[np.ndarray, float, float]:
    """The chain coefficients of q on its refined grid, the step of that
    grid and q's resolution there: the one refinement (_midpoint_fill) and
    the one guard (_require_resolved) of an inverse-map call, on arrays."""
    q_plus, q_minus = _midpoint_fill(q.q_plus), _midpoint_fill(q.q_minus)
    step = 0.5 * q.grid.step
    resolution = _require_resolved(q_plus, q_minus, step)
    return _chain_coefficients(q_plus, q_minus), step, resolution


@np.errstate(over="ignore", invalid="ignore")
def _transmutation_values(co: np.ndarray, step: float) -> list[np.ndarray]:
    """The blocks of K of each potential whose chain pair (A, B) is stacked
    in co (_chain_coefficients on the refined grid of that step), from one
    march that keeps the even rows, the only ones K reads, so that K_Q and
    K_{Q*} cost one pass.  Each r x r quadrant of K(x_l, x_j) on the rows of
    a block is one np.add of two strided views of it (_chain_reads) at
    near = l - j or far = l + j, halved once at the end; every read above
    the diagonal lands on zeros, so K is exactly lower with no mask.  Kept
    rows that overflow raise FieldFormatError.  Float64 when co is.
    """
    m, r = (co.shape[0] + 1) // 2, co.shape[-1]
    kernels = [np.empty((m, m, 2 * r, 2 * r), co.dtype) for _ in range(co.shape[1] // 2)]
    # np.add buffers each strided operand: 8192 items, 0.4 MB complex, by default
    size = np.setbufsize(1024)
    for first, rows in _kernel_chains(co, step, 2):
        (u, v), (u_far, v_far) = (_chain_reads(rows, first, 2, 1, sign, m) for sign in (-1, 1))
        for a, k in zip(range(0, co.shape[1], 2), kernels):
            k = k[first : first + len(rows) - 1]
            np.add(u[a], v[a + 1], out=k[..., :r, :r])
            np.add(u[a + 1], v[a], out=k[..., r:, r:])
            np.add(u_far[a], v_far[a + 1], out=k[..., :r, r:])
            np.add(u_far[a + 1], v_far[a], out=k[..., r:, :r])
    np.setbufsize(size)
    for k in kernels:
        k *= 0.5
        _require_finite("transformation kernels", k)
    return kernels


def resolvent_volterra(kernel: Kernel2D) -> Kernel2D:
    """Kernel of (I + K)^-1 - I for a lower K.

    Solves L(x,t) = -K(x,t) - int_t^x K(x,s) L(s,t) ds by the one blocked
    forward substitution of the inverse map (_substitute) with R = -K; the
    inverted operator matrix would leave an O(1/N) error along the column
    edge, invisible to integral norms but fatal to finite-difference
    identity checks.  Any other support than lower raises FieldFormatError,
    and an exactly singular endpoint factor I + (step/2) K(x_i, x_i)
    SingularSystemError at its node (_require_invertible_endpoints).  The
    substitution runs in the dtype of the blocks it is given
    (_resolvent_values), float64 for a potential of the real class; this
    function takes and returns complex128 kernels.
    """
    if kernel.support != "lower":
        raise FieldFormatError("the Volterra resolvent requires a lower kernel")
    values = _resolvent_values(kernel.values, kernel.grid.step)
    return Kernel2D(kernel.n, kernel.grid, "lower", values)


def _resolvent_values(K: np.ndarray, step: float) -> np.ndarray:
    """resolvent_volterra of the lower blocks K[x, s, a, b], in K's dtype."""
    _require_invertible_endpoints(K, step, range(1, K.shape[0]))
    values = _substitute(K, -K, step)
    _require_finite("Volterra resolvent values", values)
    return values


# Unknowns per block of _substitute, one dense solve each: _BLOCK // n rows
# of n = 2r unknowns, so 16 rows at r = 1 and 8 at r = 2.  For one column at
# N = 50 to 200 (one BLAS thread) 8 rows run 4 to 11 % faster than 16 at
# r = 2; at r = 1 the two are the same blocks.
_BLOCK = 32


@np.errstate(over="ignore", invalid="ignore")
def _substitute(k: np.ndarray, rhs: np.ndarray, step: float) -> np.ndarray:
    """Y with (I + K)Y = R by blocked forward substitution, the trapezoid
    rule on [t, x], for the lower blocks k[x, s] and the leading c columns
    rhs[x, t] of R; returns the blocks y[x, t] of those columns, in the
    dtype of k and rhs.

    Y(t, t) = R(t, t), and for x_i > t the half weight at s = x_i stays on
    the left as the endpoint factor I + (step/2) K(x_i, x_i), which the
    caller has checked (_require_invertible_endpoints).  The half weight at
    s = t comes back out of R, as R(x, t) + (step/2) K(x, t) R(t, t), once
    before the loop and one product per column (quadops._times_column).
    Y is held flattened, row (x, a) and column (t, b) holding Y(x, t)[a, b],
    and rows 1..N are solved in blocks of _BLOCK unknowns (Golub and Van
    Loan, Matrix Computations, 4th ed., sec. 3.1).  Per block of rows lo..hi-1
    the slab step K(x_i, s), s < x_hi, is gathered once as a
    [(i, a), (s, b)] matrix with the endpoint factors on its diagonal
    blocks; its columns s < x_lo times the solved rows of Y are the history
    of the whole block, one GEMM, and its square part, block-lower since K
    is, is one dense solve for every column at once.  A column t that
    starts inside the block is solved with it and then written exactly:
    Y(t, t) = R(t, t) and zeros above.  Columns t > x_i stay zero, as a
    lower Y is.  O(N^2 c n^3).
    """
    m, c, n, _ = rhs.shape
    diag = rhs[np.arange(c), np.arange(c)]
    # [(x, a), (t, b)]: R with the half weight at s = t given back
    held = rhs + 0.5 * step * _times_column(k[:, :c], diag)
    held = held.transpose(0, 2, 1, 3).reshape(m * n, c * n)
    yf = np.zeros((m * n, c * n), dtype=held.dtype)
    yf[:n, :n] = diag[0]
    y = yf.reshape(m, n, c, n)
    block = max(1, _BLOCK // n)
    for lo in range(1, m, block):
        hi = min(lo + block, m)
        cols = min(hi, c) * n
        d = np.arange(hi - lo)
        slab = np.empty((hi - lo, n, hi, n), dtype=k.dtype)  # [i, a, s, b]
        np.multiply(k[lo:hi, :hi].transpose(0, 2, 1, 3), step, out=slab)
        slab[d, :, lo + d] = np.eye(n) + 0.5 * slab[d, :, lo + d]
        slab = slab.reshape((hi - lo) * n, hi * n)
        rows = slice(lo * n, hi * n)
        hist = slab[:, : lo * n] @ yf[: lo * n, :cols]
        yf[rows, :cols] = np.linalg.solve(slab[:, lo * n :], held[rows, :cols] - hist)
        if lo < c:
            t = np.arange(lo, min(hi, c))
            above, start = np.triu_indices(hi - lo, 1, len(t))
            y[lo + above, :, lo + start] = 0.0
            y[t, :, t] = diag[t]
    return y.transpose(0, 2, 1, 3)


@np.errstate(over="ignore", invalid="ignore")
def resolvent_product_parts(
    l_low: np.ndarray, l_star: np.ndarray, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The one-sided parts of the product kernel from the blocks of the
    resolvents L of K_Q and L* of K_{Q*}, in their own dtype.

    Returns (upper, cross): the upper part L~(x,t) = L*(t,x)^H, which is
    quadops.adjoint_op of L*, and the cross term
    int_0^min(x,t) L(x,s) L*(t,s)^H ds, quadops.compose of L and L~.
    """
    upper = adjoint_op(l_star)
    cross = compose(l_low, upper, grid)
    _require_finite("resolvent product values", cross)
    return upper, cross


def assemble_product(cross: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Merge the one-sided parts into the full-grid blocks of F, written
    into cross, which it returns.

    Below the diagonal F = L + cross, above it F = L~ + cross.  On the
    diagonal the two one-sided limits differ unless the potential lies in the
    image of the forward map; the grid stores their average.  lower must be
    exactly zero above the diagonal and upper below it, as the one-sided
    parts are by construction: both are added whole, and the diagonal,
    saved first, is written back as the average.
    """
    d = np.arange(cross.shape[0])
    diag = cross[d, d] + 0.5 * (lower[d, d] + upper[d, d])
    cross += lower
    cross += upper
    cross[d, d] = diag
    return cross


def _transmutation_pair(q: Potential) -> tuple[np.ndarray, np.ndarray, float]:
    """The blocks of K_Q and K_{Q*} from one march, and the resolution of q.

    q is refined, guarded and given its chain coefficients co once
    (_refined_coefficients).  Q* has q+* = q-^H and q-* = q+^H, so its
    chains A' = (b^H, a^H) and B' = (a^H, b^H) are co with alpha and beta
    swapped and each block conjugate-transposed.  The structure of q decides
    the work, for upsilon and every consumer of the product kernel: a
    real-class q gives float64 blocks, a self-adjoint q (_self_adjoint) has
    K_{Q*} = K_Q, so the march runs two chains and the one K is returned as
    both, and any other q four chains, with K_{Q*} in an array of its own.
    """
    co, step, resolution = _refined_coefficients(q)
    co_star = np.conj(co[:, :, ::-1].swapaxes(-1, -2))
    if not _self_adjoint(co, co_star):
        co = np.concatenate([co, co_star], axis=1)
    kernels = _transmutation_values(co, step)
    return kernels[0], kernels[-1], resolution


def _resolvent_factors(q: Potential) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The blocks of K_Q and of the resolvents L of K_Q and L* of K_{Q*}.

    K_Q and K_{Q*} come from _transmutation_pair, in float64 for a
    real-class q; for a self-adjoint q the one resolvent L is returned as
    L* too.  L* is built first, so that K_{Q*} is dropped before L is built
    and no more kernel-sized arrays are held at once than K_Q must add.
    """
    k_low, k_star, _ = _transmutation_pair(q)
    self_adjoint = k_star is k_low
    l_star = _resolvent_values(k_star, q.grid.step)
    del k_star
    l_low = l_star if self_adjoint else _resolvent_values(k_low, q.grid.step)
    return k_low, l_low, l_star


@np.errstate(over="ignore", invalid="ignore")
def resolvent_product_kernel(q: Potential) -> Kernel2D:
    """Full-grid product kernel F with I + F = (I + L)(I + L~).

    L and L* come from _resolvent_factors, in float64 for a potential of
    the real class and as one resolvent for a self-adjoint one.  The cross
    term and the assembly run in their dtype, and F is cast to complex128
    once, when its Kernel2D is built.
    """
    l_low, l_star = _resolvent_factors(q)[1:]
    upper, cross = resolvent_product_parts(l_low, l_star, q.grid)
    return Kernel2D(2 * q.r, q.grid, "full", assemble_product(cross, l_low, upper))


def _fold_blocks(f: Kernel2D) -> tuple[int, np.ndarray]:
    """(r, blocks), blocks[:, :, a, :, b] a view of the r x r block (a, b)."""
    if f.n % 2:
        raise FieldFormatError("extraction requires an even block dimension")
    r, m = f.n // 2, f.grid.N + 1
    return r, f.values.reshape(m, m, 2, r, 2, r)


def _trace_column(col: np.ndarray, grid: GridSpec) -> Accelerant:
    """The accelerant read off column t = 1 of F, times two, from
    col[i, a, :, b, :], the r x r block (a, b) of F(x_i, 1).

    Each block is scattered through fields._fold_lines in the order (0,1),
    (1,1), (0,0), (1,0), the later block winning where two meet: h(1/2)
    from block (1,1) at x = 0, h(0) from (0,0) at x = 1, h(-1/2) from (1,0)
    at x = 0.  The factor two compensates the 1/2 of the folded kernel;
    without it the extraction returns half the accelerant.  See the README
    note.
    """
    N, r = grid.N, col.shape[2]
    lines = _fold_lines(N, N)
    h = np.empty((4 * N + 1, r, r), dtype=np.complex128)
    for a, b in ((0, 1), (1, 1), (0, 0), (1, 0)):
        h[lines[a, b]] = 2.0 * col[:, a, :, b]
    return Accelerant(r, grid, h)


def trace_extract(f: Kernel2D) -> Accelerant:
    """Piecewise boundary trace of F at second argument 1, times two: the
    rule upsilon reads its own column of F with (_trace_column)."""
    _, blocks = _fold_blocks(f)
    return _trace_column(blocks[:, f.grid.N], f.grid)


def characteristic_extract(f: Kernel2D) -> Accelerant:
    """Average of all grid samples on each characteristic line, times two.

    Each half-step point of the accelerant is seen by O(N) entries of the
    kernel (diagonal blocks along x - t = const, off-diagonal along
    x + t = const, as fields._fold_lines tabulates; the off-diagonal blocks
    leave out the one-point line x + t = 0); equal-weight averaging of
    exact reads makes this both an exact inverse of the folded kernel and
    the noise-robust default.
    """
    r, blocks = _fold_blocks(f)
    N = f.grid.N
    lines = _fold_lines(N)
    acc = np.zeros((4 * N + 1, r, r), dtype=np.complex128)
    cnt = np.zeros(4 * N + 1, dtype=np.int64)
    for a, b in ((0, 0), (1, 1), (0, 1), (1, 0)):
        idx = lines[a, b].ravel()
        block = blocks[:, :, a, :, b].reshape(-1, r, r)
        if a != b:  # drop flat index 0, the corner (0, 0)
            idx, block = idx[1:], block[1:]
        np.add.at(acc, idx, block)
        np.add.at(cnt, idx, 1)
    return Accelerant(r, f.grid, 2.0 * acc / cnt[:, None, None])


def _require_invertible_endpoints(k: np.ndarray, step: float, nodes: range) -> None:
    """Refuse a substitution whose endpoint factor I + (step/2) K(x_i, x_i),
    the factor a row leaves on its unknown from the trapezoid half weight
    at the row's own node, is exactly singular at a node i of nodes.  One
    batched np.linalg.slogdet tells, without an inverse: its sign is 0
    exactly where the LU factorization meets an exactly zero pivot, which is
    where np.linalg.inv would raise, and SingularSystemError names the first
    such node."""
    d = np.asarray(nodes)
    factors = np.eye(k.shape[2]) + 0.5 * step * k[d, d]
    singular = np.flatnonzero(np.linalg.slogdet(factors)[0] == 0)
    if singular.size:
        raise SingularSystemError(d[singular[0]] / (k.shape[0] - 1), "volterra substitution")


@np.errstate(over="ignore", invalid="ignore")
def _product_column(k_low: np.ndarray, k_star: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Column t = 1 of the product kernel F from the blocks of K_Q and
    K_{Q*}, as col[x, a, b] in their dtype, with the two-sided average at
    x = 1.

    For x < 1, F(x, 1) = u(x) + int_0^x L(x,s) u(s) ds = ((I + L)u)(x) with
    u(s) = L~(s, 1), so two calls of the one substitution (_substitute)
    give the column without any resolvent:

    - u is column t = 1 of the resolvent L~ of the upper kernel
      K~(x,t) = K_{Q*}(t,x)^H.  Flipped in both arguments, K~ is lower and
      u column 0 of its resolvent, one substitution with R = -K~ in one
      column, run on a view of K_{Q*}, transposed and flipped, which is
      conj(K~) flipped: u is the conjugate of its result, exactly, since
      conj commutes with a substitution whose step is real.  Its endpoint
      factors are checked on K_{Q*}, so a singular one is named at its node;
    - v = (I + L)u solves (I + K_Q)v = u, one substitution with R = u.

    At x = 1 the lower limit of F is v(1) - u(1) - K(1, 1) and the upper
    one v(1), and the column holds their average, as assemble_product
    holds it on the diagonal.  Each substitution is O(N^2 r^3).
    """
    N = len(k_low) - 1
    flipped = k_star.transpose(1, 0, 3, 2)[::-1, ::-1]
    _require_invertible_endpoints(k_star, grid.step, range(N))
    u = np.conj(_substitute(flipped, -flipped[:, :1], grid.step)[::-1, 0])
    _require_invertible_endpoints(k_low, grid.step, range(1, N + 1))
    col = _substitute(k_low, u[:, None], grid.step)[:, 0]
    col[N] += 0.5 * (-k_low[N, N] - u[N])
    _require_finite("product column values", col)
    return col


def upsilon(q: Potential) -> tuple[Accelerant, DiagnosticReport]:
    """Inverse map.  Returns the accelerant and a report of its resolution.

    The accelerant is the literal boundary trace of the product kernel F,
    read off its one column t = 1 (_product_column) with trace_extract's
    rule (_trace_column); F itself, its resolvents and its cross term are
    never built, so the cost is one march and two O(N^2 r^3) substitutions,
    and the memory K_Q, K_{Q*} and one block of the march's rows.
    The report's one entry, resolution, is (step/2) rho(JQ) of q on the
    refined grid, the largest over its nodes, with tolerance 1: it says how
    close q came to the bound at which the march is refused as too coarse.
    Q* has the same resolution up to rounding, since its pairing products
    are the conjugate transposes of q's (_require_resolved).

    The march and the substitutions run in float64 for a potential of the
    real class, and the march runs two chains for a self-adjoint one, whose
    K_{Q*} is K_Q (both tests exact); the accelerant is complex128.
    """
    k_low, k_star, resolution = _transmutation_pair(q)
    col = _product_column(k_low, k_star, q.grid)
    h = _trace_column(col.reshape(q.grid.N + 1, 2, q.r, 2, q.r), q.grid)
    report = DiagnosticReport()
    report.add("resolution", resolution, 1.0)
    report.metadata.update({"N": q.grid.N, "r": q.r, "extraction": "trace"})
    return h, report
