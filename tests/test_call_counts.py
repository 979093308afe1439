"""Each call chain builds every kernel and runs every sweep once.

A counter replaces a function at every kreinmap module binding that holds
it, so a call is seen whichever module makes it.  A public name is looked
up on the package; "module.name" names a function of a module that the
package does not export.
The sweep's SVDs and QRs are also recorded by dtype, to show which
arithmetic each accelerant is swept in, and so are the arrays that the
inverse map's march and resolvent receive, to show which structure of the
potential they use.
"""

import importlib
import inspect
import json
import sys

import numpy as np
import pytest

from conftest import (
    CERTIFIED,
    SWEPT,
    const_accelerant,
    const_potential,
    in_band_accelerant,
    linear_potential,
    r2_potential,
    random_accelerant,
    toeplitz_kernel,
)

import kreinmap
import kreinmap.cli
from kreinmap import (
    Accelerant,
    check_fundamental_representation,
    identity_suite,
    is_accelerant,
    resolvent_product_kernel,
    roundtrip_report,
    upsilon,
)
from kreinmap.cli import main, write_field
from kreinmap.dirac_verify import _verify_potential

# The inverse map's resolvent is built by this private function on the blocks
# of K; the public resolvent_volterra wraps it for Kernel2D arguments.
RESOLVENT = "inverse_map._resolvent_values"
MARCH = "inverse_map._kernel_chains"
COLUMN = "inverse_map._product_column"
PARTS = "inverse_map.resolvent_product_parts"
ASSEMBLE = "inverse_map.assemble_product"
WAVE = "dirac_verify.apply_wave_operator"
PAIR = "transformation_kernels"
# Every Krein pair is solved here, whether its caller reads whole kernels
# (_krein_pair) or only theta's t = 0 columns.
KREIN_PAIR = "factorization._krein_rows"
C128, F64 = np.dtype(np.complex128), np.dtype(np.float64)


def _replace_everywhere(monkeypatch, name, wrap):
    """Bind wrap(original) wherever a kreinmap module binds the function name."""
    module, _, attr = name.rpartition(".")
    owner = importlib.import_module(f"kreinmap.{module}") if module else kreinmap
    original = getattr(owner, attr)
    wrapper = wrap(original)
    for key, mod in list(sys.modules.items()):
        if key == "kreinmap" or key.startswith("kreinmap."):
            for binding, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, binding, wrapper)


@pytest.fixture
def count_calls(monkeypatch):
    def install(*names):
        counts = dict.fromkeys(names, 0)
        for name in names:

            def wrap(fn, _name=name):
                def counted(*args, **kwargs):
                    counts[_name] += 1
                    return fn(*args, **kwargs)

                return counted

            _replace_everywhere(monkeypatch, name, wrap)
        return counts

    return install


@pytest.fixture
def first_args(monkeypatch):
    """install(*names): per name, the list of first arguments of its calls."""

    def install(*names):
        seen = {name: [] for name in names}
        for name in names:

            def wrap(fn, _seen=seen[name]):
                def recorded(first, *args, **kwargs):
                    _seen.append(first)
                    return fn(first, *args, **kwargs)

                return recorded

            _replace_everywhere(monkeypatch, name, wrap)
        return seen

    return install


def test_identity_suite_builds_each_resolvent_once(count_calls):
    counts = count_calls(MARCH, RESOLVENT, PAIR)
    assert identity_suite(linear_potential(16)).passed
    # one march for K_Q and K_{Q*} on the refined grid and no transformation
    # pair; one resolvent each for Q and for its adjoint Q*
    assert counts == {MARCH: 1, RESOLVENT: 2, PAIR: 0}

    # a self-adjoint Q has K_{Q*} = K_Q, so one resolvent serves as L and L*
    counts.update(dict.fromkeys(counts, 0))
    assert identity_suite(const_potential(1.0, 16)).passed
    assert counts == {MARCH: 1, RESOLVENT: 1, PAIR: 0}


def test_identity_suite_takes_the_product_parts_without_assembling_f(count_calls):
    counts = count_calls(PARTS, ASSEMBLE)
    assert identity_suite(linear_potential(16)).passed
    # the boundary_F entries read F's off-diagonal lines from its parts
    assert counts == {PARTS: 1, ASSEMBLE: 0}


@pytest.mark.parametrize(
    "q, dtype",
    [(kreinmap.theta(const_accelerant(0.5, 16)), F64), (linear_potential(16), C128)],
    ids=["real-class", "neither"],
)
def test_identity_suite_hands_the_wave_operator_blocks_in_their_dtype(first_args, q, dtype):
    seen = first_args(WAVE)
    assert identity_suite(q).passed
    # K_Q, L and the two one-sided parts of F, never cast to complex
    assert [(type(b), b.dtype) for b in seen[WAVE]] == [(np.ndarray, dtype)] * 4


def test_upsilon_builds_no_full_transformation_kernels(count_calls):
    full_f = (RESOLVENT, PARTS, ASSEMBLE, "quadops.compose", "characteristic_extract")
    counts = count_calls(MARCH, PAIR, COLUMN, *full_f)
    upsilon(linear_potential(16))
    # K_Q and K_{Q*} are read from the chains of one march, and two
    # substitutions give the one column of F that the trace reads
    assert counts == {MARCH: 1, PAIR: 0, COLUMN: 1, **dict.fromkeys(full_f, 0)}


@pytest.mark.parametrize(
    "q, chains, dtype, one_kernel",
    [
        # neither class: q+ = 0.3 (1 + x), q- = 0.2
        (linear_potential(16), 4, C128, False),
        # self-adjoint (q+ = q- = 10 is real-valued) but not of the real class
        (const_potential(10.0, 16), 2, C128, True),
        # the real class (a = 0.3, b = -0.3) but not self-adjoint
        (const_potential(0.3j, 16), 4, F64, False),
    ],
    ids=["neither", "self-adjoint", "real-class"],
)
def test_upsilon_marches_and_solves_what_the_structure_needs(
    monkeypatch, first_args, q, chains, dtype, one_kernel
):
    seen = first_args(MARCH, RESOLVENT, "potential_adjoint")
    column_args = []

    def wrap(fn):
        def recorded(k_low, k_star, grid):
            column_args.append((k_low, k_star))
            return fn(k_low, k_star, grid)

        return recorded

    _replace_everywhere(monkeypatch, COLUMN, wrap)
    h, _ = upsilon(q)
    # the coefficients of Q* are read off those of q, so no adjoint
    # potential is formed, whether or not q is self-adjoint
    assert seen["potential_adjoint"] == []
    # _kernel_chains(co, ...) with co[i, c, k]: one march of `chains` chains
    assert [(co.shape[1], co.dtype) for co in seen[MARCH]] == [(chains, dtype)]
    # the substitutions take K_Q and K_{Q*} in the march's dtype, the one K
    # as both for a self-adjoint q, and no resolvent is built
    assert [(k.dtype, k_star.dtype, k_star is k) for k, k_star in column_args] == [
        (dtype, dtype, one_kernel)
    ]
    assert seen[RESOLVENT] == []
    assert h.values.dtype == C128
    assert resolvent_product_kernel(q).values.dtype == C128


@pytest.mark.parametrize(
    "q",
    [const_potential(0.3j, 16), kreinmap.theta(const_accelerant(0.5, 16))],
    ids=["const0.3i", "theta-c0.5"],
)
def test_transformation_kernels_march_the_real_class_in_float64(monkeypatch, first_args, q):
    seen = first_args(MARCH)
    plus, minus = kreinmap.transformation_kernels(q)
    # the two chains of q on its own grid, in real arithmetic
    assert [(co.shape[1], co.dtype) for co in seen[MARCH]] == [(2, F64)]
    assert plus.values.dtype == minus.values.dtype == C128
    # the reference: the same march in complex arithmetic
    coefficients = kreinmap.inverse_map._chain_coefficients
    monkeypatch.setattr(
        "kreinmap.inverse_map._chain_coefficients",
        lambda q_plus, q_minus: coefficients(q_plus, q_minus).astype(np.complex128),
    )
    plus_ref, minus_ref = kreinmap.transformation_kernels(q)
    assert seen[MARCH][-1].dtype == C128
    for got, ref in ((plus, plus_ref), (minus, minus_ref)):
        assert np.abs(got.values - ref.values).max() <= 1e-12 * np.abs(ref.values).max()


def test_march_inverts_its_row_matrices_in_one_batched_call(monkeypatch):
    # the row matrices M_i of the march come from one np.linalg.inv over all
    # rows, whatever N; no row solves or inverts on its own
    calls = []
    for name in ("inv", "solve"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    for n in (16, 64):
        calls.clear()
        kreinmap.transmutation_kernel(linear_potential(n))
        assert calls == ["inv"]


def test_substitutions_solve_blocks_of_rows(monkeypatch):
    # each of upsilon's two one-column substitutions solves the rows 1..50
    # in ceil(50 / (_BLOCK // 2)) dense block solves and no row on its own; the
    # march's row matrices are one batched np.linalg.inv, and the two
    # endpoint checks one batched np.linalg.slogdet each, with no inverse
    calls = []
    for name in ("inv", "slogdet", "solve"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _name=name, _original=original, **kwargs):
            if sys._getframe(1).f_globals["__name__"] == "kreinmap.inverse_map":
                calls.append(_name)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    upsilon(linear_potential(50))
    blocks = -(-50 // (kreinmap.inverse_map._BLOCK // 2))
    assert blocks < 50
    assert sorted(calls) == ["inv"] + ["slogdet"] * 2 + ["solve"] * 2 * blocks


def test_transmutation_kernel_forms_no_adjoint(count_calls):
    counts = count_calls("potential_adjoint")
    kreinmap.transmutation_kernel(linear_potential(16))
    kreinmap.transmutation_kernel(const_potential(0.3j, 16))
    assert counts == {"potential_adjoint": 0}


@pytest.mark.parametrize(
    "q",
    [linear_potential(16), const_potential(10.0, 16)],
    ids=["general", "self-adjoint"],
)
def test_inverse_preamble_runs_once_per_potential_on_arrays(count_calls, count_builds, q):
    # q is refined (one _midpoint_fill per block), guarded and given its
    # chain coefficients once; those of Q* are read off them, so no adjoint,
    # refined potential or refined grid is built
    names = ("inverse_map._midpoint_fill", "inverse_map._require_resolved", "potential_adjoint")
    counts = count_calls(*names)
    built = count_builds(kreinmap.Potential, kreinmap.GridSpec)
    for run in (upsilon, identity_suite, resolvent_product_kernel):
        counts.update(dict.fromkeys(counts, 0))
        run(q)
        assert counts == dict(zip(names, (2, 1, 0))), run.__name__
        assert built == {"Potential": 0, "GridSpec": 0}, run.__name__


def test_representation_check_tabulates_phases_on_the_nodes_alone(monkeypatch):
    shapes = []

    def wrap(fn):
        def recorded(lam, x, r):
            shapes.append(np.shape(x))
            return fn(lam, x, r)

        return recorded

    _replace_everywhere(monkeypatch, "dirac_verify._free_evolution", wrap)
    q = linear_potential(16)
    assert check_fundamental_representation(q).passed
    # E(x - 2t) = E(x) E(-2t) and E(2t - x) = E(-x) E(2t): phases of x and
    # of t alone, never a table over (x, t)
    assert shapes and all(shape == (q.grid.N + 1,) for shape in shapes)


def test_cli_verify_builds_the_transformation_kernels_once(count_calls, tmp_path, capsys):
    q = linear_potential(16)
    src = tmp_path / "q.json"
    write_field(str(src), q)
    counts = count_calls(PAIR)
    assert main(["verify", "--in", str(src)]) == 0
    # the representation check builds the one pair; identity_suite reads
    # the product kernel's factors and builds none
    assert counts == {PAIR: 1}
    # the report is the one the two public checks give, to the byte
    report = identity_suite(q)
    report.entries.extend(check_fundamental_representation(q).entries)
    assert counts == {PAIR: 2}
    assert capsys.readouterr().out == json.dumps(report.to_dict(), indent=2) + "\n"


@pytest.mark.parametrize("value", [16.0, 16j], ids=["real", "imaginary"])
def test_cli_verify_refuses_a_coarse_potential_before_any_march(
    count_calls, tmp_path, capsys, value
):
    # the coarse guard of the representation check runs first, so verify
    # refuses what its own grid does not resolve before the refined march
    src = tmp_path / "q.json"
    write_field(str(src), const_potential(value, 8))
    counts = count_calls(MARCH)
    assert main(["verify", "--in", str(src)]) == 3
    assert "grid too coarse" in capsys.readouterr().err
    assert counts == {MARCH: 0}


def test_cli_verify_solves_each_krein_equation_once(count_calls, tmp_path, capsys):
    h = const_accelerant(0.5, 16)
    src = tmp_path / "h.json"
    write_field(str(src), h)
    counts = count_calls(KREIN_PAIR)
    assert main(["verify", "--in", str(src)]) == 0
    # one pair r_h, r_reflected on the accelerant's grid serves theta and
    # the derivative identity; the folded lower factor solves the pair
    # again on the refined 2N grid
    assert counts == {KREIN_PAIR: 2}
    out = capsys.readouterr().out
    # the report is the one the public calls give, to the byte
    report = _verify_potential(kreinmap.theta(h))
    report.entries.extend(kreinmap.check_krein_derivative_identity(h).entries)
    lh = kreinmap.folded_lower_factor(h)
    glm = kreinmap.solve_glm(kreinmap.folded_kernel(h))
    diff = kreinmap.Kernel2D(lh.n, lh.grid, "lower", lh.values - glm.values)
    report.add("glm_consistency", kreinmap.mixed_norm(diff, 1.0), 5e-3)
    assert out == json.dumps(report.to_dict(), indent=2) + "\n"


@pytest.mark.parametrize("field", [const_accelerant(0.5, 32), linear_potential(32)])
def test_roundtrip_runs_one_upsilon_and_one_theta_per_rung(count_calls, field):
    full_f = ("resolvent_product_kernel", "characteristic_extract", RESOLVENT)
    counts = count_calls("upsilon", "theta", *full_f)
    report = roundtrip_report(field, ladder=(16, 32))
    assert len(report.entries) == 2
    # the composed maps the package ships, and no full F on any rung
    assert counts == {"upsilon": 2, "theta": 2, **dict.fromkeys(full_f, 0)}


def test_cli_theta_runs_the_sweep_once(count_calls, tmp_path):
    src = tmp_path / "h.json"
    write_field(str(src), SWEPT)
    counts = count_calls("is_accelerant")
    assert main(["theta", "--in", str(src), "--out", str(tmp_path / "q.json")]) == 0
    assert counts == {"is_accelerant": 1}


def test_krein_solution_runs_one_sweep_for_every_lambda(count_calls):
    counts = count_calls("is_accelerant", KREIN_PAIR)
    phis = kreinmap.krein_solution(SWEPT, (0.0, 1.0, 1.0 + 0.5j))
    assert phis.shape == (3, 17, 2, 1)
    # one pair solve gives the direct and the reflected Krein kernel
    assert counts == {"is_accelerant": 1, KREIN_PAIR: 1}


def test_certified_accelerant_is_not_swept(count_calls, tmp_path):
    counts = count_calls("is_accelerant", KREIN_PAIR)
    kreinmap.theta(CERTIFIED)
    assert counts == {"is_accelerant": 0, KREIN_PAIR: 1}

    src = tmp_path / "h.json"
    write_field(str(src), CERTIFIED)
    assert main(["theta", "--in", str(src), "--out", str(tmp_path / "q.json")]) == 0
    assert counts == {"is_accelerant": 0, KREIN_PAIR: 2}

    phis = kreinmap.krein_solution(CERTIFIED, (0.0, 1.0, 1.0 + 0.5j))
    assert phis.shape == (3, 17, 2, 1)
    assert counts == {"is_accelerant": 0, KREIN_PAIR: 3}


@pytest.fixture
def count_builds(monkeypatch):
    """install(*classes): per class name, the number of its objects built,
    counted in its __post_init__."""

    def install(*classes):
        counts = dict.fromkeys((cls.__name__ for cls in classes), 0)
        for cls in classes:

            def counted(self, _post_init=cls.__post_init__, _name=cls.__name__):
                counts[_name] += 1
                _post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        return counts

    return install


@pytest.mark.parametrize("h, builds", [(CERTIFIED, 1), (SWEPT, 2)], ids=["certified", "swept"])
def test_forward_chain_builds_t_once_and_no_kernel(count_calls, count_builds, tmp_path, h, builds):
    # the gate and the Krein rows share one T; a swept input builds a second
    # inside is_accelerant. No Kernel2D passes between the layers of theta,
    # CLI theta or krein_solution
    toeplitz = "factorization._toeplitz_matrix"
    counts = count_calls(toeplitz, "is_accelerant", KREIN_PAIR)
    kernel_builds = count_builds(kreinmap.Kernel2D)
    src = tmp_path / "h.json"
    write_field(str(src), h)
    runs = [
        lambda: kreinmap.theta(h),
        lambda: main(["theta", "--in", str(src), "--out", str(tmp_path / "q.json")]),
        lambda: kreinmap.krein_solution(h, (0.0, 1.0)),
    ]
    for run in runs:
        counts.update(dict.fromkeys(counts, 0))
        run()
        assert counts == {
            toeplitz: builds,
            "is_accelerant": builds - 1,
            KREIN_PAIR: 1,
        }
        assert kernel_builds == {"Kernel2D": 0}


@pytest.mark.parametrize(
    "call",
    [
        kreinmap.theta,
        kreinmap.block_krein_kernel,
        lambda h: kreinmap.krein_solution(h, (0.0, 1.0)),
        kreinmap.folded_lower_factor,
    ],
    ids=["theta", "block_krein_kernel", "krein_solution", "folded_lower_factor"],
)
def test_krein_pair_of_a_complex_accelerant_runs_one_nested_lu(first_args, call):
    # a complex r = 2 accelerant that is not even: the reflected kernel is
    # read off the direct solve's factors, so one LU of the shared matrix
    # runs, on the accelerant's own grid or on its 2N refinement
    h = random_accelerant(0, r=2, n_cells=16, scale=0.1)
    seen = first_args("factorization._lu_inverses")
    call(h)
    # one call of _lu_inverses per LU (its halving recursion is _lu_halves)
    sizes = [a.shape[0] for a in seen["factorization._lu_inverses"]]
    n = max(sizes)
    assert n in (17 * 2, 33 * 2)
    assert sizes.count(n) == 1
    assert {a.dtype for a in seen["factorization._lu_inverses"]} == {C128}


@pytest.mark.parametrize(
    "h",
    [random_accelerant(0, r=2, n_cells=16, scale=0.1), const_accelerant(0.5, 16, r=2)],
    ids=["uneven", "even"],
)
def test_solve_krein_is_one_krein_pair(count_calls, h):
    # the public Krein kernel is the direct kernel of the one Krein entry,
    # uneven or even, with no second Toeplitz build
    counts = count_calls(KREIN_PAIR, "factorization._toeplitz_matrix")
    kreinmap.solve_krein(h)
    assert counts == {KREIN_PAIR: 1, "factorization._toeplitz_matrix": 1}


def test_forward_layer_has_no_test_only_options():
    # the layer solves take their field alone, and the convolution kernel,
    # which nothing in the package reads, is not exported
    for solve in (kreinmap.solve_glm, kreinmap.solve_krein):
        assert len(inspect.signature(solve).parameters) == 1
    assert "convolution_kernel" not in kreinmap.__all__
    assert not hasattr(kreinmap, "convolution_kernel")


@pytest.mark.parametrize(
    "call",
    [
        lambda h: kreinmap.factorization._krein_pair(h),
        lambda h: kreinmap.solve_glm(toeplitz_kernel(h)),
    ],
    ids=["krein_pair", "solve_glm"],
)
def test_nested_solve_builds_its_matrices_once(count_calls, call):
    # S and the stacked right-hand sides B serve the LU, Y and the residual
    # check of every row family: one build each, with the second family too
    h = random_accelerant(0, r=2, n_cells=16, scale=0.1)
    counts = count_calls("factorization._shared_matrix", "factorization._stacked_rhs")
    call(h)
    assert counts == {"factorization._shared_matrix": 1, "factorization._stacked_rhs": 1}


class _Factorization(tuple):
    """(name, dtype, compute_uv) of one factorization call, with the shape
    of the array it factors as .shape."""

    def __new__(cls, name, a, uv):
        call = super().__new__(cls, (name, a.dtype, uv))
        call.shape = a.shape
        return call


@pytest.fixture
def factorizations(monkeypatch):
    """(name, dtype, compute_uv) of every np.linalg.svd and np.linalg.qr
    call, in call order, each with its array's .shape; compute_uv is None
    for a QR."""
    seen = []
    for name in ("svd", "qr"):
        original = getattr(np.linalg, name)

        def recorded(a, *args, _name=name, _original=original, **kwargs):
            uv = kwargs.get("compute_uv", True) if _name == "svd" else None
            seen.append(_Factorization(_name, np.asarray(a), uv))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return seen


def test_real_accelerant_is_swept_in_real_arithmetic(factorizations, tmp_path):
    # T of a constant has rank 1, so the sweep factors T and runs a batched
    # QR besides its SVDs: every one of them is real
    is_accelerant(const_accelerant(0.5, 16))
    assert {name for name, _, _ in factorizations} == {"svd", "qr"}
    assert {dtype for _, dtype, _ in factorizations} == {np.dtype(np.float64)}

    # the field file's [re, im] pairs keep the imaginary parts exactly zero
    factorizations.clear()
    src = tmp_path / "h.json"
    write_field(str(src), const_accelerant(0.5, 16))
    assert main(["check-accelerant", "--in", str(src), "--csv"]) == 0
    assert {name for name, _, _ in factorizations} == {"svd", "qr"}
    assert {dtype for _, dtype, _ in factorizations} == {np.dtype(np.float64)}

    # one complex sample the sweep reads keeps every factorization complex
    factorizations.clear()
    h = const_accelerant(0.5, 16)
    vals = h.values.copy()
    vals[2 * 16 + 2] += 0.2j
    is_accelerant(Accelerant(1, h.grid, vals))
    assert factorizations
    assert {dtype for _, dtype, _ in factorizations} == {np.dtype(np.complex128)}


def test_zero_accelerant_runs_no_dense_svd(factorizations):
    # h = 0 makes T exactly zero, so every I + H_alpha is exactly I
    test = is_accelerant(const_accelerant(0.0, 200))
    assert [(name, uv) for name, _, uv in factorizations] in ([], [("svd", False)])
    assert test.accepted
    assert np.array_equal(test.sigma_min, np.ones(200))
    assert np.array_equal(test.sigma_max, np.ones(200))
    assert test.worst_alpha == 1 / 200


def test_full_rank_accelerant_computes_no_singular_vectors(factorizations):
    # an upsilon output jumps at u = 0, so its T has full numerical rank:
    # one sketch of 16 columns (n = 17 r = 34) finds 2p > n/4, and the
    # sweep goes dense without decomposing T; the 16 dense SVDs then take
    # values only
    h = upsilon(r2_potential())[0]
    factorizations.clear()
    test = is_accelerant(h)
    assert test.accepted
    calls = [(call[0], call[2], call.shape) for call in factorizations]
    assert calls[:2] == [("qr", None, (34, 16)), ("svd", True, (16, 34))]
    assert [(name, uv) for name, uv, _ in calls[2:]] == [("svd", False)] * 16


def test_low_rank_sweep_factors_t_once_and_sketches_its_factor(factorizations):
    # T of a constant has rank p = 1. No SVD of T runs: its rank and its
    # rank-p factor come from one sketch of 16 columns, a 16 x n SVD with
    # vectors, and the one small margin, at alpha = 0.8, is isolated, so it
    # is read from its 2p x 2p core like every other
    n, p = 101, 1
    test = is_accelerant(const_accelerant(-1.25, 100))
    assert not test.accepted and test.worst_alpha == 0.8
    svds = [(call.shape[-2:], call[2]) for call in factorizations if call[0] == "svd"]
    assert [shape for shape, uv in svds if n in shape] == [(16, n)]
    assert [shape for shape, uv in svds if uv] == [(16, n)]
    assert all(max(shape) <= 2 * p for shape, uv in svds if shape != (16, n))


def test_overflowing_sketch_reaches_no_factorization(factorizations):
    # T = 1e308 is finite, but T Omega overflows: the sketch is refused
    # before any QR or SVD sees it
    t = kreinmap.factorization._toeplitz_matrix(const_accelerant(1e308, 16))
    assert kreinmap.factorization._sketched_factor(t) is None
    assert factorizations == []


@pytest.mark.parametrize("side", ["above", "below"])
def test_margin_inside_the_error_band_is_decided_densely(factorizations, side):
    # the smallest margin lies 5e-14 from 1e-8, inside the sweep's error
    # band: A_k at alpha = 0.8, of size (32 + 1) r, takes a dense SVD
    test = is_accelerant(in_band_accelerant(side))
    assert test.accepted == (side == "above")
    assert test.worst_alpha == 0.8
    assert [call[2] for call in factorizations if call.shape == (33, 33)] == [False]
