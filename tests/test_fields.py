"""Containers, structural constants, and exact grid operations."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import const_accelerant, random_accelerant
from kreinmap import (
    Accelerant,
    DiagnosticReport,
    FieldFormatError,
    GridSpec,
    Kernel2D,
    Potential,
    decimate_accelerant,
    decimate_potential,
    potential_adjoint,
    reflect,
    structural_constants,
)


def test_grid_rejects_odd_and_small():
    for bad in (7, 9, 4, 0, -8):
        with pytest.raises(FieldFormatError):
            GridSpec(bad)


def test_grid_quadrature_is_normalized():
    g = GridSpec(10)
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0
    assert g.weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert g.refined().N == 20


def test_accelerant_shape():
    h = const_accelerant(0.5, 8)
    assert h.values.shape == (33, 1, 1)
    with pytest.raises(FieldFormatError):
        Accelerant(1, GridSpec(8), np.zeros((32, 1, 1)))


@pytest.mark.parametrize("bad", [0, -1, 1.0, True], ids=["zero", "negative", "float", "bool"])
@pytest.mark.parametrize(
    "make",
    [
        lambda r, g, s: Accelerant(r, g, np.zeros((4 * g.N + 1, s, s))),
        lambda r, g, s: Potential(r, g, np.zeros((g.N + 1, s, s)), np.zeros((g.N + 1, s, s))),
        lambda r, g, s: Kernel2D(r, g, "full", np.zeros((g.N + 1, g.N + 1, s, s))),
    ],
    ids=["accelerant", "potential", "kernel"],
)
def test_fields_refuse_a_block_size_that_is_not_an_integer_of_at_least_one(make, bad):
    # values of the shape the block size gives, so only the type test can refuse
    # 0, 1.0 and True; r = 0 used to reach theta as a ZeroDivisionError
    size = max(int(bad), 0)
    message = rf"block size must be (an integer|>= 1), got {re.escape(repr(bad))}$"
    with pytest.raises(FieldFormatError, match=message):
        make(bad, GridSpec(16), size)
    assert make(np.int64(1), GridSpec(16), 1).grid.N == 16


def test_accelerant_rejects_nonfinite():
    vals = np.zeros((33, 1, 1), dtype=complex)
    vals[5] = np.nan
    with pytest.raises(FieldFormatError):
        Accelerant(1, GridSpec(8), vals)


def test_potential_full_layout():
    g = GridSpec(8)
    qp = np.full((9, 1, 1), 2.0, dtype=complex)
    qm = np.full((9, 1, 1), 3.0, dtype=complex)
    q = Potential(1, g, qp, qm)
    full = q.full()
    assert full.shape == (9, 2, 2)
    assert np.all(full[:, 0, 1] == 2.0)
    assert np.all(full[:, 1, 0] == 3.0)
    assert np.all(full[:, 0, 0] == 0.0) and np.all(full[:, 1, 1] == 0.0)


def test_kernel_support_enforced():
    g = GridSpec(8)
    vals = np.zeros((9, 9, 1, 1), dtype=complex)
    vals[0, 5] = 1.0  # above the diagonal
    with pytest.raises(FieldFormatError):
        Kernel2D(1, g, "lower", vals)
    Kernel2D(1, g, "upper", vals)  # fine there
    vals = np.zeros((9, 9, 1, 1), dtype=complex)
    vals[5, 0] = 1.0  # below the diagonal
    with pytest.raises(FieldFormatError, match="below the diagonal in an upper kernel"):
        Kernel2D(1, g, "upper", vals)
    Kernel2D(1, g, "lower", vals)  # fine there
    # the diagonal belongs to both triangles
    vals = np.zeros((9, 9, 1, 1), dtype=complex)
    vals[4, 4] = 1.0
    for support in ("lower", "upper"):
        Kernel2D(1, g, support, vals)
    with pytest.raises(FieldFormatError):
        Kernel2D(1, g, "sideways", np.zeros((9, 9, 1, 1)))


def test_structural_constants_identities():
    for r in (1, 2, 3):
        sc = structural_constants(r)
        eye = np.eye(2 * r)
        assert np.allclose(sc.J @ sc.J, -eye)
        assert np.allclose(sc.B @ sc.B, eye)
        assert np.allclose(sc.J @ sc.B + sc.B @ sc.J, 0)
        # the boundary-contraction vector is annihilated by I + B
        astar = sc.a_row.conj().T
        assert np.max(np.abs((eye + sc.B) @ astar)) == 0.0
        assert np.max(np.abs(sc.a_row @ sc.a_col)) == 0.0


def test_reflect_reverses_samples():
    h = random_accelerant(3, r=2, n_cells=8)
    hr = reflect(h)
    assert np.array_equal(hr.values, h.values[::-1])
    assert np.array_equal(reflect(hr).values, h.values)


def test_potential_adjoint_is_involution(rng):
    g = GridSpec(8)
    qp = rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2))
    qm = rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2))
    q = Potential(2, g, qp, qm)
    qa = potential_adjoint(q)
    assert np.allclose(qa.q_plus, np.conj(np.transpose(qm, (0, 2, 1))))
    back = potential_adjoint(qa)
    assert np.array_equal(back.q_plus, q.q_plus)
    assert np.array_equal(back.q_minus, q.q_minus)
    # full() of the adjoint is the pointwise conjugate transpose
    assert np.allclose(qa.full(), np.conj(np.transpose(q.full(), (0, 2, 1))))


def test_decimation_is_exact_subsampling():
    h = random_accelerant(5, r=1, n_cells=32)
    h16 = decimate_accelerant(h, 16)
    assert np.array_equal(h16.values, h.values[::2])
    with pytest.raises(FieldFormatError):
        decimate_accelerant(h, 12)  # not nested
    with pytest.raises(FieldFormatError):
        decimate_accelerant(h, 64)  # refinement is not decimation

    g = GridSpec(32)
    vals = np.arange(33, dtype=complex).reshape(33, 1, 1)
    q = Potential(1, g, vals, 2 * vals)
    q16 = decimate_potential(q, 16)
    assert np.array_equal(q16.q_plus[:, 0, 0], np.arange(0, 33, 2))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_decimation_composes(seed):
    h = random_accelerant(seed, r=1, n_cells=32)
    once = decimate_accelerant(h, 8)
    twice = decimate_accelerant(decimate_accelerant(h, 16), 8)
    assert np.array_equal(once.values, twice.values)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_reflect_commutes_with_decimation(seed):
    h = random_accelerant(seed, r=2, n_cells=16)
    a = reflect(decimate_accelerant(h, 8))
    b = decimate_accelerant(reflect(h), 8)
    assert np.array_equal(a.values, b.values)


def test_report_accumulates():
    rep = DiagnosticReport()
    rep.add("good", 1e-9, 1e-6)
    rep.add("bad", 2.0, 1e-6)
    assert not rep.passed
    assert rep.failures() == ["bad"]
    assert rep["good"].residual == 1e-9
    d = rep.to_dict()
    assert d["passed"] is False and len(d["entries"]) == 2
    with pytest.raises(KeyError):
        rep["missing"]
