"""Each call chain builds every kernel and runs every sweep once.

A counter replaces a function at every kreinmap module binding that holds
it, so a call is seen whichever module makes it.  A public name is looked
up on the package; "module.name" names a private function of a module.
The sweep's SVDs are also recorded by dtype, to show which arithmetic each
accelerant is swept in.
"""

import importlib
import sys

import numpy as np
import pytest

from conftest import const_accelerant, linear_potential

import kreinmap
import kreinmap.cli
from kreinmap import Accelerant, identity_suite, is_accelerant, roundtrip_report, upsilon
from kreinmap.cli import main, write_field


@pytest.fixture
def count_calls(monkeypatch):
    def install(*names):
        counts = dict.fromkeys(names, 0)
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "kreinmap" or key.startswith("kreinmap.")
        ]
        for name in names:
            module, _, attr = name.rpartition(".")
            owner = importlib.import_module(f"kreinmap.{module}") if module else kreinmap
            original = getattr(owner, attr)

            def counted(*args, _name=name, _fn=original, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, counted)
        return counts

    return install


def test_identity_suite_builds_each_resolvent_once(count_calls):
    counts = count_calls("inverse_map._kernel_chains", "resolvent_volterra")
    assert identity_suite(linear_potential(16)).passed
    # one march for K_Q and K_{Q*} on the refined grid, one for symmetry_P on
    # the potential's own grid; one resolvent each for Q and for its adjoint Q*
    assert counts == {"inverse_map._kernel_chains": 2, "resolvent_volterra": 2}


def test_upsilon_builds_no_full_transformation_kernels(count_calls):
    counts = count_calls(
        "inverse_map._kernel_chains", "transformation_kernels", "resolvent_volterra"
    )
    upsilon(linear_potential(16))
    # K_Q and K_{Q*} are read from the chains of one march
    assert counts == {
        "inverse_map._kernel_chains": 1,
        "transformation_kernels": 0,
        "resolvent_volterra": 2,
    }


@pytest.mark.parametrize("field", [const_accelerant(0.5, 32), linear_potential(32)])
def test_roundtrip_builds_one_product_kernel_per_rung(count_calls, field):
    counts = count_calls("resolvent_product_kernel")
    report = roundtrip_report(field, ladder=(16, 32))
    assert len(report.entries) == 2
    assert counts == {"resolvent_product_kernel": 2}


# c = 1.7 is an accelerant (1 + 1.7 alpha > 0) whose Schur norm bound
# rho = 1.7 (1 + 1/N) exceeds 1, so it is accepted only by the sweep; c = 0.5
# at N = 16 has rho = 0.53 and is certified without one.
SWEPT, CERTIFIED = const_accelerant(1.7, 16), const_accelerant(0.5, 16)


def test_cli_theta_runs_the_sweep_once(count_calls, tmp_path):
    src = tmp_path / "h.json"
    write_field(str(src), SWEPT)
    counts = count_calls("is_accelerant")
    assert main(["theta", "--in", str(src), "--out", str(tmp_path / "q.json")]) == 0
    assert counts == {"is_accelerant": 1}


def test_krein_solution_runs_one_sweep_for_every_lambda(count_calls):
    counts = count_calls("is_accelerant", "solve_krein")
    phis = kreinmap.krein_solution(SWEPT, (0.0, 1.0, 1.0 + 0.5j))
    assert phis.shape == (3, 17, 2, 1)
    # the direct and the reflected Krein kernel
    assert counts == {"is_accelerant": 1, "solve_krein": 2}


def test_certified_accelerant_is_not_swept(count_calls, tmp_path):
    counts = count_calls("is_accelerant", "solve_krein")
    kreinmap.theta(CERTIFIED)
    assert counts == {"is_accelerant": 0, "solve_krein": 2}

    src = tmp_path / "h.json"
    write_field(str(src), CERTIFIED)
    assert main(["theta", "--in", str(src), "--out", str(tmp_path / "q.json")]) == 0
    assert counts == {"is_accelerant": 0, "solve_krein": 4}

    phis = kreinmap.krein_solution(CERTIFIED, (0.0, 1.0, 1.0 + 0.5j))
    assert phis.shape == (3, 17, 2, 1)
    assert counts == {"is_accelerant": 0, "solve_krein": 6}


@pytest.fixture
def svd_dtypes(monkeypatch):
    """The dtype of every matrix passed to np.linalg.svd, in call order."""
    seen = []
    original = np.linalg.svd

    def recorded(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return seen


def test_real_accelerant_is_swept_in_real_arithmetic(svd_dtypes, tmp_path):
    is_accelerant(const_accelerant(0.5, 16))
    assert svd_dtypes == [np.dtype(np.float64)] * 16

    # the field file's [re, im] pairs keep the imaginary parts exactly zero
    svd_dtypes.clear()
    src = tmp_path / "h.json"
    write_field(str(src), const_accelerant(0.5, 16))
    assert main(["check-accelerant", "--in", str(src), "--csv"]) == 0
    assert svd_dtypes == [np.dtype(np.float64)] * 16

    # one complex sample the sweep reads keeps every truncation complex
    svd_dtypes.clear()
    h = const_accelerant(0.5, 16)
    vals = h.values.copy()
    vals[2 * 16 + 2] += 0.2j
    is_accelerant(Accelerant(1, h.grid, vals))
    assert svd_dtypes == [np.dtype(np.complex128)] * 16
