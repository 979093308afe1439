"""Each call chain builds every kernel and runs every sweep once.

A counter replaces a function at every kreinmap module binding that holds
it, so a call is seen whichever module makes it.
"""

import sys

import pytest

from conftest import const_accelerant, linear_potential

import kreinmap
import kreinmap.cli
from kreinmap import identity_suite, roundtrip_report, upsilon
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
            original = getattr(kreinmap, name)

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
    counts = count_calls("transmutation_kernel", "resolvent_volterra")
    assert identity_suite(linear_potential(16)).passed
    # one each for Q and for its adjoint Q*
    assert counts == {"transmutation_kernel": 2, "resolvent_volterra": 2}


def test_upsilon_builds_no_full_transformation_kernels(count_calls):
    counts = count_calls("transmutation_kernel", "transformation_kernels")
    upsilon(linear_potential(16))
    # K_Q and K_{Q*} are read from the kernel chains directly
    assert counts == {"transmutation_kernel": 2, "transformation_kernels": 0}


@pytest.mark.parametrize("field", [const_accelerant(0.5, 32), linear_potential(32)])
def test_roundtrip_builds_one_product_kernel_per_rung(count_calls, field):
    counts = count_calls("resolvent_product_kernel")
    report = roundtrip_report(field, ladder=(16, 32))
    assert len(report.entries) == 2
    assert counts == {"resolvent_product_kernel": 2}


def test_cli_theta_runs_the_sweep_once(count_calls, tmp_path):
    src = tmp_path / "h.json"
    write_field(str(src), const_accelerant(0.5, 16))
    counts = count_calls("is_accelerant")
    assert main(["theta", "--in", str(src), "--out", str(tmp_path / "q.json")]) == 0
    assert counts == {"is_accelerant": 1}


def test_krein_solution_runs_one_sweep_for_every_lambda(count_calls):
    counts = count_calls("is_accelerant", "solve_krein")
    phis = kreinmap.krein_solution(const_accelerant(0.5, 16), (0.0, 1.0, 1.0 + 0.5j))
    assert phis.shape == (3, 17, 2, 1)
    # the direct and the reflected Krein kernel
    assert counts == {"is_accelerant": 1, "solve_krein": 2}
