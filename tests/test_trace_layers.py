"""The layer names the benchmark's trace mode wraps must exist in kreinmap.

perfbench/tracer.py looks each "module.name" of LAYERS up with a bare
getattr, so a renamed or deleted layer function breaks every traced run.
A layer the call chains reach only through a private twin reads 0 calls.
"""

import importlib
import importlib.util
from pathlib import Path
from time import perf_counter

from conftest import SWEPT, linear_potential

import kreinmap
import kreinmap.cli  # noqa: F401  (the tracer wraps the cli layers too)
from kreinmap import factorization, identity_suite
from kreinmap.cli import write_field

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_layer_is_a_kreinmap_callable():
    tracer = _tracer()
    for mod, names in tracer.LAYERS.items():
        module = importlib.import_module(f"kreinmap.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod}.{name}"


def test_traced_upsilon_records_no_product_layer():
    with _tracer().Tracer() as traced:
        kreinmap.upsilon(linear_potential(16))  # looked up while wrapped
    names = [span[0] for span in traced.spans]
    # upsilon reads one column of F by two substitutions: no resolvent,
    # cross term or assembly of the full F
    for layer in (
        "inverse_map.resolvent_volterra",
        "inverse_map.resolvent_product_parts",
        "inverse_map.assemble_product",
        "inverse_map.characteristic_extract",
        "quadops.compose",
    ):
        assert layer not in names
    assert names.count("inverse_map.upsilon") == 1
    # the first substitution reads K_{Q*} through a flipped, transposed view
    # and conjugates its one column: no adjoint of K_{Q*} is built
    assert "quadops.adjoint_op" not in names


def test_traced_identity_suite_records_the_wave_operator():
    with _tracer().Tracer() as traced:
        identity_suite(linear_potential(16))
    names = [span[0] for span in traced.spans]
    # K_Q, L and the lower and upper parts of F
    assert names.count("dirac_verify.apply_wave_operator") == 4


def test_traced_cli_theta_records_the_sweep(tmp_path, monkeypatch):
    # neither certificate covers SWEPT, so CLI theta sweeps it once, on the
    # gate's own T: the sweep runs inside the traced cli.main and no
    # is_accelerant span, which would build a second T, is recorded
    src = tmp_path / "h.json"
    write_field(str(src), SWEPT)
    sweeps = []

    def timed(*args, _sweep=factorization._sweep):
        start = perf_counter()
        result = _sweep(*args)
        sweeps.append((start, perf_counter()))
        return result

    monkeypatch.setattr(factorization, "_sweep", timed)
    with _tracer().Tracer() as traced:
        assert kreinmap.cli.main(["theta", "--in", str(src), "--out", str(tmp_path / "q.json")]) == 0
    names = [span[0] for span in traced.spans]
    assert names.count("factorization.is_accelerant") == 0
    (main,) = [span for span in traced.spans if span[0] == "cli.main"]
    assert len(sweeps) == 1 and main[2] <= sweeps[0][0] <= sweeps[0][1] <= main[3]
