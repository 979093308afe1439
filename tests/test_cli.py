"""End-to-end checks of the command-line front end and the field-file format.

Everything goes through main(argv) in-process except the thread-cap test,
which needs a fresh interpreter to see the environment variable.
"""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    const_accelerant,
    const_potential,
    gauss_accelerant,
    linear_potential,
    r2_potential,
)

import kreinmap.cli
from kreinmap import DiagnosticReport, GridSpec, Potential, is_accelerant, solve_cauchy, theta
from kreinmap.cli import main, read_field, write_field
from kreinmap.errors import FieldFormatError

ROOT = Path(__file__).resolve().parent.parent


def _zero_potential(n_cells, r=1):
    shape = (n_cells + 1, r, r)
    return Potential(r, GridSpec(n_cells), np.zeros(shape, complex), np.zeros(shape, complex))


def test_field_file_roundtrip_is_byte_identical(tmp_path):
    h = gauss_accelerant(0.3, 16)
    first = tmp_path / "h.json"
    second = tmp_path / "h2.json"
    write_field(str(first), h, meta="probe")
    back = read_field(str(first))
    assert np.array_equal(back.values, h.values)
    write_field(str(second), back, meta="probe")
    assert first.read_bytes() == second.read_bytes()


def test_field_file_is_one_line_of_compact_json(tmp_path):
    path = tmp_path / "q.json"
    q = linear_potential(16)
    write_field(str(path), q)
    text = path.read_text()
    # no indent: the whole document and its trailing newline
    assert text.count("\n") == 1 and text.endswith("}\n")
    doc = json.loads(text)
    # the bytes of json's one-shot encoder
    assert text == json.dumps(doc) + "\n"
    assert (doc["kind"], doc["r"], doc["N"], doc["domain"]) == ("potential", 1, 16, "[0,1]")
    back = read_field(str(path))
    assert np.array_equal(back.q_plus, q.q_plus) and np.array_equal(back.q_minus, q.q_minus)


def test_potential_field_roundtrip_bitwise(tmp_path):
    q = theta(const_accelerant(0.5, 16))
    path = tmp_path / "q.json"
    write_field(str(path), q)
    back = read_field(str(path))
    assert np.array_equal(back.q_plus, q.q_plus)
    assert np.array_equal(back.q_minus, q.q_minus)


def test_read_field_rejects_malformed_documents(tmp_path):
    path = tmp_path / "bad.json"

    path.write_text("{ not json")
    with pytest.raises(FieldFormatError, match="not valid JSON"):
        read_field(str(path))

    path.write_text(json.dumps({"kind": "accelerant", "r": 1, "N": 16}))
    with pytest.raises(FieldFormatError, match="missing field"):
        read_field(str(path))

    doc = {"kind": "spinor", "r": 1, "N": 16, "domain": "[-1,1]", "data": []}
    path.write_text(json.dumps(doc))
    with pytest.raises(FieldFormatError, match="unknown kind"):
        read_field(str(path))

    doc = {"kind": "accelerant", "r": 1, "N": 16, "domain": "[0,1]", "data": []}
    path.write_text(json.dumps(doc))
    with pytest.raises(FieldFormatError, match="domain"):
        read_field(str(path))

    doc = {
        "kind": "accelerant", "r": 1, "N": 16, "domain": "[-1,1]",
        "data": [[0.0, 0.0], [0.0]],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(FieldFormatError, match="ragged"):
        read_field(str(path))

    # bool is an int subclass in Python; true is not a block dimension
    for key in ("r", "N"):
        doc = {"kind": "accelerant", "r": 1, "N": 16, "domain": "[-1,1]", "data": []}
        doc[key] = True
        path.write_text(json.dumps(doc))
        with pytest.raises(FieldFormatError, match="integers"):
            read_field(str(path))
    assert main(["theta", "--in", str(path), "--out", str(tmp_path / "q.json")]) == 3


def test_read_field_accepts_full_block_potential(tmp_path):
    q = linear_potential(16)
    full = q.full()
    doc = {
        "kind": "potential", "r": 1, "N": 16, "domain": "[0,1]",
        "data": np.stack([full.real, full.imag], axis=-1).tolist(),
    }
    path = tmp_path / "q_full.json"
    path.write_text(json.dumps(doc))
    back = read_field(str(path))
    assert np.allclose(back.q_plus, q.q_plus)
    assert np.allclose(back.q_minus, q.q_minus)

    # any mass on the diagonal blocks means the file is not a potential
    full[3, 0, 0] = 1e-9
    doc["data"] = np.stack([full.real, full.imag], axis=-1).tolist()
    path.write_text(json.dumps(doc))
    with pytest.raises(FieldFormatError, match="vanish"):
        read_field(str(path))


def test_theta_command_writes_matching_potential(tmp_path, capsys):
    src = tmp_path / "h.json"
    dst = tmp_path / "q.json"
    write_field(str(src), const_accelerant(0.5, 32))
    code = main(["theta", "--in", str(src), "--out", str(dst)])
    assert code == 0
    out = capsys.readouterr().out
    assert "min margin" in out
    q = read_field(str(dst))
    direct = theta(const_accelerant(0.5, 32))
    assert np.array_equal(q.q_plus, direct.q_plus)


@pytest.mark.parametrize("c", [0.5, 1.7, -0.95])
def test_theta_command_names_bound_or_swept_margin(tmp_path, capsys, c):
    # rho = |c| (1 + 1/16): 0.53 certifies c = 0.5 by the Schur norm bound;
    # c = 1.7 (rho = 1.81) has a positive semi-definite Toeplitz matrix and is
    # certified by the numerical range bound 1 / (sqrt(2) (1 + rho)); c = -0.95
    # (rho = 1.009, 1 + step lam = -0.009) is accepted only by the sweep
    h = const_accelerant(c, 16)
    if c == 0.5:
        line = "accelerant bound: min margin >= 0.306122 (Schur norm bound, not swept)"
    elif c == 1.7:
        line = "accelerant bound: min margin >= 0.251976 (numerical range bound, not swept)"
    else:
        line = f"accelerant test: min margin {is_accelerant(h).margins.min():.6f}"
    src = tmp_path / "h.json"
    dst = tmp_path / "q.json"
    ref = tmp_path / "ref.json"
    write_field(str(src), h)
    assert main(["theta", "--in", str(src), "--out", str(dst)]) == 0
    assert capsys.readouterr().out == line + f"\nwrote potential (r=1, N=16) to {dst}\n"
    write_field(str(ref), theta(h), meta=f"theta of {src}")
    assert dst.read_bytes() == ref.read_bytes()


def test_readme_quotes_the_theta_labels_as_printed(tmp_path, capsys):
    # c = 0.5 takes the Schur norm bound, c = 1.7 the numerical range bound
    # and c = -0.95 the sweep; the README quotes each first line with its
    # number written as "…"
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    src = tmp_path / "h.json"
    for c in (0.5, 1.7, -0.95):
        write_field(str(src), const_accelerant(c, 16))
        assert main(["theta", "--in", str(src), "--out", str(tmp_path / "q.json")]) == 0
        label = capsys.readouterr().out.splitlines()[0]
        assert f"`{re.sub(r'[0-9.]+[0-9]', '…', label)}`" in readme, label


@pytest.mark.parametrize("c", [1e300, np.finfo(float).max])
def test_theta_command_rejects_overflowing_accelerant_cleanly(tmp_path, capsys, c):
    # the Schur norm bound overflows here; the input must go to the sweep
    src = tmp_path / "h.json"
    write_field(str(src), const_accelerant(c, 16))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["theta", "--in", str(src), "--out", str(tmp_path / "q.json")])
    assert [str(w.message) for w in caught] == []
    assert code == 2
    assert capsys.readouterr().err == (
        "not an accelerant: I + H_alpha singular near alpha = 0.5 "
        "(relative margin 0.000e+00)\n"
    )
    assert not (tmp_path / "q.json").exists()


def test_theta_command_rejects_singular_accelerant(tmp_path, capsys):
    # N divisible by 5 puts a node on the singular alpha of h = -1.25
    src = tmp_path / "h.json"
    write_field(str(src), const_accelerant(-1.25, 40))
    code = main(["theta", "--in", str(src), "--out", str(tmp_path / "q.json")])
    assert code == 2
    assert "0.8" in capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_theta_command_rejects_an_off_node_constant(tmp_path, capsys):
    # c = -1.3 is no accelerant (I + H_alpha is singular at alpha = 1/1.3,
    # between two nodes of N = 100), so theta must exit 2 and write nothing
    src = tmp_path / "h.json"
    write_field(str(src), const_accelerant(-1.3, 100))
    code = main(["theta", "--in", str(src), "--out", str(tmp_path / "q.json")])
    assert (code, (tmp_path / "q.json").exists()) == (2, False)


def test_corrupt_input_exits_three(tmp_path, capsys):
    src = tmp_path / "h.json"
    src.write_text("not json at all")
    code = main(["theta", "--in", str(src), "--out", str(tmp_path / "q.json")])
    assert code == 3
    assert "input error" in capsys.readouterr().err


def test_wrong_field_kind_exits_three(tmp_path, capsys):
    src = tmp_path / "q.json"
    write_field(str(src), linear_potential(16))
    code = main(["theta", "--in", str(src), "--out", str(tmp_path / "out.json")])
    assert code == 3
    assert "expected an accelerant file, got potential" in capsys.readouterr().err


def test_upsilon_command_on_zero_potential(tmp_path, capsys):
    src = tmp_path / "q.json"
    dst = tmp_path / "h.json"
    write_field(str(src), _zero_potential(16))
    code = main(["upsilon", "--in", str(src), "--out", str(dst)])
    assert code == 0
    assert "resolution (step/2) rho(JQ): 0.000e+00 (refused at 1)" in capsys.readouterr().out
    h = read_field(str(dst))
    assert np.max(np.abs(h.values)) < 1e-12


def test_upsilon_command_on_strong_potential(tmp_path):
    src = tmp_path / "q.json"
    dst = tmp_path / "h.json"
    write_field(str(src), const_potential(10.0, 50))
    assert main(["upsilon", "--in", str(src), "--out", str(dst)]) == 0
    assert np.isfinite(read_field(str(dst)).values).all()


def _upsilon_quietly(tmp_path, q: Potential) -> int:
    src = tmp_path / "q.json"
    write_field(str(src), q)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["upsilon", "--in", str(src), "--out", str(tmp_path / "h.json")])
    assert [str(w.message) for w in caught] == []
    return code


def test_upsilon_command_refuses_unresolved_potential(tmp_path, capsys):
    # (step/2) q >= 1 on the refined grid: the trapezoid system stops
    # approximating the kernels, down to h^2 = I exactly at q = 200, N = 50
    for value, n_cells in ((200.0, 50), (1e3, 16), (1e10, 16), (1e200, 16)):
        assert _upsilon_quietly(tmp_path, const_potential(value, n_cells)) == 3, value
        assert "grid too coarse" in capsys.readouterr().err
    assert not (tmp_path / "h.json").exists()


def test_upsilon_command_refuses_overflowing_potential(tmp_path, capsys):
    # resolved by the grid ((step/2) q = 0.94), but the kernels grow like e^(q x)
    assert _upsilon_quietly(tmp_path, const_potential(750.0, 200)) == 3
    assert "overflow" in capsys.readouterr().err


def test_upsilon_command_refuses_overflowing_refined_potential(tmp_path, capsys):
    # finite samples, but the midpoint fill onto the refined grid overflows
    assert _upsilon_quietly(tmp_path, const_potential(1e308, 8)) == 3
    assert "refined potential overflow" in capsys.readouterr().err


def test_fuzz_findings_exit_cleanly(tmp_path, capsys):
    src = tmp_path / "in.json"
    dst = str(tmp_path / "out.json")

    def run(argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert [str(w.message) for w in caught] == [], argv
        return code, capsys.readouterr().err

    write_field(str(src), const_accelerant(0.5, 16))
    doc = json.loads(src.read_text())
    doc["kind"] = []  # unhashable, so no kind at all
    src.write_text(json.dumps(doc))
    for argv in (
        ["theta", "--in", str(src), "--out", dst],
        ["theta", "--in", str(tmp_path / "h.json"), "--out", dst, "--n", "0"],
        ["roundtrip", "--in", str(tmp_path / "h.json"), "--ladder", "0"],
        ["verify", "--in", str(tmp_path / "h.json"), "--n", "0"],
    ):
        write_field(str(tmp_path / "h.json"), const_accelerant(0.5, 16))
        code, err = run(argv)
        assert code == 3 and "input error" in err, argv

    # files that cannot be decoded or parsed, and outputs that cannot be written
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{}")
    (tmp_path / "open.json").write_text("[" * 200000)
    doc = json.loads((tmp_path / "h.json").read_text())
    doc["data"] = 0
    deep = json.dumps(doc).replace('"data": 0', '"data": ' + "[" * 5000 + "0.5, 0.0" + "]" * 5000)
    (tmp_path / "deep.json").write_text(deep)
    missing = tmp_path / "missing"
    write_field(str(tmp_path / "q.json"), linear_potential(16))
    for argv in (
        ["theta", "--in", str(tmp_path / "utf16.json"), "--out", dst],
        ["theta", "--in", str(tmp_path / "open.json"), "--out", dst],
        ["theta", "--in", str(tmp_path / "deep.json"), "--out", dst],
        ["theta", "--in", str(tmp_path / "h.json"), "--out", str(missing / "x.json")],
        ["upsilon", "--in", str(tmp_path / "q.json"), "--out", str(missing / "x.json")],
        ["theta", "--in", str(tmp_path / "h.json"), "--out", str(tmp_path)],
        ["solve-dirac", "--in", str(tmp_path / "q.json"), "--out", str(missing / "x.csv")],
    ):
        code, err = run(argv)
        assert code == 3 and "input error" in err, argv

    strong = const_potential(1.0, 8)
    qp = strong.q_plus.copy()
    qp[1] = 1.8e24j
    write_field(str(src), Potential(1, strong.grid, qp, strong.q_minus))
    code, err = run(["solve-dirac", "--in", str(src), "--out", dst])
    assert code == 3 and "does not resolve" in err  # refused before it can overflow
    write_field(str(src), strong)
    assert run(["solve-dirac", "--in", str(src), "--lambda", "inf"])[0] == 3

    # J Q is nilpotent, so the grid resolves it, but the kernels overflow
    qp = np.zeros_like(qp)
    qp[0] = 2.2e307j
    write_field(str(src), Potential(1, strong.grid, qp, np.zeros_like(qp)))
    code, err = run(["verify", "--in", str(src)])
    assert code == 3 and "overflow" in err


def test_usage_errors_exit_three(tmp_path, capsys):
    src = tmp_path / "h.json"
    write_field(str(src), const_accelerant(0.5, 16))
    for argv in (
        ["transmogrify", "--in", str(src)],
        ["check-accelerant"],
        ["check-accelerant", "--in", str(src), "--n", "eight"],
        ["check-accelerant", "--in", str(src), "--seed", "1"],
        [],
    ):
        assert main(argv) == 3, argv
        assert "usage:" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert main(["upsilon", "--help"]) == 0


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    src = tmp_path / "h.json"
    write_field(str(src), const_accelerant(0.5, 16))
    assert kreinmap.cli._parser() is kreinmap.cli._parser()
    assert main(["check-accelerant", "--in", str(src), "--csv"]) == 0
    assert capsys.readouterr().out.startswith("alpha,sigma_min")
    assert main(["check-accelerant", "--in", str(src), "--n", "eight"]) == 3
    capsys.readouterr()
    # the flags of earlier calls do not carry over to a later one
    assert main(["check-accelerant", "--in", str(src)]) == 0
    assert capsys.readouterr().out.startswith("accepted: min margin")


def test_check_accelerant_csv_output(tmp_path, capsys):
    src = tmp_path / "h.json"
    write_field(str(src), const_accelerant(0.5, 16))
    code = main(["check-accelerant", "--in", str(src), "--csv"])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "alpha,sigma_min,sigma_max,margin"
    assert len(lines) == 1 + 16  # one row per nonzero grid node
    first = lines[1].split(",")
    assert float(first[0]) == 1 / 16
    assert "accepted" in captured.err


def _cells(rows) -> str:
    # the CSV writer's former formatting: one f-string per cell
    return "".join(",".join(f"{cell:.17g}" for cell in row) + "\n" for row in rows)


def test_csv_tables_match_per_cell_formatting(tmp_path, capsys):
    # the sweep table of a rejected constant, with margins down at round-off
    src = tmp_path / "h.json"
    h = const_accelerant(-1.25, 100)
    write_field(str(src), h)
    assert main(["check-accelerant", "--in", str(src), "--csv"]) == 2
    test = is_accelerant(h)
    expected = "alpha,sigma_min,sigma_max,margin\n" + _cells(
        zip(test.alphas, test.sigma_min, test.sigma_max, test.margins)
    )
    assert capsys.readouterr().out.encode() == expected.encode()

    # an r = 2 solve-dirac table: x, then re and im of each entry of y
    src, dst = tmp_path / "q.json", tmp_path / "y.csv"
    write_field(str(src), r2_potential())
    assert main(["solve-dirac", "--in", str(src), "--out", str(dst), "--lambda", "1+0.5i"]) == 0
    q = read_field(str(src))
    y = solve_cauchy(q, 1 + 0.5j)
    header = ["x"] + [
        f"y{a}{b}_{part}" for a in range(4) for b in range(4) for part in ("re", "im")
    ]
    rows = (
        [x] + [v for entry in node.ravel() for v in (entry.real, entry.imag)]
        for x, node in zip(q.grid.nodes, y)
    )
    expected = "# lambda = 1+0.5i\n" + ",".join(header) + "\n" + _cells(rows)
    assert dst.read_bytes() == expected.encode()


def test_check_accelerant_rejection_exit_code(tmp_path, capsys):
    src = tmp_path / "h.json"
    write_field(str(src), const_accelerant(-1.25, 40))
    code = main(["check-accelerant", "--in", str(src)])
    assert code == 2
    assert "rejected" in capsys.readouterr().err


def test_decimation_flag_restricts_grid(tmp_path):
    src = tmp_path / "h.json"
    dst = tmp_path / "q.json"
    write_field(str(src), const_accelerant(0.5, 64))
    assert main(["theta", "--in", str(src), "--out", str(dst), "--n", "16"]) == 0
    assert read_field(str(dst)).grid.N == 16

    code = main(["theta", "--in", str(src), "--out", str(dst), "--n", "24"])
    assert code == 3  # 64 is not nested over 24


def _strict_json(text: str):
    """json.loads that refuses Infinity, -Infinity and NaN, which RFC 8259
    does not allow."""

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_roundtrip_command_reports_ladder(tmp_path, capsys):
    src = tmp_path / "h.json"
    write_field(str(src), const_accelerant(0.5, 64))
    code = main(["roundtrip", "--in", str(src), "--ladder", "16,32"])
    assert code == 0
    doc = _strict_json(capsys.readouterr().out)
    assert doc["passed"] is True
    names = [e["name"] for e in doc["entries"]]
    assert "roundtrip_N32" in names
    # the coarser rung's tolerance is infinite in the library, null here
    assert [e["tol"] for e in doc["entries"]] == [None, 5e-3]


def test_roundtrip_command_prints_an_infinite_ratio_as_null(tmp_path, capsys):
    # the zero potential roundtrips exactly; an error ratio over a finer
    # error of 0 is inf in the library
    src = tmp_path / "q.json"
    write_field(str(src), const_potential(0.0, 16))
    assert main(["roundtrip", "--in", str(src), "--ladder", "8,16"]) == 0
    doc = _strict_json(capsys.readouterr().out)
    assert doc["metadata"] == {"ladder": [8, 16], "errors": [0.0, 0.0], "ratios": [None]}


def test_emitted_report_prints_a_nan_residual_as_null(capsys):
    report = DiagnosticReport()
    report.add("overflowed", float("nan"), 5e-3)
    kreinmap.cli._emit_report(report)
    doc = _strict_json(capsys.readouterr().out)
    assert doc["entries"] == [{"name": "overflowed", "residual": None, "tol": 5e-3, "passed": False}]


def test_roundtrip_command_refuses_malformed_tolerance(tmp_path, capsys):
    # nan and -1 exited 2, a mathematical rejection; inf passed vacuously
    src = tmp_path / "q.json"
    write_field(str(src), const_potential(0.3, 16))
    for tol in ("nan", "-1", "inf"):
        assert main(["roundtrip", "--in", str(src), "--ladder", "8,16", "--tol", tol]) == 3, tol
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "--tol must be a finite number > 0" in err[0], err


def test_roundtrip_command_refuses_repeated_rung(tmp_path, capsys):
    # a repeated rung would run N = 32 twice and report a ratio of 1.0
    src = tmp_path / "q.json"
    write_field(str(src), const_potential(0.3, 32))
    assert main(["roundtrip", "--in", str(src), "--ladder", "16,32,32"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "input error: ladder repeats a rung: [16, 32, 32]"


def test_verify_command_on_accelerant(tmp_path, capsys):
    src = tmp_path / "h.json"
    write_field(str(src), gauss_accelerant(0.3, 32))
    code = main(["verify", "--in", str(src)])
    assert code == 0
    doc = _strict_json(capsys.readouterr().out)
    names = [e["name"] for e in doc["entries"]]
    assert "glm_consistency" in names
    assert "wave_K" in names
    assert all(e["passed"] for e in doc["entries"])


def test_verify_command_on_potential(tmp_path, capsys):
    src = tmp_path / "q.json"
    write_field(str(src), linear_potential(32))
    code = main(["verify", "--in", str(src)])
    assert code == 0
    doc = _strict_json(capsys.readouterr().out)
    names = [e["name"] for e in doc["entries"]]
    assert "wave_K" in names
    assert "glm_consistency" not in names  # no accelerant to fold


@pytest.mark.parametrize("value", [16.0, 16j], ids=["real", "imaginary"])
def test_verify_command_refuses_unresolved_potential(tmp_path, capsys, value):
    # the refined grid resolves q+- = 16 and q+- = 16j at N = 8
    # ((step/2) |q| = 0.5), but verify builds the transformation kernels on
    # the coarse grid, where (step/2) |q| = 1 makes the pairing matrix
    # singular; the coarse guard runs first, so 16j, whose refined
    # substitution is singular, is refused as too coarse too
    src = tmp_path / "q.json"
    write_field(str(src), const_potential(value, 8))
    assert main(["verify", "--in", str(src)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "grid too coarse" in err[0], err
    assert "Traceback" not in captured.err


def test_solve_dirac_free_evolution(tmp_path):
    src = tmp_path / "q.json"
    dst = tmp_path / "y.csv"
    write_field(str(src), _zero_potential(32))
    code = main(["solve-dirac", "--in", str(src), "--out", str(dst), "--lambda", "1"])
    assert code == 0
    lines = dst.read_text().strip().splitlines()
    assert lines[0] == "# lambda = 1+0i"
    assert lines[1].split(",")[0] == "x"
    # free solution carries exp(i lambda x) in the first block
    last = lines[-1].split(",")
    x = float(last[0])
    y00 = float(last[1]) + 1j * float(last[2])
    assert x == 1.0
    assert abs(y00 - np.exp(1j)) < 1e-8


def test_solve_dirac_multiple_lambdas(tmp_path):
    src = tmp_path / "q.json"
    dst = tmp_path / "y.csv"
    write_field(str(src), _zero_potential(16))
    code = main([
        "solve-dirac", "--in", str(src), "--out", str(dst),
        "--lambda", "0", "--lambda", "1+0.5i",
    ])
    assert code == 0
    text = dst.read_text()
    assert "# lambda = 0+0i" in text
    assert "# lambda = 1+0.5i" in text


def test_solve_dirac_bad_lambda_exits_three(tmp_path, capsys):
    src = tmp_path / "q.json"
    write_field(str(src), _zero_potential(16))
    code = main(["solve-dirac", "--in", str(src), "--lambda", "banana"])
    assert code == 3
    assert "spectral parameter" in capsys.readouterr().err


def test_solve_dirac_refuses_a_nan_lambda(tmp_path, capsys):
    src = tmp_path / "q.json"
    write_field(str(src), _zero_potential(16))
    assert main(["solve-dirac", "--in", str(src), "--lambda", "nan"]) == 3
    assert "lambda must be a finite number, got (nan+0j)" in capsys.readouterr().err


def test_solve_dirac_refuses_unresolved_lambda(tmp_path, capsys):
    # the RK4 step 1/32 at N = 8 resolves lambda = 10 but not 80, 100 or 1e3,
    # where it returned |Y(1)| = 4e-10, 2e9 and 1e147 instead of 1
    src = tmp_path / "q.json"
    dst = tmp_path / "y.csv"
    write_field(str(src), _zero_potential(8))
    for lam in ("80", "100", "1e3"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["solve-dirac", "--in", str(src), "--out", str(dst),
                         "--lambda", "0", "--lambda", lam])
        assert code == 3, lam
        assert caught == [], lam
        err = capsys.readouterr().err
        assert f"lambda = {float(lam):g}" in err and "step 0.0312" in err
        assert not dst.exists(), lam
    assert main(["solve-dirac", "--in", str(src), "--out", str(dst), "--lambda", "10"]) == 0
    last = dst.read_text().strip().splitlines()[-1].split(",")
    assert abs(abs(float(last[1]) + 1j * float(last[2])) - 1.0) < 1e-3


def test_thread_cap_does_not_change_results(tmp_path):
    src = tmp_path / "h.json"
    write_field(str(src), gauss_accelerant(0.3, 32))
    outs = []
    for cap in (None, "1"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if cap:
            env["OPENBLAS_NUM_THREADS"] = cap
        dst = tmp_path / f"q_{cap}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "kreinmap.cli", "theta",
             "--in", str(src), "--out", str(dst)],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(dst.read_bytes())
    assert outs[0] == outs[1]
