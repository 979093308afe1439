"""Smoke test of the three scripts under scripts/, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import linear_potential

from kreinmap import identity_suite
from kreinmap.cli import write_field

ROOT = Path(__file__).resolve().parent.parent


def _spawn(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
        env=env, capture_output=True, text=True,
    )


def _run(script, *args):
    proc = _spawn(script, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_scripts_run_on_demo_fields(tmp_path):
    # the demo grid must nest over every rung of the ladders below
    out = _run("make_demo_fields.py", "--n", 64, "--out-dir", tmp_path)
    names = ("h_const.json", "h_gauss.json", "h_rejected.json", "q_linear.json")
    assert out == [f"wrote {tmp_path / name}" for name in names]

    table = _run("run_identity_suite.py", "--in", tmp_path / "q_linear.json", "--ladder", "16,32")
    assert table[0].split() == ["residual", "N=16", "N=32", "order"]
    residuals = [e.name for e in identity_suite(linear_potential(16)).entries]
    assert [row.split()[0] for row in table[1:]] == residuals
    # one rung: no order column to fill
    table = _run("run_identity_suite.py", "--in", tmp_path / "q_linear.json", "--ladder", "16")
    assert [row.split()[0] for row in table[1:]] == residuals
    assert all(len(row.split()) == 2 for row in table[1:])

    table = _run("run_roundtrip.py", "--in", tmp_path / "h_gauss.json", "--ladder", "16,32,64")
    assert table[0].split() == ["N", "rel", "L1", "error", "order"]
    assert [row.split()[0] for row in table[1:-1]] == ["16", "32", "64"]
    assert table[-1] == "finest tolerance 0.005: pass"


@pytest.mark.parametrize(
    "script, ladder, message",
    [
        ("run_identity_suite.py", "16,32", "grid 16 is not nested over target 32"),
        ("run_roundtrip.py", "16,32", "grid 16 is not nested over target 32"),
        ("run_identity_suite.py", "16,x", "cannot parse ladder"),
    ],
)
def test_scripts_exit_3_on_input_errors(tmp_path, script, ladder, message):
    # the CLI's contract: one line on stderr and exit 3, no traceback
    src = tmp_path / "q16.json"
    write_field(str(src), linear_potential(16))
    proc = _spawn(script, "--in", src, "--ladder", ladder)
    assert proc.returncode == 3
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("input error: ") and message in line
