"""Smoke test of the three scripts under scripts/, each in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

from conftest import linear_potential

from kreinmap import identity_suite

ROOT = Path(__file__).resolve().parent.parent


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
        env=env, capture_output=True, text=True,
    )
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

    table = _run("run_roundtrip.py", "--in", tmp_path / "h_gauss.json", "--ladder", "16,32,64")
    assert table[0].split() == ["N", "rel", "L1", "error", "order"]
    assert [row.split()[0] for row in table[1:-1]] == ["16", "32", "64"]
    assert table[-1] == "finest tolerance 0.005: pass"
