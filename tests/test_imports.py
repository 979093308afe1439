"""The package's import surface: numpy is its only runtime dependency, and
the package's name list is exactly its modules' name lists.

scipy used to be imported for one triangular solve, and its import was most
of the start-up time of every CLI call. A fresh interpreter that imports the
package and runs a CLI command must leave no scipy module loaded, so that no
import deferred into a function can bring it back unnoticed.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import const_accelerant

import kreinmap
from kreinmap import dirac_verify, errors, factorization, fields, forward_map, inverse_map, quadops
from kreinmap.cli import write_field

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import contextlib, io, json, sys
import kreinmap, kreinmap.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = kreinmap.cli.main(["check-accelerant", "--in", sys.argv[1]])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"code": code, "scipy": loaded}))
"""


def test_import_and_cli_load_no_scipy(tmp_path):
    src = tmp_path / "h.json"
    write_field(str(src), const_accelerant(0.3, 8))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(src)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result == {"code": 0, "scipy": []}


def test_package_names_are_the_module_names():
    modules = (fields, quadops, factorization, forward_map, inverse_map, dirac_verify)
    owner = {name: module for module in modules for name in module.__all__}
    assert sum(len(module.__all__) for module in modules) == len(owner)  # no name twice
    for name in ("FieldFormatError", "NotAccelerantError", "SingularSystemError"):
        owner[name] = errors
    assert len(kreinmap.__all__) == len(set(kreinmap.__all__))
    assert set(kreinmap.__all__) == set(owner) | {"__version__"}
    for name, module in owner.items():
        assert getattr(kreinmap, name) is getattr(module, name), name


def test_every_sibling_import_is_used():
    # a name a module imports from a sibling module and never reads is a
    # leftover of code that moved or went; __init__ re-exports by design
    for path in sorted((ROOT / "src" / "kreinmap").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - used, f"{path.name} imports unused {sorted(imported - used)}"


SWEEP_PROBE = """
import sys
import numpy as np
import kreinmap
from kreinmap import factorization
h = kreinmap.Accelerant(1, kreinmap.GridSpec(100), np.full((401, 1, 1), -1.25 + 0j))
low_rank = not factorization._low_rank_sweep(factorization._toeplitz_matrix(h), h.grid, 1)[2].all()
print(low_rank, kreinmap.is_accelerant(h).accepted, "numpy.random" in sys.modules)
"""


def test_low_rank_sweep_loads_no_random_generator():
    # the sketch's sign matrix is a hash, not a draw: importing numpy.random
    # would add about 13 ms to every CLI call that sweeps
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP_PROBE], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False", "False"]
