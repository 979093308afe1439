"""Property test of the exit-code contract over malformed input.

Whatever the field document and the argument list, main() returns 0, 2, 3
or 4, never 1 (internal error), and raises no warning on the way.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kreinmap.cli import main

_KINDS = ("accelerant", "potential", "kernel")
_DOMAINS = {"accelerant": "[-1,1]", "potential": "[0,1]", "kernel": "[0,1]^2"}
_VALUES = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 1e3, -1e3, 1e200, float("nan"), float("inf")]),
)


def _shape(kind, r, n_cells):
    if kind == "accelerant":
        return (4 * n_cells + 1, r, r)
    if kind == "kernel":
        return (n_cells + 1, n_cells + 1, r, r)
    return (2, n_cells + 1, r, r)


@st.composite
def _shaped_data(draw, kind, r, n_cells):
    """[re, im] pairs of the right shape, one value spread over the samples
    plus sparse spikes, so every magnitude reaches the solvers."""
    shape = _shape(kind, r, n_cells)
    base = draw(_VALUES)
    cells = [[base, 0.0] for _ in range(math.prod(shape))]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(cells) - 1))
        cells[k] = [draw(_VALUES), draw(_VALUES)]
    return _nest(cells, shape)


def _nest(flat, shape):
    for size in reversed(shape[1:]):
        flat = [flat[k : k + size] for k in range(0, len(flat), size)]
    return flat


_JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), _VALUES, st.text(max_size=4)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=8,
)


@st.composite
def _documents(draw):
    """A field document: well formed, then possibly damaged in one place."""
    kind = draw(st.sampled_from(_KINDS))
    r = draw(st.integers(1, 2))
    n_cells = draw(st.sampled_from([8, 16]))
    doc = {
        "kind": kind,
        "r": r,
        "N": n_cells,
        "domain": _DOMAINS[kind],
        "data": draw(_shaped_data(kind, r, n_cells)),
        "meta": "fuzz",
    }
    damage = draw(st.sampled_from(["none", "value", "drop", "replace", "shape"]))
    if damage == "value":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_JUNK)
    elif damage == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif damage == "replace":
        return draw(_JUNK)
    elif damage == "shape":
        key = draw(st.sampled_from(["r", "N"]))
        doc[key] = draw(st.integers(-4, 20))
    return doc


_COMMANDS = ("theta", "upsilon", "check-accelerant", "roundtrip", "verify", "solve-dirac")


@st.composite
def _argvs(draw, src, dst):
    command = draw(st.sampled_from(_COMMANDS + ("frobnicate",)))
    argv = [command, "--in", src]
    if command in ("theta", "upsilon") or command == "solve-dirac" and draw(st.booleans()):
        argv += ["--out", dst]
    if command != "roundtrip" and draw(st.booleans()):
        argv += ["--n", draw(st.sampled_from(["8", "16", "0", "-8", "12", "4", "x"]))]
    if command == "roundtrip":
        argv += ["--ladder", draw(st.sampled_from(["8,16", "16", "0", "8,0", "-8", "", "8,,16", "x"]))]
        argv += ["--tol", draw(st.sampled_from(["5e-3", "0", "-1", "nan", "x"]))]
    if command == "solve-dirac":
        for _ in range(draw(st.integers(0, 2))):
            argv += ["--lambda", draw(st.sampled_from(
                ["0", "1+0.5i", "-2i", "1e3", "1e300", "inf", "nan", "1,2", "", "banana"]
            ))]
    if command == "check-accelerant" and draw(st.booleans()):
        argv.append("--csv")
    if draw(st.integers(0, 19)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.text(max_size=4)))
    return argv


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(doc=_documents(), data=st.data())
def test_cli_exit_codes_on_malformed_input(doc, data):
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "in.json")
        with open(src, "w") as fh:
            json.dump(doc, fh)
        argv = data.draw(_argvs(src, os.path.join(tmp, "out.json")), label="argv")
        sink = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
    assert code in (0, 2, 3, 4), sink.getvalue()
    assert [str(w.message) for w in caught] == []
