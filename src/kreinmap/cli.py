"""Command-line front end and the JSON field-file format.

Field files are JSON objects {kind, r, N, domain, data, meta} with complex
entries stored as [re, im] pairs; the decimal encoding round-trips binary
floats exactly. Exit codes are a stable contract: 0 success, 2 mathematical
rejection, 3 input or usage error, 1 internal; 4 is reserved (it meant a
convergence failure while an iterative solver remained).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .errors import FieldFormatError, NotAccelerantError, SingularSystemError
from .factorization import _gated_krein_rows, is_accelerant
from .fields import (
    Accelerant,
    GridSpec,
    Potential,
    decimate_accelerant,
    decimate_potential,
)
from .forward_map import _potential
from .inverse_map import upsilon
from .dirac_verify import (
    _check_ladder,
    _check_tol,
    _verify_accelerant,
    _verify_potential,
    roundtrip_report,
    solve_cauchy,
)

_DOMAINS = {"accelerant": "[-1,1]", "potential": "[0,1]"}


def _encode(arr: np.ndarray):
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _decode(data, label: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise FieldFormatError(f"{label}: ragged or non-numeric data ({exc})")
    if arr.ndim < 1 or arr.shape[-1] != 2:
        raise FieldFormatError(f"{label}: entries must be [re, im] pairs")
    if not np.isfinite(arr).all():
        raise FieldFormatError(f"{label}: non-finite entries")
    return arr[..., 0] + 1j * arr[..., 1]


def write_field(path: str, obj, meta: str = "") -> None:
    """Serialize an accelerant or a potential to a field file."""
    if isinstance(obj, Accelerant):
        kind, r, n_cells = "accelerant", obj.r, obj.grid.N
        data = _encode(obj.values)
    elif isinstance(obj, Potential):
        kind, r, n_cells = "potential", obj.r, obj.grid.N
        data = _encode(np.stack([obj.q_plus, obj.q_minus]))
    else:
        raise FieldFormatError(f"cannot serialize {type(obj).__name__}")
    doc = {
        "kind": kind,
        "r": r,
        "N": n_cells,
        "domain": _DOMAINS[kind],
        "data": data,
        "meta": meta,
    }
    try:
        with open(path, "w") as fh:
            # one-shot dumps: json.dump runs the pure-Python encoder
            fh.write(json.dumps(doc) + "\n")
    except OSError as exc:
        raise FieldFormatError(f"cannot write {path}: {exc}")


def read_field(path: str):
    """Load a field file; the potential kind also accepts full 2r x 2r blocks.

    A full-block potential must have exactly zero on-diagonal blocks, since
    the potential class is defined by anticommutation with J.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FieldFormatError(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FieldFormatError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise FieldFormatError(f"{path}: JSON nested too deeply")
    if not isinstance(doc, dict):
        raise FieldFormatError(f"{path}: expected a JSON object")
    for key in ("kind", "r", "N", "domain", "data"):
        if key not in doc:
            raise FieldFormatError(f"{path}: missing field {key!r}")
    kind, r, n_cells = doc["kind"], doc["r"], doc["N"]
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (r, n_cells)):
        raise FieldFormatError(f"{path}: r and N must be integers")
    if not isinstance(kind, str) or kind not in _DOMAINS:
        raise FieldFormatError(f"{path}: unknown kind {kind!r}")
    if doc["domain"] != _DOMAINS[kind]:
        raise FieldFormatError(
            f"{path}: domain {doc['domain']!r} does not match kind {kind!r}"
        )
    arr = _decode(doc["data"], path)
    grid = GridSpec(n_cells)
    if kind == "accelerant":
        return Accelerant(r, grid, arr)
    if arr.shape == (2, n_cells + 1, r, r):
        return Potential(r, grid, arr[0], arr[1])
    if arr.shape == (n_cells + 1, 2 * r, 2 * r):
        diag = max(
            float(np.max(np.abs(arr[:, :r, :r]))),
            float(np.max(np.abs(arr[:, r:, r:]))),
        )
        if diag > 0:
            raise FieldFormatError(
                f"{path}: on-diagonal potential blocks must vanish "
                f"(max magnitude {diag:.3e})"
            )
        return Potential(r, grid, arr[:, :r, r:], arr[:, r:, :r])
    raise FieldFormatError(
        f"{path}: potential data shape {arr.shape} matches neither "
        f"(2, N+1, r, r) nor (N+1, 2r, 2r)"
    )


def _load(path: str, kinds: tuple, n_cells=None):
    """read_field(path), refused unless it is one of kinds, then decimated
    to n_cells when that is given."""
    obj = read_field(path)
    if not isinstance(obj, kinds):
        names = " or ".join(kind.__name__.lower() for kind in kinds)
        article = "an" if names[0] in "aeiou" else "a"
        raise FieldFormatError(
            f"{path}: expected {article} {names} file, got {type(obj).__name__.lower()}"
        )
    if n_cells is not None:
        if isinstance(obj, Accelerant):
            obj = decimate_accelerant(obj, n_cells)
        else:
            obj = decimate_potential(obj, n_cells)
    return obj


def _parse_lambda(text: str) -> complex:
    try:
        return complex(text.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise FieldFormatError(f"cannot parse spectral parameter {text!r}")


def _parse_ladder(text: str) -> tuple:
    """The rungs of a --ladder value, ascending, checked by _check_ladder."""
    try:
        rungs = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise FieldFormatError(f"cannot parse ladder {text!r}")
    return _check_ladder(rungs)


def _write_csv_rows(out, rows: np.ndarray) -> None:
    """Write each row of a 2-D array as one CSV line of round-tripping .17g
    cells, formatting a whole row per % and writing once."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    out.write("".join([line % tuple(row) for row in rows.tolist()]))


def _emit_report(report) -> None:
    # RFC 8259 has no Infinity or NaN: a non-finite number prints as null,
    # and a finite one round-trips through float repr unchanged
    doc = json.loads(json.dumps(report.to_dict()), parse_constant=lambda name: None)
    print(json.dumps(doc, indent=2, allow_nan=False))


def cmd_theta(args) -> int:
    h = _load(args.in_path, (Accelerant,), args.n)
    margin, certificate, x, z = _gated_krein_rows(h)  # theta, with the gate's verdict
    q = _potential(h, x, z)
    write_field(args.out_path, q, meta=f"theta of {args.in_path}")
    if certificate is None:
        print(f"accelerant test: min margin {margin:.6f}")
    else:
        print(f"accelerant bound: min margin >= {margin:.6f} ({certificate}, not swept)")
    print(f"wrote potential (r={q.r}, N={q.grid.N}) to {args.out_path}")
    return 0


def cmd_upsilon(args) -> int:
    q = _load(args.in_path, (Potential,), args.n)
    h, report = upsilon(q)
    write_field(args.out_path, h, meta=f"upsilon of {args.in_path}")
    resolution = report["resolution"].residual
    print(f"resolution (step/2) rho(JQ): {resolution:.3e} (refused at 1)")
    print(f"wrote accelerant (r={h.r}, N={h.grid.N}) to {args.out_path}")
    return 0


def cmd_check_accelerant(args) -> int:
    h = _load(args.in_path, (Accelerant,), args.n)
    test = is_accelerant(h)
    if args.csv:
        print("alpha,sigma_min,sigma_max,margin")
        _write_csv_rows(
            sys.stdout,
            np.column_stack([test.alphas, test.sigma_min, test.sigma_max, test.margins]),
        )
    if not test.accepted:
        print(
            f"rejected: I + H_alpha singular near alpha = {test.worst_alpha:.6g}",
            file=sys.stderr,
        )
        return 2
    stream = sys.stderr if args.csv else sys.stdout
    print(f"accepted: min margin {float(test.margins.min()):.6f}", file=stream)
    return 0


def cmd_roundtrip(args) -> int:
    _check_tol(args.tol, "--tol")
    field = _load(args.in_path, (Accelerant, Potential))
    report = roundtrip_report(field, _parse_ladder(args.ladder), final_tol=args.tol)
    _emit_report(report)
    return 0 if report.passed else 2


def cmd_verify(args) -> int:
    field = _load(args.in_path, (Accelerant, Potential), args.n)
    if isinstance(field, Potential):
        report = _verify_potential(field)
    else:
        report = _verify_accelerant(field)
    _emit_report(report)
    if report.passed:
        return 0
    print("failed: " + ", ".join(report.failures()), file=sys.stderr)
    return 2


def cmd_solve_dirac(args) -> int:
    q = _load(args.in_path, (Potential,), args.n)
    lams = []
    for chunk in args.lambdas or ["0"]:
        lams.extend(_parse_lambda(part) for part in chunk.split(","))
    # solve everything first, so that a refused value leaves no output file
    solutions = [(lam, solve_cauchy(q, lam)) for lam in lams]
    try:
        out = open(args.out_path, "w") if args.out_path else sys.stdout
    except OSError as exc:
        raise FieldFormatError(f"cannot write {args.out_path}: {exc}")
    dim = 2 * q.r
    header = ["x"] + [
        f"y{a}{b}_{part}" for a in range(dim) for b in range(dim) for part in ("re", "im")
    ]
    try:
        for lam, y in solutions:
            out.write(f"# lambda = {lam.real:g}{lam.imag:+g}i\n")
            out.write(",".join(header) + "\n")
            # per node: x, then re and im of y[a, b] in row-major order
            parts = np.stack([y.real, y.imag], axis=-1).reshape(len(y), -1)
            _write_csv_rows(out, np.column_stack([q.grid.nodes, parts]))
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: every main call reuses it."""
    top = argparse.ArgumentParser(
        prog="kreinmap",
        description="Krein mapping between accelerants and Dirac potentials",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, out=False):
        p.add_argument("--in", dest="in_path", required=True, help="input field file")
        if out:
            p.add_argument("--out", dest="out_path", required=True, help="output field file")
        p.add_argument("--n", type=int, default=None, help="decimate to this grid (nested only)")

    p = sub.add_parser("theta", help="accelerant to potential")
    common(p, out=True)
    p.set_defaults(handler=cmd_theta)

    p = sub.add_parser("upsilon", help="potential to accelerant")
    common(p, out=True)
    p.set_defaults(handler=cmd_upsilon)

    p = sub.add_parser("check-accelerant", help="run the accelerant test")
    common(p)
    p.add_argument("--csv", action="store_true", help="emit per-alpha margins as CSV")
    p.set_defaults(handler=cmd_check_accelerant)

    p = sub.add_parser("roundtrip", help="composed-map self test over a grid ladder")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--ladder", default="50,100,200", help="comma-separated grid sizes")
    p.add_argument("--tol", type=float, default=5e-3, help="tolerance at the finest grid")
    p.set_defaults(handler=cmd_roundtrip)

    p = sub.add_parser("verify", help="identity suite and representation checks")
    common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("solve-dirac", help="integrate the Cauchy problem, CSV output")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--lambda", dest="lambdas", action="append", help="spectral value, e.g. 1+0.5i")
    p.set_defaults(handler=cmd_solve_dirac)
    return top


def run_guarded(run) -> int:
    """Call run() and map the package's errors onto the exit-code contract,
    each with a one-line message on stderr. Shared by main and the scripts
    under scripts/."""
    try:
        return run()
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return 3 if exc.code else 0
    except FieldFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except NotAccelerantError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SingularSystemError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    def run():
        args = _parser().parse_args(argv)
        return args.handler(args)

    return run_guarded(run)


if __name__ == "__main__":
    sys.exit(main())
