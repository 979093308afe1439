"""Command-line front end and the JSON field-file format.

Field files are JSON objects {kind, r, N, domain, data, meta} with complex
entries stored as [re, im] pairs; the decimal encoding round-trips binary
floats exactly. Exit codes are a stable contract: 0 success, 2 mathematical
rejection, 3 input or usage error, 1 internal; 4 is reserved (it meant a
convergence failure while an iterative solver remained).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import FieldFormatError, NotAccelerantError, SingularSystemError
from .factorization import is_accelerant, solve_glm
from .fields import (
    Accelerant,
    GridSpec,
    Kernel2D,
    Potential,
    decimate_accelerant,
    decimate_potential,
)
from .forward_map import _krein_potential, folded_kernel, folded_lower_factor, theta
from .inverse_map import upsilon
from .quadops import mixed_norm
from .dirac_verify import (
    check_fundamental_representation,
    check_krein_derivative_identity,
    identity_suite,
    roundtrip_report,
    solve_cauchy,
)

_DOMAINS = {"accelerant": "[-1,1]", "potential": "[0,1]", "kernel": "[0,1]^2"}


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
    """Serialize an accelerant, potential, or kernel to a field file."""
    if isinstance(obj, Accelerant):
        kind, r, n_cells = "accelerant", obj.r, obj.grid.N
        data = _encode(obj.values)
    elif isinstance(obj, Potential):
        kind, r, n_cells = "potential", obj.r, obj.grid.N
        data = _encode(np.stack([obj.q_plus, obj.q_minus]))
    elif isinstance(obj, Kernel2D):
        kind, r, n_cells = "kernel", obj.n, obj.grid.N
        data = _encode(obj.values)
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
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


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
    except json.JSONDecodeError as exc:
        raise FieldFormatError(f"{path} is not valid JSON: {exc}")
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
    if kind == "kernel":
        return Kernel2D(r, grid, "full", arr)
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


def _load(path: str, want, n_cells=None):
    obj = read_field(path)
    if not isinstance(obj, want):
        raise FieldFormatError(
            f"{path}: expected a {want.__name__.lower()} file, got {type(obj).__name__.lower()}"
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


def _parse_ladder(text: str):
    try:
        ladder = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise FieldFormatError(f"cannot parse ladder {text!r}")
    if not ladder:
        raise FieldFormatError("empty ladder")
    return ladder


def _emit_report(report) -> None:
    print(json.dumps(report.to_dict(), indent=2))


def cmd_theta(args) -> int:
    h = _load(args.in_path, Accelerant, args.n)
    test = is_accelerant(h)
    if not test.accepted:
        raise NotAccelerantError(test.worst_alpha, float(test.margins.min()))
    q = _krein_potential(h)  # theta without repeating the sweep just run
    write_field(args.out_path, q, meta=f"theta of {args.in_path}")
    print(f"accelerant test: min margin {float(test.margins.min()):.6f}")
    print(f"wrote potential (r={q.r}, N={q.grid.N}) to {args.out_path}")
    return 0


def cmd_upsilon(args) -> int:
    q = _load(args.in_path, Potential, args.n)
    h, report = upsilon(q)
    write_field(args.out_path, h, meta=f"upsilon of {args.in_path}")
    spread = report["extraction_spread"].residual
    print(f"extraction spread between trace and characteristic reads: {spread:.3e}")
    print(f"wrote accelerant (r={h.r}, N={h.grid.N}) to {args.out_path}")
    return 0


def cmd_check_accelerant(args) -> int:
    h = _load(args.in_path, Accelerant, args.n)
    test = is_accelerant(h)
    if args.csv:
        print("alpha,sigma_min,sigma_max,margin")
        for k in range(len(test.alphas)):
            print(
                f"{test.alphas[k]:.17g},{test.sigma_min[k]:.17g},"
                f"{test.sigma_max[k]:.17g},{test.margins[k]:.17g}"
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
    field = read_field(args.in_path)
    if not isinstance(field, (Accelerant, Potential)):
        raise FieldFormatError(f"{args.in_path}: roundtrip needs an accelerant or potential")
    report = roundtrip_report(field, _parse_ladder(args.ladder), final_tol=args.tol)
    _emit_report(report)
    return 0 if report.passed else 2


def cmd_verify(args) -> int:
    field = read_field(args.in_path)
    if isinstance(field, Potential):
        if args.n is not None:
            field = decimate_potential(field, args.n)
        report = identity_suite(field)
        rep2 = check_fundamental_representation(field)
        report.entries.extend(rep2.entries)
    elif isinstance(field, Accelerant):
        if args.n is not None:
            field = decimate_accelerant(field, args.n)
        q = theta(field)
        report = identity_suite(q)
        report.entries.extend(check_fundamental_representation(q).entries)
        report.entries.extend(check_krein_derivative_identity(field).entries)
        # dual-route factor check: the folded Krein factor against the
        # triangular factor recovered from the folded kernel itself
        lh = folded_lower_factor(field)
        glm = solve_glm(folded_kernel(field))
        diff = Kernel2D(lh.n, lh.grid, "lower", lh.values - glm.values)
        report.add("glm_consistency", mixed_norm(diff, 1.0), 5e-3)
    else:
        raise FieldFormatError(f"{args.in_path}: verify needs an accelerant or potential")
    _emit_report(report)
    if report.passed:
        return 0
    print("failed: " + ", ".join(report.failures()), file=sys.stderr)
    return 2


def cmd_solve_dirac(args) -> int:
    q = _load(args.in_path, Potential, args.n)
    lams = []
    for chunk in args.lambdas or ["0"]:
        lams.extend(_parse_lambda(part) for part in chunk.split(","))
    # solve everything first, so that a refused value leaves no output file
    solutions = [(lam, solve_cauchy(q, lam)) for lam in lams]
    out = open(args.out_path, "w") if args.out_path else sys.stdout
    try:
        for lam, y in solutions:
            out.write(f"# lambda = {lam.real:g}{lam.imag:+g}i\n")
            dim = 2 * q.r
            header = ["x"] + [
                f"y{a}{b}_{part}" for a in range(dim) for b in range(dim)
                for part in ("re", "im")
            ]
            out.write(",".join(header) + "\n")
            for k, x in enumerate(q.grid.nodes):
                cells = [f"{x:.17g}"]
                for a in range(dim):
                    for b in range(dim):
                        cells.append(f"{y[k, a, b].real:.17g}")
                        cells.append(f"{y[k, a, b].imag:.17g}")
                out.write(",".join(cells) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _parser() -> argparse.ArgumentParser:
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
