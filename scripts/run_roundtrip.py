"""Human-readable roundtrip convergence table for a field file.

The CLI's roundtrip command emits the JSON report; this prints the same
ladder as an error table with observed convergence orders, which is what
one actually stares at while changing a discretization.
"""

import argparse
import math

from kreinmap.cli import _parse_ladder, read_field, run_guarded
from kreinmap.dirac_verify import roundtrip_report


def _table(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--in", dest="in_path", required=True)
    ap.add_argument("--ladder", default="50,100,200")
    ap.add_argument("--tol", type=float, default=5e-3)
    args = ap.parse_args(argv)

    field = read_field(args.in_path)
    ladder = _parse_ladder(args.ladder)
    report = roundtrip_report(field, ladder=ladder, final_tol=args.tol)

    print(f"{'N':>6}  {'rel L1 error':>14}  {'order':>6}")
    prev = None
    for entry in report.entries:
        n = int(entry.name.rsplit("N", 1)[1])
        order = ""
        if prev is not None and entry.residual > 0:
            order = f"{math.log2(prev / entry.residual):6.2f}"
        print(f"{n:>6}  {entry.residual:>14.4e}  {order:>6}")
        prev = entry.residual
    print(f"finest tolerance {args.tol:g}: {'pass' if report.passed else 'FAIL'}")
    return 0 if report.passed else 2


def main(argv=None) -> int:
    return run_guarded(lambda: _table(argv))


if __name__ == "__main__":
    raise SystemExit(main())
