"""Identity-suite residuals across a doubling ladder, with observed orders.

Accepts a potential file directly or an accelerant file (mapped through
theta first). Residuals that sit at machine noise on every grid print
without an order; they are exact by construction.
"""

import argparse
import math

from kreinmap import (
    Accelerant,
    decimate_accelerant,
    decimate_potential,
    identity_suite,
    theta,
)
from kreinmap.cli import _parse_ladder, read_field, run_guarded


def _table(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--in", dest="in_path", required=True)
    ap.add_argument("--ladder", default="50,100,200")
    args = ap.parse_args(argv)

    field = read_field(args.in_path)
    ladder = _parse_ladder(args.ladder)

    per_n = {}
    for n in ladder:
        if isinstance(field, Accelerant):
            q = theta(decimate_accelerant(field, n))
        else:
            q = decimate_potential(field, n)
        per_n[n] = {e.name: e.residual for e in identity_suite(q).entries}

    names = list(per_n[ladder[0]])
    header = "".join(f"  {'N=' + str(n):>12}" for n in ladder)
    print(f"{'residual':<16}{header}  {'order':>6}")
    for name in names:
        row = [per_n[n][name] for n in ladder]
        cells = "".join(f"  {v:>12.4e}" for v in row)
        order = ""
        if len(row) > 1 and row[-1] > 1e-13 and row[-2] > 0:
            order = f"{math.log2(row[-2] / row[-1]):6.2f}"
        print(f"{name:<16}{cells}  {order:>6}")
    return 0


def main(argv=None) -> int:
    return run_guarded(lambda: _table(argv))


if __name__ == "__main__":
    raise SystemExit(main())
