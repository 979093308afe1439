"""One-off reference timings of kreinmap's layers, as in ROADMAP's baseline.

    python3 perfbench/reference.py

Times single calls of each layer on the Gaussian accelerant 0.3 exp(-u^2)
(r = 1, N = 100, 200, 400) and on a 2 x 2 version of it (r = 2, N = 200),
in a fresh process with BLAS pinned to one thread, and prints a Markdown
table of medians over REPEAT = 3 calls (one call at N = 400). This is not
part of the gated benchmark; it regenerates the reference table in the
README. It takes a few minutes.
"""

import os
import sys

from run import PINNED

os.environ.update(PINNED)
os.environ.pop("KREINMAP_THREADS", None)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import kreinmap as km  # noqa: E402

# Each row times one call on prepared inputs: h, q = theta(h), k = K_q.
ROWS = (
    ("is_accelerant", lambda h, q, k: km.is_accelerant(h)),
    ("solve_krein", lambda h, q, k: km.solve_krein(h)),
    ("theta", lambda h, q, k: km.theta(h)),
    ("transmutation_kernel", lambda h, q, k: km.transmutation_kernel(q)),
    ("resolvent_volterra", lambda h, q, k: km.resolvent_volterra(k)),
    ("upsilon", lambda h, q, k: km.upsilon(q)),
    ("identity_suite", lambda h, q, k: km.identity_suite(q)),
)
COLUMNS = ((1, 100), (1, 200), (1, 400), (2, 200))
SKIP = {("identity_suite", 1, 400), ("identity_suite", 2, 200)}  # a minute or more
REPEAT = 3


def gaussian(r: int, n: int) -> "km.Accelerant":
    u = -1.0 + np.arange(4 * n + 1) / (2 * n)
    base = (0.3 * np.exp(-(u**2))).astype(complex)
    mix = np.array([[1.0, 0.2], [-0.1, 0.8]])[:r, :r]
    return km.Accelerant(r, km.GridSpec(n), base[:, None, None] * mix)


def main() -> int:
    table = {}
    for r, n in COLUMNS:
        h = gaussian(r, n)
        q = km.theta(h)
        k = km.transmutation_kernel(q)
        for name, fn in ROWS:
            if (name, r, n) in SKIP:
                continue
            times = []
            for _ in range(1 if n >= 400 else REPEAT):
                start = time.perf_counter()
                fn(h, q, k)
                times.append(time.perf_counter() - start)
            table[name, r, n] = statistics.median(times)
    header = " | ".join(f"r={r}, N={n}" for r, n in COLUMNS)
    print(f"| layer | {header} |")
    print("| --- |" + " ---: |" * len(COLUMNS))
    for name, _ in ROWS:
        cells = [f"{table[name, r, n]:.3g}" if (name, r, n) in table else "—"
                 for r, n in COLUMNS]
        print(f"| `{name}` | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
