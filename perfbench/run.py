"""kreinmap benchmark: forward, inverse and verify workloads.

    python3 perfbench/run.py --workload forward --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Every workload runs in fresh child
processes with BLAS pinned to one thread before numpy loads: one process
measures passes over the workload's operation list for --seconds, and
SETUP_RUNS more only set up, half of them before it and half after, so
that setup_s is a median over the whole run. Times are scaled to a
reference machine speed by a calibration block timed beside them (see
child.calibrate); the wall times are kept in the record. With --trace 0
the last line of output is the end-to-end result; with --trace 1 it is the
per-layer result of a traced run. Details of each run, with the machine it
ran on, go to perfbench/out/BENCH_<workload>_seed<seed>_trace<t>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import per_layer_metric_names

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("forward", "inverse", "verify")
SETUP_RUNS = 9
DEADLINE_S = 170.0
# The BLAS thread variables, set before numpy loads; child.py records them
# and reference.py applies them.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    # kreinmap's own cap would overwrite the pinned values if it were set
    env.pop("KREINMAP_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, extra, deadline) -> dict:
    workdir = os.path.join(OUT, f"tmp-{args.workload}-{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", workdir] + extra
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before starting a child process")
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "kreinmap", "__init__.py")):
        print(f"no kreinmap sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    setup_only = 0 if args.trace else SETUP_RUNS
    try:
        setups = [run_child(args, ["--setup-only"], deadline)
                  for _ in range(setup_only // 2)]
        main_run = run_child(
            args, ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
        )
        setups.append(main_run)
        setups += [run_child(args, ["--setup-only"], deadline)
                   for _ in range(setup_only - setup_only // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": main_run["per_layer"][name], "unit": unit}
                   for name, unit in per_layer_metric_names()}
    else:
        metrics = {
            "pass_s": {"value": main_run["pass_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": not main_run["check_failures"],
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }
    record = dict(main_run, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  setup_s_all=[s["setup_s"] for s in setups],
                  setup_wall_s_all=[s["setup_wall_s"] for s in setups],
                  result=result)
    path = os.path.join(OUT, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    for line in main_run["check_failures"] + main_run["op_errors"]:
        print(f"# {line}")
    print(f"# machine {json.dumps(main_run['machine'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
