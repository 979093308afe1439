"""One workload in one fresh process; started by run.py.

The clock starts before numpy is imported, so set-up time covers the imports
of numpy, scipy and kreinmap plus input generation. Then the workload's
operation list runs in whole passes, closed loop, until the run length is
reached. A calibration block runs before every operation, and before and
after set-up, and each time is scaled by the blocks beside it to the
reference speed CAL_REF_S. The first pass's outputs are checked; every later
pass must reproduce them bit for bit. Prints one JSON object.
"""

import time

# One calibration block: fixed interpreter work of about 40 ms.
CAL_LOOPS = 400_000
# The block's time at the reference speed. Every reported time is scaled to
# this speed: seconds times CAL_REF_S over the block's time measured beside it.
CAL_REF_S = 0.040


def calibrate(blocks: int = 1) -> float:
    """Mean seconds of a fixed block of pure-Python work.

    The shared host's speed drifts by up to 1.6x over seconds to minutes,
    and it slows the program and this block alike. Dividing a time by the
    block's time taken beside it cancels the drift. The block is plain
    interpreter work, so nothing the program can change (BLAS threads,
    numpy settings, memory use) moves it.
    """
    start = time.perf_counter()
    for _ in range(blocks):
        total = 0
        for i in range(CAL_LOOPS):
            total += i * i
    return (time.perf_counter() - start) / blocks


SETUP_CAL_BLOCKS = 2
_CAL0 = calibrate(SETUP_CAL_BLOCKS)
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def machine_info() -> dict:
    import numpy as np
    import scipy

    from run import PINNED

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in PINNED},
    }


def run_pass(workload):
    """Run the operation list once, a calibration block before each operation.

    Returns (outputs, seconds, speed, op errors); speed is the mean block
    time over CAL_REF_S, so seconds / speed is the pass at reference speed.
    """
    outputs, errors, elapsed, cal = {}, [], 0.0, 0.0
    for label, op in workload.ops:
        cal += calibrate()
        start = time.perf_counter()
        try:
            outputs[label] = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
        elapsed += time.perf_counter() - start
    return outputs, elapsed, cal / len(workload.ops) / CAL_REF_S, errors


def measure(workload, seconds: float, trace: bool) -> dict:
    import tracer as tracing
    from workloads import digest

    tracer = tracing.Tracer() if trace else None
    untraced, traced, span_passes, raw, speeds = [], [], [], [], []
    first = reference = None
    op_errors, mismatches = [], []
    passes = 0
    start = time.perf_counter()
    while True:
        traced_pass = trace and passes % 2 == 1
        if traced_pass:
            with tracer:
                outputs, elapsed, speed, errors = run_pass(workload)
            span_passes.append(tracer.take())
            traced.append(elapsed / speed)
        else:
            outputs, elapsed, speed, errors = run_pass(workload)
            untraced.append(elapsed / speed)
        raw.append(elapsed)
        speeds.append(speed)
        passes += 1
        op_errors += errors
        outputs = workload.after_pass(outputs)
        if first is None:
            first, reference = outputs, digest(outputs)
        elif digest(outputs) != reference:
            mismatches += [
                f"{label}: output differs from the first pass"
                for label in outputs
                if label not in first or digest(outputs[label]) != digest(first[label])
            ]
        if passes >= (2 if trace else 1) and time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # an operation that raised in the first pass has no output to check
    failures = [f"{label}: no output to check" for label, _ in workload.ops
                if label not in first]
    try:
        failures += workload.check(first)
    except Exception as exc:
        failures.append(f"check raised {type(exc).__name__}: {exc}")
    result = {
        "passes": passes,
        "attempted": passes * len(workload.ops),
        "failed": len(op_errors),
        "op_errors": op_errors[:20],
        "check_failures": failures + mismatches[:20],
        "pass_s_all": untraced,
        "pass_s": statistics.median(untraced),
        "pass_wall_s_all": raw,
        "speed_all": speeds,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        result["per_layer"] = tracing.summarize(span_passes, traced, untraced)
        result["traced_pass_s_all"] = traced
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_wall_s = time.perf_counter() - _T0
    speed = (_CAL0 + calibrate(SETUP_CAL_BLOCKS)) / 2 / CAL_REF_S
    try:
        out = {"setup_s": setup_wall_s / speed, "setup_wall_s": setup_wall_s}
        if not args.setup_only:
            out.update(measure(workload, args.seconds, bool(args.trace)))
            out["machine"] = machine_info()
    finally:
        workload.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
