"""Check that the benchmark's checks can fail, and that its tracer counts.

    python3 perfbench/selftest.py

Every correctness check is fed an output it must accept and deliberately
wrong outputs it must reject: a potential off by 1e-3, an accelerant or a
potential shifted by a constant, a wrong exit code, a misplaced worst alpha,
a perturbed singular value, a failing report entry, a flat ladder, a
rejected perturbation, an operation that raises and so leaves no output. Good outputs come from the program at small grids.
Exits 1 if any expectation fails.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import child  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import km  # noqa: E402

RESULTS = []


def expect(name: str, failures: list, should_fail: bool) -> None:
    ok = bool(failures) == should_fail
    RESULTS.append(ok)
    verdict = "rejects" if failures else "accepts"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: check {verdict}"
          + (f" ({failures[0]})" if failures and not should_fail else ""))


def test_closed_form_potential():
    n, c = 32, 0.7
    q = km.theta(wl.const_accelerant(c, n))
    expect("theta(const) closed form", checks.check_closed_form_potential(
        q.q_plus, q.q_minus, c, n), False)
    expect("theta(const) potential off by 1e-3", checks.check_closed_form_potential(
        q.q_plus + 1e-3, q.q_minus, c, n), True)
    expect("theta(const) for the wrong constant", checks.check_closed_form_potential(
        q.q_plus, q.q_minus, c + 1e-3, n), True)


def test_rejection_and_csv(tmp):
    n = 40
    h = wl.const_accelerant(wl.REJECTED_C, n)
    path = os.path.join(tmp, "reject.json")
    km.cli.write_field(path, h)
    code, _, err = wl.run_cli(["theta", "--in", path, "--out", os.path.join(tmp, "q.json")])
    star = 1.0 / abs(wl.REJECTED_C)
    expect("rejection exit 2 near 0.8", checks.check_rejection(code, err, n, star), False)
    expect("rejection with exit 0", checks.check_rejection(0, err, n, star), True)
    expect("rejection with exit 1", checks.check_rejection(1, err, n, star), True)
    expect("rejection two steps off", checks.check_rejection(
        code, err.replace("alpha = 0.8", "alpha = 0.85"), n, star), True)
    expect("rejection naming no alpha", checks.check_rejection(code, "rejected", n, star), True)

    code, out, _ = wl.run_cli(["check-accelerant", "--in", path, "--csv"])
    args = dict(h_values=h.values, n_cells=n, accept=False, alpha_star=star, probe_k=13)
    expect("csv of a rejected accelerant", checks.check_sweep_csv(code, out, **args), False)
    expect("csv with exit 0 for a rejection", checks.check_sweep_csv(0, out, **args), True)
    expect("csv claiming acceptance", checks.check_sweep_csv(
        code, out, **dict(args, accept=True, alpha_star=None)), True)

    (good,) = wl.smooth_accelerant(np.random.default_rng(5), 1, (n,), wl.ACCELERANT_SIZE)
    path = os.path.join(tmp, "good.json")
    km.cli.write_field(path, good)
    code, out, _ = wl.run_cli(["check-accelerant", "--in", path, "--csv"])
    args = dict(h_values=good.values, n_cells=n, accept=True, alpha_star=None, probe_k=13)
    expect("csv of an accelerant", checks.check_sweep_csv(code, out, **args), False)
    lines = out.splitlines()
    for row in (13, n):
        cells = lines[row].split(",")
        cells[1] = repr(float(cells[1]) * (1 + 1e-6))
        bad = "\n".join(lines[:row] + [",".join(cells)] + lines[row + 1:])
        expect(f"csv with sigma_min off by 1e-6 at row {row}",
               checks.check_sweep_csv(code, bad, **args), True)
    expect("csv missing a row", checks.check_sweep_csv(
        code, "\n".join(lines[:-1]), **args), True)
    expect("csv for a shifted accelerant", checks.check_sweep_csv(
        code, out, **dict(args, h_values=good.values + 0.01)), True)


def test_roundtrip():
    (h,) = wl.smooth_accelerant(np.random.default_rng(6), 1, (32,), wl.ACCELERANT_SIZE)
    back, _ = km.upsilon(km.theta(h))
    step = 1.0 / 64
    expect("upsilon(theta(h))", checks.check_roundtrip(back.values, h.values, step, "h"), False)
    expect("upsilon(theta(h)) shifted by 0.01", checks.check_roundtrip(
        back.values + 0.01, h.values, step, "h"), True)
    q = wl.smooth_potential(np.random.default_rng(7), 2, 32, wl.POTENTIAL_SIZE)
    h2, _ = km.upsilon(q)
    back = km.theta(h2)
    want = checks.potential_blocks(q.q_plus, q.q_minus)
    got = checks.potential_blocks(back.q_plus, back.q_minus)
    expect("theta(upsilon(q))", checks.check_roundtrip(got, want, 1.0 / 32, "q"), False)
    shifted = checks.potential_blocks(back.q_plus + 1e-2, back.q_minus)
    expect("theta(upsilon(q)) off by 1e-2", checks.check_roundtrip(
        shifted, want, 1.0 / 32, "q"), True)


def test_closed_form_accelerant():
    c, errors, shifted = 0.5, {}, {}
    for n in (16, 32):
        h, _ = km.upsilon(wl.closed_form_potential(c, n))
        errors[n] = float(np.max(np.abs(h.values - c)))
        shifted[n] = float(np.max(np.abs(h.values + 1e-3 - c)))
    expect("upsilon(closed form) ladder", checks.check_closed_form_accelerant(errors, c), False)
    expect("upsilon(closed form) shifted by 1e-3",
           checks.check_closed_form_accelerant(shifted, c), True)
    expect("upsilon(closed form) off by 1e-2 on one rung",
           checks.check_closed_form_accelerant({16: 1e-2}, c), True)


def test_reports():
    rep = km.DiagnosticReport()
    rep.add("a", 1e-4, 5e-3)
    rep.add("b", 0.0, 1e-8)
    rep.metadata["errors"] = [4e-3, 1e-3, 2.4e-4]
    expect("passing report", checks.check_report(rep, "r"), False)
    expect("ladder ratios >= 3", checks.check_ladder_ratios(rep, "r"), False)
    rep.metadata["errors"] = [4e-3, 1.5e-3, 2.4e-4]
    expect("ladder ratio 2.7", checks.check_ladder_ratios(rep, "r"), True)
    rep.add("c", 6e-3, 5e-3)
    expect("report entry over tolerance", checks.check_report(rep, "r"), True)
    nan = km.DiagnosticReport()
    nan.add("d", float("nan"), np.inf)
    expect("report entry NaN", checks.check_report(nan, "r"), True)
    expect("empty report", checks.check_report(km.DiagnosticReport(), "r"), True)
    probe = {"scales": [{"mean": 0.7, "skipped": 0}, {"mean": 0.72, "skipped": 0}]}
    expect("lipschitz band", checks.check_lipschitz(probe, "l"), False)
    probe["scales"][1]["skipped"] = 1
    expect("lipschitz with a rejected perturbation", checks.check_lipschitz(probe, "l"), True)
    probe["scales"][1] = {"mean": 1.1, "skipped": 0}
    expect("lipschitz band 1.57", checks.check_lipschitz(probe, "l"), True)


def test_digest():
    a = np.linspace(0, 1, 5)
    b = a.copy()
    b[2] = np.nextafter(b[2], 2.0)
    same = wl.digest({"x": a}) == wl.digest({"x": a.copy()})
    expect("digest of equal outputs", [] if same else ["differs"], False)
    changed = wl.digest({"x": a}) != wl.digest({"x": b})
    expect("digest of outputs one ulp apart", ["differs"] if changed else [], True)


def test_missing_output():
    def boom():
        raise ValueError("always")

    class Raising(wl.Workload):
        ops = [("fine", lambda: 1.0), ("boom", boom)]

        def check(self, outputs):
            return []

    result = child.measure(Raising(), 0.0, False)
    expect("an operation that raises in every pass", result["check_failures"], True)


def test_tracer():
    original = km.theta
    h = wl.const_accelerant(0.5, 16)
    with tracing.Tracer() as tracer:
        km.forward_map.theta(h)
        km.theta(h)
    spans = tracer.take()
    restored = km.theta is original and km.forward_map.theta is original
    counts = {}
    for name, *_ in spans:
        counts[name] = counts.get(name, 0) + 1
    want = {"forward_map.theta": 2, "factorization.is_accelerant": 2,
            "factorization.solve_krein": 4, "factorization.solve_glm": 4}
    expect("tracer counts and restores", [] if counts == want and restored
           else [f"{counts} restored={restored}"], False)
    own = tracing.self_times(spans)
    roots = sum(end - start for _, _, start, end, parent in spans if parent < 0)
    consistent = min(own) >= 0 and abs(sum(own) - roots) <= 1e-9
    expect("self times sum to root spans", [] if consistent else [f"{own}"], False)


def test_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    names = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    fails = []
    if names != tracing.per_layer_metric_names():
        fails.append("per_layer differs from tracer.per_layer_metric_names()")
    if [w["name"] for w in doc["workloads"]] != list(wl.WORKLOADS):
        fails.append("workloads differ from workloads.WORKLOADS")
    if [m["name"] for m in doc["end_to_end"]] != ["pass_s", "setup_s", "peak_rss_mb"]:
        fails.append("end_to_end metrics differ from run.py")
    expect("BENCHMARK.json matches the code", fails, False)


def main() -> int:
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        test_closed_form_potential()
        test_rejection_and_csv(tmp)
        test_roundtrip()
        test_closed_form_accelerant()
        test_reports()
        test_digest()
        test_missing_output()
        test_tracer()
        test_benchmark_json()
    failed = RESULTS.count(False)
    print(f"{len(RESULTS) - failed} of {len(RESULTS)} expectations met")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
