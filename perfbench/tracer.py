"""Spans around the calls into kreinmap's layers, recorded from outside.

While a Tracer is entered, each listed public function is replaced by a
timing wrapper at every module binding that holds it (is_accelerant, for
one, is looked up in factorization, forward_map, cli, dirac_verify and the
package namespace), so calls are caught whichever module makes them. Spans
are kept in memory as (name, size, start, end, parent) and self time is the
span's duration minus the durations of its direct children. Leaving the
Tracer restores every binding, so untraced passes run the original code.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
from time import perf_counter

LAYERS = {
    "factorization": ("is_accelerant", "solve_krein", "solve_glm"),
    "forward_map": ("theta", "block_krein_kernel"),
    "inverse_map": (
        "transformation_kernels",
        "transmutation_kernel",
        "resolvent_volterra",
        "resolvent_product_parts",
        "assemble_product",
        "characteristic_extract",
        "trace_extract",
        "upsilon",
    ),
    "quadops": ("op_from_kernel", "compose", "adjoint_op"),
    "dirac_verify": (
        "identity_suite",
        "apply_wave_operator",
        "check_fundamental_representation",
        "solve_cauchy",
        "check_krein_derivative_identity",
        "roundtrip_report",
        "lipschitz_probe",
    ),
    "cli": ("main", "read_field", "write_field"),
}

# Layers whose cost grows with the grid: they also get a scaling exponent.
SCALED = (
    "factorization.is_accelerant",
    "factorization.solve_glm",
    "inverse_map.transformation_kernels",
    "inverse_map.transmutation_kernel",
    "inverse_map.resolvent_volterra",
    "quadops.compose",
)

LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def per_layer_metric_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer in LAYER_NAMES:
        out.append((f"{layer}.calls", "count"))
        out.append((f"{layer}.self_s", "s"))
    out.extend((f"{layer}.scaling", "exponent") for layer in SCALED)
    out.extend([("trace.pass_s", "s"), ("trace.overhead_s", "s")])
    return out


def _size_key(args, kwargs):
    """(block size, N) of the first argument that lives on a grid."""
    for arg in list(args) + list(kwargs.values()):
        grid = getattr(arg, "grid", None)
        if grid is not None:
            block = getattr(arg, "r", None) or getattr(arg, "n", None)
            return (block, grid.N)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, _size_key(args, kwargs), perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][3] = perf_counter()
                stack.pop()

        return traced

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "kreinmap" or key.startswith("kreinmap.")]
        for layer in LAYER_NAMES:
            mod, fn = layer.rsplit(".", 1)
            original = getattr(sys.modules[f"kreinmap.{mod}"], fn)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's durations."""
    child = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[k] for k, (_, _, start, end, _) in enumerate(spans)]


def summarize(passes, traced_pass_s, untraced_pass_s) -> dict:
    """Per-layer metrics from the span lists of the traced passes.

    calls is the count per pass (every pass runs the same operations, so it
    must be the same in each; a mismatch raises). self_s is the median over
    passes of the layer's self time per pass. scaling is the exponent p in
    self-time-per-call ~ N^p between the smallest and largest grid the layer
    saw, for the block size it was called with most; 0 when it saw one grid.
    """
    calls = {}
    selfs = {layer: [] for layer in LAYER_NAMES}
    by_size = {}
    for spans in passes:
        counts = dict.fromkeys(LAYER_NAMES, 0)
        totals = dict.fromkeys(LAYER_NAMES, 0.0)
        for (name, key, *_), own in zip(spans, self_times(spans)):
            counts[name] += 1
            totals[name] += own
            cell = by_size.setdefault(name, {}).setdefault(key, [0, 0.0])
            cell[0] += 1
            cell[1] += own
        if calls and counts != calls:
            raise RuntimeError(f"call counts differ between passes: {calls} vs {counts}")
        calls = counts
        for layer in LAYER_NAMES:
            selfs[layer].append(totals[layer])
    metrics = {}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_s"] = statistics.median(selfs[layer])
    for layer in SCALED:
        metrics[f"{layer}.scaling"] = _scaling(by_size.get(layer, {}))
    metrics["trace.pass_s"] = statistics.median(traced_pass_s)
    metrics["trace.overhead_s"] = statistics.median(traced_pass_s) - statistics.median(
        untraced_pass_s
    )
    return metrics


def _scaling(cells: dict) -> float:
    per_block = {}
    for key, (count, total) in cells.items():
        if key is not None:
            per_block.setdefault(key[0], []).append((key[1], count, total))
    if not per_block:
        return 0.0
    sizes = max(per_block.values(), key=lambda v: (len(v) > 1, sum(c for _, c, _ in v)))
    if len(sizes) < 2:
        return 0.0
    sizes.sort()
    (n_lo, c_lo, t_lo), (n_hi, c_hi, t_hi) = sizes[0], sizes[-1]
    if t_lo <= 0 or t_hi <= 0:
        return 0.0
    return math.log((t_hi / c_hi) / (t_lo / c_lo)) / math.log(n_hi / n_lo)
