"""The three workloads: seeded inputs, the operation list of one pass, and
the checks on a pass's outputs.

Importing this module imports numpy, scipy and kreinmap; that import and
the input generation in a workload's constructor make up the set-up a CLI
user pays on every call. Program entry points are always looked up through
their module (km.upsilon, km.cli.main) so that the tracer's wrappers see
the calls.
"""

from __future__ import annotations

import contextlib
import io
import os

import numpy as np
import scipy  # noqa: F401  (part of the measured set-up)

import kreinmap as km
import kreinmap.cli  # noqa: F401

import checks

REJECTED_C = -1.25  # I + H_alpha is singular at alpha = 1/|c| = 0.8
# Sizes of the smooth inputs, as mean absolute values. The seed draws only
# their shapes: the Picard sweep count of the inverse map is bounded through
# the integral of |q|, and with these sizes it is the same for every seed.
ACCELERANT_SIZE = 0.18
POTENTIAL_SIZE = 0.42


def _nodes(n_cells: int) -> np.ndarray:
    return np.arange(n_cells + 1) / n_cells


def _accelerant_points(n_cells: int) -> np.ndarray:
    return -1.0 + np.arange(4 * n_cells + 1) / (2 * n_cells)


def const_accelerant(c: float, n_cells: int) -> "km.Accelerant":
    vals = np.full((4 * n_cells + 1, 1, 1), c, dtype=np.complex128)
    return km.Accelerant(1, km.GridSpec(n_cells), vals)


def closed_form_potential(c: float, n_cells: int) -> "km.Potential":
    """theta of the constant accelerant c: q+ = -ic/(1+cx), q- = ic/(1+cx)."""
    qp = (-1j * c / (1.0 + c * _nodes(n_cells)))[:, None, None]
    return km.Potential(1, km.GridSpec(n_cells), qp, -qp)


def linear_potential(n_cells: int) -> "km.Potential":
    """The demo potential of scripts/make_demo_fields.py."""
    qp = (0.3 * (1.0 + _nodes(n_cells))).astype(complex)[:, None, None]
    qm = np.full((n_cells + 1, 1, 1), 0.2, dtype=np.complex128)
    return km.Potential(1, km.GridSpec(n_cells), qp, qm)


def _smooth(rng, x: np.ndarray, r: int, terms: int = 3) -> np.ndarray:
    """Complex non-Hermitian r x r Fourier series with decaying coefficients."""
    coef = rng.standard_normal((terms, 2, r, r)) + 1j * rng.standard_normal((terms, 2, r, r))
    out = np.zeros((x.size, r, r), dtype=np.complex128)
    for k in range(terms):
        out += (coef[k, 0] * np.cos(np.pi * k * x)[:, None, None]
                + coef[k, 1] * np.sin(np.pi * k * x)[:, None, None]) / (1 + k)
    return out


def smooth_accelerant(rng, r: int, grids, size: float) -> list:
    """One smooth accelerant whose spectral norm has mean size over [-1, 1],
    sampled on each grid.

    Every truncated operator H_alpha has norm at most 2 * size, so size < 1/2
    keeps I + H_alpha invertible and well conditioned.
    """
    fine = max(grids)
    vals = _smooth(rng, _accelerant_points(fine), r)
    vals *= size / np.mean(np.linalg.norm(vals, 2, axis=(1, 2)))
    return [km.Accelerant(r, km.GridSpec(n), vals[:: fine // n].copy()) for n in grids]


def smooth_potential(rng, r: int, n_cells: int, size: float) -> "km.Potential":
    """One smooth potential whose entries have mean absolute value size."""
    x = _nodes(n_cells)
    qp, qm = _smooth(rng, x, r), _smooth(rng, x, r)
    scale = size / ((np.mean(np.abs(qp)) + np.mean(np.abs(qm))) / 2)
    return km.Potential(r, km.GridSpec(n_cells), qp * scale, qm * scale)


def digest(obj) -> object:
    """A comparable image of an output, exact to the last bit."""
    if isinstance(obj, np.ndarray):
        return (obj.shape, obj.tobytes())
    if isinstance(obj, km.Accelerant):
        return digest(obj.values)
    if isinstance(obj, km.Potential):
        return digest(obj.q_plus), digest(obj.q_minus)
    if isinstance(obj, km.DiagnosticReport):
        return repr(obj.to_dict())
    if isinstance(obj, (tuple, list)):
        return tuple(digest(v) for v in obj)
    if isinstance(obj, dict):
        return tuple((k, digest(v)) for k, v in sorted(obj.items()))
    return repr(obj)


class Workload:
    """ops is the fixed operation list of one pass: (label, callable)."""

    ops: list

    def after_pass(self, outputs: dict) -> dict:
        """Collect what an operation left outside its return value (untimed)."""
        return outputs

    def check(self, outputs: dict) -> list:
        raise NotImplementedError

    def close(self) -> None:
        pass


class Forward(Workload):
    """kreinmap.cli.main in-process: theta and check-accelerant --csv on field
    files written at set-up. No inverse layer runs inside a pass."""

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.inputs = {}
        c100, c200 = rng.uniform(-0.7, 2.0), rng.uniform(0.2, 4.0)
        r1 = smooth_accelerant(rng, 1, (100, 200), ACCELERANT_SIZE)
        (r2,) = smooth_accelerant(rng, 2, (50,), ACCELERANT_SIZE)
        self.consts = {"const100": c100, "const200": c200}
        fields = {
            "const100": const_accelerant(c100, 100),
            "const200": const_accelerant(c200, 200),
            "smooth1_100": r1[0],
            "smooth1_200": r1[1],
            "smooth2_50": r2,
            "reject100": const_accelerant(REJECTED_C, 100),
            "reject200": const_accelerant(REJECTED_C, 200),
        }
        for name, field in fields.items():
            path = os.path.join(workdir, f"{name}.json")
            km.cli.write_field(path, field, meta="benchmark input")
            self.inputs[name] = (field, path)
        self.probe_k = int(rng.integers(1, 200))
        self.ops = []
        for name in ("const100", "smooth1_100", "smooth2_50", "reject100",
                     "const200", "smooth1_200"):
            self.ops.append((f"theta:{name}", self._theta_op(name)))
        for name in ("smooth1_100", "reject100", "reject200"):
            self.ops.append((f"csv:{name}", self._csv_op(name)))

    def _out_path(self, name):
        return os.path.join(self.dir, f"q_{name}.json")

    def _theta_op(self, name):
        argv = ["theta", "--in", self.inputs[name][1], "--out", self._out_path(name)]
        return lambda: run_cli(argv)

    def _csv_op(self, name):
        argv = ["check-accelerant", "--in", self.inputs[name][1], "--csv"]
        return lambda: run_cli(argv)

    def after_pass(self, outputs):
        collected = {}
        for label, result in outputs.items():
            if label.startswith("theta:"):
                path = self._out_path(label.split(":", 1)[1])
                text = None
                if os.path.exists(path):
                    with open(path) as fh:
                        text = fh.read()
                    os.remove(path)
                result = result + (text,)
            collected[label] = result
        return collected

    def check(self, outputs):
        fails = []
        for label, result in outputs.items():
            kind, name = label.split(":", 1)
            field, _ = self.inputs[name]
            n = field.grid.N
            if kind == "csv":
                code, out, err = result
                reject = name.startswith("reject")
                fails += checks.check_sweep_csv(
                    code, out, field.values, n, accept=not reject,
                    alpha_star=1.0 / abs(REJECTED_C) if reject else None,
                    probe_k=max(1, self.probe_k * n // 200),
                )
                continue
            code, out, err, text = result
            if name.startswith("reject"):
                fails += checks.check_rejection(code, err, n, 1.0 / abs(REJECTED_C))
                if text is not None:
                    fails.append(f"{label}: wrote a potential for a rejected input")
                continue
            if code != 0 or text is None:
                fails.append(f"{label}: exit {code}, output written: {text is not None}")
                continue
            doc, data = checks.decode_field(text)
            if doc["kind"] != "potential" or data.shape != (2, n + 1, field.r, field.r):
                fails.append(f"{label}: output is not a potential on N={n}")
                continue
            if name.startswith("const"):
                fails += checks.check_closed_form_potential(
                    data[0], data[1], self.consts[name], n)
            else:
                q = km.Potential(field.r, field.grid, data[0], data[1])
                back, _ = km.upsilon(q)
                fails += checks.check_roundtrip(
                    back.values, field.values, 1.0 / (2 * n), f"upsilon(theta({name}))"
                )
        return fails

    def close(self):
        for _, path in self.inputs.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        with contextlib.suppress(OSError):
            os.rmdir(self.dir)


def run_cli(argv):
    """kreinmap.cli.main with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = km.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Inverse(Workload):
    """Library upsilon on two rungs. No sweep or Krein solve runs in a pass."""

    GRIDS = (50, 100)
    LADDER_CS = (-0.8, 5.0)  # the ends of the range, on both rungs

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        # The Picard sweep count grows with |c|; at N = 50 it is the same for
        # every c in this band, so the work per pass is the same for every seed.
        self.c_mid = float(rng.uniform(1.3, 1.9))
        self.inputs = {}
        for n in self.GRIDS:
            for c in self.LADDER_CS:
                self.inputs[f"const{c:g}_{n}"] = closed_form_potential(c, n)
        self.inputs["const_mid_50"] = closed_form_potential(self.c_mid, 50)
        self.inputs["linear_50"] = linear_potential(50)
        self.inputs["smooth2_50"] = smooth_potential(rng, 2, 50, POTENTIAL_SIZE)
        self.ops = [(f"upsilon:{name}", self._op(q)) for name, q in self.inputs.items()]

    @staticmethod
    def _op(q):
        return lambda: km.upsilon(q)

    @staticmethod
    def _const_error(output, c):
        h, _ = output
        return float(np.max(np.abs(h.values - c)))

    def check(self, outputs):
        fails = []
        for c in self.LADDER_CS:
            errors = {n: self._const_error(outputs[f"upsilon:const{c:g}_{n}"], c)
                      for n in self.GRIDS}
            fails += checks.check_closed_form_accelerant(errors, c)
        mid = {50: self._const_error(outputs["upsilon:const_mid_50"], self.c_mid)}
        fails += checks.check_closed_form_accelerant(mid, self.c_mid)
        for name in ("linear_50", "smooth2_50"):
            q = self.inputs[name]
            h, report = outputs[f"upsilon:{name}"]
            back = km.theta(h)
            fails += checks.check_roundtrip(
                checks.potential_blocks(back.q_plus, back.q_minus),
                checks.potential_blocks(q.q_plus, q.q_minus),
                q.grid.step, f"theta(upsilon({name}))",
            )
            fails += checks.check_report(report, f"upsilon({name})")
        return fails


class Verify(Workload):
    """The verification drivers as library calls, on small grids."""

    LADDER = (16, 32, 64)

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        (self.h64,) = smooth_accelerant(rng, 1, (64,), ACCELERANT_SIZE)
        (self.h32,) = smooth_accelerant(rng, 1, (32,), ACCELERANT_SIZE)
        self.q64 = smooth_potential(rng, 1, 64, POTENTIAL_SIZE)
        self.q_suite = smooth_potential(rng, 1, 64, POTENTIAL_SIZE)
        self.lip_seed = int(rng.integers(0, 2**31))
        self.ops = [
            ("roundtrip:accelerant", lambda: km.roundtrip_report(self.h64, self.LADDER)),
            ("roundtrip:potential", lambda: km.roundtrip_report(self.q64, self.LADDER)),
            ("identity_suite", lambda: km.identity_suite(self.q_suite)),
            ("representation", lambda: km.check_fundamental_representation(self.q_suite)),
            ("krein_derivative", lambda: km.check_krein_derivative_identity(self.h64)),
            ("lipschitz:theta", lambda: km.lipschitz_probe(
                "theta", self.h32, trials=2, seed=self.lip_seed)),
        ]

    def check(self, outputs):
        fails = []
        for label, result in outputs.items():
            if label == "lipschitz:theta":
                fails += checks.check_lipschitz(result, label)
                continue
            fails += checks.check_report(result, label)
            if label.startswith("roundtrip:"):
                fails += checks.check_ladder_ratios(result, label)
        return fails


WORKLOADS = {"forward": Forward, "inverse": Inverse, "verify": Verify}
