"""The layer names the benchmark's trace mode wraps must exist in kreinmap.

perfbench/tracer.py looks each "module.name" of LAYERS up with a bare
getattr, so a renamed or deleted layer function breaks every traced run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_layer_is_a_kreinmap_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod, names in tracer.LAYERS.items():
        module = importlib.import_module(f"kreinmap.{mod}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{mod}.{name}"
