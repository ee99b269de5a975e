"""The benchmark's tracer patches vld functions by attribute name, so a
rename in vld fails here, not only in a traced benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_layer_function_is_an_attribute_of_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # tracing.patched reads each target from its owner's own __dict__.
    missing = [(owner.__name__, attr)
               for owner, attr, _, _ in tracing.LAYER_FUNCTIONS
               if attr not in owner.__dict__]
    assert tracing.LAYER_FUNCTIONS and not missing, missing
