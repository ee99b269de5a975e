"""The benchmark reads vld's names, configs and config keys, and its tracer
patches vld functions by attribute name, so a rename or a removed key in
vld fails here, not only in a benchmark run."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def test_every_traced_layer_function_is_an_attribute_of_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # tracing.patched reads each target from its owner's own __dict__.
    missing = [(owner.__name__, attr)
               for owner, attr, _, _ in tracing.LAYER_FUNCTIONS
               if attr not in owner.__dict__]
    assert tracing.LAYER_FUNCTIONS and not missing, missing


def test_every_workload_runs_and_checks_out():
    """The shortest run of every workload, untraced: every result must
    verify."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seconds", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True,
        check=False)
    assert proc.returncode == 0, proc.stdout[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result


def test_traced_run_checks_out():
    """One traced run: the tracer's counter hooks read model attributes
    (``TemporalHub.active`` and ``.insertion_layer``, ``VisionEncoder.cfg``)
    that an untraced run never touches."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-step",
         "--seconds", "0", "--trace", "1"], cwd=ROOT, stdout=subprocess.PIPE,
        text=True, check=False)
    assert proc.returncode == 0, proc.stdout[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
