"""Process set-up: one BLAS thread in the suite and the CLI, an
``import vld`` that loads no numpy and leaves the environment alone, and
a data layer that loads no tensor core."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
PIN = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def openblas_threads():
    """Threads OpenBLAS reports, read from numpy's bundled library; None
    when numpy does not bundle OpenBLAS."""
    import ctypes
    import numpy as np
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_",
                     None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            return fn()
    return None


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with no BLAS variable set."""
    env = {k: v for k, v in os.environ.items() if k not in PIN}
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(TESTS)))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_suite_runs_one_blas_thread():
    threads = openblas_threads()
    if threads is None:
        pytest.skip("numpy does not bundle OpenBLAS")
    assert threads == 1


def test_cli_pins_one_blas_thread_before_numpy_loads():
    out = run_python("import vld.cli\n"
                     "from test_environment import openblas_threads\n"
                     "print(openblas_threads())\n")
    if out == "None":
        pytest.skip("numpy does not bundle OpenBLAS")
    assert out == "1"


def test_import_vld_loads_no_numpy_and_keeps_the_environment():
    out = run_python("import os, sys\n"
                     "before = dict(os.environ)\n"
                     "import vld\n"
                     "print('numpy' in sys.modules, dict(os.environ) == before)\n")
    assert out == "False True"


def test_import_vld_data_leaves_the_tensor_core_unloaded():
    """The data layer hands over stored uint8 frames; only the model
    decodes them, so loading data needs no tensor core or dtype."""
    out = run_python("import sys\n"
                     "import vld.data\n"
                     "print('vld.tensor' in sys.modules)\n")
    assert out == "False"
