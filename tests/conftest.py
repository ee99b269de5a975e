"""Pin BLAS to one thread for the whole suite.

OpenBLAS reads these variables once, when numpy first loads it, and
pytest imports this file before any test module imports numpy. The CLI
pins the same way when it starts; ``import vld`` changes nothing.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
