"""Test-suite setup: one BLAS thread.

The suite makes many small batched linear-algebra calls, and a second BLAS
thread per call only contends for the CPUs.  pytest and hypothesis do not
import numpy, so setting these before the test modules load takes effect.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
