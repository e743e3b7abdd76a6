"""Full-stack benchmark of the Chameleon reproduction (see README.md)."""

import os

# One BLAS thread, set before numpy loads: the benchmark drives the stack
# from one client thread, and idle OpenBLAS workers spinning on the second
# core of a small host slowed builds and the speed probe unevenly.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
