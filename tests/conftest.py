"""Test-session setup.

BLAS runs one thread unless the caller sets the thread count: this must
happen before numpy is first imported. On a 2-vCPU machine one thread costs
about 10% of a training step when the machine is idle, but a second OpenBLAS
thread spin-waits between the many small GEMMs, so with one other busy
process a step takes more than twice as long as with one thread.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
