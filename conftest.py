"""Test-session setup shared by tests/ and perfbench/tests.

The suite runs BLAS on one thread.  Its matrix products are small (rank at
most a few hundred), so extra threads gain nothing, and under contention for
a core they cost several times the single-threaded time.  BLAS reads these
variables once, when numpy loads, which is after this file; an explicit
setting in the environment still wins.  The library and the CLI leave the
thread count to the environment.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
