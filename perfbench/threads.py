"""Thread budget of the benchmark: one BLAS/OpenMP thread per process.

Every entry point calls `pin()` before numpy is imported, so that threads
never exceed the workload's worker processes, which never exceed the CPUs.
"""

import os

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin() -> dict:
    """Set every thread variable to 1; returns the settings now in force."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: os.environ[var] for var in THREAD_VARS}
