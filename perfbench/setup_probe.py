"""Times one set-up of a workload in a fresh interpreter: importing numpy and
specthresh and building the workload's inputs.  Prints the seconds taken.

    python3 perfbench/setup_probe.py ROOT WORKLOAD SIZE SEED WORKDIR
"""

import os
import sys
import time

import threads

if __name__ == "__main__":
    threads.pin()
    start = time.perf_counter()
    root, workload, size, seed, workdir = sys.argv[1:]
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    workloads.setup(workloads.WORKLOADS[workload][size], int(seed), workdir)
    print(repr(time.perf_counter() - start))
