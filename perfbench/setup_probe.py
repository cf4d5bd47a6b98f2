"""Time one benchmark set-up in a fresh interpreter.

Run from the repository root:

    python3 perfbench/setup_probe.py <workload> <seed>

Imports manisqp from ./src, generates the workload's instances and builds
their problems, then prints the seconds that took and the median time of
the reference loop in ``speed.py`` right after.  Interpreter start-up is not
included; the import of numpy and scipy through manisqp is.
"""

import os
import statistics
import sys
import time

from speed import reference_s
from workloads import WORKLOADS, build_pool

if __name__ == "__main__":
    wl = WORKLOADS[sys.argv[1]]
    seed = int(sys.argv[2])
    sys.path.insert(0, os.path.abspath("src"))
    t0 = time.perf_counter()
    import manisqp

    build_pool(manisqp, wl, seed)
    setup_s = time.perf_counter() - t0
    ref_s = statistics.median(reference_s() for _ in range(25))
    print(repr(setup_s), repr(ref_s))
