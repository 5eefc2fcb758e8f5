"""Print the set-up time of a fresh interpreter, in seconds: importing the
tswrom modules plus building the grid, difference operators, physics and
initial state of a workload's config.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

import run

if __name__ == "__main__":
    import_s = run.load_tswrom()
    import workloads

    cfg = workloads.make_config(sys.argv[1], int(sys.argv[2]))
    t0 = time.perf_counter()
    workloads.build(cfg)
    print(import_s + time.perf_counter() - t0)
