"""Set-up probe: a fresh interpreter imports the package and builds a state.

Usage: python3 probe.py WORKLOAD SEED SIZE.  Prints "ready" once the state is
built; the parent times the span from starting this process to that line.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workload = WORKLOADS[name]
    workload.setup(workload.inputs(seed, size))
    print("ready", flush=True)
