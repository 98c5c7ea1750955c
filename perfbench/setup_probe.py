"""Time-to-ready probe for ``setup_s``; started in a fresh interpreter by run.py.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Imports ``bafobs`` through the workload module, builds the workload's plan or
config, and prints the system-wide monotonic clock at that moment.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports bafobs)

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(sys.argv[3]))
print(time.clock_gettime(time.CLOCK_MONOTONIC))
