"""One set-up of a workload in a fresh process, for the ``setup_s`` metric.

Run as ``python3 perfbench/probe.py <workload>``; prints ``ready`` once the
first item could start.  The parent times from process start to that line.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.setup(sys.argv[1])
    print("ready", flush=True)
