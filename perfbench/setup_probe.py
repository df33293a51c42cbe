"""Time one fresh-process set-up of a workload and print it in seconds.

Usage: python3 perfbench/setup_probe.py WORKLOAD  (with src/ on PYTHONPATH)

The clock starts before beamsweep (and with it numpy and scipy) is
imported and stops once the workload's fixed inputs are built.
"""
import sys
import time

start = time.perf_counter()
import workloads  # noqa: E402  (the import is what is being timed)

workloads.WORKLOADS[sys.argv[1]]().setup()
print(repr(time.perf_counter() - start))
