"""Set-up probe: a fresh interpreter imports jkepler, builds the op list and
prints the monotonic clock (shared by all processes of the machine).

    python3 bench/probe.py <workload> <seed>
"""
import sys
import time

from run import cap_blas_threads, import_program

cap_blas_threads()
import_program()
from workloads import build_ops  # noqa: E402  (needs ./src on sys.path)

build_ops(sys.argv[1], int(sys.argv[2]))
print(time.monotonic())
