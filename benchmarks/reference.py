"""A fixed CPU reference, timed on the same core all through every operation.

The host the benchmark was tuned on is shared. Other tenants slow its
cores by up to ~1.8 times, in phases lasting from a fraction of a second
to minutes, and the share of time a run spends in them drifts from
minute to minute. Two sets of runs of the same code, minutes apart, then
differ by 25 % or more in wall time, however long each run is. A fixed
pure-Python loop, timed on the same core just before, every
``SAMPLE_PERIOD_S`` during, and just after an operation, slows with the
operation. The operation's wall time divided by the median loop time is
in reference units ("ref"); it follows the program, not its neighbours.
"""

import os
import time

LOOP_ITERATIONS = 20_000  # 1 to 2 ms on one core of the 2-vCPU Xeon host
SAMPLE_PERIOD_S = 0.1  # the samples take ~1.5 % of the core


def pin() -> None:
    """Keep this process, and every process it spawns, on one CPU.

    The reference and the operation then share a core; the host slows
    its two vCPUs independently of each other.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def seconds() -> float:
    """Wall time of one run of the reference loop."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(LOOP_ITERATIONS):
        acc += i * 1.0000001
    return time.perf_counter() - start
