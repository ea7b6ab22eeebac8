"""Machine-speed calibration for the benchmark's timings.

The benchmark's host is shared, and the speed a process gets drifts by tens
of percent from one process to the next.  Every child that runs operations
also times this fixed pure-Python loop every EVERY_S, and ``run.py`` reports
each time scaled by REFERENCE_S / (median loop time around it):
seconds at the speed the machine had when the benchmark was defined.  The
loop allocates almost nothing and shares no code with the program, so
neither a change to the program nor the size of its heap can move it.
"""

import time

# Median loop time on the machine that defined the benchmark (2 cores,
# Python 3.11.7); only ratios to it matter.
REFERENCE_S = 0.011
# How often a measuring child times the loop (~4 % of its time).
EVERY_S = 0.25


def calibrate() -> float:
    """Seconds one run of the fixed loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - start
