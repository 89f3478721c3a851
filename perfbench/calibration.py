"""Host-speed calibration for the time metrics.

On a shared virtual machine the host can make every process run up to
twice as slow for tens of seconds at a time, which moves a run's median
far more than any bound a code change should be judged by.  A fixed pure-Python kernel, with
the same kind of work as bqual (tuple hashing, dict and frozenset
building, keyed sorting), is timed next to each measured interval, and the
interval is scaled by ``REFERENCE_S / kernel time`` (wall by the kernel's
wall time, CPU by its CPU time): the result is the interval in seconds of
a host running at the reference speed.  The raw times are printed beside
the scaled ones.

The kernel runs with the cyclic collector switched off, so that nothing the
code under test does to the collector (thresholds, freezing, the heap it
leaves behind) moves the divisor.
"""

from __future__ import annotations

import gc
import statistics
import time

# The median kernel time (collector off) measured on a 2-vCPU Xeon VM at
# 2.1 GHz under CPython 3.11.7, so that the scaled times read like the times
# that host gives.  It must stay fixed so that runs of different commits
# stay comparable.
REFERENCE_S = 0.0327
ROUNDS = 6
SAMPLES = 5


def kernel() -> tuple[float, float]:
    """Wall and process CPU seconds the calibration kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_kernel()
    finally:
        if enabled:
            gc.enable()


def _timed_kernel() -> tuple[float, float]:
    start, start_cpu = time.perf_counter(), time.process_time()
    total = 0
    # Small tables, rebuilt several times, so that the kernel adds nothing
    # to the peak RSS the benchmark reports.
    for round_ in range(ROUNDS):
        table: dict = {}
        for i in range(4_000):
            key = ((i + round_) % 1440, (i * 7) % 61, i & 3)
            table[key] = table.get(key, 0) + 1
        items = frozenset(table.items())
        ordered = sorted(items, key=lambda kv: (kv[0][2], kv[0][1], kv[0][0]))
        for (hour, minute, label), count in ordered:
            total += hour * minute + label * count
    if total < 0:
        raise AssertionError("unreachable: keeps the loop's result live")
    return time.perf_counter() - start, time.process_time() - start_cpu


def measure() -> tuple[float, float]:
    """The median wall and CPU seconds of several kernel runs, which is
    robust to a sub-second stall hitting one of them."""
    walls, cpus = zip(*(kernel() for _ in range(SAMPLES)))
    return statistics.median(walls), statistics.median(cpus)
