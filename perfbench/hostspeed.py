"""Host speed: a fixed loop that end-to-end timings are scaled by.

On a shared host the speed this process runs at drifts by tens of
percent over minutes, and every step of the program slows down in
proportion.  Timing the same fixed loop next to each timed step and
scaling the step by the host speed it gives yields the step's time on
a reference host, on which the loop takes ``CALIBRATION_REF_S``.
"""

from __future__ import annotations

import os
import time

#: The calibration loop's length, and its time on the reference host
#: that end-to-end timings are scaled to.
CALIBRATION_LOOPS = 20_000
CALIBRATION_REF_S = 0.003


def calibrate() -> float:
    """Fastest of three runs of a fixed interpreter loop, in seconds.

    The loop uses no code of the program, so its time measures only how
    fast the host runs this process right now.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        table = {}
        for i in range(CALIBRATION_LOOPS):
            total += i * i % 7
            table[i & 1023] = total
        best = min(best, time.perf_counter() - start)
    return best


def speed(all_cpus: bool = False, samples: int = 1) -> float:
    """The host's speed relative to the reference host (1.0 is as fast).

    Each CPU's speed drifts on its own.  A single-threaded step runs at
    the speed of the CPU it is on, so by default the loop runs where
    this process is.  A step that keeps every CPU busy, like a pool of
    one worker per CPU, runs at their mean speed: with ``all_cpus`` the
    loop runs pinned to each CPU in turn.  The result is the mean over
    ``samples`` runs of the loop on each CPU.
    """
    if not all_cpus or not hasattr(os, "sched_setaffinity"):
        return sum(CALIBRATION_REF_S / calibrate()
                   for _ in range(samples)) / samples
    cpus = os.sched_getaffinity(0)
    speeds = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            speeds.extend(CALIBRATION_REF_S / calibrate()
                          for _ in range(samples))
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(speeds) / len(speeds)


def scaled(wall_s: float, before: float, after: float) -> float:
    """``wall_s`` on the reference host, given the speeds around it."""
    return wall_s * (before + after) / 2
