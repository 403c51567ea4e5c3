"""A yardstick for the host's speed, measured next to every timing.

On a shared host the speed one process sees drifts by a quarter within
minutes, so raw seconds from runs minutes apart do not compare.  The worker
times ``calibrate`` between operations; an operation's time divided by the
calibration time around it hardly drifts.  Multiplied by ``REFERENCE_NS``,
the calibration time on the host where the benchmark was defined, it reads
as seconds at that host's speed: the benchmark's timing metrics are in these
units.
"""

from __future__ import annotations

import time

# Median calibration time on a 2-core x86-64 VM (Intel Xeon, 2.1 GHz) with
# Python 3.11.7.
REFERENCE_NS = 3_300_000

# How much operation time may pass between two calibrations.
EVERY_NS = 50_000_000

_DATA = tuple((i * 7919) % 1009 for i in range(2000))


def calibrate() -> int:
    """Nanoseconds taken by a fixed piece of pure-Python work."""
    start = time.perf_counter_ns()
    for _ in range(12):
        counts: dict = {}
        for x in sorted(_DATA):
            counts[x] = counts.get(x, 0) + 1
        tuple(x for x in _DATA if x < 500)
    return time.perf_counter_ns() - start


def at_reference_speed(ns: float, calibration_ns: float) -> float:
    """A measured duration scaled to the reference host's speed."""
    return ns * REFERENCE_NS / calibration_ns
