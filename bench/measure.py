"""Arithmetic behind the reported figures: percentiles, ratios, and the
reference loop that converts CPU time to a fixed CPU speed."""

from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

# CPU seconds the reference loop takes at reference speed: its median on the
# 2-core VM where the figures in README.md were taken.  Only a unit: every
# time is reported as (CPU time) * REFERENCE_LOOP_S / (the loop's CPU time
# measured next to it).
REFERENCE_LOOP_S = 0.0027


def reference_loop() -> Fraction:
    """A fixed piece of the work lipcert does most: Fraction arithmetic on
    growing integers."""
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    return total


def time_reference_loop(clock=time.process_time) -> float:
    """CPU time of one reference loop, with the cyclic collector off so that
    garbage left by the program does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        reference_loop()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(elapsed: float, *loop_times: float) -> float:
    """``elapsed`` CPU seconds converted to reference speed, by the mean of
    the reference loop's times measured around them.

    Other guests on a shared host slow the program's own instructions, not
    only its wall time: on the 2-core VM the reference loop's CPU time moved
    between 1.6 and 2.7 ms from one second to the next.  The loop slows with
    the program, so the ratio keeps only the program's own change.
    """
    return elapsed * REFERENCE_LOOP_S / (sum(loop_times) / len(loop_times))


def percentile(values, q: float) -> float:
    """The q-th percentile (0 <= q <= 100) by linear interpolation between
    the closest ranks: rank (n - 1) * q / 100 of the sorted sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the q-th percentile rank."""
    return n - 1 - math.floor((n - 1) * q / 100)


def ratio(part: float, base: float) -> float:
    """part / base, with 0 for an empty base (nothing attempted)."""
    return part / base if base else 0.0


def timing_summary(op_seconds) -> dict[str, float]:
    """End-to-end figures of one run from its per-operation times.

    ``ops_per_s`` is operations per second of program time: its base is the
    sum of the timed calls' CPU times, so the benchmark's own checks between
    calls do not count.
    """
    return {
        "ops_per_s": ratio(len(op_seconds), sum(op_seconds)),
        "op_p50_ms": percentile(op_seconds, 50) * 1e3,
        "op_p90_ms": percentile(op_seconds, 90) * 1e3,
    }


class ReferenceClock:
    """CPU time at reference speed over a stretch of work too long for one
    pair of reference loops: each ``lap`` converts the time since the last
    one by the loops timed at both ends."""

    def __init__(self, clock=time.process_time, loop_timer=time_reference_loop):
        self.clock = clock
        self.loop_timer = loop_timer
        self.total = 0.0
        self.loop = loop_timer()
        self.start = clock()

    def lap(self):
        elapsed = self.clock() - self.start
        loop = self.loop_timer()
        self.total += at_reference_speed(elapsed, self.loop, loop)
        self.loop = loop
        self.start = self.clock()
