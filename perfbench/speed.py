"""Correct timings for the host's drifting speed.

On a shared host the speed of one CPU drifts by up to 2x within seconds,
and the drift, not the program, dominates the spread between runs.  The
benchmark therefore pins itself and every process it starts to one CPU
and samples a fixed pure-Python reference kernel on that CPU: just before
and just after every timed operation, and every ``SAMPLE_EVERY_S`` while a
child process runs.  An operation's wall time is scaled by
``NOMINAL_S / mean kernel time`` over its samples, so a reported time is
the wall time the operation would take on a host where the kernel takes
``NOMINAL_S``.  The kernel does the kind of work pgblrc does (big-int
masks, popcounts, frozenset intersections, dicts), so both slow down
together.  Measured on 2 vCPUs of a shared Xeon at 2.1 GHz: 10-second
medians of a 100-trial simulation spread 10-25 % between runs raw and
3-8 % scaled.
"""

from __future__ import annotations

import os
import random
import statistics
import time

NOMINAL_S = 0.0015  # one kernel run in a typical state of the host above
SAMPLE_EVERY_S = 0.1
_REPEATS = 5

_rng = random.Random(5)
_MASKS = [((i * 0x9E3779B97F4A7C15) ** 5) & ((1 << 512) - 1) for i in range(64)]
_SETS = [frozenset(_rng.sample(range(512), 7)) for _ in range(256)]
_BLOCKED = set(_rng.sample(range(512), 50))


def kernel_once() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    acc = 0
    counts = set()
    for i in range(1000):
        m = _MASKS[i & 63] ^ acc
        acc = (m >> 1) ^ (m & -m)
        counts.add(m.bit_count())
    for _ in range(4):
        for s in _SETS:
            if not s & _BLOCKED:
                counts.add(len({x: 1 for x in s}))
    return time.perf_counter() - start


def kernel_seconds() -> float:
    """Median of a few kernel runs, now."""
    return statistics.median(kernel_once() for _ in range(_REPEATS))


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to one CPU, so the
    kernel samples the CPU the timed work runs on."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speedometer:
    """Scale factors for consecutive timed operations."""

    def __init__(self) -> None:
        self._last = kernel_seconds()
        self.factors: list[float] = []

    def factor(self, during: list[float] = ()) -> float:
        """Factor for the operation since the previous call (or creation);
        ``during`` holds kernel times sampled while it ran."""
        now = kernel_seconds()
        factor = NOMINAL_S / statistics.fmean([self._last, now, *during])
        self._last = now
        self.factors.append(factor)
        return factor
