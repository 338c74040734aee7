"""Host-speed calibration for the end-to-end times.

On a shared virtual host the processor's speed swings by up to 2x, in
stretches from a second to tens of seconds long. A fixed pure-Python
kernel, shaped like the program's own work (tuples, dict grouping, a
``repr``-keyed sort, a sha256 over a ``repr``), is timed between units
of work: before every tick of the run, every set-up and every reference
window, at most once per ``EVERY_S`` of work. The kernel's own time is
left out of the clock, and each stretch of work between two samples
counts at ``NOMINAL_MS`` over the mean of their kernel times: the result reads in seconds on a host
where the kernel takes ``NOMINAL_MS``. The kernel is part of the
benchmark, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import random
import time
from typing import List

#: Kernel time (ms) of the host the end-to-end times are scaled to; about
#: what a 2-vCPU cloud host gives when its neighbours are quiet.
NOMINAL_MS = 10.0

#: Seconds of work between two kernel samples.
EVERY_S = 0.25
#: A sample lasts this share of the work since the last one, within
#: [SAMPLE_S, MAX_SAMPLE_S]: a long unit of work gets a longer sample.
SAMPLE_SHARE = 0.15
SAMPLE_S = 0.04
MAX_SAMPLE_S = 0.2


def kernel() -> int:
    rnd = random.Random(7)
    rows = [(rnd.randrange(1000), rnd.random()) for _ in range(5000)]
    groups: dict = {}
    for key, value in rows:
        groups.setdefault(key, []).append(value)
    ordered = sorted(rows, key=lambda kv: (type(kv[0]).__name__, repr(kv[0])))
    digest = hashlib.sha256(repr([key for key, _ in ordered]).encode("utf-8")).digest()
    return len(groups) + digest[0]


def kernel_ms(seconds: float = SAMPLE_S) -> float:
    """Mean milliseconds per kernel run over ``seconds``, collector off.

    The collector is off so that the program's live heap, which a change
    may grow or shrink, does not leak into the kernel's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        runs = 0
        start = time.perf_counter()
        while True:
            kernel()
            runs += 1
            used = time.perf_counter() - start
            if used >= seconds:
                return used / runs * 1000.0
    finally:
        if enabled:
            gc.enable()


class Stopwatch:
    """A wall clock that pauses to sample the host's speed.

    Uncalibrated, :meth:`checkpoint` does nothing and :meth:`seconds` is
    plain elapsed wall time.
    """

    def __init__(self, calibrate: bool) -> None:
        self.calibrate = calibrate
        self._paused = 0.0
        #: clock reading and kernel ms of each sample, in order.
        self.marks: List[float] = []
        self.kernel_ms: List[float] = []

    def now(self) -> float:
        """Wall seconds, less the time spent sampling the kernel."""
        return time.perf_counter() - self._paused

    def checkpoint(self, force: bool = False) -> None:
        """Sample the kernel if ``EVERY_S`` has passed since the last sample."""
        if not self.calibrate:
            return
        if not force and self.marks and self.now() - self.marks[-1] < EVERY_S:
            return
        since = self.now() - self.marks[-1] if self.marks else 0.0
        began = time.perf_counter()
        sample = kernel_ms(min(max(SAMPLE_SHARE * since, SAMPLE_S), MAX_SAMPLE_S))
        self._paused += time.perf_counter() - began
        self.marks.append(self.now())
        self.kernel_ms.append(sample)

    def seconds(self, t0: float, t1: float) -> float:
        """Host-neutral seconds between clock readings ``t0`` and ``t1``.

        A stretch between two samples counts at the mean of their kernel
        times; before the first or after the last, at that sample's.
        """
        if not self.marks:
            return t1 - t0
        total = 0.0
        i = bisect.bisect_right(self.marks, t0)
        start = t0
        while start < t1:
            if i == 0:
                end, ms = self.marks[0], self.kernel_ms[0]
            elif i == len(self.marks):
                end, ms = t1, self.kernel_ms[-1]
            else:
                end, ms = self.marks[i], (self.kernel_ms[i - 1] + self.kernel_ms[i]) / 2.0
            end = min(end, t1)
            total += (end - start) * NOMINAL_MS / ms
            start = end
            i += 1
        return total
