"""Machine-speed samples taken during a pass, to scale its times.

Other tenants of a shared host slow this machine's cores by up to 2x, for
seconds at a time.  The process's CPU time slows with its wall time (the
cores run slower; no time is stolen that could be subtracted), so neither
clock alone tells a slower program from a slower machine.  While a Meter is
active, a SIGALRM handler times a fixed pure-Python kernel every PERIOD
seconds, on the program's own thread, between two of its bytecodes.  A
stretch of the program is then reported as its wall time, less the ticks
inside it, times REFERENCE_S over the median kernel time sampled over it:
the seconds it would have taken at the speed the kernel had on a quiet
machine.  The kernel is benchmark code, the same on every commit, so the
scale does not depend on the program under test.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD = 0.1  # seconds between kernel samples
# Median kernel time between a program's bytecodes on a quiet 2-vCPU
# x86-64 VM under Python 3.11; a constant, so that a scaled second means
# the same on every run.
REFERENCE_S = 0.00065

_P = tuple((7 * i + 3) % 97 for i in range(97))


def kernel() -> float:
    """Seconds for a fixed piece of interpreter work: list and tuple
    indexing, a dict and small-int arithmetic, as in coverlab's own loops."""
    t0 = time.perf_counter()
    p, seen = list(range(97)), {}
    for i in range(120):
        p = [_P[x] for x in p]
        seen[tuple(p[:8])] = i
    s = 0
    for x in range(4000):
        s += (x * x) % 13
    return time.perf_counter() - t0


def scale(seconds: float, kernels: list[float]) -> float:
    """seconds measured while the kernel took these times, at reference
    speed."""
    return seconds * REFERENCE_S / statistics.median(kernels)


class Meter:
    """Samples the kernel while active; scales stretches measured inside."""

    def __init__(self):
        self.starts: list[float] = []  # tick start times, ascending
        self.ends: list[float] = []
        self.kernels: list[float] = []
        self._old = None
        self._busy = False

    def _tick(self, *_):
        if self._busy:  # a late signal while a tick runs
            return
        self._busy = True
        t0 = time.perf_counter()
        k = kernel()
        self.starts.append(t0)
        self.kernels.append(k)
        self.ends.append(time.perf_counter())
        self._busy = False

    def __enter__(self):
        self.starts, self.ends, self.kernels = [], [], []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick()  # any signal still pending runs its handler by now
        signal.signal(signal.SIGALRM, self._old)
        return False

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, scaled) seconds of the program between perf_counter
        readings t0 and t1, taken while this meter was active.  Raw leaves
        out the ticks inside; the scale uses the samples from one period
        before t0 to one period after t1, and always the last one before."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        raw = t1 - t0 - sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        a = min(bisect.bisect_left(self.starts, t0 - PERIOD), max(lo - 1, 0))
        b = bisect.bisect_right(self.starts, t1 + PERIOD)
        return raw, scale(raw, self.kernels[a:b])
