"""Reference-speed calibration for a host whose CPU speed drifts.

On a shared host the same op can take up to twice as long from one second to
the next: the core is shared or released (the speed flips between two levels
for seconds at a time), so a long op often runs partly at each.  The
benchmark therefore runs a fixed reference kernel every ``TICK`` seconds of
the timed loop, inside ops too, from a SIGALRM handler, and rescales each op
by the kernel's speed while it ran:

    reference seconds = (wall seconds - kernel time inside the op)
                        × mean of NOMINAL / kernel time over the op

where the mean runs over the samples taken during the op and the last one
before and the first one after it.  A figure so reads as seconds on a host
where the kernel takes ``NOMINAL``.  The kernel is exact ``Fraction``
elimination in plain Python, the same kind of work the engine does, and it
uses no engine code, so a change to the engine cannot change it.  Raw wall
times are printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# Kernel time on an unloaded core of the 2-vCPU x86-64 host (CPython 3.11)
# where the benchmark was defined.
NOMINAL = 0.004
TICK = 0.1
REPEATS = 3

_SIZE = 10
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4)
            for j in range(_SIZE)] for i in range(_SIZE)]


def kernel():
    """Fully reduce a fixed 10×10 rational matrix; returns its rank."""
    m = [row[:] for row in _MATRIX]
    rank = 0
    for c in range(_SIZE):
        p = next((r for r in range(rank, _SIZE) if m[r][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        pv = m[rank][c]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(_SIZE):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


class Calibration:
    """Kernel timings along the run, and the scaling they imply."""

    def __init__(self):
        self.at = []       # perf_counter at the end of each sample
        self.kernel = []   # kernel time of each sample

    def sample(self):
        """One sample outside the timed loop: the median of a few runs."""
        times = []
        for _ in range(REPEATS):
            t = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t)
        self.at.append(time.perf_counter())
        self.kernel.append(statistics.median(times))

    def _tick(self, signum, frame):
        t = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.at.append(end)
        self.kernel.append(end - t)

    def start(self):
        """Sample every TICK seconds until ``stop``, inside ops too."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK, TICK)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, start, end):
        """Kernel time of the samples taken inside [start, end]: a sample
        runs to its end before the interrupted code goes on, so it lies
        wholly inside or wholly outside."""
        i = bisect.bisect_left(self.at, start)
        j = bisect.bisect_right(self.at, end)
        return sum(self.kernel[i:j])

    def scale(self, start, end):
        """Mean of NOMINAL ÷ kernel time over the samples inside [start, end]
        and the last one before and the first one after it."""
        i = max(bisect.bisect_right(self.at, start) - 1, 0)
        j = min(bisect.bisect_left(self.at, end) + 1, len(self.at))
        return statistics.fmean(NOMINAL / k for k in self.kernel[i:j])
