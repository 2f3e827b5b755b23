"""Timings corrected for the speed of a shared host.

On a shared virtual machine the same code runs up to 1.6 times slower for
stretches of seconds to minutes while other tenants load the physical cores.
Minima and medians over a run do not remove that when a whole run falls into
a slow stretch.  So while a timed interval runs, a timer signal every
`INTERVAL_S` interrupts the program for one fixed calibration slice and times
it.  Contention slows the slices as it slows the program, so

    corrected = (elapsed - time spent in slices) * REF_SLICE_S / median slice

is the interval's duration at the speed where one slice takes `REF_SLICE_S`.
`REF_SLICE_S` is a fixed constant, about one slice on an uncontended core of
the machine in bench/baseline.json, so corrected times are seconds on that
machine when it is not contended; elsewhere they stay proportional.  The
slices take 4 to 6% of the program's time.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.01
SLICE_LOOPS = 8000
REF_SLICE_S = 4e-4


def _slice() -> int:
    total = 0
    for i in range(SLICE_LOOPS):
        total += i * i
    return total


class SpeedProbe:
    """Context manager that samples calibration slices while it is active."""

    def __init__(self):
        self.slices = []
        self._old = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        _slice()
        self.slices.append(time.perf_counter() - t0)

    def __enter__(self):
        self.slices = []
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._sample()              # at least one slice, however short the interval
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.elapsed = time.perf_counter() - self.start
        signal.signal(signal.SIGALRM, self._old)
        return False

    def corrected(self) -> float:
        """Seconds the interval took, without the slices, at reference speed.

        The first slice is taken before the interval starts, so it is not
        subtracted."""
        inside = sum(self.slices[1:])
        return (self.elapsed - inside) * REF_SLICE_S / statistics.median(self.slices)
