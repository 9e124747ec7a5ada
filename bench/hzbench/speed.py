"""Operation times scaled to a fixed machine speed.

On a shared machine the speed of a core drifts by tens of per cent over
seconds to minutes, which swamps the differences a benchmark must resolve.
`SpeedProbe.timed` therefore times a fixed piece of reference work before
and after an operation and, on a timer signal, every SAMPLE_INTERVAL seconds
during it.  It scales the operation's own time, without the samples, by
REFERENCE_S over the mean reference time.  A scaled time is the operation's time on a machine that runs the
reference in REFERENCE_S seconds.  The reference uses what the engine's inner
loops use: exact rationals with growing numerators, dicts keyed by exponent
tuples, and short-lived objects; it calls nothing of the engine, so a change
to the engine cannot move it.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.02
SAMPLE_INTERVAL = 0.5
_ROUNDS = 1800


def reference_work() -> Fraction:
    acc = {}
    x = Fraction(1, 3)
    for i in range(_ROUNDS):
        key = (i % 5, i % 7, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + x * Fraction(i % 13 + 1, i % 11 + 2)
        x = Fraction(1, 3) if i % 64 == 0 else x * Fraction(2, 3) + Fraction(1, 7)
    return sum(acc.values(), Fraction(0))


def reference_time() -> float:
    t = time.perf_counter()
    reference_work()
    return time.perf_counter() - t


class Timing:
    """Own time of one operation (reference samples excluded) and its scaled time."""

    raw = scaled = 0.0


class SpeedProbe:
    """Takes the reference samples; `stolen` is the total time that samples
    inside operations took, which `clock` leaves out."""

    def __init__(self):
        self.stolen = 0.0
        self._samples = []

    def clock(self) -> float:
        return time.perf_counter() - self.stolen

    def _on_timer(self, signum, frame):
        t = time.perf_counter()
        self._samples.append(reference_time())
        self.stolen += time.perf_counter() - t

    @contextlib.contextmanager
    def timed(self):
        """Time the body of the `with` block; the Timing is filled in on
        exit, also when the body raises."""
        timing = Timing()
        self._samples = [reference_time()]
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        start = self.clock()
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            timing.raw = self.clock() - start
            self._samples.append(reference_time())
            timing.scaled = timing.raw * REFERENCE_S / statistics.fmean(self._samples)
