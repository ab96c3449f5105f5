"""A clock that runs at the speed of the host, not of the wall.

The shared host this benchmark was written on runs the same pure-Python code
at speeds up to a factor 2 apart, switching every few seconds to minutes, and
the process's CPU time follows its wall time (see README.md).  No hardware
counter is exposed to count instructions instead.  So the benchmark times
itself against a fixed piece of reference work: every INTERVAL seconds a
SIGALRM handler runs a few reference units (exact Fraction arithmetic, list
and dict work, like the package's simplex), and `ReferenceClock.now()`
advances by the wall time since the last tick times REF_UNIT_S over the
median of the recent unit times.  Time spent in the handler is left out.

A reading is therefore in reference seconds: the time the work would take on
a host where one unit takes REF_UNIT_S (this host took 0.27 to 0.45 ms).  It
tracks a change to the package as wall time does, because the reference work
does not depend on the package.  One process, no threads: the handler runs in
the main thread between bytecodes.
"""

from __future__ import annotations

import collections
import signal
import statistics
import time
from fractions import Fraction

REF_UNIT_S = 0.35e-3  # nominal time of one reference unit
INTERVAL = 0.1  # s between samples
UNITS = 2  # reference units per sample
WINDOW = 16  # unit times the speed estimate is the median of


def _unit():
    best = Fraction(0)
    row = [Fraction(k, 7) for k in range(1, 7)]
    seen = {}
    for i in range(1, 7):
        q = Fraction(i, i + 3)
        for k, c in enumerate(row):
            v = c * q - Fraction(k, 5)
            if v > best:
                best = v
            seen[k] = v
    return best, len(seen)


def unit_time() -> float:
    t0 = time.perf_counter()
    _unit()
    return time.perf_counter() - t0


class ReferenceClock:
    def __init__(self):
        self.recent: collections.deque = collections.deque(maxlen=WINDOW)
        self.factors: list[float] = []  # reference seconds per wall second, per tick
        self._state = (0.0, 0.0, 1.0)  # (wall time of last tick, reading then, factor)
        self._old_handler = None

    def _factor(self) -> float:
        for _ in range(UNITS):
            self.recent.append(unit_time())
        return REF_UNIT_S / statistics.median(self.recent)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        last, reading, factor = self._state
        reading += (t0 - last) * factor
        factor = self._factor()
        self.factors.append(factor)
        self._state = (time.perf_counter(), reading, factor)

    def start(self) -> None:
        while len(self.recent) < WINDOW:
            self._factor()
        self._state = (time.perf_counter(), 0.0, self._factor())
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._old_handler is not None:
            signal.signal(signal.SIGALRM, self._old_handler)
            self._old_handler = None

    def now(self) -> float:
        """Reference seconds since start()."""
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            last, reading, factor = self._state
            return reading + (time.perf_counter() - last) * factor
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
