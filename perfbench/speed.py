"""Host-speed reference: scales measured times to a nominal host speed.

The benchmark runs on a few cores of a shared host whose speed changes, by up
to 1.6x and for pure-Python code broadly alike, in phases of a fraction of a
second to minutes.  A fixed stdlib computation (`reference`) is timed in
bursts between tasks and, on a timer, inside them; every stretch of task time
between two bursts is scaled by NOMINAL_S over the reference time measured
on either side of it.  A reported second is thus a second at the idle host's
speed: a change to becpolar moves it, a change in the host's load mostly does
not.  `reference` shares no code with becpolar, so no change to becpolar
moves it.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction
from statistics import median
from time import perf_counter

NOMINAL_S = 0.0065  # reference time on an idle 2-core 2.0 GHz Xeon, CPython 3.11
EVERY_S = 0.3  # task time between two bursts
BURST = 3  # reference timings per burst; the burst reports their median


def reference() -> int:
    """Big-integer polynomial squaring and Fraction sums, the arithmetic that
    becpolar spends its time in."""
    poly = [1, 1]
    for _ in range(8):  # repeated squaring of (1 + x): growing coefficients
        sq = [0] * (2 * len(poly) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(poly):
                sq[i + j] += a * b
        poly = sq
    acc = Fraction(0)
    for k in range(1, 700):
        acc += Fraction(poly[k % len(poly)], k * k + 1)
    return acc.numerator % 1000003


class Speed:
    """Reference bursts in time order, and task times scaled by them."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        first = perf_counter()
        timings = []
        for _ in range(BURST):
            start = perf_counter()
            reference()
            timings.append(perf_counter() - start)
        self.starts.append(first)
        self.ends.append(perf_counter())
        self.seconds.append(median(timings))

    def sample_if_due(self, *_signal) -> None:
        if not self.ends or perf_counter() - self.ends[-1] >= EVERY_S:
            self.sample()

    @contextmanager
    def probing(self):
        """Take bursts on a timer as well, so that they also fall inside long
        tasks, which `scaled` then leaves out of the task's time."""
        previous = signal.signal(signal.SIGALRM, self.sample_if_due)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float) -> float:
        """The time from `start` to `end` at the idle host's speed, less the
        bursts inside it.  Each stretch between two bursts is multiplied by
        NOMINAL_S over the mean reference time of the bursts on either side
        of it (or of the one that exists)."""
        lo = bisect_left(self.starts, start)  # first burst inside
        hi = bisect_right(self.ends, end)  # past the last burst inside
        if not self.seconds:
            raise RuntimeError("no reference burst taken")
        total = 0.0
        for k in range(lo, hi + 1):
            begin = start if k == lo else self.ends[k - 1]
            finish = end if k == hi else self.starts[k]
            near = [self.seconds[i] for i in (k - 1, k) if 0 <= i < len(self.seconds)]
            total += (finish - begin) * NOMINAL_S * len(near) / sum(near)
        return total
