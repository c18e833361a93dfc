"""Machine-speed probe that takes host drift out of the reported timings.

On a shared host the same loowit call can run at half speed for tens of
seconds while neighbours are busy, and a median over many calls does not
remove a slowdown that lasts a whole run. The probe is a fixed numpy kernel
(small Hermitian eigensolves from a Python loop, the mix loowit runs) that
no loowit code touches. While ``periodic`` is active, a SIGALRM handler
times it every ``EVERY_S`` seconds, also in the middle of a long call, and the
handler's own time is subtracted from the call it interrupted. A call's
reported time is its wall time scaled by ``NOMINAL_S / probe time``, with
the probe time averaged over the samples taken from ``EVERY_S`` before the
call to ``EVERY_S`` after it: the call's time at the probe's nominal speed.
The unscaled wall times are reported alongside.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from typing import Iterator

import numpy as np

NOMINAL_S = 2.0e-3  # probe kernel time on an idle 2-vCPU x86-64 host (OpenBLAS, one thread)
EVERY_S = 0.2
REPEATS = 3


class SpeedProbe:
    def __init__(self) -> None:
        a = np.random.default_rng(12345).standard_normal((9, 9))
        self._matrix = a + a.T
        self.times: list[float] = []  # when each sample was taken (perf_counter)
        self.values: list[float] = []  # probe kernel seconds at that time
        self.stolen = 0.0  # seconds spent sampling

    def _kernel(self) -> float:
        start = time.perf_counter()
        for _ in range(200):
            np.linalg.eigvalsh(self._matrix)
        return time.perf_counter() - start

    def sample(self) -> None:
        """Record the probe time now: the mean of REPEATS kernel runs."""
        start = time.perf_counter()
        value = statistics.fmean(self._kernel() for _ in range(REPEATS))
        self.times.append(start)
        self.values.append(value)
        self.stolen += time.perf_counter() - start

    @contextlib.contextmanager
    def periodic(self) -> Iterator["SpeedProbe"]:
        """Sample now, every EVERY_S seconds from a SIGALRM handler, and at exit."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean probe time from EVERY_S before start to EVERY_S after end."""
        lo = bisect.bisect_left(self.times, start - EVERY_S)
        hi = bisect.bisect_right(self.times, end + EVERY_S)
        if lo == hi:  # no sample that close: use the nearest one on either side
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return NOMINAL_S / statistics.fmean(self.values[lo:hi])


class Timer:
    """Times calls with the probe's sampling time taken out, then scales them."""

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.intervals: list[tuple[float, float, float]] = []  # start, end, wall seconds

    @contextlib.contextmanager
    def timing(self) -> Iterator[None]:
        # Reading the clock outside the two reads of ``stolen`` means a sample
        # that lands between them can only lengthen the call, never make it
        # negative.
        start = time.perf_counter()
        stolen = self.probe.stolen
        yield
        stolen = self.probe.stolen - stolen
        end = time.perf_counter()
        self.intervals.append((start, end, end - start - stolen))

    def add(self, start: float, end: float, wall_s: float) -> None:
        self.intervals.append((start, end, wall_s))

    @property
    def wall(self) -> list[float]:
        return [w for _, _, w in self.intervals]

    def scaled(self) -> list[float]:
        """Each wall time at the probe's nominal speed (call once sampling is over)."""
        return [w * self.probe.factor(s, e) for s, e, w in self.intervals]
