"""Machine-speed probe, interleaved with the work it measures.

The benchmark's host is a small share of a shared machine whose speed
changes by up to 2.5x from one second to the next (other tenants, frequency,
the virtual CPU being paused in 4 ms steps). Wall time of the same pass
therefore spreads far more than any change worth detecting. The probe runs a
fixed pure-Python slice of work, with no imports, from a SIGALRM handler
every INTERVAL_S of wall time, in the thread that runs the program, so it
sees the machine at the same moments as the program does. From the slice
times a wall-time interval is rescaled to reference speed:

    reference seconds = (wall seconds - probe seconds inside it)
                        * REFERENCE_SLICE_S * mean(1 / slice seconds)

where the mean runs over the slices taken in the interval. The samples are
spaced evenly in wall time, so the mean of the speed (1 / slice time) is the
fraction of reference work the machine did per second. The slices are
changed by no program change, so a later version of the program that does
less work gets a proportionally lower reference time.
"""
from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.02  # one slice per 20 ms of wall time
MIN_SAMPLES = 8  # an interval with fewer slices borrows its nearest neighbours
# About the slice time of an Intel Xeon (Sapphire Rapids) vCPU running
# CPython 3.11 when the host is quiet; it only sets the scale of the reported
# seconds, which then read close to the wall time of a quiet machine.
REFERENCE_SLICE_S = 0.00025

_A = tuple(tuple((3 * i + 7 * j) % 5 - 2 for j in range(6)) for i in range(6))


def _slice() -> int:
    """A fixed piece of interpreter work like the exact engine's: products
    of small integer matrices held as tuples of tuples."""
    m = _A
    for _ in range(6):
        m = tuple(tuple(sum(m[i][t] * _A[t][j] for t in range(6)) % 97
                        for j in range(6)) for i in range(6))
    return m[0][0]


class SpeedProbe:
    """Slices taken every INTERVAL_S between start and stop, in memory."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter at each slice's start
        self.seconds: list[float] = []  # each slice's duration
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _slice()
        self.seconds.append(time.perf_counter() - start)
        self.starts.append(start)

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def reference_seconds(self, begin: float, end: float) -> float:
        """The wall interval [begin, end] of perf_counter, less the probe's
        own slices inside it, rescaled to reference speed."""
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_left(self.starts, end)
        own = sum(self.seconds[lo:hi])
        if hi - lo < MIN_SAMPLES and self.starts:
            lo, hi = self._nearest((begin + end) / 2)
        if hi <= lo:
            return end - begin
        speed = sum(1 / s for s in self.seconds[lo:hi]) / (hi - lo)
        return (end - begin - own) * REFERENCE_SLICE_S * speed

    def _nearest(self, at: float) -> tuple[int, int]:
        """Index range of the MIN_SAMPLES slices nearest to `at`."""
        n = len(self.starts)
        lo = hi = min(bisect.bisect_left(self.starts, at), n)
        while hi - lo < min(MIN_SAMPLES, n):
            if lo > 0 and (hi >= n or at - self.starts[lo - 1] <= self.starts[hi] - at):
                lo -= 1
            else:
                hi += 1
        return lo, hi
