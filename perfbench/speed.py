"""Timing in reference seconds, corrected for the speed of a shared machine.

On a machine whose cores are shared with other tenants, the speed one
process sees changes by up to a factor of two within seconds (a 3000-job
`check_feasible` measured 0.8 s and 1.8 s a few seconds apart), far more
than the differences the benchmark has to resolve.  So while a run measures,
a timer interrupts it every INTERVAL_S and times a fixed piece of work, the
probe, wherever the run is: inside a timed step or between steps.  The probes
inside a step are subtracted from its time.  A step's time is then scaled by
REFERENCE_S / (local probe time), the local probe time being the mean of the
probes taken during the step and within WINDOW_S of it, without the slowest
and the fastest tenth so that a preemption inside one probe does not count.
The mean and not the median, because the probe times are bimodal when the
speed switches quickly, and a step's time follows the mean speed.  The result
is the step's time on a machine that runs the probe in REFERENCE_S.  The
probe is code of the benchmark, so no change to the program can move it.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# A typical probe time on the machine the benchmark was defined on, a 2-vCPU
# Intel Xeon VM at 2.1 GHz running CPython 3.11, where it ranged from 0.9 to
# 1.9 ms.
REFERENCE_S = 0.0015
INTERVAL_S = 0.03
WINDOW_S = 0.25
PROBES_AROUND = 8

_DATA = [random.Random(1602).randint(1, 10**6) for _ in range(1600)]


def probe() -> float:
    """Seconds taken by a fixed mix of the operations the solvers are made of:
    sorting, integer and Fraction arithmetic, list indexing and dict updates."""
    start = perf_counter()
    ordered = sorted(_DATA)
    widest = {}
    total = Fraction(0)
    for i in range(1, len(ordered)):
        key = ordered[i] % 61
        widest[key] = max(widest.get(key, 0), ordered[i] - ordered[i - 1])
        if i % 8 == 0:
            total += Fraction(ordered[i], i)
    return perf_counter() - start


def _speed(samples: list[float]) -> float:
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def reference_time(fn, *args, **kwargs) -> float:
    """Reference seconds of fn(*args, **kwargs), for work the timer cannot
    follow, such as waiting for another process: it runs between two sets of
    PROBES_AROUND probes, whose mean time scales it."""
    around = [probe() for _ in range(PROBES_AROUND)]
    start = perf_counter()
    fn(*args, **kwargs)
    seconds = perf_counter() - start
    around += [probe() for _ in range(PROBES_AROUND)]
    return seconds * REFERENCE_S / _speed(around)


class Clock:
    """Times the steps of a run; probes the machine while it is entered.

    Use as `with Clock() as clock:`; it owns SIGALRM until it is left.
    """

    def __init__(self):
        self.steps: list[tuple[float, float, float]] = []   # (start, end, probe seconds inside)
        self._probe_at: list[float] = []                     # when each probe ended
        self._probe_s: list[float] = []
        self._inside = 0.0
        self._probing = False
        self._previous = None

    def __enter__(self) -> Clock:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self._probe_s:   # left before the first tick
            self._tick(signal.SIGALRM, None)

    def _tick(self, signum, frame) -> None:
        if self._probing:   # a probe held up past the next tick
            return
        self._probing = True
        start = perf_counter()
        seconds = probe()
        end = perf_counter()
        self._probe_at.append(end)
        self._probe_s.append(seconds)
        self._inside += end - start
        self._probing = False

    def call(self, fn, *args, **kwargs):
        """fn(*args, **kwargs), timed as one step."""
        inside = self._inside
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.steps.append((start, end, self._inside - inside))

    def _local(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self._probe_at, start - WINDOW_S)
        hi = bisect.bisect_right(self._probe_at, end + WINDOW_S)
        if hi - lo < 3:   # too few probes near the step: take the nearest ones
            middle = bisect.bisect_left(self._probe_at, (start + end) / 2)
            lo, hi = max(0, middle - 2), min(len(self._probe_s), middle + 2)
        return _speed(self._probe_s[lo:hi])

    def reference_seconds(self, first: int, stop: int) -> float:
        """Time of steps[first:stop], each scaled by its local speed."""
        return sum((end - start - inside) * REFERENCE_S / self._local(start, end)
                   for start, end, inside in self.steps[first:stop])

    def factor(self) -> float:
        """The scale of the run as a whole, for the span times of a traced run."""
        return REFERENCE_S / _speed(self._probe_s)

    @property
    def probes(self) -> int:
        return len(self._probe_s)
