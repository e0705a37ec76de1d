"""Time in reference units, which cancel most of this host's speed drift.

The benchmark runs on a shared 2-CPU host whose speed drifts by tens of
percent within seconds, for ppgf and for any other Python code alike (CPU
time follows wall time, so the drift is not scheduling).  RefClock samples
the host's current speed every TICK_S seconds, from a SIGALRM handler, by
timing a fixed reference loop, and integrates elapsed time divided by the
latest sample.  An interval measured on it is in multiples of the
reference loop's duration at the speed the host had during that interval.
The handler's own time is excluded from both readings.
"""

from __future__ import annotations

import signal
import statistics
import time

TICK_S = 0.05


def reference_loop():
    """Fixed pure-Python work: dict updates keyed by small tuples and
    integer sums, the operations ppgf's algebra spends its time in."""
    acc = {}
    for i in range(5000):
        key = (i * 7 % 101, i * 13 % 37)
        acc[key] = acc.get(key, 0) + i
    return sum(acc.values())


def reference_time():
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class RefClock:
    """Use as a context manager; read() gives (seconds, reference units)
    elapsed outside the sampling handler since the clock started."""

    def __init__(self):
        self.ref_s = reference_time()
        self.samples = [self.ref_s]
        self._mark = time.perf_counter()
        self._seconds = 0.0
        self._units = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        now = time.perf_counter()
        self._seconds += now - self._mark
        self._units += (now - self._mark) / self.ref_s
        self.ref_s = reference_time()
        self.samples.append(self.ref_s)
        self._mark = time.perf_counter()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def read(self):
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            since = time.perf_counter() - self._mark
            return self._seconds + since, self._units + since / self.ref_s
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
