"""Host time in reference seconds, for a shared host whose speed changes.

On a shared host the same pure-Python work can take twice as long from one
moment to the next, and the host switches between such speeds several times
a second. Reading the host's speed before and after a timed call misses
every switch inside it. A ``HostClock`` instead runs a fixed probe of
pure-Python work (a heap and a dict, as the simulator uses them) every
``interval`` seconds from a ``SIGALRM`` timer while it is entered, and once
before and once after every call it times. The probe runs none of the
program's code, so no change to the program can speed it up.

``HostClock.time(fn)`` returns ``fn()``'s result, its host seconds with the
time of the probes that ran inside it taken out, and its reference seconds:
the host seconds times the mean, over the probes from just before to just
after the call, of ``PROBE_REF_S`` ÷ the probe's duration. A reference second
is a second on a host that runs the probe in ``PROBE_REF_S``.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

PROBE_STEPS = 400
PROBE_REF_S = 0.0005
INTERVAL_S = 0.02


def probe_work(steps: int = PROBE_STEPS) -> int:
    heap: list = []
    counts: dict = {}
    for i in range(steps):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        key = i & 255
        counts[key] = counts.get(key, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(counts)


class HostClock:
    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.speeds: list[float] = []  # PROBE_REF_S / probe duration, in probe order
        self.probe_s = 0.0  # host seconds spent in probes
        self._busy = False
        self._saved = None

    def probe(self, *_signal_args) -> None:
        if self._busy:  # a timer tick during a probe
            return
        self._busy = True
        t0 = time.perf_counter()
        probe_work()
        took = time.perf_counter() - t0
        self.speeds.append(PROBE_REF_S / took)
        self.probe_s += took
        self._busy = False

    def __enter__(self) -> HostClock:
        handler = signal.signal(signal.SIGALRM, self.probe)
        self._saved = (handler, signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval))
        return self

    def __exit__(self, *exc) -> None:
        handler, (delay, interval) = self._saved
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        if delay:
            signal.setitimer(signal.ITIMER_REAL, delay, interval)

    def time(self, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), host seconds, reference seconds)``."""
        self.probe()
        first, probed = len(self.speeds) - 1, self.probe_s
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        host = time.perf_counter() - t0
        host -= self.probe_s - probed
        self.probe()
        return result, host, host * statistics.fmean(self.speeds[first:])

    def mean_speed(self) -> float:
        return statistics.fmean(self.speeds) if self.speeds else 0.0
