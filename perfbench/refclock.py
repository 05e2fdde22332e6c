"""A clock that runs at the speed of a reference host.

On a shared host the speed of a CPU changes by up to a factor of two within
a second, and it can stay low for minutes, so wall-clock times of the same
code spread too widely between runs to compare two versions of it.
``RefClock`` factors that speed out in two steps.

- It counts the CPU time of the calling thread, so time the thread spends
  waiting for a CPU, in this system or in the hypervisor, does not count.
- Every ``PERIOD_S`` a timer signal runs a fixed probe: a loop of the
  integer, set and list work that the package's inner loops do, taken from
  this file and not from the package.  The CPU time between two probes is
  scaled by the probe's reference time over its measured time (the median
  of the last three probes), and the probes' own time is left out.

So a stretch of work reads about the same number of seconds whether the
host ran it fast or slow, and a change that makes the program do less work
still reads as less time.  The program is single-threaded and waits on
nothing but small local files, so its CPU time is its latency.

The probe's reference time ``PROBE_REF_S`` is about its duration on a 2-vCPU
Intel Xeon at 2.0 GHz running Python 3.11 when no other tenant slows it,
so the clock's seconds are about seconds on that host at that speed.
"""

from __future__ import annotations

import signal
from time import thread_time

PERIOD_S = 0.01
PROBE_REF_S = 0.0003
RECENT = 3


def probe() -> int:
    """Fixed work resembling the package's bitset loops."""
    bits = 0
    seen = set()
    out = []
    for i in range(500):
        x = (i * 40503) & 2047
        bits |= 1 << x
        if x not in seen:
            seen.add(x)
            out.append(x)
    while bits:
        low = bits & -bits
        out.append(low.bit_length())
        bits ^= low
    return len(out)


def probe_s() -> float:
    t0 = thread_time()
    probe()
    return thread_time() - t0


class RefClock:
    """``now()`` reads seconds at reference speed while the clock runs.

    Only one clock may run in a process at a time: it owns SIGALRM and the
    real interval timer.
    """

    def __init__(self):
        self.virtual = 0.0
        self.mark = thread_time()
        self.scale = 1.0
        self.ticks = 0
        self.recent: list[float] = []
        self.probe_total_s = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        t = thread_time()
        self.virtual += (t - self.mark) * self.scale
        p = probe_s()
        self.recent = (self.recent + [p])[-RECENT:]
        self.scale = PROBE_REF_S / sorted(self.recent)[len(self.recent) // 2]
        self.mark = thread_time()
        self.probe_total_s += self.mark - t
        self.ticks += 1
        self._busy = False

    def start(self) -> "RefClock":
        for _ in range(RECENT):
            self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def now(self) -> float:
        while True:
            ticks = self.ticks
            value = self.virtual + (thread_time() - self.mark) * self.scale
            if ticks == self.ticks:
                return value
