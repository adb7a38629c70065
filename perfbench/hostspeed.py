"""Host-speed correction of the times a worker measures.

On a shared host the speed of the CPU changes within tens of milliseconds
and by up to a factor of two: other guests' load on the same cores and
caches slows every instruction this process runs.  Medians over a run do
not remove that, because the load comes in bursts of seconds.

While the worker runs, a SIGALRM timer fires every PERIOD_S and its handler
times a small fixed pure-Python probe between two bytecodes of whatever the
main thread is running.  A probe that takes twice REF_PROBE_S marks a host
running at half the reference speed.  ``scaled(t0, t1)`` turns the span
t0..t1 into reference-host seconds: the probes' own time is left out, and
each stretch between two probes is multiplied by REF_PROBE_S over the median
of the nearest 2 * WINDOW probes.  Work that gets faster shortens the
stretches, so it shows in the scaled time as it would in the raw one.  The
probe runs in cache, so it follows memory-heavy work less closely.

Linux only (setitimer).  Times are on CLOCK_MONOTONIC, the clock of the
parent's spawn timestamp.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.01
# About the probe's time, warm, on an uncontended core of a 2-core x86 VM
# (Intel Xeon).  It only sets the unit of the scaled times.
REF_PROBE_S = 100e-6
WINDOW = 3


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe() -> None:
    """Fixed work of the kind gsrel does: exact fractions, which are small
    Python objects built and combined through Python-level methods.  Of the
    probes tried (dict updates on tuple keys, a walk over a 60,000-element
    list, method calls on small objects, fractions), fractions tracked the
    slowdown of both taxonomy and diagram work best."""
    acc = Fraction(0)
    for i in range(20):
        acc += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, 7)


class HostSpeed:
    """Probe timings of one process, and spans scaled by them."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (probe start, probe end)

    def _tick(self, _signum, _frame) -> None:
        start = monotonic()
        probe()
        self.marks.append((start, monotonic()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _factor(self, i: int) -> float:
        """Scale of the stretch that ends where probe i starts."""
        near = self.marks[max(0, i - WINDOW):i + WINDOW] or self.marks[-2 * WINDOW:]
        return REF_PROBE_S / statistics.median(end - start for start, end in near)

    def scaled(self, t0: float, t1: float) -> float:
        """Reference-host seconds of the span t0..t1 of this process."""
        if not self.marks:
            self._tick(None, None)
        total, edge = 0.0, t0
        i = next((k for k, (start, _) in enumerate(self.marks) if start >= t0), len(self.marks))
        while i < len(self.marks) and self.marks[i][0] < t1:
            start, end = self.marks[i]
            total += (start - edge) * self._factor(i)
            edge = end
            i += 1
        return total + max(0.0, t1 - edge) * self._factor(i)
