"""Time in reference seconds, corrected for the speed of a shared host.

On a shared host the same pass over the same input can take anywhere from
one to two times as long, because neighbours load the same cores; the
process's CPU time moves with its wall time, so CPU time does not help.
``Sampler`` measures the host's current speed while the benchmark runs: a
timer signal interrupts the work every ``INTERVAL_S`` and times a fixed
piece of interpreter work, the snippet.  An interval's length in reference
seconds is the time its work, less the snippets, would take on a host
where the snippet takes ``REFERENCE_S``.

The sampler runs in the main thread (signal handlers do), so it starts no
thread and does not overlap the work it measures.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.1
REFERENCE_S = 0.001


def snippet() -> float:
    """Seconds taken by a fixed piece of rational arithmetic (about 1.5 ms)."""
    start = perf_counter()
    x = Fraction(1)
    for i in range(1, 150):
        x = (x * 3 + Fraction(1, i)) / 2
        x = Fraction(x.numerator % 1000003, x.denominator % 1000003 or 1)
    return perf_counter() - start


class Sampler:
    """Snippet timings taken every INTERVAL_S while started."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def _sample(self) -> None:
        duration = snippet()
        self.ends.append(perf_counter())
        self.durations.append(duration)

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a late alarm must not nest a second snippet
            self._busy = True
            try:
                self._sample()
            finally:
                self._busy = False

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def snippets(self, start: float, end: float) -> list[float]:
        """Snippet durations inside [start, end], or else the last one before it."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        return self.durations[lo:hi] or self.durations[max(lo - 1, 0) : lo]

    def reference_s(self, start: float, end: float) -> float:
        """Length of the perf_counter interval [start, end] in reference seconds.

        The snippets inside the interval cut its work into segments; each
        segment is scaled by REFERENCE_S over the mean of the snippet times
        on either side of it, so a change of speed inside a long interval
        is followed.
        """
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        inside = list(zip(self.ends[lo:hi], self.durations[lo:hi]))
        previous = self.durations[lo - 1] if lo else inside[0][1]
        total, segment_start = 0.0, start
        for snippet_end, duration in inside:
            work = max(snippet_end - duration - segment_start, 0.0)
            total += work * 2.0 / (previous + duration)
            segment_start, previous = snippet_end, duration
        total += (end - segment_start) / previous
        return total * REFERENCE_S
