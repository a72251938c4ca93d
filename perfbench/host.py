"""The host's speed, sampled while the benchmark runs.

The machine is shared, and its speed drifts by up to half from one minute
to the next.  The benchmark times a fixed reference computation right
before and right after every check, and while a pass runs an interval timer
also interrupts it every PERIOD seconds to take one more reading.  A
check's clock time, less the time the readings inside it took, divided by
the mean slowdown read from just before to just after it, is its time at
nominal host speed.  The timer is a signal handler, not a thread, so the
benchmark stays one client in one thread.
"""

from __future__ import annotations

import signal
from time import perf_counter

#: Seconds reference() takes on the unloaded 2-core x86 machine the
#: benchmark was written on.
REF_SECONDS = 0.012
#: Seconds between the timer's readings while a meter runs.
PERIOD = 1.0


def reference() -> int:
    """A fixed pure-Python computation with the mix of work symcirc does:
    tuple keys, dict updates, small-int arithmetic and a sort."""
    d = {}
    acc = 0
    for i in range(20000):
        k = (i % 97, i % 89)
        d[k] = d.get(k, 0) + 1
        acc += i * i % 7
    return acc + len(sorted(d.items()))


class HostMeter:
    """Readings of the host's slowdown, taken by sample() and, inside a
    ``with`` block, every PERIOD seconds by an interval timer."""

    def __init__(self):
        self.readings = []  # (time, how many times slower than REF_SECONDS)
        self.spent = 0.0    # seconds the readings took

    def sample(self, runs: int = 1) -> float:
        """Time reference() runs times and record the median; return the
        time the reading started."""
        start = perf_counter()
        times = []
        for _ in range(runs):
            t0 = perf_counter()
            reference()
            times.append(perf_counter() - t0)
        self.readings.append((start, sorted(times)[runs // 2] / REF_SECONDS))
        self.spent += perf_counter() - start
        return start

    def _on_timer(self, *_signal):
        self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown over the readings that started from start to end."""
        inside = [s for t, s in self.readings if start <= t <= end]
        return sum(inside) / len(inside)
