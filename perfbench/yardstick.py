"""Machine-speed yardstick for the timed runs.

The host this benchmark was set up on shares its cores with other tenants.
Their load slows every instruction stream on a core, by up to 40%, for
stretches of milliseconds to minutes. The same pass can take 21 s in one
run and 37 s in a run a few minutes later. To take that out of the figures,
a `Yardstick` runs a fixed reference task from a SIGALRM handler every
`interval_s` while the workload runs. The task therefore sees the same
contention as the code around it. A measured interval, minus the reference
samples that fell inside it, is scaled by `NOMINAL_S` over the mean of the
samples taken during it (or, for a short interval, around it): the result
is the time at reference speed.
"""

from __future__ import annotations

import bisect
import json
import signal
import time
from fractions import Fraction

# Sets the unit of times at reference speed: a run whose reference samples
# average NOMINAL_S reports its times as measured.  Between the workloads'
# own calls the task took 250-480 us on the host of perfbench/baseline.json.
NOMINAL_S = 380e-6
# Short intervals are scaled by this many samples around them (about 2 s).
NEAREST = 40


def reference_task() -> str:
    """A fixed mix of rational arithmetic, like the exact layer, and
    building and encoding small dicts, like reports and traces."""
    x = Fraction(1, 3)
    for i in range(1, 25):
        x = (x * i + Fraction(1, i)) / (i + 1)
    cells = [{"rank": i, "dim": i * i, "family": "RealSym", "pass": i % 3 == 0,
              "value": str(x)} for i in range(40)]
    return json.dumps(cells, sort_keys=True)


class Yardstick:
    """Samples `reference_task` every `interval_s` while entered."""

    def __init__(self, interval_s: float):
        self.interval_s = interval_s
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._cumulative = [0.0]
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_task()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)
        self._cumulative.append(self._cumulative[-1] + self.durations[-1])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def own_time(self, start: float, duration: float) -> float:
        """Reference time spent inside [start, start + duration)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, start + duration)
        return self._cumulative[hi] - self._cumulative[lo]

    def mean_near(self, start: float, duration: float) -> float:
        """Mean sample duration inside the interval, or over the `NEAREST`
        samples around its middle when it holds fewer."""
        n = len(self.starts)
        if n == 0:
            raise RuntimeError("the yardstick took no samples")
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, start + duration)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(self.starts, start + duration / 2)
            lo = max(0, min(mid - NEAREST // 2, n - NEAREST))
            hi = min(n, lo + NEAREST)
        return (self._cumulative[hi] - self._cumulative[lo]) / (hi - lo)

    def at_reference_speed(self, start: float, duration: float) -> float:
        """A measured interval without the samples in it, scaled by the
        reference speed around it."""
        return ((duration - self.own_time(start, duration)) * NOMINAL_S
                / self.mean_near(start, duration))
