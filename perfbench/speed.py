"""A clock in reference seconds, for timing on a machine whose speed drifts.

On a shared virtual machine the same pure-Python work can take 1.5 to 2
times as long in one minute as in the next (both wall and CPU time), which
swamps any change worth measuring.  `SpeedClock` samples the machine's
current speed while the workload runs: every `INTERVAL_S` a timer signal
runs a fixed reference computation (Fraction arithmetic and dict/tuple
work, the kind of work blobalg does) and records how long it took.  An
interval of raw time is then converted into reference seconds by scaling
each stretch between samples by `NOMINAL_S / r`, where `r` is the running
median of the nearest reference durations; the time spent in the sampler
itself is left out.  `NOMINAL_S` fixes the unit: while the reference takes
exactly `NOMINAL_S`, reference seconds equal raw seconds.  It lies inside
the range of reference durations seen on a 2-vCPU 2.0 GHz Xeon virtual
machine (0.27 to 0.61 ms).

The reference computation and `NOMINAL_S` are fixed: changing either
changes every reported time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import monotonic
from typing import List

INTERVAL_S = 0.05
NOMINAL_S = 0.0004
WINDOW = 5  # samples in the running median


def reference() -> Fraction:
    """The fixed reference computation, about 0.4 ms."""
    total = Fraction(0)
    table = {}
    for i in range(1, 100):
        total += Fraction(i, i + 3)
        table[(i, i & 7)] = total
        table.pop((i - 5, (i - 5) & 7), None)
    return total


class SpeedClock:
    """Samples the reference every INTERVAL_S while started."""

    def __init__(self):
        self.at: List[float] = []        # sample start times
        self.took: List[float] = []      # reference durations
        self.spent: List[float] = []     # cumulative sampler time after each sample
        self._previous = None

    def sample(self, *_):
        t0 = monotonic()
        reference()
        t1 = monotonic()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.spent.append((self.spent[-1] if self.spent else 0.0) + (monotonic() - t0))

    def start(self) -> None:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.sample()

    def converter(self):
        """A function (a, b) -> reference seconds between raw times a < b,
        sampler time excluded; call after stop()."""
        at, took, n = self.at, self.took, len(self.at)
        own = [self.spent[0]] + [self.spent[k] - self.spent[k - 1] for k in range(1, n)]
        half = WINDOW // 2
        factor = [NOMINAL_S / statistics.median(took[max(0, k - half):k + half + 1])
                  for k in range(n)]
        # stretch k runs from the end of sample k to the start of sample k + 1
        stretch = [max(at[k + 1] - at[k] - own[k], 0.0) for k in range(n - 1)]
        seg = [0.5 * (factor[k] + factor[k + 1]) for k in range(n - 1)]
        cum = [0.0]
        for k in range(n - 1):
            cum.append(cum[-1] + stretch[k] * seg[k])

        def position(t: float) -> float:
            k = bisect.bisect_right(at, t) - 1
            if k < 0:  # before the first sample its speed extends backwards
                return (t - at[0]) * factor[0]
            inside = max(t - at[k] - own[k], 0.0)
            if k == n - 1:
                return cum[k] + inside * factor[k]
            return cum[k] + min(inside, stretch[k]) * seg[k]

        return lambda a, b: position(b) - position(a)

    def median_reference(self) -> float:
        return statistics.median(self.took)
