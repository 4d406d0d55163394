"""Host speed gauge: a fixed pure-Python reference workload sampled during a run.

The benchmark host is shared, and its speed moves by tens of percent within
minutes, for the package and for any other Python code alike.  While a
timed round runs, an interval timer interrupts it every `every` seconds
and the signal handler times `reference_work()`: a small exact Gaussian
elimination over `fractions.Fraction`, the same kind of work as the
package's exact linear algebra (Python-level arithmetic on big integers).
The time spent in the handler is left out of every item time (`clock()`),
and each item time is multiplied by `factor()` = REFERENCE_S / (median of
the samples taken around that item), i.e. given in seconds of a host that
runs the reference work in REFERENCE_S.

The reference work is fixed code of the benchmark; nothing in the package
can make it faster or slower.  The process stays single-threaded: the
handler runs in the main thread between two bytecodes of the program.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# About the median sample of a timed run on the host the baseline was taken
# on (2 vCPU Xeon, 2.0 GHz nominal, Python 3.11.7).  Any fixed value would
# do: it only sets the unit in which two commits' scaled times compare.
REFERENCE_S = 0.028
SIZE = 14
REPEATS = 3
# An item's time is scaled by the samples within REACH seconds of it, or by
# the NEAREST closest samples when fewer fall in reach.
REACH = 1.5
NEAREST = 5


def _matrix(n: int) -> list:
    x, rows = 12345, []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % 2**31
            row.append(Fraction(x % 199 - 99, 1 + x % 7))
        rows.append(row)
    return rows


def _eliminate(a: list) -> list:
    n = len(a)
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c])
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] * inv
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return a


def reference_work() -> Fraction:
    """The work of one sample; returns a checksum so that none is skipped."""
    total = Fraction(0)
    for _ in range(REPEATS):
        total += _eliminate(_matrix(SIZE))[-1][-1]
    return total


CHECKSUM = reference_work()


class Gauge:
    """Samples of reference_work(), taken on demand or on a timer."""

    def __init__(self, every: float = 0.5):
        self.every = every
        self.samples = []  # seconds per sample
        self.at = []  # clock() reading when each sample was taken
        self.spent = 0.0  # wall time spent sampling
        self._previous_handler = None

    def sample(self) -> None:
        at = self.clock()
        collecting = gc.isenabled()
        gc.disable()  # the program's garbage is not collected on the gauge's time
        try:
            t0 = time.perf_counter()
            checksum = reference_work()
            seconds = time.perf_counter() - t0
        finally:
            if collecting:
                gc.enable()
        if checksum != CHECKSUM:
            raise RuntimeError("gauge reference work gave another result")
        self.samples.append(seconds)
        self.at.append(at)
        self.spent += time.perf_counter() - t0

    def clock(self) -> float:
        """perf_counter() with the time spent sampling taken out."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no sample ran between the two reads
                return now - spent

    def __enter__(self) -> "Gauge":
        self._previous_handler = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def factor(self, start=None, end=None) -> float:
        """REFERENCE_S / median sample: multiply a time measured by clock()
        from `start` to `end` by it.  The median is over the samples taken
        within REACH seconds of that span, or over the NEAREST samples
        closest to it when there are fewer; without a span, over all."""
        chosen = self.samples
        if start is not None:
            distance = sorted((max(start - at, at - end, 0.0), s)
                              for at, s in zip(self.at, self.samples))
            near = [s for d, s in distance if d <= REACH]
            chosen = near if len(near) >= NEAREST else [s for _, s in distance[:NEAREST]]
        return REFERENCE_S / statistics.median(chosen)
