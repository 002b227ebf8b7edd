"""Host-speed gauge: reports compute times as they would be at a reference
speed.

On a shared virtual machine the CPU speed can change under a running
benchmark.  On the 2-core VM this benchmark was tuned on, a warm Python loop
ran at two speeds up to 2x apart, switching in phases of seconds to tens of
seconds, and the raw throughput of repeated 20 s runs spread by 40 %
between quartiles.  Warm Python code of every kind measured there (Fraction
and int arithmetic, dicts, nilcone's characters and q-analogs) slowed by the
same factor, so the gauge runs a short fixed Fraction loop between timed
operations and `Gauge.scale` gives REF_MS / (loop time around an operation).
Scaled by it, identical work reads the same in either phase.  Cold-start
work follows the loop only in part; see the callers for what each scales.
A change to nilcone cannot move the loop; only the host can.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import median
from time import perf_counter

CHUNK = 300     # loop iterations per run, about 2.5 ms
REF_MS = 2.5    # loop time that defines the reference speed
EVERY_S = 0.1   # sample at most this often between operations


def chunk_ms(iterations=CHUNK):
    """Time of the fixed loop, in milliseconds."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(iterations):
        a = Fraction(i % 13 + 1, i % 11 + 2)
        acc += a * a - a / 3
    return (perf_counter() - start) * 1e3


class Gauge:
    """Samples of the loop time, taken between the operations being timed."""

    def __init__(self):
        self.times = []  # perf_counter() at the end of each sample
        self.ms = []

    def sample(self):
        # The loop's first run after other work (another process, a large
        # item) is slowed by cold caches; time the second.
        chunk_ms()
        ms = chunk_ms()
        self.times.append(perf_counter())
        self.ms.append(ms)

    def due(self):
        return not self.times or perf_counter() - self.times[-1] >= EVERY_S

    def scale(self, start, end):
        """Factor for an operation timed from `start` to `end`.

        Uses the last sample before it and the first after it, each
        smoothed as the median of itself and its neighbours, so one
        preempted sample does not distort the operations around it.
        """
        around = (bisect_right(self.times, start) - 1,
                  bisect_left(self.times, end))
        speeds = [median(self.ms[max(k - 1, 0):k + 2]) for k in around
                  if 0 <= k < len(self.ms)]
        return REF_MS / (sum(speeds) / len(speeds))

    def median_ms(self):
        return median(self.ms)
