"""Times rescaled by the host's momentary speed.

The benchmark's host is a share of a machine whose speed drifts by a
quarter and more, over fractions of a second to minutes, and on each CPU
on its own: CPU time equals wall time, yet the same pass takes up to
twice as long in a slow stretch.  Raw pass times of the same code spread
far wider between runs than any change worth measuring.

Two fixed kernels of the benchmark's own (no library code) measure that
speed where the time is spent:

* the memory kernel makes 2,000 reads at random places of a table of
  300,000 tuples (about 48 MB), so it is bound by memory latency, as the
  library's pointer-heavy Python is.  Each call reads other places than
  the ``ROUNDS - 1`` calls before it, so that back to back calls find no
  line cached by the previous ones.  Its mean time is used.
* the compute kernel does dict and str work that stays in the caches.
  Its median time is used: at a fifth of the memory kernel's time, its
  mean is ruled by the odd interrupted call.

``Sampler`` runs both from a ``SIGALRM`` timer every ``PERIOD_S`` while a
pass runs, on the same CPU and interleaved with the pass; ``burst`` runs
them back to back around a short interval such as a set-up.  Each
kernel's time over its reference time is a slowdown; ``scaled`` divides
a wall time, less the time spent in the kernels, by a weighted geometric
mean of the two slowdowns, giving seconds at the reference speed.  The
weights are the least-squares fit of log pass time on the two log
slowdowns over 146 fresh-interpreter passes of the three workloads on a
2-CPU share of a cloud host (memory 0.28, compute 0.55, rounded here).
They sum to less than one: the kernels swing more than the passes do, so
full weights turned a fast stretch into a slow-looking pass and raised the
spread of run medians over seeds by half again.  A change to the library
moves the wall time and not the kernels, so it shows in full in the
scaled time.

The table is built when this module is imported, before the library is,
and stays resident; ``TABLE_MB`` is its resident size, which the
benchmark takes off peak memory.
"""

from __future__ import annotations

import random
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.05                 # between kernel samples during a pass
MEMORY_REFERENCE_S = 0.0015     # mean memory kernel at reference speed
COMPUTE_REFERENCE_S = 0.00015   # median compute kernel at reference speed
BURST = 16                      # kernel pairs per burst
READS = 2_000                   # table reads per memory kernel
ROUNDS = 16                     # memory kernels before the reads repeat
MEMORY_WEIGHT = 0.3             # exponents of the slowdowns in ``scaled``
COMPUTE_WEIGHT = 0.55

def _rss_mb():
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


_before = _rss_mb()
_TABLE = [(i, str(i)) for i in range(300_000)]
_READS = [random.Random(k).choices(range(len(_TABLE)), k=READS)
          for k in range(ROUNDS)]
TABLE_MB = _rss_mb() - _before
_calls = 0


def memory_work():
    """``READS`` random reads of the table."""
    global _calls
    reads = _READS[_calls % ROUNDS]
    _calls += 1
    total = 0
    for i in reads:
        total += _TABLE[i][0]
    return total


def compute_work():
    """Dict and str work on a few hundred small objects."""
    table = {}
    digits = 0
    for i in range(400):
        table[i % 97] = table.get(i % 97, 0) + i
        digits += len(str(i))
    return digits


def timed_kernels():
    """(memory kernel seconds, compute kernel seconds)."""
    start = perf_counter()
    memory_work()
    middle = perf_counter()
    compute_work()
    return middle - start, perf_counter() - middle


def burst(n=BURST):
    """Times of ``n`` kernel pairs run back to back."""
    return [timed_kernels() for _ in range(n)]


def slowdowns(pairs):
    """(memory, compute) slowdown against the reference speed."""
    return (statistics.fmean(m for m, _ in pairs) / MEMORY_REFERENCE_S,
            statistics.median(c for _, c in pairs) / COMPUTE_REFERENCE_S)


def scaled(wall, pairs, in_wall=0.0):
    """``wall`` seconds, less ``in_wall`` spent in kernels, at reference
    speed, given the kernel times measured next to or within it."""
    memory, compute = slowdowns(pairs)
    return (wall - in_wall) / (memory ** MEMORY_WEIGHT
                               * compute ** COMPUTE_WEIGHT)


class Sampler:
    """Times the kernel every ``PERIOD_S`` of wall time while active.

    ``SIGALRM`` handlers run in the main thread between bytecodes, so the
    kernel interleaves with the measured code on its CPU.  Intervals
    shorter than a few periods get a burst after the fact as well.
    """

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.kernels = []
        self._old = None

    def _tick(self, signum, frame):
        self.kernels.append(timed_kernels())

    def __enter__(self):
        self.kernels = []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def scaled(self, wall):
        extra = burst() if len(self.kernels) < 5 else []
        return scaled(wall, self.kernels + extra,
                      sum(map(sum, self.kernels)))
