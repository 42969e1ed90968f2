"""Machine-speed yardstick for every time the benchmark reports.

On a shared 2-core Xeon VM the same work runs up to 1.9x slower for
minutes at a time, so raw wall times of one run say more about the
neighbours than about the code.  A fixed pure-Python kernel, independent
of qfcsim, is timed between the measured operations; each reported time
is scaled by ``REF_S / median(kernel time)``, with the kernel samples
taken just before and after it, into seconds at the speed the kernel had
when ``REF_S`` was measured.  In a 200 s trial this cut the spread of 15 s
window medians from 25-31% to 3.5-6.5%.  For set-up probes the gain was
mixed: from 11% to 5% in one trial, none in another.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass

# median kernel time on the machine of perfbench/BASELINE.json
REF_S = 0.063


@dataclass(frozen=True)
class _Point:
    a: float
    b: float

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("negative")


def kernel() -> float:
    """Seconds for one fixed mix of arithmetic, dict and small-object work.

    The collector is off while it runs, so the caller's heap does not count.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _timed_kernel()
    finally:
        if enabled:
            gc.enable()


def _timed_kernel() -> float:
    start = time.perf_counter()
    acc = 0.0
    for i in range(150_000):
        acc += math.sqrt(i) * (i % 7)
    table = {}
    for i in range(50_000):
        table[i] = str(i)
    for i in range(20_000):
        p = _Point(i * 0.5, 1.0 + i)
        acc += math.exp(-p.a * 1e-4) * p.b + math.sin(p.a) ** 2
    return time.perf_counter() - start


class Calibrator:
    """Kernel samples taken in groups between measured operations.

    An operation timed between two groups is scaled by the median of
    those two groups only, which tracks speed changes within a run.
    """

    def __init__(self):
        self.groups: list[list[float]] = []

    def sample(self, n: int = 2) -> None:
        self.groups.append([kernel() for _ in range(n)])

    def sample_after(self, seconds: float) -> None:
        """Take a group sized to the operation just timed (about 1 per 0.5 s)."""
        self.sample(max(2, min(20, round(seconds * 2.0))))

    def scale_last(self, seconds: float) -> float:
        """Reference-speed seconds of an operation run between the last two groups."""
        return seconds * REF_S / statistics.median(self.groups[-2] + self.groups[-1])

    @property
    def factor(self) -> float:
        """Overall scale of this run: reference over measured kernel time."""
        return REF_S / statistics.median(k for g in self.groups for k in g)
