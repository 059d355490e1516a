"""Host-speed reference: a fixed piece of work owned by the benchmark, timed
at intervals through the run window, against which the end-to-end times are
scaled.

The 2-vCPU hosts the benchmark runs on switch between speed regimes that
last from tens of seconds to minutes and differ by about 30 %: the set-up
probe, which does the same work in every run, read 0.57-0.75 s in some
50-second runs and 0.90-1.00 s in others of the same ten.  No run length
the run budget allows averages that out, so each time metric is reported as
``raw * REFERENCE_S / median(reference times of the run)``: seconds on a
host where the reference takes REFERENCE_S.  The reference never calls the
program, so a change to the program moves the scaled times exactly as it
moves the raw ones; the raw times are printed beside them.

The reference mixes the three kinds of work the ops do: an interpreted
loop, numpy calls on tiny arrays (the greedy packing scan) and vectorised
numpy arithmetic on large arrays (quadrature and cap masses).
"""

from __future__ import annotations

import statistics
import time

# seconds the reference takes on the host the scale is anchored to: about
# its median over runs on a 2-vCPU Xeon host, 28 to 36 ms
REFERENCE_S = 0.030
# a sample is taken before an op once this long has passed since the last
INTERVAL_S = 0.5


def reference() -> None:
    import numpy as np
    total = 0
    for i in range(100_000):
        total += i * i
    a = np.exp(1j * np.linspace(0.0, 50.0, 200_000))
    b = np.conj(a[::-1])
    for _ in range(4):
        np.abs(1.0 - a * b).sum()
    c, z = a[:2], b[:2]
    for _ in range(2_000):
        abs(1.0 - np.sum(c * np.conj(z)))


class HostSpeed:
    """Times :func:`reference` at most once per INTERVAL_S, when
    :meth:`take_due` is called between ops."""

    def __init__(self):
        self.times = []
        self.last = None

    def take_due(self) -> None:
        now = time.perf_counter()
        if self.last is None or now - self.last >= INTERVAL_S:
            reference()
            self.last = time.perf_counter()
            self.times.append(self.last - now)

    def factor(self) -> float:
        """Scale from this run's raw times to reference-host times."""
        return REFERENCE_S / statistics.median(self.times)
