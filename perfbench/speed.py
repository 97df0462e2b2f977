"""Host-speed probe that the benchmark's timings are scaled by.

The benchmark runs on a few cores of a shared host whose speed swings
1.5-1.9x, for seconds to tens of seconds at a time, alike for every kind of
code: pwlcycles' operations, a plain Python loop, small and large numpy
arithmetic.  A whole 30-second run can fall in a slow stretch, so no
statistic taken over one run's raw times stays put between runs.

A run therefore times a fixed probe (``probe``: a Python loop, small 2x2
numpy steps and vector numpy work, in equal shares like pwlcycles' own
code) every ``INTERVAL_S`` seconds between operations, and after an
operation longer than that one probe per ``INTERVAL_S`` it took, up to
``NEIGHBOURS``.  An operation's scaled time is its raw time times
``REFERENCE_S`` over the mean of the ``NEIGHBOURS`` probes just before and
the ``NEIGHBOURS`` just after it: the time it would take on a host where
the probe takes ``REFERENCE_S``.  On a 2-vCPU VM, with the probe and one
operation of each workload interleaved for 120 s, an operation's spread
(q3 - q1) / median was 0.30-0.38 raw and 0.12-0.16 scaled.  The probe
does not call pwlcycles, so a change to the package moves scaled times as
it moves raw ones.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from time import perf_counter

import numpy as np

REFERENCE_S = 0.007   # about the probe time on the host of baseline.json in its fast stretches
INTERVAL_S = 0.25     # seconds of operations between two probes
NEIGHBOURS = 4        # probes on each side of an operation that scale it

_M = np.array([[0.3, -1.2], [0.7, 0.1]])
_V = np.array([0.5, -0.25])
_G = np.geomspace(1e-3, 1e3, 4096)


def probe() -> None:
    """Fixed work of about ``REFERENCE_S`` seconds that does not use pwlcycles."""
    s = 0.0
    for i in range(30_000):
        s += (i % 7) * 0.5
    x = _V
    for _ in range(1_500):
        x = _M @ x + _V
        x = x / (1.0 + abs(float(x[0])))
    for _ in range(30):
        np.sum(np.sin(_G) * np.exp(-_G * 1e-3) / (1.0 + _G))


class Speedometer:
    """Probe times of one run, and the scaling of operation times by them."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def probe(self) -> None:
        t0 = perf_counter()
        probe()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def probes(self, n: int = NEIGHBOURS) -> None:
        for _ in range(n):
            self.probe()

    def maybe_probe(self) -> None:
        """Probe once per ``INTERVAL_S`` passed since the last probe ended,
        at most ``NEIGHBOURS`` times."""
        if not self.starts:
            self.probes()
            return
        idle = perf_counter() - self.starts[-1] - self.durations[-1]
        self.probes(min(NEIGHBOURS, int(idle / INTERVAL_S)))

    def factor(self, t0: float, t1: float) -> float:
        """Reference over the host's probe time around the interval [t0, t1]."""
        i = bisect_left(self.starts, t0)       # probes before i started before t0
        j = bisect_left(self.starts, t1)       # probe j is the first to start after t1
        near = self.durations[max(0, i - NEIGHBOURS):i] + self.durations[j:j + NEIGHBOURS]
        return REFERENCE_S / statistics.fmean(near)

    def scaled(self, t0: float, t1: float) -> float:
        """Duration of the interval [t0, t1] scaled to the reference speed."""
        return (t1 - t0) * self.factor(t0, t1)

    def factors(self) -> list:
        """Probe times over the reference: 1.0 at reference speed, 1.5 when 1.5x slower."""
        return [d / REFERENCE_S for d in self.durations]
