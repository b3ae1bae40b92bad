"""Machine-speed probe.

On a virtual machine with shared vCPUs the same code runs up to twice as
slowly for a second to minutes at a time, and CPU time slows with it.  The
benchmark therefore times a fixed loop of standard-library work (the probe)
while it measures, and scales each measured time by the machine's speed
relative to a reference: a figure reads as seconds on a machine where one
probe takes ``REFERENCE_PROBE_S``.  The probe runs no cxkit code, so a
change to cxkit moves a scaled time in the same proportion as the raw one.
Raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# One probe's time on an idle 2-vCPU Intel Xeon virtual machine.
REFERENCE_PROBE_S = 0.002
# Seconds between two probes while a task runs.
INTERVAL_S = 0.1


def probe() -> float:
    """Seconds one run of the probe loop takes now."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - t0


def speed(probes) -> float:
    """Reference seconds per second, averaged over probes taken at even
    intervals of time."""
    return sum(REFERENCE_PROBE_S / p for p in probes) / len(probes)


class Sampler:
    """Probes the machine's speed around and during a timed region.

    A probe runs on entry, on exit, and every ``INTERVAL_S`` seconds in
    between, from a SIGALRM handler in the main thread, so it samples the
    CPU the timed work runs on (the benchmark pins itself and its children
    to one CPU).  A time from ``net`` times ``speed()`` is in reference
    seconds.
    """

    def __enter__(self):
        self.inside: list[float] = []
        self.edges = [probe()]
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def _on_alarm(self, signum, frame):
        self.inside.append(probe())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.edges.append(probe())
        return False

    def net(self, seconds: float) -> float:
        """``seconds`` timed inside the region, less the probes run there."""
        return seconds - sum(self.inside)

    def speed(self) -> float:
        return speed(self.edges + self.inside)
