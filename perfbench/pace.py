"""The host's pace, to scale host seconds by.

On a shared host the same pass takes from 1x to 2x its quiet time, as
other tenants load the cores under this one, and a load lasts from
milliseconds to minutes, so medians of raw seconds differ by up to a
quarter from run to run. A fixed loop of the benchmark's own slows by
about the same factor at the same moment. HostPace times it every
PROBE_EVERY_S while it samples, and a stretch of work is reported as its
host seconds times scale(), REFERENCE_PROBE_S over the median probe time
of that stretch: the seconds it would take at the pace where the probe
takes REFERENCE_PROBE_S, its time on the quiet 2.1 GHz Xeon the benchmark
was tuned on. The probe runs no package code, so a change to the package
moves host seconds and scaled seconds by the same factor.

This module imports only the standard library, so that worker.py can
start sampling before it imports the package it times the set-up of.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from array import array
from time import perf_counter

PROBE_EVERY_S = 0.002
REFERENCE_PROBE_S = 16e-6


def probe_loop() -> int:
    total = 0
    for i in range(300):
        total += i * i % 7
    return total


class HostPace:
    """Probe times, taken by a SIGALRM handler between start() and stop().

    They are kept in an array of doubles, so that sampling leaves no
    objects behind in the work it measures."""

    def __init__(self) -> None:
        self.samples = array("d")
        self._previous = None

    def sample(self, *_) -> None:
        tick = perf_counter()
        probe_loop()
        self.samples.append(perf_counter() - tick)

    def start(self) -> None:
        """Forget earlier samples, time the probe now and then every
        PROBE_EVERY_S."""
        del self.samples[:]
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        """Stop the timer, time the probe once more and restore the
        SIGALRM handler start() replaced."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def sampling(self):
        """Sample for the duration of the block."""
        self.start()
        try:
            yield self
        finally:
            self.stop()

    def scale(self) -> float:
        """The factor from host seconds to reference seconds."""
        return REFERENCE_PROBE_S / statistics.median(self.samples)
