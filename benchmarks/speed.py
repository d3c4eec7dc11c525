"""Host-speed sampling, to express measured seconds at a reference speed.

A small shared host switches between fast and slow phases that last from
seconds to minutes; on a 2-vCPU Xeon the same operation took from 2.5 s to
5 s within one minute. Such phases outlast a benchmark run, so a median over
the run's repeats does not remove them. The sampler times a fixed
micro-probe from a timer signal while the measured code runs, so the probe
sees the phases the measured code sees. ``scaled(seconds)`` converts a
measured time to seconds at the speed where one probe takes PROBE_REF_S.

Standard library only: set-up interpreters import this module before
iiorbit, so it must not import numpy.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PROBE_INTERVAL_S = 0.025
# One probe's duration in the fast phase of the 2-vCPU Xeon the benchmark
# was tuned on; it only sets the scale of the reported seconds.
PROBE_REF_S = 100e-6


class SpeedSampler:
    """Context manager that samples the host's speed while its body runs.

    The probe uses no iiorbit code, so a change to the package cannot move
    it. It runs once on entry and once on exit, so even a body that never
    returns to the interpreter between timer ticks gets two samples.
    """

    def __init__(self):
        self.samples: list[float] = []

    def probe(self, *_signal_args) -> None:
        t0 = perf_counter()
        n = 0
        for i in range(200):
            n += len(repr(i * 0.37))
        self.samples.append(perf_counter() - t0)

    def __enter__(self):
        self.samples = []
        self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()

    def scaled(self, seconds: float) -> float:
        """seconds at the reference speed."""
        return seconds * PROBE_REF_S / statistics.median(self.samples)
