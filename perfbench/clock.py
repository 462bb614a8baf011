"""Job timing in reference-host seconds.

On a shared host the speed of the same single-threaded code drifts by tens
of percent, both from one second to the next and over minutes.  A Clock
therefore measures the host's speed while it times a job, by running a fixed
kernel of stdlib ``Fraction`` and ``dict`` work: for BRACKET_S right before
and right after the job (adjacent jobs share the sample between them), and
for SAMPLE_ITERATIONS iterations every SAMPLE_EVERY_S during the job, from a
SIGALRM handler.  The time spent in the handler is taken out of the job's
time.  Each job is reported in reference-host seconds: its raw seconds times
REFERENCE_ITERATION_S over the mean kernel iteration time measured around
and during it.  The kernel never changes, so two commits measured with the
same benchmark are scaled alike.

The sampler uses ``signal.setitimer``, so a Clock must be used from the main
thread of a POSIX process.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Kernel iteration time that defines the reference host speed.
REFERENCE_ITERATION_S = 1e-3
BRACKET_S = 0.02
SAMPLE_EVERY_S = 0.05
SAMPLE_ITERATIONS = 2


def _kernel() -> None:
    x = Fraction(1, 3)
    acc: dict[int, Fraction] = {}
    for i in range(1, 120):
        x = x * Fraction(i + 2, i + 1) + Fraction(1, i + 7)
        acc[i % 17] = acc.get(i % 17, 0) + x


def calibrate(seconds: float) -> tuple[float, int]:
    """(seconds, iterations) of the kernel run for at least ``seconds``, at least once."""
    t0 = time.perf_counter()
    n = 0
    while True:
        _kernel()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return elapsed, n


class Clock:
    """Times jobs and measures the host's speed around and during each one."""

    def __init__(self, sample: bool = True) -> None:
        self.sample = sample
        self.raw: list[tuple[str, float]] = []  # job seconds, sampling taken out
        self.inside: list[tuple[float, int]] = []  # kernel (seconds, iterations) during each job
        self.brackets: list[tuple[float, int]] = [calibrate(BRACKET_S)]

    def time(self, key: str, fn, *args):
        """Call ``fn(*args)`` as the job ``key`` and return its result."""
        spent = [0.0, 0]

        def sample(signum, frame):
            t0 = time.perf_counter()
            for _ in range(SAMPLE_ITERATIONS):
                _kernel()
            spent[0] += time.perf_counter() - t0
            spent[1] += SAMPLE_ITERATIONS

        if self.sample:
            previous = signal.signal(signal.SIGALRM, sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = time.perf_counter() - t0
            if self.sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self.raw.append((key, elapsed - spent[0]))
            self.inside.append((spent[0], spent[1]))
            self.brackets.append(calibrate(BRACKET_S))

    def jobs(self) -> list[tuple[str, float]]:
        """(key, reference-host seconds) of every job timed so far."""
        out = []
        for i, (key, seconds) in enumerate(self.raw):
            parts = (self.brackets[i], self.inside[i], self.brackets[i + 1])
            per_iteration = sum(s for s, _ in parts) / sum(n for _, n in parts)
            out.append((key, seconds * REFERENCE_ITERATION_S / per_iteration))
        return out

    def to_json_dict(self) -> dict:
        return {"raw_s": self.raw, "kernel_inside": self.inside, "kernel_brackets": self.brackets}
