"""Host speed sampling, so that times taken on a shared machine compare.

The machine this benchmark was tuned on shares its cores with other tenants.
Its speed drifts by up to a factor of two over seconds to minutes, in process
CPU time as much as in wall time. ``HostSpeed`` measures the drift while the
benchmark runs: an interval timer interrupts the main thread every
``INTERVAL_S`` seconds, and the handler times a few milliseconds of fixed work
that runs no overchain code (Ed25519 verification and JSON encoding, the two
kinds of work a scenario spends its time on). ``scaled`` turns a measured
span into seconds at the reference speed: it takes out the handler's own
time, then scales by ``reference_s`` over the mean fixed-work time of the
samples taken during the span or within ``WINDOW_S`` seconds of it.

The handler touches no simulation state, so a sampled run produces the same
trace bytes as an unsampled one.
"""
from __future__ import annotations

import json
import signal
import statistics
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

clock = time.perf_counter
INTERVAL_S = 0.05  # between samples; each sample takes about 3 ms
WINDOW_S = 0.3  # samples this close to a span also count for it


class HostSpeed:
    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        self.samples: list[tuple[float, float]] = []  # (taken at, fixed-work seconds)
        self.excluded = 0.0  # seconds spent in the handler so far
        key = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
        self._public = key.public_key()
        self._message = b"calibration" * 11
        self._signature = key.sign(self._message)
        self._previous_handler = None

    def fixed_work(self) -> float:
        t0 = clock()
        for _ in range(4):
            self._public.verify(self._signature, self._message)
        table = {}
        for i in range(400):
            table[i % 97] = json.dumps({"t": i, "a": str(i)})
        return clock() - t0

    def _sample(self, _signum, _frame) -> None:
        t0 = clock()
        self.samples.append((t0, self.fixed_work()))
        self.excluded += clock() - t0

    def __enter__(self) -> "HostSpeed":
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        return False

    def mark(self) -> tuple[float, float]:
        """A point in time, for ``elapsed`` and ``scaled``."""
        return clock(), self.excluded

    @staticmethod
    def elapsed(start: tuple[float, float], end: tuple[float, float]) -> float:
        """Seconds between two marks, without the handler's time."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def scaled(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """``elapsed`` in seconds at the reference speed."""
        near = [work for at, work in self.samples
                if start[0] - WINDOW_S <= at <= end[0] + WINDOW_S]
        return self.elapsed(start, end) * self.reference_s / statistics.mean(near)

    def speed(self) -> float:
        """Mean host speed over all samples, as a share of the reference."""
        return self.reference_s / statistics.mean(work for _, work in self.samples)
