"""Machine-speed calibration for timings on a shared host.

On a host shared with other tenants the speed of one core drifts by tens of
percent over seconds to minutes, and every kind of operation moves with it.
The benchmark therefore times a small fixed kernel all through each pass and
reports times scaled to the kernel's reference speed:

    reference seconds = measured seconds * REFERENCE_S / mean kernel seconds

``Sampler`` runs the kernel from a ``SIGALRM`` handler every ``INTERVAL_S``
of wall time, so the samples are spread evenly over the pass, long
operations included; the time the handler takes inside an operation is
subtracted from that operation.  The kernel is exact ``Fraction`` Gaussian
elimination on a fixed matrix and calls nothing in ``pasmpoly``, so no change
to the program can change it.  The raw seconds stay in the run record.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# Typical sampled kernel time during a pass on the host the baseline was
# recorded on (2 vCPU Xeon at 2.1 GHz, Python 3.11), so that reference and
# raw seconds are close there.  It fixes the unit only; comparisons between
# two commits on one host do not depend on it.
REFERENCE_S = 0.00078
INTERVAL_S = 0.05

_N = 6
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(_N)]
           for i in range(_N)]


def _eliminate(rows: list[list[Fraction]]) -> int:
    rank = 0
    for col in range(_N):
        pivot = next((i for i in range(rank, _N) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(_N):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def kernel_seconds() -> float:
    """Wall time of one kernel run.  An untimed run first warms the caches,
    so the reading follows the core's speed, not how much of the cache the
    program left cold; the cyclic collector is paused so that garbage the
    program left behind is not collected on the kernel's clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _eliminate([list(r) for r in _MATRIX])
        rows = [list(r) for r in _MATRIX]
        t0 = time.perf_counter()
        _eliminate(rows)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_factor(kernels: list[float]) -> float:
    """Multiplier from measured to reference seconds."""
    return REFERENCE_S * len(kernels) / sum(kernels)


class Sampler:
    """Kernel samples taken on a wall-clock timer while the context is open.

    ``samples`` holds (start, kernel seconds, handler seconds) on the
    ``time.perf_counter`` clock.  Only one sampler may be open at a time: it
    owns ``SIGALRM``.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []
        self.busy = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel = kernel_seconds()
        busy = time.perf_counter() - start
        self.samples.append((start, kernel, busy))
        self.busy += busy

    def clock(self) -> float:
        """``time.perf_counter`` stopped while the handler runs."""
        return time.perf_counter() - self.busy

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy_between(self, start: float, end: float) -> float:
        """Handler time spent inside [start, end), to subtract from it."""
        return sum(busy for t, _, busy in self.samples if start <= t < end)

    def kernels(self) -> list[float]:
        return [kernel for _, kernel, _ in self.samples]
