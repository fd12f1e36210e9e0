"""Machine-speed probe for the end-to-end times.

The benchmark runs on shared machines, where the speed one process gets
drifts by +-15% over half a minute and by more between minutes.  The probe
times a small fixed chunk of numpy work in the program's mix, before and
after each command and, through an interval timer, every ``period``
seconds while the command runs.  The chunk never changes, so its mean time
over ``CHUNK_REF_S`` is the slowdown the machine imposed on the command;
dividing by it removes most of the drift that a perf change does not cause.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# chunk time on a quiet 2-core Xeon guest (Python 3.11, numpy 2.4); it only
# sets the scale of the reported times
CHUNK_REF_S = 0.003

_X = np.linspace(-8.0, 8.0, 769)
_C = np.linspace(-6.0, 6.0, 48)
_GX, _GY = np.meshgrid(_C, _C, indexing="ij")
_IDX = np.clip(((_GX + 6.01) / 0.25).astype(int), 0, 46)


def chunk() -> float:
    """Seconds for numpy calls on two points (an off-grid march), on a 1D
    grid of 769 faces and on a 48 x 48 grid."""
    start = time.perf_counter()
    p = np.array([[7.9], [-7.9]])
    for _ in range(40):
        k1 = 0.3 + 0.15 * p
        k2 = 0.3 + 0.15 * (p + 1e-3 * k1)
        p = p + 5e-4 * (k1 + k2)
        if not np.all(np.isfinite(p)):
            raise ArithmeticError("probe march diverged")
    v = np.exp(-_X * _X)
    for _ in range(30):
        a = 0.3 + 0.15 * _X
        flux = np.maximum(a, 0.0) * v + np.minimum(a, 0.0) * np.roll(v, -1)
        v = v - 1e-4 * np.diff(flux, prepend=0.0)
        float((v * v).sum())
    g = np.exp(-(_GX * _GX + _GY * _GY))
    for _ in range(10):
        fx = np.maximum(0.1 - _GY, 0.0) * g
        fy = np.maximum(_GX - 0.1, 0.0) * g
        g = g - 1e-4 * (np.diff(fx, axis=0, prepend=0.0) + np.diff(fy, axis=1, prepend=0.0))
        float((g * np.take(g, _IDX)).sum())
    return time.perf_counter() - start


class SpeedProbe:
    """Chunk times of one run, in order."""

    def __init__(self, period: float = 0.1):
        self.period = period
        self.chunks: list[float] = []

    def sample(self, count: int = 1) -> None:
        self.chunks += [chunk() for _ in range(count)]

    def _on_alarm(self, signum, frame) -> None:
        self.chunks.append(chunk())

    def timed(self, fn):
        """Run ``fn()`` with a chunk before, after and every ``period``
        seconds during it.  Returns its result, its wall time without the
        chunks run inside it, and that time divided by the slowdown."""
        self.sample()
        first = len(self.chunks)
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        inside = self.chunks[first:]
        self.sample()
        busy = wall - sum(inside)
        return result, busy, busy / self.slowdown(self.chunks[first - 1:])

    @staticmethod
    def slowdown(chunks: list[float]) -> float:
        return statistics.mean(chunks) / CHUNK_REF_S
