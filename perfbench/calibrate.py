"""Machine-speed calibration between timed operations.

The machine this benchmark was written on is a shared 2-core VM whose speed
swings by up to 2x over seconds to minutes while nothing in the workload
changes.  A fixed kernel, owned by the benchmark and never by the package,
is timed between operations; each operation's time is then scaled by the
kernel's reference time over the kernel time measured around it.  Reported
times therefore read as seconds at the speed where the kernel takes its
reference time.  Two kernels match the two cost regimes: ``dispatch`` makes
many tiny NumPy calls like the small-m code paths, ``stream`` builds and
scans m x m arrays larger than the L2 cache like the large-m ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

import reference

_rng = np.random.default_rng(0)
_SMALL = [_rng.permuted(np.tile(np.arange(5), (5, 1)), axis=1) for _ in range(4)]
_LARGE = _rng.permuted(np.tile(np.arange(1000, dtype=np.int32), (10, 1)), axis=1)


def dispatch_kernel() -> None:
    for ranks in _SMALL:
        data = reference.Pairwise(ranks)
        for proc in (2, 7, 12, 16, 23, 27):
            keep = reference.choose(proc, data)
        reference.contract(ranks, np.array([0, 1, 2]))
        frozenset(str(i) for i in keep)


def stream_kernel() -> None:
    m = _LARGE.shape[1]
    acc = np.zeros((m, m), dtype=np.uint8)
    for row in _LARGE:
        acc += row[:, None] < row[None, :]
    acc.astype(np.int32).max(axis=0).min()


# kernel, its reference time in seconds, and the operation time between runs
KERNELS = {
    "dispatch": (dispatch_kernel, 0.002, 0.025),
    "stream": (stream_kernel, 0.008, 0.4),
}


class Calibration:
    """Runs the kernel every ``interval`` seconds of operation time and
    scales the operations in between by the mean of the two kernel times
    around them."""

    def __init__(self, kind: str):
        self.kernel, self.reference_s, self.interval = KERNELS[kind]
        self.samples: list[float] = []
        self._pending: list = []
        self._since = 0.0
        self._last = self.sample()

    def sample(self) -> float:
        """Median of three kernel runs, so one interrupted run cannot skew
        the operations it scales."""
        runs = []
        for _ in range(3):
            t0 = perf_counter()
            self.kernel()
            runs.append(perf_counter() - t0)
        seconds = sorted(runs)[1]
        self.samples.append(seconds)
        return seconds

    def add(self, op) -> None:
        self._pending.append(op)
        self._since += op.seconds
        if self._since >= self.interval:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        now = self.sample()
        scale = self.reference_s / ((self._last + now) / 2)
        for op in self._pending:
            op.scaled = op.seconds * scale
        self._last = now
        self._pending = []
        self._since = 0.0

