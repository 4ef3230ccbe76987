"""Host-speed sampling, so that reported times do not follow the host's load.

The shared host this benchmark was built on changes speed by a factor of
up to two within minutes: one `corpus_200` pass took 3.2 s and 5.8 s four
minutes apart.  Process CPU time follows wall time and the kernel reports
almost no steal time, so the slowdown is contention inside the CPU, and no
statistic over one run's passes removes it.

The benchmark therefore interleaves a fixed reference kernel with its work
and reports times scaled to the speed the host had when `REFERENCE_S` was
measured.  While a `HostSpeed` is active, a timer interrupts the workload
every `INTERVAL_S` seconds and runs one kernel slice; the slice's time is
taken out of the workload's clock.  A span of work that took `t` seconds of
workload clock while the slices in it averaged `k` seconds is reported as
`t * REFERENCE_S / k`.  The kernel imports nothing from the program, so a
change to the program moves the reported times and leaves the kernel alone.

The kernel mirrors the program's mix: product-rule arithmetic on small
objects that hold numpy arrays, over a 200-row batch (interpreter and
per-object overhead, as in the 200-sample workloads) or a 5000-row batch
(array work, as in `r3_wide`).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.3
# Median seconds of one kernel slice per batch size, measured on the machine
# the baseline was recorded on (2-vCPU Intel Xeon, Python 3.11.7, numpy 2.4.6).
REFERENCE_S = {200: 0.015, 5000: 0.015}
_STEPS = {200: 360, 5000: 40}

_TRI = ([0, 0, 1], [0, 1, 1])


class _Jet:
    __slots__ = ("v", "g", "h")

    def __init__(self, v, g, h):
        self.v, self.g, self.h = v, g, h

    def __add__(self, o):
        return _Jet(self.v + o.v, self.g + o.g, self.h + o.h)

    def __mul__(self, o):
        i, j = _TRI
        cross = self.g[:, i] * o.g[:, j] + self.g[:, j] * o.g[:, i]
        return _Jet(self.v * o.v,
                    self.v[:, None] * o.g + o.v[:, None] * self.g,
                    self.v[:, None] * o.h + o.v[:, None] * self.h + cross)


def kernel_seconds(rows: int) -> float:
    """Seconds for one slice of the fixed reference computation."""
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    a = _Jet(rng.random(rows), rng.random((rows, 2)), rng.random((rows, 3)))
    b = _Jet(rng.random(rows), rng.random((rows, 2)), rng.random((rows, 3)))
    memo = {}
    acc = a
    for step in range(_STEPS[rows]):
        acc = acc * b + a if step % 3 else acc + b * a
        memo[step % 16] = acc
        acc = _Jet(acc.v * 0.5, acc.g * 0.5, acc.h * 0.5)
    return time.perf_counter() - start


def sample(rows: int, count: int) -> list[float]:
    """`count` kernel slices, after one untimed warm-up slice."""
    kernel_seconds(rows)
    return [kernel_seconds(rows) for _ in range(count)]


def scaled(seconds: float, slices: list[float], rows: int) -> float:
    """`seconds` of work at the reference speed, given the kernel slices
    timed while the work ran."""
    return seconds * REFERENCE_S[rows] / statistics.fmean(slices)


class HostSpeed:
    """Samples the kernel on a timer while active; `clock()` excludes it."""

    def __init__(self, rows: int):
        self.rows = rows
        self.slices: list[float] = []
        self._spent = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self._spent

    def since(self, count: int) -> list[float]:
        """Slices taken after the first `count`; one is taken if none was."""
        if len(self.slices) == count:
            self._tick(None, None)
        return self.slices[count:]

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.slices.append(kernel_seconds(self.rows))
        self._spent += time.perf_counter() - start

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
