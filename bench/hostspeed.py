"""How fast the host runs right now, from a fixed reference task.

The machines this benchmark runs on share their cores' caches and memory
with other tenants, and their speed drifts by 20-40 % over minutes: the
same run of qmono calls took 30 % longer a few minutes later, with CPU
time tracking wall time.  A run of a few seconds cannot average that out.

So a run also times a fixed reference task, a few tens of milliseconds of
the same kinds of work qmono does, interleaved with its calls: Python
dicts and number formatting, and numpy arithmetic on stacks of 4x4
complex matrices of the size the workload's calls process (a stack of 1
for one-state reports, 10^4 for the large ensembles), since the drift
slows cache-sized and memory-sized arrays by different amounts.  The
speed also moves within a run, over seconds, so each timed interval is
scaled by REFERENCE_S over the median of the NEAREST reference samples
around it: it reads as seconds on the reference host at its usual speed.
The task uses no qmono code, so no change to qmono moves it.
"""

from __future__ import annotations

import bisect
import csv
import io
import statistics
from time import perf_counter

import numpy as np

# Median reference time on the machine the bounds were measured on
# (2 cores, numpy 2.4.6, Python 3.11), in seconds; about the same for
# every stack size below.
REFERENCE_S = 0.033
# Seconds of calls between two reference samples.
EVERY_S = 0.25
# Reference samples around a timed interval whose median scales it.
NEAREST = 8

_rng = np.random.default_rng(0)
_VALUES = _rng.random((700, 6))


def _stack(batch):
    return _rng.normal(size=(batch, 4, 4)) + 1j * _rng.normal(size=(batch, 4, 4))


def reference_task(stack) -> float:
    """Seconds one pass of the fixed reference work takes now."""
    t0 = perf_counter()
    a = stack.copy()
    # about 12 ms of array work whatever the stack size
    for _ in range(max(1, round(600 / (1 + len(stack) / 30)))):
        h = a @ np.conj(np.swapaxes(a, -1, -2))
        z = h[:, 0, 1]
        t = np.sqrt(1.0 + np.abs(z) ** 2) - np.abs(z)
        e = np.exp(1j * np.angle(np.where(np.abs(z) > 0, z, 1.0)))
        a = h / np.linalg.norm(h, axis=(-2, -1), keepdims=True) + (t * e)[:, None, None]
    buf = io.StringIO()
    writer = csv.writer(buf)
    for i, row in enumerate(_VALUES):
        rec = {"index": i, **{f"c{k}": float(x) for k, x in enumerate(row)}}
        writer.writerow([format(v, ".17g") for v in rec.values()])
    return perf_counter() - t0


class HostSpeed:
    """Reference samples taken at most every EVERY_S seconds, with their start times."""

    def __init__(self, batch):
        self._stack = _stack(batch)
        self.times = []
        self.samples = []
        self._next = 0.0

    def sample(self, force=False):
        now = perf_counter()
        if force or now >= self._next:
            self.times.append(now)
            self.samples.append(reference_task(self._stack))
            self._next = perf_counter() + EVERY_S

    def scale(self, t: float) -> float:
        """Multiplier taking seconds measured at perf_counter() time t to reference seconds."""
        lo = bisect.bisect_left(self.times, t) - NEAREST // 2
        lo = max(0, min(lo, len(self.times) - NEAREST))
        return REFERENCE_S / statistics.median(self.samples[lo:lo + NEAREST])
