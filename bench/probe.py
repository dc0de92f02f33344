"""Speed probe: tracks how fast the shared core runs while a workload runs.

On a small shared machine the effective speed of a core drifts by 10-30 %
over tens of seconds and can swing by 2x (other tenants, frequency), which
swamps any change a run-to-run comparison should see.  The probe runs
three tiny fixed kernels that never touch barrierwaves -- an interpreter
loop, scalar numpy calls and a vectorized ``wofz`` -- in a background
thread every ``INTERVAL_S``, pinned to the same core as the workload, and
times each with the thread's own CPU clock, so sharing the core with the
workload does not inflate it.  Each sample is divided by that kernel's
time on the reference machine; ``slowdown(start, end)`` averages those
ratios over the samples taken while one request ran, and dividing the
request's latency by it gives its latency at the reference speed.

The probe costs about 1 % of the core (one ~0.2 ms kernel per 20 ms).
"""

from __future__ import annotations

import bisect
import os
import threading
import time

import numpy as np
from scipy.special import wofz

INTERVAL_S = 0.02

#: fewest samples a slowdown is averaged over; short requests borrow the
#: samples nearest to them
MIN_SAMPLES = 9

_Z = np.linspace(-3.0, 3.0, 500) + 1j * np.linspace(0.1, 2.0, 500)


def _interpreter():
    acc = 0.0
    for i in range(1500):
        acc += (i * 0.5) % 7.0
    return acc


def _scalar_numpy():
    x, acc = np.float64(1.0), 0.0
    for _ in range(60):
        acc += float(np.where(abs(x) >= abs(acc), x, acc))
    return acc


def _vector():
    return float(np.sum(np.abs(wofz(_Z) * np.exp(1j * _Z))))


#: each kernel with its time on the reference machine (2 vCPU Intel Xeon
#: at 2.1 GHz, Python 3.11, numpy 2.4, scipy 1.17)
KERNELS = ((_interpreter, 1.7e-4), (_scalar_numpy, 1.9e-4), (_vector, 1.5e-4))


def pin_to_one_core() -> int:
    """Restrict this process to the lowest core it may use; returns it."""
    core = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


class SpeedProbe:
    """Context manager sampling the kernels while the block runs."""

    def __init__(self):
        self._stamps = []     # perf_counter at the end of each sample
        self._ratios = []     # sample time / reference time
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self):
        i = 0
        while not self._stop.wait(INTERVAL_S):
            kernel, reference = KERNELS[i % len(KERNELS)]
            start = time.thread_time()
            kernel()
            self._ratios.append((time.thread_time() - start) / reference)
            self._stamps.append(time.perf_counter())
            i += 1

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def slowdown(self, start: float, end: float) -> float:
        """Mean sample/reference ratio over [start, end]; call after the block.

        Windows holding fewer than MIN_SAMPLES samples are widened to the
        samples nearest them.
        """
        n = len(self._stamps)
        if n < MIN_SAMPLES:
            raise RuntimeError(f"speed probe took only {n} samples")
        lo = bisect.bisect_left(self._stamps, start)
        hi = bisect.bisect_right(self._stamps, end)
        while hi - lo < MIN_SAMPLES:
            if lo > 0 and (hi >= n or start - self._stamps[lo - 1] < self._stamps[hi] - end):
                lo -= 1
            else:
                hi += 1
        return sum(self._ratios[lo:hi]) / (hi - lo)
