"""Compensated accumulation for the operator series.

``apply_taylor`` and ``apply_plane_wave`` sum the terms of each order
n1 + n2 = m with numpy, in extended precision, and add the N + 1 order
sums through the Neumaier variant of Kahan summation below; for a batch
of wavevectors the accumulator holds one array of partial sums.  ``supershift_experiment``
adds the n + 1 weighted atoms of each F_n through it, which is where the
alternating weights cancel.  The accumulator tracks a running correction
term and loses no accuracy when a new term is larger than the current sum.
"""

from __future__ import annotations

import numpy as np


class CompensatedSum:
    """Neumaier compensated accumulator for real or complex scalars or arrays (elementwise)."""

    __slots__ = ("_sum", "_comp")

    def __init__(self, initial=0.0):
        self._sum = initial + 0.0
        self._comp = 0.0 * self._sum

    def add(self, term):
        s = self._sum + term
        # branch-free two-term recovery of the rounding error of s
        keep = abs(np.asarray(self._sum)) >= abs(np.asarray(term))
        big = np.where(keep, self._sum, term)
        small = np.where(keep, term, self._sum)
        self._comp = self._comp + ((big - s) + small)
        self._sum = s

    @property
    def value(self):
        return self._sum + self._comp
