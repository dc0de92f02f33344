"""Compensated accumulation for the operator series.

``apply_taylor``, ``apply_plane_wave`` and ``supershift_experiment`` add
their terms one by one through the Neumaier variant of Kahan summation
below, which tracks a running correction term and loses no accuracy when a
new term is larger than the current sum.
"""

from __future__ import annotations

import numpy as np


class CompensatedSum:
    """Neumaier compensated accumulator for real or complex scalars."""

    __slots__ = ("_sum", "_comp")

    def __init__(self, initial=0.0):
        self._sum = initial + 0.0
        self._comp = 0.0 * self._sum

    def add(self, term):
        s = self._sum + term
        # branch-free two-term recovery of the rounding error of s
        big = np.where(abs(np.asarray(self._sum)) >= abs(np.asarray(term)), self._sum, term)
        small = np.where(abs(np.asarray(self._sum)) >= abs(np.asarray(term)), term, self._sum)
        self._comp = self._comp + ((big - s) + small)
        self._sum = s

    @property
    def value(self):
        return self._sum + self._comp
