"""Compensated accumulation for the operator series.

``apply_taylor`` and ``apply_plane_wave`` sum the terms of each order
n1 + n2 = m with numpy, in extended precision, and add the N + 1 order
sums through the Neumaier variant of Kahan summation below; for a batch
of wavevectors the accumulator holds one array of partial sums.  ``supershift_experiment``
adds the n + 1 weighted atoms of each F_n through it, which is where the
alternating weights cancel.  The accumulator tracks a running correction
term and loses no accuracy when a new term is larger than the current sum.
Complex sums are compensated part by part, as two real sums.
"""

from __future__ import annotations

import numpy as np


def _rounding_error(a, b, s):
    """The rounding error (a + b) - s of the real sum s = fl(a + b)."""
    # branch-free two-term recovery: subtract the sum from the larger term
    keep = abs(np.asarray(a)) >= abs(np.asarray(b))
    return (np.where(keep, a, b) - s) + np.where(keep, b, a)


class CompensatedSum:
    """Neumaier compensated accumulator for real or complex scalars or arrays (elementwise)."""

    __slots__ = ("_sum", "_comp")

    def __init__(self, initial=0.0):
        self._sum = initial + 0.0
        self._comp = 0.0 * self._sum

    def add(self, term):
        s = self._sum + term
        if np.iscomplexobj(s):
            # the larger term differs between the parts, so each part gets its own
            err = (_rounding_error(np.real(self._sum), np.real(term), np.real(s))
                   + 1j * _rounding_error(np.imag(self._sum), np.imag(term), np.imag(s)))
        else:
            err = _rounding_error(self._sum, term, s)
        self._comp = self._comp + err
        self._sum = s

    @property
    def value(self):
        return self._sum + self._comp
