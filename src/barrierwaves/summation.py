"""Compensated accumulation for the operator series.

``apply_taylor`` and ``apply_plane_wave`` sum the terms of each order
n1 + n2 = m with numpy, in extended precision, and add the N + 1 order
sums through the compensated accumulator below; for a batch of
wavevectors the accumulator holds one array of partial sums.
``supershift_experiment`` adds the n + 1 weighted atoms of each F_n
through it, which is where the alternating weights cancel.  Each add
recovers its exact rounding error with Knuth's TwoSum, which needs no
comparison of the two terms' sizes, so it loses no accuracy when a new
term is larger than the current sum.  Complex addition and subtraction act
part by part, so a complex sum is compensated part by part.
"""

from __future__ import annotations


class CompensatedSum:
    """Compensated accumulator for real or complex scalars or arrays (elementwise)."""

    __slots__ = ("_sum", "_comp")

    def __init__(self, initial=0.0):
        self._sum = initial + 0.0
        self._comp = 0.0 * self._sum

    def add(self, term):
        a = self._sum
        s = a + term
        # Knuth's TwoSum: with b = s - a, (a - (s - b)) + (term - b) is
        # exactly the rounding error (a + term) - s
        b = s - a
        self._comp = self._comp + ((a - (s - b)) + (term - b))
        self._sum = s

    @property
    def value(self):
        return self._sum + self._comp
