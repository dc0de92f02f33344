"""Tests for compensated (TwoSum) summation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barrierwaves.summation import CompensatedSum


def _compensated(terms):
    acc = CompensatedSum()
    for term in terms:
        acc.add(term)
    return acc.value


def test_cancellation_classic():
    # 1 + 1e16 - 1e16 loses the 1 under naive left-to-right addition.
    acc = CompensatedSum()
    acc.add(1.0)
    acc.add(1e16)
    acc.add(-1e16)
    assert acc.value == 1.0


def test_matches_fsum_on_alternating_series():
    terms = [(-1.0) ** n / (2 * n + 1) for n in range(10_000)]
    assert _compensated(terms) == pytest.approx(math.fsum(terms), abs=1e-15)


def test_complex_accumulator_tracks_parts_independently():
    acc = CompensatedSum()
    acc.add(1.0 + 1e16j)
    acc.add(1e16 - 1e16j)
    acc.add(-1e16 + 0j)
    assert acc.value == 1.0 + 0j


def test_complex_parts_are_compensated_separately():
    # the real part loses the 1 while the imaginary part dominates the modulus
    acc = CompensatedSum()
    for term in (1e16, 1.0 + 1e17j, -1e16 - 1e17j):
        acc.add(term)
    assert acc.value == 1.0 + 0j


def test_extended_precision_accumulator_keeps_its_dtype():
    acc = CompensatedSum(np.zeros(3, dtype=np.clongdouble))
    acc.add(np.full(3, 1.0 + 2.0j, dtype=np.clongdouble))
    acc.add(np.clongdouble(-0.5j))
    assert acc.value.dtype == np.clongdouble
    assert np.all(acc.value == np.clongdouble(1.0 + 1.5j))


def test_empty_sum_is_zero():
    assert _compensated([]) == 0.0
    assert CompensatedSum().value == 0.0


def test_array_sum_real_and_complex():
    rng = np.random.default_rng(11)
    x = rng.standard_normal(257)
    assert _compensated(x) == pytest.approx(math.fsum(x), abs=1e-14)
    z = x + 1j * rng.standard_normal(257)
    ref = complex(math.fsum(z.real), math.fsum(z.imag))
    assert abs(_compensated(z) - ref) < 1e-14


def test_running_value_is_readable_mid_stream():
    acc = CompensatedSum()
    for k in range(1, 6):
        acc.add(1.0 / k)
    partial = acc.value
    acc.add(1.0 / 6)
    assert acc.value > partial


@given(
    st.lists(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False),
        max_size=200,
    )
)
@settings(max_examples=200, deadline=None)
def test_agrees_with_fsum_property(xs):
    ref = math.fsum(xs)
    got = _compensated(xs)
    assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=100, deadline=None)
def test_permutation_stability(xs):
    # Compensated totals of a list and its reversal agree far better than
    # naive accumulation would guarantee.
    a = _compensated(xs)
    b = _compensated(list(reversed(xs)))
    scale = max(1.0, max(abs(v) for v in xs))
    assert abs(a - b) <= 1e-12 * scale
