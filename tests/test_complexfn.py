"""Tests for the scaled complementary error function and its relatives."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barrierwaves.complexfn import (
    SQRT_PI,
    TWO_OVER_SQRT_PI,
    ToleranceNotReached,
    erfcx,
    erfcx_by_quadrature,
    log_mittag_leffler_half,
    mittag_leffler_half,
)

# Reference value of e^{z^2} erfc(z) at z = 1, frozen from an independent
# high-precision evaluation of the defining integral.
ERFCX_AT_ONE = 0.42758357615580700442


def test_module_constants():
    assert SQRT_PI == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert TWO_OVER_SQRT_PI == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-15)


# ----------------------------------------------------------------------------
# Scaled complementary error function
# ----------------------------------------------------------------------------


def test_erfcx_at_zero():
    assert erfcx(0.0) == pytest.approx(1.0, abs=1e-14)


def test_erfcx_at_one_frozen_value():
    assert erfcx(1.0) == pytest.approx(ERFCX_AT_ONE, rel=1e-13)


def test_erfcx_reflection_single_point():
    z = 0.3 - 0.2j
    lhs = erfcx(z) + erfcx(-z)
    rhs = 2.0 * np.exp(z * z)
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_erfcx_reflection_sweep():
    # The reflection identity compares terms of wildly different magnitude
    # once Re(z^2) is very negative: there 2 e^{z^2} underflows toward zero
    # while both function values stay O(1/|z|), so no double-precision
    # routine can keep the residual small relative to 2 e^{z^2} alone.
    # Where the right-hand side is representable on the scale of the
    # operands (Re z^2 >= -14) we check relative to it; over the whole disk
    # we check relative to the largest participating magnitude.
    rng = np.random.default_rng(7)
    pts = []
    while len(pts) < 2000:
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z) <= 20:
            pts.append(z)
    z = np.array(pts)
    lam_p = erfcx(z)
    lam_m = erfcx(-z)
    rhs = 2.0 * np.exp(z * z)
    resid = np.abs(lam_p + lam_m - rhs)

    scale = np.maximum(np.maximum(np.abs(lam_p), np.abs(lam_m)), np.abs(rhs))
    assert np.all(resid <= 1e-12 * scale)

    well_posed = (z.real**2 - z.imag**2) >= -14.0
    assert well_posed.sum() > 500
    assert np.all(resid[well_posed] <= 1e-9 * np.abs(rhs[well_posed]))


def test_erfcx_derivative_relation():
    # d/dz [e^{z^2} erfc z] = 2 z e^{z^2} erfc z - 2/sqrt(pi), checked by
    # central differences.  The function reaches ~e^{25} on |z| <= 5, so the
    # residual is measured relative to the derivative's own magnitude.
    rng = np.random.default_rng(21)
    h = 1e-5
    checked = 0
    while checked < 200:
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z) > 5:
            continue
        numeric = (erfcx(z + h) - erfcx(z - h)) / (2 * h)
        closed = 2.0 * z * erfcx(z) - TWO_OVER_SQRT_PI
        assert abs(numeric - closed) <= 1e-6 * max(1.0, abs(closed))
        checked += 1


def test_erfcx_growth_bound():
    rng = np.random.default_rng(5)
    z = (rng.uniform(-1, 1, 30000) + 1j * rng.uniform(-1, 1, 30000)) * 4.0
    z = z[np.abs(z) <= 4][:10_000]
    assert z.size == 10_000
    assert np.all(np.abs(erfcx(z)) <= 2.0 * np.exp(np.abs(z) ** 2) * (1 + 1e-12))


def test_erfcx_vectorized_matches_scalar():
    z = np.array([0.0, 1.0, 0.3 - 0.2j, 2 + 1j])
    vec = erfcx(z)
    for i, zi in enumerate(z):
        assert vec[i] == erfcx(complex(zi))


# ----------------------------------------------------------------------------
# Quadrature oracle
# ----------------------------------------------------------------------------


def test_oracle_at_reference_points():
    for z in (0.0, 1.0, 2 + 1j):
        ref = erfcx_by_quadrature(z)
        assert abs(erfcx(z) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_oracle_sector_sample():
    rng = np.random.default_rng(13)
    for _ in range(40):
        z = complex(rng.uniform(0, 10), rng.uniform(-10, 10))
        if abs(z) > 10:
            z *= 9.9 / abs(z)
        ref = erfcx_by_quadrature(z)
        assert abs(erfcx(z) - ref) <= 1e-10 * abs(ref)


def test_oracle_rejects_left_half_plane():
    with pytest.raises(ValueError):
        erfcx_by_quadrature(-1.0 + 0.5j)


def test_oracle_unreachable_tolerance():
    # Strong oscillation keeps successive refinements jittering near
    # machine precision, so a sub-ulp tolerance exhausts the panel cap.
    with pytest.raises(ToleranceNotReached):
        erfcx_by_quadrature(0.1 + 9.9j, tol=1e-18)


# ----------------------------------------------------------------------------
# Half-order Mittag-Leffler sum
# ----------------------------------------------------------------------------


def test_mittag_leffler_at_zero():
    assert mittag_leffler_half(0.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)


def _log_series(x):
    """log of sum_n x^n / Gamma((n+1)/2), summed in log space about its peak."""
    logs = [n * math.log(x) - math.lgamma((n + 1) / 2.0)
            for n in range(int(4 * x * x + 40 * x + 200))]
    peak = max(logs)
    return peak + math.log(math.fsum(math.exp(v - peak) for v in logs))


def _decimal_series(x):
    """E_{1/2,1/2}(x) summed in 50-digit decimal arithmetic.

    The odd orders n = 2k + 1 give x^n / k!, the even orders n = 2k give
    x^n 4^k k! / ((2k)! sqrt(pi)); both advance by exact term ratios.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        x2 = decimal.Decimal(x) ** 2
        odd = odd_sum = decimal.Decimal(x)
        even = even_sum = decimal.Decimal(1)
        for k in range(1, int(4 * x * x + 40 * x + 200)):
            odd = odd * x2 / k
            even = even * 2 * x2 / (2 * k - 1)
            odd_sum += odd
            even_sum += even
        return float(odd_sum) + float(even_sum) / math.sqrt(math.pi)


@pytest.mark.parametrize("x", [0.5, 3.0, 12.0, 20.0, 25.0, 40.0])
def test_mittag_leffler_against_series_oracles(x):
    # the log-space sum carries about 1e-13 absolute rounding in its logs,
    # which exp turns into ~2e-13 relative at x = 25, so the value is held
    # to a 50-digit decimal sum of the same series instead
    assert log_mittag_leffler_half(x) == pytest.approx(_log_series(x), rel=1e-13)
    if x < 26.0:
        assert mittag_leffler_half(x) == pytest.approx(_decimal_series(x), rel=1e-13)
    else:
        with pytest.raises(OverflowError):
            mittag_leffler_half(x)


def test_mittag_leffler_against_partial_sum_oracle():
    x = 1.0
    partial = math.fsum(x**n / math.gamma(n / 2.0 + 0.5) for n in range(200))
    assert mittag_leffler_half(x) == pytest.approx(partial, rel=1e-13)


def test_mittag_leffler_overflow():
    with pytest.raises(OverflowError):
        mittag_leffler_half(30.0)


def test_log_variant_consistent_with_direct():
    for x in (0.0, 0.7, 3.0, 12.0, 20.0):
        direct = math.log(mittag_leffler_half(x))
        assert log_mittag_leffler_half(x) == pytest.approx(direct, abs=1e-10)


def test_log_variant_asymptote():
    # E(x) ~ 2 x e^{x^2} for large x, so log E(x) ~ x^2 + log(2x).
    x = 30.0
    expected = x * x + math.log(2 * x)
    assert log_mittag_leffler_half(x) == pytest.approx(expected, rel=1e-4)


# ----------------------------------------------------------------------------
# Property-based checks
# ----------------------------------------------------------------------------


@given(
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
)
@settings(max_examples=300, deadline=None)
def test_reflection_property(z):
    lhs = erfcx(z) + erfcx(-z)
    rhs = 2.0 * np.exp(z * z)
    scale = max(abs(erfcx(z)), abs(erfcx(-z)), abs(rhs))
    assert abs(lhs - rhs) <= 1e-12 * scale

