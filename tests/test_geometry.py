"""Tests for the slit-plane coordinate helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barrierwaves.geometry import (
    PHI_MAX,
    PHI_MIN,
    BoundaryError,
    CartesianPoint,
    PolarPoint,
    in_domain,
    on_barrier,
    to_cartesian,
    to_polar,
)


def test_angle_window_constants():
    assert PHI_MIN == pytest.approx(-math.pi / 2)
    assert PHI_MAX == pytest.approx(3 * math.pi / 2)


# ----------------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------------


def test_in_domain_examples():
    assert in_domain(CartesianPoint(0.0, 1.0))
    assert not in_domain(CartesianPoint(0.0, -3.0))
    # A point a hair off the negative axis is still outside the screen.
    assert in_domain(CartesianPoint(1e-300, -1.0))


def test_on_barrier_examples():
    assert on_barrier(CartesianPoint(0.0, -3.0))
    assert on_barrier(CartesianPoint(0.0, 0.0))
    assert not on_barrier(CartesianPoint(0.0, 1.0))
    assert not on_barrier(CartesianPoint(1e-300, -1.0))


# ----------------------------------------------------------------------------
# Cartesian -> polar
# ----------------------------------------------------------------------------


def test_to_polar_reference_points():
    p = to_polar(CartesianPoint(1.0, 0.0))
    assert (p.r, p.phi) == pytest.approx((1.0, 0.0))

    p = to_polar(CartesianPoint(-1.0, 0.0))
    assert (p.r, p.phi) == pytest.approx((1.0, math.pi))

    p = to_polar(CartesianPoint(0.0, 1.0))
    assert (p.r, p.phi) == pytest.approx((1.0, math.pi / 2))


def test_to_polar_rejects_barrier_points():
    with pytest.raises(BoundaryError):
        to_polar(CartesianPoint(0.0, -1.0))
    with pytest.raises(BoundaryError):
        to_polar(CartesianPoint(0.0, 0.0))


def test_to_cartesian_reference_points():
    c = to_cartesian(PolarPoint(1.0, math.pi / 2))
    assert (c.x1, c.x2) == pytest.approx((0.0, 1.0), abs=1e-15)

    c = to_cartesian(PolarPoint(1.0, math.pi))
    assert (c.x1, c.x2) == pytest.approx((-1.0, 0.0), abs=1e-15)


def test_roundtrip_specific_point():
    c0 = CartesianPoint(2.5, 1.0)
    p = to_polar(c0)
    c1 = to_cartesian(p)
    assert abs(c1.x1 - c0.x1) < 1e-14
    assert abs(c1.x2 - c0.x2) < 1e-14


# ----------------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------------


def test_polar_point_validation():
    with pytest.raises(ValueError):
        PolarPoint(0.0, 0.5)
    with pytest.raises(ValueError):
        PolarPoint(-1.0, 0.5)
    for r in (math.inf, math.nan):
        with pytest.raises(ValueError, match="0 < r < inf"):
            PolarPoint(r, 0.5)
    with pytest.raises(ValueError):
        PolarPoint(1.0, PHI_MIN - 1e-9)
    with pytest.raises(ValueError):
        PolarPoint(1.0, PHI_MAX + 1e-9)
    # Both faces of the screen are legitimate limits of the open sector.
    PolarPoint(1.0, PHI_MIN)
    PolarPoint(1.0, PHI_MAX)


# ----------------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------------


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=PHI_MIN + 1e-6, max_value=PHI_MAX - 1e-6),
)
@settings(max_examples=300, deadline=None)
def test_roundtrip_property(r, phi):
    p = PolarPoint(r, phi)
    c = to_cartesian(p)
    back = to_polar(c)
    assert abs(back.r - r) <= 1e-14 * r
    # Angles can wrap only at the faces, which the strategy avoids.
    assert abs(back.phi - phi) <= 1e-12


@given(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
@settings(max_examples=300, deadline=None)
def test_polar_angle_always_in_window(x1, x2):
    c = CartesianPoint(x1, x2)
    if on_barrier(c):
        with pytest.raises(BoundaryError):
            to_polar(c)
        return
    p = to_polar(c)
    assert PHI_MIN <= p.phi <= PHI_MAX
    # Interior points map strictly inside the angle window unless x1 is so
    # small relative to |x2| that atan2 rounds onto a face.
    if c.x2 > 0.0 or abs(c.x1) > 1e-12 * abs(c.x2):
        assert PHI_MIN < p.phi < PHI_MAX
