"""Coordinates for the plane slit along the negative vertical half-line.

The domain is the plane minus the barrier
``Gamma = {(0, x2) : x2 <= 0}`` (the origin included).  Polar angles are
measured so that the barrier is the single cut ``phi = -pi/2`` (equivalently
``3*pi/2``): every domain point has a unique angle in the open interval
(-pi/2, 3*pi/2).  ``PolarPoint`` itself admits the closed endpoints because
the propagator is evaluated *on* the barrier faces when checking boundary
conditions; ``to_polar`` never produces them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi
PHI_MIN = -HALF_PI          # lower barrier face
PHI_MAX = 3.0 * HALF_PI     # upper barrier face


class BoundaryError(ValueError):
    """A Cartesian point lies on the barrier and has no domain coordinates."""


@dataclass(frozen=True)
class CartesianPoint:
    x1: float
    x2: float


@dataclass(frozen=True)
class PolarPoint:
    """Radius and angle with the cut along the barrier.

    0 < r < inf and phi in [-pi/2, 3*pi/2]; the closed endpoints denote the
    two faces of the barrier itself.
    """

    r: float
    phi: float

    def __post_init__(self):
        if not 0 < self.r < math.inf:
            raise ValueError(f"PolarPoint needs 0 < r < inf, got r={self.r}")
        if not PHI_MIN <= self.phi <= PHI_MAX:
            raise ValueError(
                f"PolarPoint angle must lie in [{PHI_MIN}, {PHI_MAX}], got {self.phi}"
            )


def on_barrier(p: CartesianPoint) -> bool:
    """True if p lies on the barrier half-line (origin included)."""
    return p.x1 == 0.0 and p.x2 <= 0.0


def in_domain(p: CartesianPoint) -> bool:
    """True if p lies in the slit plane (strictly off the barrier)."""
    return not on_barrier(p)


def to_polar(p: CartesianPoint) -> PolarPoint:
    """Polar coordinates of a domain point, angle in (-pi/2, 3*pi/2).

    Raises
    ------
    BoundaryError
        If p lies on the barrier; barrier points have no unique angle.
    """
    if on_barrier(p):
        raise BoundaryError(f"({p.x1}, {p.x2}) lies on the barrier")
    phi = math.atan2(p.x2, p.x1)
    # atan2 lands in (-pi, pi]; shift the lower-left quadrant across the cut
    if phi <= PHI_MIN:
        phi += TWO_PI
    return PolarPoint(math.hypot(p.x1, p.x2), phi)


def to_cartesian(p: PolarPoint) -> CartesianPoint:
    return CartesianPoint(p.r * math.cos(p.phi), p.r * math.sin(p.phi))
