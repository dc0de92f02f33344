"""Propagator of the free Schrodinger equation outside the half-line barrier.

For a source at polar point (rho, theta) and observation point (r, phi),
with either a Dirichlet or a Neumann condition on the barrier, the
propagator is

    G(t, x, y) = exp(-(r+rho)^2/(4it)) / (8 i pi t)
                 * [ L(-sqrt(r rho) cos((phi-theta)/2) / sqrt(it))
                     -/+ L(sqrt(r rho) sin((phi+theta)/2) / sqrt(it)) ]

where ``L`` is the scaled complementary error function (``complexfn.erfcx``),
``sqrt(it) = exp(i pi/4) sqrt(t)``, and the minus sign is the Dirichlet
case.  This is the half-plane kernel of Carslaw and Sommerfeld continued to
imaginary time: exp(i|x-y|^2/4t) erfc(-w1) / (8 i pi t) for the direct term,
with w1 as below, and the same at the mirror source (-y1, y2) for the
reflected one.  It agrees with the wedge eigenfunction expansion in Bessel
functions J_{k/2} (tests/test_greens.py).  The same formula continues
holomorphically in the radial variable
``rho -> z`` with Re(z) > 0; rotating ``z = rho*exp(1j*alpha)`` converts the
radial Fresnel oscillation into Gaussian decay, which is what every
quadrature in this package integrates.

The reflected term is the direct term at the mirror source angle: with
w1(theta) = sqrt(r rho) cos((phi-theta)/2) / sqrt(it), the second argument
is w1(pi - theta), and theta -> pi - theta maps the slit interval
(-pi/2, 3pi/2) onto itself.  The grid kernel therefore returns the pair
pref*exp(P)*(L(-w1), L(w1)) at each source angle, direct half first, and
callers attach the reflected half to the mirrored datum point (-y1, y2)
with the sign of the boundary condition.

Numerical note: L(w) and L(-w) come from one Faddeeva value by
``exp(P)*L(-w) = 2*exp(P + w^2) - exp(P)*L(w)`` (DLMF 7.4.2).  The
Faddeeva function w(v) = L(-iv) is taken at v = i*w or v = -i*w, whichever
lies in the closed upper half-plane, where |L| <= 1, and the growing half
takes the folded form, so the factor 2*exp(w^2) is merged into the
decaying Gaussian exponent -- never formed as a huge value multiplied by a
tiny one.  ``wofz`` evaluates w(v) on the whole node grid at once by
Weideman's rational approximation (J.A.C. Weideman, Computation of the
complex error function, SIAM J. Numer. Anal. 31, 1994) with N = 40 terms
and L = sqrt(N/sqrt(2)): a polynomial in Z = (L + iv)/(L - iv), evaluated
by Horner steps in place.  Against a 40-digit reference on the closed
upper half-plane with |v| in [1e-6, 1e4] its relative error measured at
most 1.4e-15 (``scipy.special.wofz``: up to 1.1e-14); ``complexfn.erfcx``
stays on SciPy as the independent reference.
"""

from __future__ import annotations

import cmath
import enum
import math

import numpy as np

from .geometry import (
    CartesianPoint,
    PolarPoint,
    in_domain,
    to_polar,
)

_QUARTER_PI = 0.25 * math.pi

# greens_reduced_bound = _ENVELOPE_PREF/t * exp(_ENVELOPE_RATE * r|z|/t)
_ENVELOPE_PREF = 3.0 / (4.0 * math.pi)
_ENVELOPE_RATE = 0.5


def _check_time(t: float) -> None:
    if not 0 < t < math.inf:
        raise ValueError(f"time must be finite and positive, got t={t}")


class StencilCrossesBarrier(ValueError):
    """A finite-difference stencil point fell on or across the barrier."""


class BoundaryKind(enum.Enum):
    """Condition imposed on the barrier faces."""

    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"

    @property
    def sign(self) -> float:
        return _SIGNS[self]


# relative sign of the reflected term; kept module-level so validation
# suites can detect a tampered kernel
_SIGNS = {BoundaryKind.DIRICHLET: -1.0, BoundaryKind.NEUMANN: +1.0}


# Weideman's approximation w(v) ~ 2 p(Z)/(L - iv)^2 + 1/(sqrt(pi) (L - iv)),
# Z = (L + iv)/(L - iv), with N = 40 terms and L = sqrt(N/sqrt(2)).  p's
# coefficients, highest degree first, are Weideman's FFT recipe: the cosine
# transform of exp(-s^2) (L^2 + s^2) on the nodes s = L tan(pi k/(4N)),
# |k| < 2N.  They are literals so that importing evaluates nothing;
# tests/test_wofz.py regenerates them.
_WEIDEMAN_N = 40
_WEIDEMAN_L = math.sqrt(_WEIDEMAN_N / math.sqrt(2.0))
_WEIDEMAN_COEFFS = (
    -1.7356980998791865e-15, 1.201674910759281e-15, 1.1519170220749485e-14,
    -5.231716366324404e-15, -7.071088022159408e-14, 1.3778224047664046e-14,
    4.5341448909434655e-13, 1.203330952919568e-13, -2.90771851041427e-12,
    -2.7277735625830245e-12, 1.771418567386718e-11, 3.4727420938907015e-11,
    -9.055138860958323e-11, -3.5632350403602684e-10, 2.1085990731251058e-10,
    3.017780425551564e-09, 3.249746582945079e-09, -1.8315616834296834e-08,
    -6.351773483015411e-08, 1.419864237295343e-08, 5.912136953029057e-07,
    1.4835661133172014e-06, -1.066013898416273e-06, -1.8007447144723407e-05,
    -5.5913092642348794e-05, -3.939363145483805e-05, 0.000439807015986967,
    0.002705405633073729, 0.010048186242783535, 0.02920291647124188,
    0.07182361779074328, 0.15504263802479504, 0.2998943799615006, 0.5266528988277086,
    0.8472174576593815, 1.2563815675765133, 1.7253830848179779, 2.201513794878312,
    2.6160541527618597, 2.899624509389705,
)


def wofz(v, out):
    """Faddeeva function w(v) = exp(-v^2) erfc(-iv) for Im(v) >= 0, into ``out[0]``.

    ``v`` is a complex array and ``out`` a complex array of shape
    ``(2,) + v.shape``.  Both ``v`` and ``out[1]`` serve as work space and
    are overwritten; no other grid-sized array is allocated.
    """
    L = _WEIDEMAN_L
    acc, den = out[0], out[1]
    # den = L - iv, v -> Z = (L + iv)/(L - iv)
    np.multiply(v, -1j, out=den)
    den += L
    v *= 1j
    v += L
    v /= den
    coeffs = _WEIDEMAN_COEFFS
    np.multiply(v, coeffs[0], out=acc)
    for c in coeffs[1:-1]:
        acc += c
        acc *= v
    acc += coeffs[-1]
    # w = (2 p / den + 1/sqrt(pi)) / den
    acc /= den
    acc *= 2.0
    acc += 1.0 / math.sqrt(math.pi)
    acc /= den
    return acc


def _stable_scaled_erfcx(P, w):
    """The pair (exp(P) * erfcx(w), exp(P) * erfcx(-w)), without overflow.

    Returns an array of shape ``(2,) + broadcast(P, w).shape``.  One
    ``wofz`` pass evaluates erfcx on whichever of w, -w has Re >= 0 (so
    |erfcx| <= 1 there); the other half of the pair follows from the
    reflection erfcx(-v) = 2*exp(v^2) - erfcx(v), with the growing
    exponential folded into the prefactor exponent, where the combined
    real part is bounded by the kernel estimate.  ``exp(P)`` is taken on
    P's own shape before broadcasting.  ``wofz`` works in the flipped
    argument and in the result, so the pair costs no grid-sized array
    beyond those two.
    """
    P = np.asarray(P, dtype=complex)
    w = np.asarray(w, dtype=complex)
    shape = np.broadcast_shapes(P.shape, w.shape)
    grow = np.broadcast_to(w.real < 0.0, shape)
    # the Faddeeva argument: i*w, or i*(-w) where Re(w) < 0
    v = np.where(grow, -w, w)
    v *= 1j
    out = np.empty((2,) + shape, dtype=complex)
    small, fold = out[0, ...], out[1, ...]
    wofz(v, out)
    small *= np.exp(P)
    # fold = 2*exp(P + w^2) - small, in place
    np.multiply(w, w, out=fold)
    fold += P
    np.exp(fold, out=fold)
    fold *= 2.0
    fold -= small
    # where Re(w) < 0, small holds the -w half: swap it into place
    swap = small[grow]
    small[grow] = fold[grow]
    fold[grow] = swap
    return out


def _kernel_grid(t: float, x: PolarPoint, z, theta):
    """Direct and image halves of the propagator on the grid of ``z`` and ``theta``.

    Returns ``pref * exp(P) * (L(-w1), L(w1))`` stacked on a leading axis
    of length 2, where w1 = sqrt(r z) cos((phi - theta)/2) / sqrt(it) at
    source angle ``theta``.  The propagator at (z, theta) is
    ``G[0](theta) + sign * G[1](pi - theta)`` with ``sign`` the boundary
    condition's ``_SIGNS`` entry; grid callers instead pair ``G[1]`` at
    ``theta`` with the datum at the mirror point (-z cos theta, z sin theta).

    ``z`` may be real (physical points) or complex with Re(z) > 0 (rotated
    radius); the map is holomorphic in z there, and along the ray
    z = rho*exp(1j*alpha) its modulus decays like
    exp(-rho^2 sin(2 alpha)/(4 t)).  Shapes broadcast: the result has shape
    ``(2,) + np.broadcast(z, theta).shape``.
    """
    _check_time(t)
    z = np.asarray(z, dtype=complex)
    theta = np.asarray(theta, dtype=float)
    r, phi = x.r, x.phi
    # principal square roots; Re(z) > 0 keeps arg(r z) inside (-pi/2, pi/2)
    sqrt_rz = np.sqrt(r * z)
    inv_sqrt_it = np.exp(-1j * _QUARTER_PI) / math.sqrt(t)
    w1 = sqrt_rz * (np.cos(0.5 * (phi - theta)) * inv_sqrt_it)
    # -(r+z)^2/(4it) = +0.25j*(r+z)^2/t
    P = 0.25j * (r + z) * (r + z) / t
    # (L(-w1), L(w1)): the direct half first
    pair = _stable_scaled_erfcx(P, w1)[::-1]
    pair *= 1.0 / (8j * math.pi * t)
    return pair


def greens(kind: BoundaryKind, t: float, x: PolarPoint, y: PolarPoint) -> complex:
    """Propagator G(t, x, y) for physical (real) source and observation points.

    The direct half at the source angle and the image half at its mirror
    angle pi - theta come from one ``_kernel_grid`` call.  Symmetric in
    x <-> y; vanishes for x on the barrier faces in the Dirichlet case.
    ``x`` and ``y`` may carry the closed barrier angles -pi/2 and 3*pi/2 so
    boundary behaviour can be probed directly.

    Raises
    ------
    ValueError
        If t is not finite and positive, or the value is not finite (its
        Gaussian factor or its scaled error function overflows, e.g. at
        y = (1e300, 0.2) or t = 1e-300).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        G = _kernel_grid(t, x, y.r, (y.phi, math.pi - y.phi))
        g = complex(G[0, 0] + _SIGNS[kind] * G[1, 1])
    if not cmath.isfinite(g):
        raise ValueError(f"propagator at t={t}, x={x}, y={y} is not finite")
    return g


def greens_reduced_bound(t: float, r: float, zabs: float) -> float:
    """Envelope (3/(4 pi t)) * exp(r |z| / (2 t)) of the reduced kernel.

    The reduced kernel is the propagator at a rotated radius z (Re z > 0)
    with its Gaussian factor exp(i z^2/(4t)) divided out.  Write the
    ``_kernel_grid`` pair as pref * exp(P) * (L(-w1), L(w1)) with
    |pref| = 1/(8 pi t) and z = |z| exp(i alpha).  Without the Gaussian
    factor, Re P = -r |z| sin(alpha)/(2t) <= 0 and
    Re(P + w1^2) = r |z| sin(alpha) cos(phi - theta)/(2t) <= r |z|/(2t).
    The half whose argument has Re >= 0 is at most exp(Re P), because
    |L| <= 1 there (DLMF 7.8); the other half, by L(-v) = 2 exp(v^2) - L(v),
    is at most 2 exp(Re(P + w1^2)) + exp(Re P).  So each half is at most
    3/(8 pi t) * exp(r |z|/(2t)), the pair sums to at most
    (1/(2 pi t)) * exp(r |z|/(2t)), and the propagator, one half at theta
    plus one at pi - theta, to at most this envelope.  The bound needs only
    |cos(phi - theta)| <= 1, so it holds for either orientation of the
    pair.  Times the Gaussian factor's modulus it is the integrand majorant
    behind ``evolve.rho_max``.
    """
    _check_time(t)
    return _ENVELOPE_PREF * math.exp(_ENVELOPE_RATE * r * zabs / t) / t


def schrodinger_residual(kind: BoundaryKind, t: float, x: CartesianPoint, y: PolarPoint, h: float) -> float:
    """Relative residual of i dG/dt + Laplacian_x G by central differences.

    Both derivatives use step ``h``: a three-point stencil in t and the
    five-point stencil in x.  The residual is normalized by |G(t, x, y)|
    and decays like h^2 wherever the stencil stays inside the domain.

    Raises
    ------
    StencilCrossesBarrier
        If any spatial stencil point lands on or across the barrier.
    ValueError
        If t - h <= 0.
    """
    if t - h <= 0:
        raise ValueError(f"need t - h > 0, got t={t}, h={h}")
    points = [
        x,
        CartesianPoint(x.x1 + h, x.x2),
        CartesianPoint(x.x1 - h, x.x2),
        CartesianPoint(x.x1, x.x2 + h),
        CartesianPoint(x.x1, x.x2 - h),
    ]
    for p in points:
        if not in_domain(p):
            raise StencilCrossesBarrier(f"stencil point ({p.x1}, {p.x2}) is on the barrier")
    # a stencil that straddles the cut evaluates G on the wrong sheet
    if x.x2 < 0 and min(p.x1 for p in points) < 0 < max(p.x1 for p in points):
        raise StencilCrossesBarrier("stencil straddles the barrier half-line")
    polar = [to_polar(p) for p in points]
    g0 = greens(kind, t, polar[0], y)
    lap = (
        greens(kind, t, polar[1], y)
        + greens(kind, t, polar[2], y)
        + greens(kind, t, polar[3], y)
        + greens(kind, t, polar[4], y)
        - 4.0 * g0
    ) / (h * h)
    dt = (greens(kind, t + h, polar[0], y) - greens(kind, t - h, polar[0], y)) / (2.0 * h)
    residual = 1j * dt + lap
    return abs(residual) / max(abs(g0), 1e-300)
