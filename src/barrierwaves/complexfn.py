"""Scalar special functions used by the half-plane propagator.

Everything here is a plain complex-to-complex (or real-to-real) function
with no geometry attached:

* ``erfcx``           -- the scaled complementary error function
                         exp(z^2) erfc(z) for complex argument, equal to
                         (2/sqrt(pi)) * Integral_0^inf exp(-s^2 - 2 z s) ds;
                         this is the boundary-layer factor of the propagator
* ``erfcx_by_quadrature`` -- slow adaptive-quadrature reference for ``erfcx``
* ``mittag_leffler_half`` -- E_{1/2,1/2}, the growth envelope of the
                         operator-series bounds, plus a log-space companion

``erfcx`` and ``erfcx_by_quadrature`` are deliberately independent code
paths: the former goes through the Faddeeva function
w(z) = exp(-z^2) erfc(-iz) (``scipy.special.wofz``), the latter integrates
the defining integral directly, so each one cross-checks the other.
``erfcx`` is the public any-z function; the propagator's node grids do not
call it, but evaluate w by Weideman's rational approximation
(``greens.wofz``), and ``erfcx`` stays on SciPy as the independent
reference that approximation is tested against.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import erfcx as _real_erfcx, wofz

SQRT_PI = math.sqrt(math.pi)
TWO_OVER_SQRT_PI = 2.0 / SQRT_PI


class ToleranceNotReached(ArithmeticError):
    """Adaptive refinement hit its subdivision cap before converging."""


def erfcx(z):
    """Scaled complementary error function exp(z^2)*erfc(z) for complex z.

    Satisfies the reflection identity erfcx(z) + erfcx(-z) = 2*exp(z^2),
    the bound |erfcx(z)| <= 2*exp(|z|^2), and |erfcx(z)| <= 1 for
    Re(z) >= 0.  Computed as w(iz).
    """
    z = np.asarray(z, dtype=complex)
    out = wofz(1j * z)
    if out.ndim == 0:
        return complex(out)
    return out


def erfcx_by_quadrature(z, tol=1e-13):
    """Reference value of ``erfcx`` by adaptive integration.

    Integrates (2/sqrt(pi)) * exp(-s^2 - 2 z s) over s in [0, inf) with
    composite Gauss-Legendre panels, doubling the panel count until two
    successive refinements agree to ``tol`` (relative).  Independent of the
    Faddeeva-function route, so it serves as the oracle for ``erfcx``.

    Parameters
    ----------
    z : complex
        Point with Re(z) >= 0.  (For Re(z) < 0 the integral still
        converges but loses relative accuracy to cancellation; use the
        reflection identity instead.)
    tol : float
        Relative agreement required between successive refinements.

    Raises
    ------
    ValueError
        If Re(z) < 0.
    ToleranceNotReached
        If the refinement cap is hit first.
    """
    z = complex(z)
    if z.real < 0:
        raise ValueError("erfcx_by_quadrature requires Re(z) >= 0; use the reflection identity")
    # exp(-s^2 - 2 z s) with Re z >= 0 is below 1e-36 beyond s = 9
    upper = 9.0
    nodes, weights = leggauss(32)
    prev = None
    npanels = 2
    while npanels <= 4096:
        edges = np.linspace(0.0, upper, npanels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
        half = 0.5 * (edges[1] - edges[0])
        s = mid + half * nodes[None, :]
        vals = np.exp(-s * s - 2.0 * z * s)
        total = TWO_OVER_SQRT_PI * half * np.sum(weights[None, :] * vals)
        if prev is not None and abs(total - prev) <= tol * max(abs(total), 1e-300):
            return complex(total)
        prev = total
        npanels *= 2
    raise ToleranceNotReached(f"erfcx quadrature did not reach tol={tol} at z={z}")


def mittag_leffler_half(x):
    """E_{1/2,1/2}(x) = sum_n x^n / Gamma((n+1)/2) = 1/sqrt(pi) + x * erfcx(-x).

    Grows like 2*x*exp(x^2); this is the envelope controlling how fast the
    operator-series majorants blow up with the datum growth rate.

    Parameters
    ----------
    x : float
        Nonnegative argument.

    Raises
    ------
    ValueError
        If x < 0.
    OverflowError
        If the value exceeds the double range (x around 26.6 and above).
        Use ``log_mittag_leffler_half`` there.
    """
    if x < 0:
        raise ValueError(f"mittag_leffler_half requires x >= 0, got {x}")
    value = 1.0 / SQRT_PI + x * float(_real_erfcx(-x))
    if math.isinf(value):
        raise OverflowError(f"mittag_leffler_half overflows at x={x}")
    return value


def log_mittag_leffler_half(x):
    """Natural log of E_{1/2,1/2}(x), stable for large x.

    The continuity-constant bounds square E_{1/2,1/2} at arguments where
    the value itself is far beyond double range, so the bound arithmetic
    runs in log space through this function.  Above x = 1 it splits
    E = 2x exp(x^2) + (1/sqrt(pi) - x erfcx(x)) and takes the rest by log1p.
    """
    if x < 0:
        raise ValueError(f"log_mittag_leffler_half requires x >= 0, got {x}")
    if x <= 1.0:
        return math.log(mittag_leffler_half(x))
    rest = (1.0 / SQRT_PI - x * float(_real_erfcx(x))) / (2.0 * x)
    return x * x + math.log(2.0 * x) + math.log1p(math.exp(-x * x) * rest)
