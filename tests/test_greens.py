"""Tests for the half-line-barrier propagator and its rotated forms.

The rotated forms are read off the grid kernel: its direct half at the
source angle plus the signed image half at the mirror angle.
"""

import cmath
import math

import numpy as np
import pytest
from scipy.special import jv

from barrierwaves.complexfn import erfcx
from barrierwaves.geometry import PHI_MAX, PHI_MIN, CartesianPoint, PolarPoint
from barrierwaves.greens import (
    BoundaryKind,
    StencilCrossesBarrier,
    _kernel_grid,
    greens,
    greens_reduced_bound,
    schrodinger_residual,
)
from barrierwaves.operator import coeff_bound, log_continuity_constant

T = 0.7
X = PolarPoint(1.0, 0.3)
Y = PolarPoint(2.0, 1.1)


def _rotated(kind, t, x, z, theta):
    """Propagator at source radius z (real or Re z > 0) from the grid kernel."""
    G = _kernel_grid(t, x, z, (theta, math.pi - theta))
    return complex(G[0, 0] + kind.sign * G[1, 1])


def _reduced(kind, t, x, z, theta):
    """Rotated propagator with its Gaussian factor exp(i z^2/(4t)) divided out."""
    return cmath.exp(-0.25j * z * z / t) * _rotated(kind, t, x, z, theta)


def _mirror_kernel(kind, t, x, z, theta):
    """Same formula as the library kernel, assembled independently here."""
    r, phi = x.r, x.phi
    sqrt_rz = cmath.sqrt(r * z)
    inv_sqrt_it = cmath.exp(-0.25j * math.pi) / math.sqrt(t)
    w1 = sqrt_rz * math.cos(0.5 * (phi - theta)) * inv_sqrt_it
    w2 = -sqrt_rz * math.sin(0.5 * (phi + theta)) * inv_sqrt_it
    P = 0.25j * (r + z) * (r + z) / t
    pref = cmath.exp(P) / (8j * math.pi * t)
    sign = -1.0 if kind is BoundaryKind.DIRICHLET else 1.0
    return pref * (erfcx(-w1) + sign * erfcx(-w2))


# ----------------------------------------------------------------------------
# Physical propagator
# ----------------------------------------------------------------------------


def test_symmetry_in_source_and_observation():
    for kind in BoundaryKind:
        a = greens(kind, T, X, Y)
        b = greens(kind, T, Y, X)
        assert abs(a - b) <= 1e-14 * abs(a)


def test_dirichlet_vanishes_approaching_face():
    y = PolarPoint(1.0, 0.5)
    vals = [
        abs(greens(BoundaryKind.DIRICHLET, 1.0, PolarPoint(1.0, -math.pi / 2 + d), y))
        for d in (1e-2, 1e-4, 1e-6)
    ]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-7
    # the decay is linear in the offset
    assert vals[0] / vals[1] == pytest.approx(100.0, rel=1e-2)


def test_dirichlet_zero_on_both_faces_exactly():
    y = PolarPoint(1.0, 0.5)
    scale = 1.0 / (8 * math.pi * 1.0)
    for face in (-math.pi / 2, 3 * math.pi / 2):
        g = greens(BoundaryKind.DIRICHLET, 1.0, PolarPoint(0.8, face), y)
        assert abs(g) <= 1e-12 * scale


def test_neumann_normal_derivative_vanishes_per_face():
    # The two faces of the screen are distinct boundary pieces, so the
    # normal derivative is probed one-sidedly on each with a second-order
    # stencil in the angle offset.
    y = PolarPoint(1.3, 0.9)
    delta = 1e-4
    for face, inward in ((-math.pi / 2, +1.0), (3 * math.pi / 2, -1.0)):
        def g(offset):
            return greens(BoundaryKind.NEUMANN, 1.0, PolarPoint(1.0, face + inward * offset), y)

        g0 = g(0.0)
        deriv = (-3.0 * g0 + 4.0 * g(delta) - g(2 * delta)) / (2 * delta)
        assert abs(deriv) <= 1e-5 * abs(g0)


def test_faces_carry_distinct_neumann_values():
    # Going from one face to the other requires a walk around the tip, and
    # the Neumann propagator genuinely differs between them; this is why
    # the boundary checks above are one-sided.
    y = PolarPoint(1.3, 0.9)
    a = greens(BoundaryKind.NEUMANN, 1.0, PolarPoint(1.0, -math.pi / 2), y)
    b = greens(BoundaryKind.NEUMANN, 1.0, PolarPoint(1.0, 3 * math.pi / 2), y)
    assert abs(a - b) > 1e-3 * max(abs(a), abs(b))


def test_kind_sum_leaves_single_term():
    # Dirichlet + Neumann cancels the reflected term, leaving twice the
    # direct one; mirror the direct term explicitly.
    r, phi = X.r, X.phi
    rho, theta = Y.r, Y.phi
    sqrt_rr = math.sqrt(r * rho)
    inv_sqrt_it = cmath.exp(-0.25j * math.pi) / math.sqrt(T)
    w1 = sqrt_rr * math.cos(0.5 * (phi - theta)) * inv_sqrt_it
    P = 0.25j * (r + rho) ** 2 / T
    expected = 2.0 * cmath.exp(P) * erfcx(-w1) / (8j * math.pi * T)
    total = greens(BoundaryKind.DIRICHLET, T, X, Y) + greens(BoundaryKind.NEUMANN, T, X, Y)
    assert abs(total - expected) <= 1e-13 * abs(expected)


def _eigenfunction_series(kind, t, x, y):
    """The propagator as the wedge eigenfunction expansion (Carslaw 1899):

        exp(i(r^2 + rho^2)/4t) / (2 pi i t)
            * sum_k eps_k exp(-i pi k/4) J_{k/2}(r rho/2t) Phi_k(phi) Phi_k(theta)

    with Phi_k = sin(k(. + pi/2)/2), k >= 1, for Dirichlet and
    Phi_k = cos(k(. + pi/2)/2), k >= 0, eps_0 = 1/2, for Neumann.  Bessel
    functions of SciPy share no code with the error functions of the kernel.
    """
    a = x.r * y.r / (2.0 * t)
    # J_{k/2}(a) decays like (a/2)^(k/2)/Gamma(k/2 + 1) once k/2 passes a
    k = np.arange(int(2.0 * a) + 81)
    if kind is BoundaryKind.DIRICHLET:
        k = k[1:]
        eps, mode = np.ones(k.size), np.sin
    else:
        eps, mode = np.where(k == 0, 0.5, 1.0), np.cos
    terms = (eps * np.exp(-0.25j * math.pi * k) * jv(0.5 * k, a)
             * mode(0.5 * k * (x.phi + 0.5 * math.pi)) * mode(0.5 * k * (y.phi + 0.5 * math.pi)))
    return cmath.exp(0.25j * (x.r ** 2 + y.r ** 2) / t) / (2j * math.pi * t) * terms.sum()


@pytest.mark.parametrize("kind", list(BoundaryKind))
def test_greens_matches_eigenfunction_series(kind):
    # an independent formula sees the orientation of the kernel pair: with
    # the halves swapped, greens(x, y) is -/+ the propagator at the mirror
    # point (-x1, x2) and misses these pairs by up to 62x (Dirichlet) and
    # 7.7x (Neumann); with the right pairing they agree to 1.1e-13
    rng = np.random.default_rng(0)
    for _ in range(100):
        t = rng.uniform(0.2, 2.0)
        # 0.2 away from the faces, where a Dirichlet value is not small
        x, y = (PolarPoint(rng.uniform(0.1, 3.0), rng.uniform(PHI_MIN + 0.2, PHI_MAX - 0.2))
                for _ in range(2))
        expected = _eigenfunction_series(kind, t, x, y)
        assert abs(greens(kind, t, x, y) - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("t, y", [(1.0, PolarPoint(1e300, 0.2)), (1e-300, PolarPoint(1.0, 0.2))])
def test_non_finite_value_rejected(t, y):
    # far out or at a vanishing time the Gaussian factor leaves double range
    with pytest.raises(ValueError, match="not finite"):
        greens(BoundaryKind.DIRICHLET, t, PolarPoint(1.0, 0.3), y)


def test_nonpositive_time_rejected():
    with pytest.raises(ValueError):
        greens(BoundaryKind.DIRICHLET, 0.0, X, Y)
    with pytest.raises(ValueError):
        greens(BoundaryKind.DIRICHLET, -1.0, X, Y)


@pytest.mark.parametrize("t", [math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda t: greens(BoundaryKind.DIRICHLET, t, X, Y),
    lambda t: _kernel_grid(t, X, np.array([1.0 + 0.5j]), np.array([0.4])),
    lambda t: greens_reduced_bound(t, 1.0, 2.0),
    lambda t: coeff_bound(t, 1.0, math.pi / 4, 2, 3),
    lambda t: log_continuity_constant(t, 1.0, math.pi / 4, 0.5),
], ids=["greens", "kernel_grid",
        "greens_reduced_bound", "coeff_bound", "log_continuity_constant"])
def test_non_finite_time_rejected(call, t):
    with pytest.raises(ValueError):
        call(t)


# ----------------------------------------------------------------------------
# Rotated radius
# ----------------------------------------------------------------------------


def test_rotated_matches_physical_on_real_axis():
    rho = 1.3
    for kind in BoundaryKind:
        a = _rotated(kind, T, X, rho, 1.1)
        b = greens(kind, T, X, PolarPoint(rho, 1.1))
        assert a == b


def test_rotated_matches_independent_assembly():
    z = 1.4 * cmath.exp(0.4j)
    for kind in BoundaryKind:
        got = _rotated(kind, T, X, z, 0.8)
        ref = _mirror_kernel(kind, T, X, z, 0.8)
        assert abs(got - ref) <= 1e-12 * abs(ref)


def test_holomorphy_cauchy_riemann():
    z0 = 1.0 + 0.5j
    h = 1e-5
    for kind in BoundaryKind:
        d_re = (
            _rotated(kind, 1.0, X, z0 + h, 0.4)
            - _rotated(kind, 1.0, X, z0 - h, 0.4)
        ) / (2 * h)
        d_im = (
            _rotated(kind, 1.0, X, z0 + 1j * h, 0.4)
            - _rotated(kind, 1.0, X, z0 - 1j * h, 0.4)
        ) / (2j * h)
        assert abs(d_re - d_im) <= 1e-6 * max(1.0, abs(d_re))


# ----------------------------------------------------------------------------
# Reduced kernel and its bound
# ----------------------------------------------------------------------------


def test_reduced_bound_reference_values():
    assert greens_reduced_bound(1.0, 0.0, 5.0) == pytest.approx(3.0 / (4 * math.pi), rel=1e-14)
    assert greens_reduced_bound(2.0, 1.0, 1.0) == pytest.approx(
        3.0 * math.exp(0.25) / (8 * math.pi), rel=1e-14
    )


def test_reduced_bound_dominates_random_sector_points():
    rng = np.random.default_rng(17)
    for _ in range(100):
        t = rng.uniform(0.2, 2.0)
        x = PolarPoint(rng.uniform(0.1, 3.0), rng.uniform(-1.2, 4.0))
        rho = rng.uniform(0.05, 6.0)
        alpha = rng.uniform(0.05, 0.5 * math.pi - 0.05)
        theta = rng.uniform(-0.5 * math.pi, 1.5 * math.pi)
        z = rho * cmath.exp(1j * alpha)
        for kind in BoundaryKind:
            val = abs(_reduced(kind, t, x, z, theta))
            assert val <= greens_reduced_bound(t, x.r, abs(z)) * (1 + 1e-12)


def test_reduced_bound_envelope_in_log_space():
    # |G| and |D| + |I| against greens_reduced_bound * |exp(i z^2/(4t))| over
    # t in [1e-3, 1e3], r/sqrt(t) <= 10, |z|/sqrt(t) <= 40, alpha in
    # {0} u (0, pi/2); logs, so neither side overflows or underflows
    rng = np.random.default_rng(4047)
    theta = np.linspace(-0.5 * math.pi, 1.5 * math.pi, 65)
    worst_g = worst_pair = -math.inf
    for i in range(400):
        t = 10.0 ** rng.uniform(-3.0, 3.0)
        x = PolarPoint(10.0 * math.sqrt(t) * rng.uniform(), rng.uniform(-0.5 * math.pi, 1.5 * math.pi))
        rho = 40.0 * math.sqrt(t) * rng.uniform()
        alpha = 0.0 if i % 4 == 0 else rng.uniform(0.0, 0.5 * math.pi)
        z = rho * cmath.exp(1j * alpha)
        log_bound = math.log(greens_reduced_bound(t, x.r, rho)) - rho * rho * math.sin(2 * alpha) / (4 * t)
        G = _kernel_grid(t, x, z, np.concatenate([theta, math.pi - theta]))
        direct, image = G[0, :theta.size], G[1, theta.size:]
        with np.errstate(divide="ignore"):
            log_pair = np.log(np.abs(direct) + np.abs(G[1, :theta.size]))
            log_g = np.log(np.abs(np.stack([direct + kind.sign * image for kind in BoundaryKind])))
        assert np.all(log_pair <= log_bound + 1e-9)
        assert np.all(log_g <= log_bound + 1e-9)
        if x.r * rho / (2 * t) >= 10.0:
            worst_pair = max(worst_pair, log_pair.max() - log_bound)
            worst_g = max(worst_g, log_g.max() - log_bound)
    # tight where the exponent r|z|/(2t) is 10 or more, so that a looser
    # prefactor or rate shows (a rate of 3r|z|/(2t) would read <= -20)
    assert worst_g >= -1.0
    assert worst_pair >= -1.5


def test_reduced_bound_dominates_alpha_sweep():
    x = PolarPoint(1.0, 0.9)
    for alpha in (0.3, math.pi / 4, 1.2):
        for rho in np.linspace(0.05, 6.0, 40):
            z = rho * cmath.exp(1j * alpha)
            val = abs(_reduced(BoundaryKind.DIRICHLET, 1.0, x, z, 0.4))
            assert val <= greens_reduced_bound(1.0, x.r, rho) * (1 + 1e-12)


def test_kind_swap_exposes_reflected_term():
    z = 1.2 * cmath.exp(0.3j)
    theta = 0.7
    r, phi = X.r, X.phi
    sqrt_rz = cmath.sqrt(r * z)
    inv_sqrt_it = cmath.exp(-0.25j * math.pi) / math.sqrt(T)
    w2 = -sqrt_rz * math.sin(0.5 * (phi + theta)) * inv_sqrt_it
    P = 0.25j * (r + z) * (r + z) / T
    expected = 2.0 * cmath.exp(P) * erfcx(-w2) / (8j * math.pi * T)
    diff = _rotated(BoundaryKind.NEUMANN, T, X, z, theta) - _rotated(
        BoundaryKind.DIRICHLET, T, X, z, theta
    )
    assert abs(diff - expected) <= 1e-12 * abs(expected)


# ----------------------------------------------------------------------------
# Free-equation residual
# ----------------------------------------------------------------------------


def test_schrodinger_residual_small():
    y = PolarPoint(1.5, 0.4)
    for kind in BoundaryKind:
        res = schrodinger_residual(kind, 1.0, CartesianPoint(1.0, 1.0), y, 1e-3)
        assert res <= 1e-4


def test_schrodinger_residual_second_order():
    y = PolarPoint(1.5, 0.4)
    for kind in BoundaryKind:
        r1 = schrodinger_residual(kind, 1.0, CartesianPoint(1.0, 1.0), y, 1e-3)
        r2 = schrodinger_residual(kind, 1.0, CartesianPoint(1.0, 1.0), y, 5e-4)
        assert r1 / r2 >= 3.5


def test_stencil_crossing_detected():
    with pytest.raises(StencilCrossesBarrier):
        schrodinger_residual(
            BoundaryKind.DIRICHLET, 1.0, CartesianPoint(0.0005, -1.0), PolarPoint(1.5, 0.4), 1e-3
        )


def test_residual_time_step_guard():
    with pytest.raises(ValueError):
        schrodinger_residual(
            BoundaryKind.DIRICHLET, 1e-4, CartesianPoint(1.0, 1.0), PolarPoint(1.5, 0.4), 1e-3
        )
