"""The paired kernel against the two-term propagator it replaces.

``greens._kernel_grid`` returns the direct half and the image half of the
propagator from one ``wofz`` value per node, and every grid caller attaches
the image half to the mirrored datum point.  The reference here assembles
the propagator as written in the paper: direct plus signed reflected term,
each through its own ``wofz`` call.
"""

import math

import numpy as np
import pytest
from scipy.special import wofz

from barrierwaves.evolve import (
    PlaneWave,
    QuadratureSpec,
    TaylorField,
    _LADDER,
    _FresnelGrid,
    _gauss_panels,
    effective_growth_rate,
    eval_datum,
    psi_fresnel,
    rho_max,
)
from barrierwaves.geometry import PHI_MAX, PHI_MIN, CartesianPoint, PolarPoint, to_polar
from barrierwaves.greens import (
    BoundaryKind,
    _kernel_grid,
    _stable_scaled_erfcx,
    greens,
)
from barrierwaves.operator import build_table

SPEC = QuadratureSpec()


def _scaled_erfcx(P, w):
    """exp(P) * erfcx(w) with the growing branch folded, one wofz call."""
    small = np.exp(P) * wofz(1j * np.where(w.real >= 0.0, w, -w))
    with np.errstate(over="ignore", invalid="ignore"):
        folded = 2.0 * np.exp(P + w * w) - small
    return np.where(w.real < 0.0, folded, small)


def _two_term_kernel(kind, t, x, z, theta):
    """pref * exp(P) * [L(-w1) + sign * L(-w2)] on the grid of z and theta."""
    r, phi = x.r, x.phi
    sqrt_rz = np.sqrt(r * np.asarray(z, dtype=complex))
    inv_sqrt_it = np.exp(-0.25j * math.pi) / math.sqrt(t)
    w1 = sqrt_rz * np.cos(0.5 * (phi - theta)) * inv_sqrt_it
    w2 = -sqrt_rz * np.sin(0.5 * (phi + theta)) * inv_sqrt_it
    P = 0.25j * (r + z) * (r + z) / t
    sign = -1.0 if kind is BoundaryKind.DIRICHLET else 1.0
    return (_scaled_erfcx(P, -w1) + sign * _scaled_erfcx(P, -w2)) / (8j * math.pi * t)


def _two_term_terms(kind, t, x, F, R, n_rho, n_theta):
    """Quadrature summands of one ladder level under the two-term kernel."""
    u, wu = _gauss_panels(0.0, math.sqrt(R), n_rho)
    th, wth = _gauss_panels(PHI_MIN, PHI_MAX, n_theta)
    rho = u * u
    z = (rho * complex(math.cos(SPEC.alpha), math.sin(SPEC.alpha)))[:, None]
    G = _two_term_kernel(kind, t, x, z, th[None, :])
    Fv = eval_datum(F, z * np.cos(th), z * np.sin(th))
    w2d = (2.0 * u * wu * rho)[:, None] * wth[None, :]
    return complex(math.cos(2.0 * SPEC.alpha), math.sin(2.0 * SPEC.alpha)) * w2d * G * Fv


def _field_point(rng):
    """A seeded point, time and datum from the field benchmark's range."""
    t = rng.uniform(0.5, 2.0)
    x = PolarPoint(rng.uniform(0.05, 3.9), rng.uniform(PHI_MIN, PHI_MAX))
    if rng.integers(4):
        kn, ang = rng.uniform(0.0, 1.5), rng.uniform(0.0, 2 * math.pi)
        return t, x, PlaneWave(kn * math.cos(ang), kn * math.sin(ang))
    n = np.arange(int(rng.integers(4)) + 1)
    return t, x, TaylorField(np.where(n[:, None] + n[None, :] <= n[-1],
                                      rng.uniform(-1.0, 1.0, (n.size, n.size)), 0.0))


def test_pair_is_erfcx_at_both_signs():
    rng = np.random.default_rng(12)
    w = rng.normal(size=50) * 3 + 1j * rng.normal(size=50) * 3
    P = -np.abs(w) ** 2 + 1j * rng.normal(size=50)
    pair = _stable_scaled_erfcx(P, w)
    assert pair.shape == (2, 50)
    assert np.allclose(pair[0], _scaled_erfcx(P, w), rtol=1e-13, atol=0)
    assert np.allclose(pair[1], _scaled_erfcx(P, -w), rtol=1e-13, atol=0)


@pytest.mark.parametrize("kind", list(BoundaryKind))
@pytest.mark.parametrize("level", range(len(_LADDER)))
def test_quad_value_matches_two_term_reference(kind, level):
    rng = np.random.default_rng(1000 + level)
    n_rho, n_theta = _LADDER[level]
    for _ in range(5):
        t, x, F = _field_point(rng)
        grid = _FresnelGrid(t, F, SPEC, x.r)
        terms = _two_term_terms(kind, t, x, F, grid.rho_max, n_rho, n_theta)
        value, _ = grid.quad_value(kind, x, level)
        assert abs(value - terms.sum()) <= 1e-13 * np.abs(terms).sum()


def test_greens_matches_two_term_formula():
    rng = np.random.default_rng(77)
    for kind in BoundaryKind:
        for _ in range(40):
            t = rng.uniform(0.2, 2.0)
            x = PolarPoint(rng.uniform(0.05, 4.0), rng.uniform(PHI_MIN, PHI_MAX))
            rho, theta = rng.uniform(0.05, 4.0), rng.uniform(PHI_MIN, PHI_MAX)
            expected = complex(_two_term_kernel(kind, t, x, rho, theta))
            assert abs(greens(kind, t, x, PolarPoint(rho, theta)) - expected) <= 1e-13 * abs(expected)
            z = rho * complex(math.cos(0.6), math.sin(0.6))
            expected = complex(_two_term_kernel(kind, t, x, z, theta))
            G = _kernel_grid(t, x, z, (theta, math.pi - theta))
            rotated = G[0, 0] + kind.sign * G[1, 1]
            assert abs(rotated - expected) <= 1e-13 * abs(expected)


def test_ladder_stops_where_two_term_reference_stops():
    rng = np.random.default_rng(4242)
    for i in range(40):
        kind = (BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN)[i % 2]
        t, x, F = _field_point(rng)
        s = psi_fresnel(kind, t, x, F, SPEC)
        coarse = _two_term_terms(kind, t, x, F, s.rho_max, *_LADDER[0]).sum()
        for n_rho, n_theta in _LADDER[1:]:
            fine = _two_term_terms(kind, t, x, F, s.rho_max, n_rho, n_theta).sum()
            if abs(fine - coarse) <= SPEC.tol:
                break
            coarse = fine
        assert (s.n_rho, s.n_theta) == (n_rho, n_theta)
        assert abs(s.value - fine) <= s.est_error


@pytest.mark.parametrize("kind", list(BoundaryKind))
def test_build_table_matches_two_term_moments(kind):
    t, x, N = 0.9, PolarPoint(1.3, 2.2), 20
    table = build_table(kind, t, x, N, SPEC)
    R = rho_max(SPEC, t, x.r, effective_growth_rate(0.0, N + 1, t, SPEC.alpha))
    # the table's own level
    u, wu = _gauss_panels(0.0, math.sqrt(R), table.n_rho)
    th, wth = _gauss_panels(PHI_MIN, PHI_MAX, table.n_theta)
    rho = u * u
    z = rho * complex(math.cos(SPEC.alpha), math.sin(SPEC.alpha))
    G = _two_term_kernel(kind, t, x, z[:, None], th[None, :])
    for n1 in range(N + 1):
        for n2 in range(N + 1 - n1):
            m = n1 + n2
            moment = (2.0 * u * wu * rho ** (m + 1)) @ G @ (np.cos(th) ** n1 * np.sin(th) ** n2 * wth)
            c = moment * np.exp(1j * SPEC.alpha * (m + 2)) / (math.factorial(n1) * math.factorial(n2))
            assert abs(table.c[n1, n2] - c) <= 1e-13 * abs(c)


#: (kind, t, Cartesian x, k) from a seeded sweep of the corner band
#: |x_i| in [4.5, 5.5], t in [0.5, 0.8], |k| <= 1.5, where r/sqrt(t) reaches
#: 7; at each the 192x160 level still differs from 96x80 by more than
#: 10 * tol (by 2.1e-6 up to 0.14)
RESCUED_CORNERS = [
    (BoundaryKind.DIRICHLET, 0.5564, (-4.555, 4.775), (-0.9116, -0.376)),
    (BoundaryKind.NEUMANN, 0.5544, (5.104, -4.613), (0.0149, -0.0259)),
    (BoundaryKind.DIRICHLET, 0.6352, (4.988, 5.12), (0.6982, -0.29)),
    (BoundaryKind.NEUMANN, 0.5554, (4.957, 5.169), (0.9086, -1.0052)),
]


@pytest.mark.parametrize("kind, t, c, k", RESCUED_CORNERS)
def test_corner_band_converges_on_the_top_level(kind, t, c, k):
    x, F = to_polar(CartesianPoint(*c)), PlaneWave(*k)
    s = psi_fresnel(kind, t, x, F, SPEC)
    assert (s.n_rho, s.n_theta) == _LADDER[-1] == (384, 320)
    # the independent assembly on twice the top level's nodes, same cutoff
    reference = _two_term_terms(kind, t, x, F, s.rho_max, 768, 640).sum()
    assert abs(s.value - reference) <= s.est_error + 2 * SPEC.tol


def test_grid_kernel_has_no_boundary_sign():
    # the sign lives with the callers, so both kinds share one kernel grid
    x = PolarPoint(1.0, 0.4)
    z = np.array([[0.5 + 0.5j], [2.0 + 2.0j]])
    theta = np.array([[-1.0, 0.3, 2.0]])
    pair = _kernel_grid(0.8, x, z, theta)
    assert pair.shape == (2, 2, 3)
    neumann = _two_term_kernel(BoundaryKind.NEUMANN, 0.8, x, z, theta)
    dirichlet = _two_term_kernel(BoundaryKind.DIRICHLET, 0.8, x, z, theta)
    # the kinds' sum is twice the direct term, their difference twice the
    # reflected term, which is the image half at pi - theta
    mirrored = _kernel_grid(0.8, x, z, math.pi - theta)[1]
    assert np.allclose(2.0 * pair[0], neumann + dirichlet, rtol=1e-13, atol=0)
    assert np.allclose(2.0 * mirrored, neumann - dirichlet, rtol=1e-13, atol=0)
