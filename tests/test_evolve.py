"""Tests for the rotated-contour evaluation of the time-dependent solution."""

import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import barrierwaves.evolve as evolve_module
from barrierwaves.evolve import (
    RHO_MAX_CAP,
    DiscreteSuperposition,
    NonConvergence,
    PlaneWave,
    QuadratureSpec,
    TailBoundUnsatisfiable,
    TaylorField,
    WaveSample,
    _BATCH_NODES,
    _LADDER,
    _PANEL_ORDER,
    _gauss_panels,
    _walk_ladder,
    _FresnelGrid,
    effective_growth_rate,
    eval_datum,
    growth_envelope,
    psi_fresnel,
    psi_regularized_oracle,
    rho_max,
)
from barrierwaves.geometry import PHI_MAX, PHI_MIN, CartesianPoint, PolarPoint, on_barrier, to_polar
from barrierwaves.greens import BoundaryKind
from barrierwaves.operator import build_table
from test_paired_kernel import RESCUED_CORNERS

X = PolarPoint(1.0, math.pi / 2)
SPEC = QuadratureSpec()
#: indices of the 96x80 and 192x160 levels
LEVEL_96 = _LADDER.index((96, 80))
LEVEL_192 = _LADDER.index((192, 160))
# (t, x, F) at r/sqrt(t) = 6.4: the Neumann value needs the 96x80 level,
# and a cutoff from a looser kernel envelope leaves it unconverged
FAR_CORNER = (0.5933, to_polar(CartesianPoint(3.434, -3.479)), PlaneWave(1.2435, 0.1245))
#: (kind, t, x, F) whose value climbs to the 192x160 level
REACHES_192 = (BoundaryKind.DIRICHLET, 0.36, PolarPoint(2.97, 3.39), PlaneWave(1.56, 1.04))


# ----------------------------------------------------------------------------
# Initial data
# ----------------------------------------------------------------------------


def test_plane_wave_datum():
    assert eval_datum(PlaneWave(1.0, 0.0), math.pi, 5.0) == pytest.approx(-1.0, abs=1e-14)


def test_taylor_degree_is_the_largest_nonzero_total_degree():
    # against the largest n1 + n2 over the nonzero entries, one by one, on
    # random sparse square and rectangular arrays and on all-zero ones
    rng = np.random.default_rng(17)
    for shape in [(1, 1), (4, 4), (3, 6), (7, 2), (5, 5)] * 4:
        coeffs = np.where(rng.random(shape) < 0.3, rng.normal(size=shape) + 1j * rng.normal(size=shape), 0.0)
        want = max((n1 + n2 for n1 in range(shape[0]) for n2 in range(shape[1]) if coeffs[n1, n2] != 0),
                   default=0)
        assert TaylorField(coeffs).degree == want
        assert TaylorField(np.zeros(shape)).degree == 0
    # an imaginary entry alone counts
    assert TaylorField([[0.0, 0.0], [0.0, 1e-300j]]).degree == 2


def test_taylor_datum_at_complex_argument():
    F = TaylorField([[0.0], [1.0]])  # z1
    assert eval_datum(F, 2 + 1j, 9.0) == pytest.approx(2 + 1j, abs=1e-14)
    G = TaylorField([[1.0, 0.0], [0.0, 3.0]])  # 1 + 3 z1 z2
    assert eval_datum(G, 0.5j, 2.0) == pytest.approx(1.0 + 3.0j, abs=1e-14)


def test_superposition_datum_at_origin_is_weight_sum():
    sup = DiscreteSuperposition([0.25, 0.75], [[0.3, 0.4], [0.0, -0.5]])
    assert eval_datum(sup, 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("weights, wavevectors", [
    ([math.nan, 1.0], [[0.3, 0.4], [0.0, -0.5]]),
    ([1.0, complex(0.5, math.inf)], [[0.3, 0.4], [0.0, -0.5]]),
    ([1.0, 1.0], [[0.3, math.nan], [0.0, -0.5]]),
    ([1.0, 1.0], [[0.3, 0.4], [-math.inf, -0.5]]),
])
def test_superposition_rejects_non_finite_entries(weights, wavevectors):
    with pytest.raises(ValueError, match="finite"):
        DiscreteSuperposition(weights, wavevectors)


@pytest.mark.parametrize("coeffs", [[[math.nan, 1.0]], [[1.0], [complex(0.0, math.inf)]],
                                    [[1.0, 2.0], [-math.inf, 0.0]]])
def test_taylor_datum_rejects_non_finite_coefficients(coeffs):
    with pytest.raises(ValueError, match="finite"):
        TaylorField(coeffs)


@pytest.mark.parametrize("wavevectors", [[[0.5 + 2j, 0.0]], np.array([[0.5 + 2j, 0.0]])],
                         ids=["list", "ndarray"])
def test_superposition_rejects_non_real_wavevectors(wavevectors):
    # a cast to float would drop the imaginary part, and with it the datum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="real"):
            DiscreteSuperposition([1.0], wavevectors)
    # a complex array holding real values is the same datum as its real part
    sup = DiscreteSuperposition([1.0], np.array([[0.5 + 0j, 0.0]]))
    assert sup.wavevectors.dtype == float
    assert sup.wavevectors.tolist() == [[0.5, 0.0]]


@pytest.mark.parametrize("make", [
    lambda: TaylorField([[1e308, 1e308]]),
    lambda: DiscreteSuperposition([1e308, 1e308], [[0.3, 0.4], [0.0, -0.5]]),
], ids=["taylor", "superposition"])
def test_datum_with_overflowing_envelope_raises(make):
    # finite entries whose sum of moduli, the envelope A, is beyond double
    # range: the datum says so, and numpy warns about nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="envelope"):
            make()


def test_growth_envelope():
    assert growth_envelope(PlaneWave(0.6, -0.8)) == (1.0, pytest.approx(1.0), 0)
    A, B, d = growth_envelope(TaylorField([[1.0, 2.0], [0.5, 0.0]]))
    assert A == pytest.approx(3.5)
    assert B == 0.0
    assert d == 1
    assert growth_envelope(TaylorField([[0.0, 0.0]])) == (1.0, 0.0, 0)
    A, B, d = growth_envelope(DiscreteSuperposition([0.5, -0.5], [[1.0, 0.0], [0.0, 1.0]]))
    assert A == pytest.approx(1.0)
    assert B == pytest.approx(1.0)
    assert d == 0
    # the growth rate is the largest atom norm
    assert growth_envelope(DiscreteSuperposition([1.0, 2.0], [[3.0, -4.0], [0.5, 0.0]]))[1] == 5.0


def test_effective_growth_rate_absorbs_degree():
    assert effective_growth_rate(0.7, 0, 1.0, math.pi / 4) == 0.7
    assert effective_growth_rate(0.7, 3, 1.0, math.pi / 4) > 0.7


# ----------------------------------------------------------------------------
# Quadrature parameters
# ----------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(alpha=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(alpha=math.pi / 2)
    with pytest.raises(ValueError):
        QuadratureSpec(tol=0.0)
    # an infinite tol would accept the coarsest levels and the shortest cutoff
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError):
            QuadratureSpec(tol=tol)
    # the node counts come from the fixed ladder, not from the spec
    with pytest.raises(TypeError):
        QuadratureSpec(n_rho=192)


def test_rho_max_monotone_in_growth():
    rs = [rho_max(SPEC, 1.0, 1.0, B) for B in (0.0, 1.0, 2.0)]
    assert rs[0] < rs[1] < rs[2]


def test_rho_max_tail_oracle():
    # Beyond the cutoff the integrand majorant (3/(2t)) exp(-a rho^2 + b rho),
    # b = r/(2t) + B + 1, must integrate to below the tolerance.
    for B in (0.0, 1.0, 2.0):
        R = rho_max(SPEC, 1.0, 1.0, B)
        a = math.sin(2 * SPEC.alpha) / 4.0
        b = 0.5 + B + 1.0
        rho = np.linspace(R, R + 60.0, 200_000)
        tail = 1.5 * np.trapezoid(np.exp(-a * rho**2 + b * rho), rho)
        assert tail < SPEC.tol


def test_rho_max_shrinks_at_best_rotation():
    r_best = rho_max(QuadratureSpec(alpha=math.pi / 4), 1.0, 1.0, 0.5)
    r_shallow = rho_max(QuadratureSpec(alpha=0.2), 1.0, 1.0, 0.5)
    assert r_best < r_shallow


def test_rho_max_unsatisfiable():
    with pytest.raises(TailBoundUnsatisfiable):
        rho_max(SPEC, 1.0, 1.0, 4000.0)
    assert rho_max(SPEC, 1.0, 1.0, 2000.0) < RHO_MAX_CAP


@pytest.mark.parametrize("t, B", [(1.0, math.nan), (1.0, math.inf), (math.nan, 1.0), (math.inf, 1.0)])
def test_rho_max_rejects_non_finite_arguments(t, B):
    # a NaN growth rate used to slip past every comparison to the 1e4 cap
    with pytest.raises(ValueError):
        rho_max(SPEC, t, 1.0, B)


@pytest.mark.parametrize("r", [math.nan, math.inf, -5.0])
def test_rho_max_rejects_bad_radius(r):
    # without the check a NaN radius gives the 1e4 cap, and r = -5 a cutoff of 5.33
    with pytest.raises(ValueError, match="radius"):
        rho_max(SPEC, 1.0, r, 0.5)


@pytest.mark.parametrize("npan", [2, 5, 16, 32])
def test_gauss_rule_is_cached_reference_rule(npan):
    # every panel is the one 16-node reference rule, computed once, scaled
    # to its interval; a node count is rounded up to whole panels
    fresh_x, fresh_w = leggauss(_PANEL_ORDER)
    edges = np.linspace(0.0, 3.0, npan + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[1:] + edges[:-1])
    for n in (_PANEL_ORDER * npan, _PANEL_ORDER * (npan - 1) + 1):
        nodes, weights = _gauss_panels(0.0, 3.0, n)
        assert nodes.tobytes() == (mids[:, None] + half * fresh_x[None, :]).ravel().tobytes()
        assert weights.tobytes() == np.tile(half * fresh_w, npan).tobytes()


# ----------------------------------------------------------------------------
# Solution values
# ----------------------------------------------------------------------------


def test_stationary_data_reproduced():
    cases = [
        (BoundaryKind.NEUMANN, TaylorField([[1.0]]), lambda x1, x2: 1.0),
        (BoundaryKind.NEUMANN, TaylorField([[0.0, 1.0]]), lambda x1, x2: x2),
        (BoundaryKind.DIRICHLET, TaylorField([[0.0], [1.0]]), lambda x1, x2: x1),
        (BoundaryKind.DIRICHLET, TaylorField([[0.0, 0.0], [0.0, 1.0]]), lambda x1, x2: x1 * x2),
    ]
    for x in (X, PolarPoint(1.3, 0.8)):
        x1 = x.r * math.cos(x.phi)
        x2 = x.r * math.sin(x.phi)
        for t in (0.4, 0.9):
            for kind, F, target in cases:
                s = psi_fresnel(kind, t, x, F, SPEC)
                assert abs(s.value - target(x1, x2)) <= 1e-6


@pytest.mark.parametrize("kind", list(BoundaryKind))
def test_plane_wave_small_time_limit(kind):
    # as t -> 0 the solution at a point off the barrier tends to the datum
    # there, free phase included; the diffracted part shrinks like sqrt(t)
    # (measured 0.18, 0.11, 0.062 for Dirichlet and 0.027, 0.0098, 0.0031
    # for Neumann).  With the kernel halves swapped the distance stays at
    # 1.05 to 1.69.
    k1, k2, x1, x2 = 1.0, 0.4, 1.0, 0.5
    x = to_polar(CartesianPoint(x1, x2))
    gaps = []
    for t in (0.2, 0.1, 0.05):
        free = np.exp(1j * (k1 * x1 + k2 * x2) - 1j * (k1 * k1 + k2 * k2) * t)
        gaps.append(abs(psi_fresnel(kind, t, x, PlaneWave(k1, k2), SPEC).value - free))
        assert gaps[-1] <= 0.5 * math.sqrt(t)
    assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("kind", list(BoundaryKind))
def test_mirror_parts_of_a_plane_wave_evolve_exactly(kind):
    # the odd part in x1 of a plane wave vanishes on the line x1 = 0, the
    # even part has no normal derivative there, so each solves its barrier
    # problem as it solves the free one: sin(k1 x1) or cos(k1 x1) times
    # exp(1j (k2 x2 - |k|^2 t)).  At 240 seeded points of the field range
    # per kind the worst |error| / (est_error + 2 tol) is 0.0012 (Dirichlet)
    # and 0.0021 (Neumann), and 65 and 64 of the points stop on 32x32.
    rng = np.random.default_rng(9091 + (kind is BoundaryKind.NEUMANN))
    stops = []
    for _ in range(240):
        t = rng.uniform(0.5, 2.0)
        c = CartesianPoint(*rng.uniform(-2.8, 2.8, 2))
        if on_barrier(c):
            continue
        kn, ang = rng.uniform(0.0, 1.5), rng.uniform(0.0, 2 * math.pi)
        k1, k2 = kn * math.cos(ang), kn * math.sin(ang)
        if kind is BoundaryKind.DIRICHLET:
            F = DiscreteSuperposition([0.5j, -0.5j], [[-k1, k2], [k1, k2]])
            mirror = math.sin(k1 * c.x1)
        else:
            F = DiscreteSuperposition([0.5, 0.5], [[k1, k2], [-k1, k2]])
            mirror = math.cos(k1 * c.x1)
        exact = mirror * np.exp(1j * (k2 * c.x2 - kn * kn * t))
        s = psi_fresnel(kind, t, to_polar(c), F, SPEC)
        assert abs(s.value - exact) <= s.est_error + 2 * SPEC.tol
        stops.append((s.n_rho, s.n_theta))
    assert len(stops) >= 200
    assert (32, 32) in stops


def test_alpha_invariance_single_pair():
    a = psi_fresnel(BoundaryKind.DIRICHLET, 1.0, X, PlaneWave(0.5, 0.5), QuadratureSpec(alpha=0.5))
    b = psi_fresnel(BoundaryKind.DIRICHLET, 1.0, X, PlaneWave(0.5, 0.5), QuadratureSpec(alpha=1.0))
    assert abs(a.value - b.value) <= 1e-6


def test_alpha_invariance_pairwise_sweep():
    vals = [
        psi_fresnel(BoundaryKind.NEUMANN, 0.7, X, PlaneWave(0.4, -0.3), QuadratureSpec(alpha=al)).value
        for al in (0.4, math.pi / 4, 1.1)
    ]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            assert abs(vals[i] - vals[j]) <= 10 * SPEC.tol


def test_linearity_of_polynomial_data():
    a, b = 2.0, -0.5
    F1 = TaylorField([[0.0], [1.0]])
    F2 = TaylorField([[0.0, 1.0]])
    Fc = TaylorField([[0.0, b], [a, 0.0]])
    lhs = psi_fresnel(BoundaryKind.DIRICHLET, 0.7, X, Fc, SPEC).value
    rhs = (
        a * psi_fresnel(BoundaryKind.DIRICHLET, 0.7, X, F1, SPEC).value
        + b * psi_fresnel(BoundaryKind.DIRICHLET, 0.7, X, F2, SPEC).value
    )
    assert abs(lhs - rhs) <= 1e-10


def test_linearity_of_wave_superpositions():
    sup = DiscreteSuperposition([0.6, 0.4], [[0.3, 0.4], [0.1, -0.2]])
    lhs = psi_fresnel(BoundaryKind.NEUMANN, 1.0, X, sup, SPEC).value
    rhs = (
        0.6 * psi_fresnel(BoundaryKind.NEUMANN, 1.0, X, PlaneWave(0.3, 0.4), SPEC).value
        + 0.4 * psi_fresnel(BoundaryKind.NEUMANN, 1.0, X, PlaneWave(0.1, -0.2), SPEC).value
    )
    assert abs(lhs - rhs) <= 1e-10


def test_ladder_rungs_refine_by_whole_panels():
    # every count is a whole number of panels, and each level has more
    # panels than the one below in both directions
    for nodes in _LADDER:
        assert all(n % _PANEL_ORDER == 0 for n in nodes)
    for (n_rho, n_theta), (fine_rho, fine_theta) in zip(_LADDER, _LADDER[1:]):
        assert fine_rho > n_rho and fine_theta > n_theta


def test_node_cap_and_table_start_are_named_levels(monkeypatch):
    # the batch cap is one 192x160 level and tables start on 96x80, however
    # many levels lie below either
    assert (192, 160) in _LADDER and _BATCH_NODES == 192 * 160 == 30_720
    original, shapes = evolve_module._kernel_grid, []

    def counted(*args):
        G = original(*args)
        shapes.append(G.shape[2:])
        return G

    monkeypatch.setattr(evolve_module, "_kernel_grid", counted)
    build_table(BoundaryKind.DIRICHLET, 1.0, X, 4, SPEC)
    assert shapes[0] == (96, 80)


def test_mesh_doubling_shrinks_error_estimate():
    # each level of one grid refines the one below in both directions, so
    # the difference of successive levels, which is the estimate of the
    # upper one, shrinks all the way up: here 1.9e-4, 4.4e-7, 6.2e-9,
    # 9.7e-11 and 2.4e-14 from 48x48 to 384x320
    t, x, F = FAR_CORNER
    grid = _FresnelGrid(t, F, SPEC, x.r)
    values = {nodes: grid.quad_values(BoundaryKind.NEUMANN, [x], i)[0][0]
              for i, nodes in enumerate(_LADDER)}
    gaps = [abs(values[fine] - values[coarse]) for coarse, fine in zip(_LADDER, _LADDER[1:])]
    assert gaps[-1] > 0
    assert all(fine_gap < coarse_gap for coarse_gap, fine_gap in zip(gaps, gaps[1:]))
    # without the 64x64 level, every step shrinks the difference 100-fold
    old = [values[nodes] for nodes in ((32, 32), (48, 48), (96, 80), (192, 160), (384, 320))]
    old_gaps = [abs(fine - coarse) for coarse, fine in zip(old, old[1:])]
    for coarse_gap, fine_gap in zip(old_gaps, old_gaps[1:]):
        assert coarse_gap / fine_gap >= 100.0


def test_finest_level_reproduces_fixed_pair():
    # far from the barrier tip at small t the ladder climbs to 192x160,
    # where value and estimate are those of the (192x160, 96x80) pair
    kind, t, x, F = REACHES_192
    s = psi_fresnel(kind, t, x, F, SPEC)
    assert (s.n_rho, s.n_theta) == (192, 160)
    grid = _FresnelGrid(t, F, SPEC, x.r)
    assert _LADDER[LEVEL_192 - 1] == (96, 80)
    fine = grid.quad_values(kind, [x], LEVEL_192)[0][0]
    coarse = grid.quad_values(kind, [x], LEVEL_192 - 1)[0][0]
    assert s.value == fine
    assert s.est_error == abs(fine - coarse)


def _seeded_ladder_points():
    rng = np.random.default_rng(20231)
    for i in range(40):
        kind = (BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN)[rng.integers(2)]
        t = rng.uniform(0.5, 2.0)
        x = PolarPoint(rng.uniform(0.05, 3.9), rng.uniform(PHI_MIN, PHI_MAX))
        if i % 2:
            kn, ang = rng.uniform(0.0, 1.5), rng.uniform(0.0, 2 * math.pi)
            F = PlaneWave(kn * math.cos(ang), kn * math.sin(ang))
        else:
            # Taylor datum of degree <= 3
            n = np.arange(int(rng.integers(4)) + 1)
            F = TaylorField(np.where(n[:, None] + n[None, :] <= n[-1],
                                     rng.uniform(-1.0, 1.0, (n.size, n.size)), 0.0))
        yield kind, t, x, F
    # far corner at r/sqrt(t) = 6.4, which needs the 96x80 level
    yield BoundaryKind.NEUMANN, *FAR_CORNER
    yield REACHES_192


def test_ladder_agrees_with_finest_level_within_estimate():
    levels = set()
    for kind, t, x, F in _seeded_ladder_points():
        s = psi_fresnel(kind, t, x, F, SPEC)
        levels.add(s.n_rho)
        reference = _FresnelGrid(t, F, SPEC, x.r).quad_values(kind, [x], LEVEL_192)[0][0]
        assert abs(s.value - reference) <= s.est_error <= 10 * SPEC.tol
    # the seeded points stop at every level but the top
    assert levels == {32, 48, 64, 96, 192}


@pytest.mark.parametrize("x1", [3.434, -3.434])
def test_far_corner_point_and_its_mirror_converge(x1):
    t, _, F = FAR_CORNER
    s = psi_fresnel(BoundaryKind.NEUMANN, t, to_polar(CartesianPoint(x1, -3.479)), F, SPEC)
    assert s.est_error <= 10 * SPEC.tol


def test_corner_sweep_converges_within_estimate():
    # |x_i| in [2.5, 3.5] in all four quadrants, where r/sqrt(t) reaches 7
    rng = np.random.default_rng(808)
    for i in range(60):
        kind = (BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN)[rng.integers(2)]
        t = rng.uniform(0.5, 0.8)
        quadrant = np.array([(1, 1), (-1, 1), (-1, -1), (1, -1)][i % 4])
        x = to_polar(CartesianPoint(*(quadrant * rng.uniform(2.5, 3.5, 2))))
        kn, ang = rng.uniform(0.0, 1.5), rng.uniform(0.0, 2 * math.pi)
        F = PlaneWave(kn * math.cos(ang), kn * math.sin(ang))
        s = psi_fresnel(kind, t, x, F, SPEC)
        reference = _FresnelGrid(t, F, SPEC, x.r).quad_values(kind, [x], LEVEL_192)[0][0]
        assert abs(s.value - reference) <= s.est_error <= 10 * SPEC.tol


def _grid_points():
    """Off-barrier points of a 5x5 grid on [-3, 3]^2; at t = 0.6 they stop
    at 48x48, 64x64 and 96x80."""
    grid = (CartesianPoint(x1, x2) for x2 in np.linspace(-3, 3, 5) for x1 in np.linspace(-3, 3, 5))
    return [to_polar(p) for p in grid if not on_barrier(p)]


def _counting_eval_datum(monkeypatch):
    """Record the shape of every ``eval_datum`` call the quadrature makes."""
    calls = []
    original = evolve_module.eval_datum

    def counted(F, z1, z2):
        calls.append(np.shape(z2))
        return original(F, z1, z2)

    monkeypatch.setattr(evolve_module, "eval_datum", counted)
    return calls


@pytest.mark.parametrize("kind, F", [
    (BoundaryKind.DIRICHLET, PlaneWave(0.4, -0.3)),
    (BoundaryKind.NEUMANN, TaylorField([[0.5, 1.0], [-0.7, 0.0]])),
])
def test_grid_call_agrees_with_single_point_calls(kind, F):
    t, points = 0.6, _grid_points()
    grid = psi_fresnel(kind, t, points, F, SPEC)
    assert [s.x for s in grid] == points
    # the plane wave's smoothest points stop on 32x32 on their own estimate
    assert {s.n_rho for s in grid} == ({32, 48, 64, 96} if isinstance(F, PlaneWave) else {48, 64, 96})
    R = max(s.rho_max for s in grid)
    for s in grid:
        single = psi_fresnel(kind, t, s.x, F, SPEC)
        # each value is within its refinement estimate plus its tail bound
        # (at most tol by the choice of R) of the solution; est_error alone
        # compares two levels on one R and does not see a change of R
        assert abs(s.value - single.value) <= s.est_error + single.est_error + 2 * SPEC.tol
        # one cutoff for the grid, the one of its largest radius, which is
        # at least every point's own
        assert s.rho_max == R >= single.rho_max
    assert R == psi_fresnel(kind, t, max(points, key=lambda p: p.r), F, SPEC).rho_max


def test_grid_builds_each_level_once(monkeypatch):
    calls = _counting_eval_datum(monkeypatch)
    samples = psi_fresnel(BoundaryKind.DIRICHLET, 0.6, _grid_points(), PlaneWave(0.4, -0.3), SPEC)
    # every level up to the finest one any point reached, 96x80, once for
    # the grid; the levels above it, which no point reaches, are never built
    assert calls == list(_LADDER[:LEVEL_96 + 1])
    assert len(samples) > 4 * len(calls)


def test_shared_grid_levels_are_built_once_under_concurrency(monkeypatch):
    kind, t, F = BoundaryKind.NEUMANN, 0.6, PlaneWave(0.4, -0.3)
    points = _grid_points()
    expected = psi_fresnel(kind, t, points, F, SPEC)
    calls = _counting_eval_datum(monkeypatch)
    grid = _FresnelGrid(t, F, SPEC, max(p.r for p in points))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(grid.samples, kind, [p]) for p in points * 3]
            got = [f.result(timeout=120)[0] for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == LEVEL_96 + 1
    assert got == expected * 3


#: one datum of each kind, with the grid of ``_grid_points`` at t = 0.6
#: stopping at 48x48, 64x64 and 96x80 for each of them, and on 32x32 too
#: for the plane wave and the superposition
_BATCH_DATA = [
    PlaneWave(0.4, -0.3),
    TaylorField([[0.5, 1.0], [-0.7, 0.0]]),
    DiscreteSuperposition([0.5, -0.25, 1j], [[0.4, -0.3], [-0.2, 0.6], [0.1, 0.1]]),
]


@pytest.mark.parametrize("kind", list(BoundaryKind))
@pytest.mark.parametrize("F", _BATCH_DATA, ids=["plane-wave", "taylor", "superposition"])
def test_batched_walk_equals_one_point_walks(kind, F):
    # the grid's 22 points twice: the node cap splits their kernel calls
    # on every level, into 30, 13, 7 and 4 points on 32x32, 48x48, 64x64
    # and 96x80
    points = _grid_points()
    grid = _FresnelGrid(0.6, F, SPEC, max(p.r for p in points))
    batched = grid.samples(kind, points * 2)
    single = [grid.samples(kind, [p])[0] for p in points]
    assert batched == single * 2
    stops = {(s.n_rho, s.n_theta) for s in single}
    assert stops == {(48, 48), (64, 64), (96, 80)} | (set() if isinstance(F, TaylorField) else {(32, 32)})


@pytest.mark.parametrize("kind", list(BoundaryKind))
def test_level_estimate_has_the_same_bits_in_any_batch(kind):
    # a level's estimate of its own error comes from sums and matmuls of
    # the same shape for each point, whatever the batch: per level, each
    # point's (value, sum of |terms|, estimate) alone equals its entry in
    # the grid twice over (which the node cap splits on every level), in a
    # shuffled grid and in a batch of seven, so no stop at tol can flip;
    # and so it does when each point is given its result on the level
    # below, and those within tol of it go without an own estimate
    points = _grid_points()
    grid = _FresnelGrid(0.6, _BATCH_DATA[2], SPEC, max(p.r for p in points))
    order = np.random.default_rng(5).permutation(len(points))
    batches = [list(range(len(points))) * 2, list(order), list(order[:7])]
    coarse, gapped = None, 0
    for i in range(LEVEL_192 + 1):
        for below in (None, coarse):
            alone = [grid.quad_values(kind, [p], i, below and [below[j]], SPEC.tol)[0]
                     for j, p in enumerate(points)]
            for batch in batches:
                got = grid.quad_values(kind, [points[j] for j in batch], i,
                                       below and [below[j] for j in batch], SPEC.tol)
                # an estimate may read NaN, and NaN equals NaN here
                assert np.array_equal(np.array(got), np.array([alone[j] for j in batch]), equal_nan=True)
            if below:
                gapped += sum(fine[2] == evolve_module._gap(fine, c) <= SPEC.tol
                              for fine, c in zip(alone, below))
        coarse = alone
    assert gapped > 0
    single = [grid.samples(kind, [p])[0] for p in points]
    assert grid.samples(kind, [points[j] for j in order]) == [single[j] for j in order]
    # some points stop on 32x32, on the estimate alone
    assert (32, 32) in {(s.n_rho, s.n_theta) for s in single}


def test_top_level_asks_for_no_unneeded_own_estimate(monkeypatch):
    # the top level accepts a gap of up to 10 * tol, so a point whose
    # result on the level below is 5 * tol away needs no own estimate there
    kind, t, x, F = REACHES_192
    grid = _FresnelGrid(t, F, SPEC, x.r)
    top = len(_LADDER) - 1
    [(value, modulus, _)] = grid.quad_values(kind, [x], top)
    original, rows = evolve_module._panel_error, []

    def recorded(along_theta, along_rho):
        rows.append(len(along_theta))
        return original(along_theta, along_rho)

    monkeypatch.setattr(evolve_module, "_panel_error", recorded)
    coarse = (value + 5 * SPEC.tol, modulus, math.nan)
    [(again, _, est)] = grid.quad_values(kind, [x], top, [coarse], 10 * SPEC.tol)
    assert (again, rows) == (value, [])
    assert est == pytest.approx(5 * SPEC.tol, rel=1e-6)
    # a limit of tol asks for the own estimate of that one point
    grid.quad_values(kind, [x], top, [coarse], SPEC.tol)
    assert rows == [1]


@pytest.mark.parametrize("kind", list(BoundaryKind))
@pytest.mark.parametrize("F", _BATCH_DATA[:2], ids=["plane-wave", "taylor"])
def test_batched_series_walk_equals_one_point_walks(kind, F):
    points = _grid_points()
    grid = _FresnelGrid(0.6, F, SPEC, max(p.r for p in points))
    batched = grid.series_samples(kind, points * 2, 60)
    single = [grid.series_samples(kind, [p], 60)[0] for p in points] * 2
    for (sample, sums), (one, one_sums) in zip(batched, single, strict=True):
        assert sample == one
        assert np.array_equal(sums, one_sums)
    assert {s.n_rho for s, _ in batched} == {48, 64, 96}


def _ladder_points():
    """``_grid_points``, three far points and a near one; at t = 0.6, on
    the cutoff of the farthest, (-5, 5), the plane wave's field values
    stop at every level, the near point's on 32x32 on its own estimate,
    and its operator series at every level above 32x32."""
    return _grid_points() + [to_polar(CartesianPoint(*c))
                             for c in ((4.0, 4.0), (-4.5, 4.5), (-5.0, 5.0), (1.0, -1.0))]


@pytest.mark.parametrize("kind", list(BoundaryKind))
@pytest.mark.parametrize("series", [False, True], ids=["quadrature", "series"])
def test_batched_walk_evaluates_each_point_on_its_own_levels(monkeypatch, kind, series):
    # the kernel values of one batched walk add up to each point's levels
    # from 32x32 to its own stop, and every point's sample is its own walk's
    points, F = _ladder_points(), PlaneWave(0.4, -0.3)
    grid = _FresnelGrid(0.6, F, SPEC, max(p.r for p in points))

    def walk(batch):
        if series:
            return [s for s, _ in grid.series_samples(kind, batch, 60)]
        return grid.samples(kind, batch)

    single = [walk([p])[0] for p in points]
    original, sizes = evolve_module._kernel_grid, []

    def counted(*args):
        G = original(*args)
        sizes.append(G.size)
        return G

    monkeypatch.setattr(evolve_module, "_kernel_grid", counted)
    assert walk(points) == single
    stops = [_LADDER.index((s.n_rho, s.n_theta)) for s in single]
    # only field values judge a level on its own estimate, so only they
    # stop on the first level
    assert {_LADDER[stop] for stop in stops} == set(_LADDER[1:] if series else _LADDER)
    assert sum(sizes) == sum(2 * n_rho * n_theta
                             for stop in stops for n_rho, n_theta in _LADDER[:stop + 1])


def test_batched_kernel_equals_one_point_kernels():
    # a leading points axis of r and phi gives every point the bits of its
    # own call, on real and on rotated radii
    points = _grid_points()
    r = np.array([p.r for p in points])[:, None, None]
    phi = np.array([p.phi for p in points])[:, None, None]
    for alpha in (0.0, 0.25 * math.pi):
        _, z, _, th, _ = evolve_module._polar_rule(9.0, 48, 48, alpha)
        batched = evolve_module._kernel_grid(0.6, r, phi, z[:, None], th[None, :])
        assert batched.shape == (2, len(points), 48, 48)
        for j, p in enumerate(points):
            one = evolve_module._kernel_grid(0.6, p.r, p.phi, z[:, None], th[None, :])
            assert np.array_equal(batched[:, j], one)


def test_batch_memory_is_bounded_by_the_node_cap():
    # the kernel sees at most one 192x160 level's nodes per call, so ten
    # times as many points that reach 96x80 peak at about the same memory
    kind, t, F = BoundaryKind.DIRICHLET, 0.6, PlaneWave(0.4, -0.3)
    points = _grid_points()
    grid = _FresnelGrid(t, F, SPEC, max(p.r for p in points))
    x = next(s.x for s in grid.samples(kind, points) if (s.n_rho, s.n_theta) == (96, 80))

    def peak(count):
        tracemalloc.start()
        try:
            grid.samples(kind, [x] * count)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(400) <= 1.5 * peak(40)


def test_empty_point_sequence_gives_empty_list():
    assert psi_fresnel(BoundaryKind.DIRICHLET, 0.6, [], PlaneWave(0.4, -0.3), SPEC) == []


def test_estimate_is_floored_at_the_rounding_of_the_sum():
    # here 48x48 and 32x32 agree to 6.1e-18, closer than either sum is
    # rounded, and the 192x160 rule differs by 1.5e-17
    kind, t, x = BoundaryKind.DIRICHLET, 0.769, PolarPoint(0.1147, -1.5016)
    F = TaylorField(np.array([[0.824]]))
    s = psi_fresnel(kind, t, x, F, SPEC)
    grid = _FresnelGrid(t, F, SPEC, x.r)
    reference = grid.quad_values(kind, [x], LEVEL_192)[0][0]
    magnitude = grid.quad_values(kind, [x], _LADDER.index((s.n_rho, s.n_theta)))[0][1]
    assert s.est_error >= np.finfo(float).eps * magnitude
    assert abs(s.value - reference) <= s.est_error <= 10 * SPEC.tol


def test_underflowing_tail_tolerance_names_the_envelope_factor():
    # tol / A = 1e-330 underflows to 0; the error names the caller's tol
    # and A, not the quotient
    with pytest.raises(TailBoundUnsatisfiable, match=r"tol=1e-30 .* A=1\.000e\+300"):
        psi_fresnel(BoundaryKind.DIRICHLET, 1.0, X, TaylorField([[1e300]]), QuadratureSpec(tol=1e-30))


def test_nonconvergence_on_starved_mesh():
    # no level meets 10 * tol below the rounding of its own sum, since
    # est_error >= eps * sum |terms| >= eps * |value|, so the walk runs out
    # of levels and names the top one
    with pytest.raises(NonConvergence, match=r"n_rho=384, n_theta=320"):
        psi_fresnel(BoundaryKind.DIRICHLET, 1.0, X, PlaneWave(0.5, 0.5), QuadratureSpec(tol=1e-17))


@pytest.mark.parametrize("gaps, start, level", [
    # the first level within tol stops the walk, and no level above it is evaluated
    ((1.0, 1e-3, 1e-8, 0.0), 0, 3),
    # within 10 * tol below the top is not enough: the walk climbs on
    ((1.0, 1e-3, 5e-7, 1e-12), 0, 4),
    ((5e-7, 1e-12), 2, 4),
    # the top level is accepted up to 10 * tol
    ((1.0, 1.0, 1.0, 1.0, 9e-7), 0, 5),
    ((1e-8,), 3, 4),
])
def test_walk_ladder_rule(gaps, start, level):
    # levels hold partial sums, so each gap is the difference to the level
    # below; the walk hands each level the result below and its limit
    values = np.concatenate([[0.0], np.cumsum(gaps)])
    calls = []

    def evaluate(i, active, coarse, limit):
        calls.append(i)
        assert active == [0]
        assert coarse == [values[i - start - 1] if i > start else None]
        assert limit == (1e-6 if i == len(_LADDER) - 1 else 1e-7)
        fine = values[i - start]
        return [(fine, math.nan if coarse[0] is None else abs(fine - coarse[0]))]

    [(value, est, nodes)] = _walk_ladder(evaluate, 1e-7, 1, _LADDER[start])
    assert (value, nodes) == (values[level - start], _LADDER[level])
    assert est == abs(values[level - start] - values[level - start - 1])
    assert calls == list(range(start, level + 1))


@pytest.mark.parametrize("top_gap", [1.1e-6, math.nan])
def test_walk_ladder_raises_on_the_top_level(top_gap):
    values = [0.0, 1.0, 2.0, 3.0, 4.0, 4.0 + top_gap]

    def evaluate(i, active, coarse, limit):
        return [(values[i], math.nan if coarse[0] is None else abs(values[i] - coarse[0]))]

    with pytest.raises(NonConvergence, match=r"refinement estimate .* exceeds 10\*tol=1\.000e-06 "
                       r"\(n_rho=384, n_theta=320\)$"):
        _walk_ladder(evaluate, 1e-7, 1)


def _scripted_field_walk(monkeypatch, gaps, own):
    """One field value's walk whose gap to the level below is ``gaps[i - 1]``
    and whose own estimate is ``own[i]`` on level i: (sample, levels
    evaluated, levels whose own estimate was computed)."""
    calls, asked = [], []

    def gap(fine, coarse):
        calls.append(len(calls))
        return math.nan if coarse is None else gaps[calls[-1] - 1]

    def panel_error(along_theta, along_rho):
        asked.append(calls[-1])
        return np.full(len(along_theta), own[calls[-1]])

    monkeypatch.setattr(evolve_module, "_gap", gap)
    monkeypatch.setattr(evolve_module, "_panel_error", panel_error)
    return psi_fresnel(BoundaryKind.DIRICHLET, 0.8, X, PlaneWave(0.2, 0.1), SPEC), calls, asked


#: differences of successive levels that the gap alone accepts first on 48x48
_GAPS = (1e-8, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("own, gaps, level, est", [
    # an own estimate within tol stops the walk on the first level, which
    # has no gap
    ((1e-8,) + (1.0,) * 5, _GAPS, 0, 1e-8),
    # or on a later one, whose gap is too large
    ((1.0, 1.0, 2e-8, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0, 1.0), 2, 2e-8),
    # a NaN or infinite own estimate accepts nothing; the gap still does
    ((math.nan,) * 6, _GAPS, 1, 1e-8),
    ((math.inf,) * 6, _GAPS, 1, 1e-8),
    ((math.nan, math.inf, 1e-12, 0.0, 0.0, 0.0), _GAPS, 1, 1e-8),
    # when the gap accepts, it reports, and the own estimate is not computed
    ((1.0, 1e-12) + (0.0,) * 4, _GAPS, 1, 1e-8),
    ((1.0, 5e-8) + (0.0,) * 4, _GAPS, 1, 1e-8),
])
def test_walk_ladder_accepts_a_level_on_its_own_estimate(monkeypatch, own, gaps, level, est):
    # field values pick the estimate each level of the walk is judged on
    s, calls, asked = _scripted_field_walk(monkeypatch, gaps, own)
    assert (s.est_error, (s.n_rho, s.n_theta)) == (est, _LADDER[level])
    assert calls == list(range(level + 1))
    # the own estimate is computed only on the levels whose gap does not accept
    assert asked == [k for k in range(level + 1) if k == 0 or not gaps[k - 1] <= 1e-7]


def test_walk_ladder_own_estimate_meets_the_top_level_rule(monkeypatch):
    # on the top level an own estimate is accepted up to 10 * tol, as the
    # gap is; above it the error names the gap, as it does without one
    [s, _, asked] = _scripted_field_walk(monkeypatch, (1.0,) * 5, (1.0,) * 5 + (9e-7,))
    assert (s.est_error, (s.n_rho, s.n_theta), asked) == (9e-7, (384, 320), list(range(6)))
    for top_own in (1.1e-6, math.nan, math.inf):
        with pytest.raises(NonConvergence, match=r"^refinement estimate 1\.000e\+00 exceeds "
                           r"10\*tol=1\.000e-06 \(n_rho=384, n_theta=320\)$"):
            _scripted_field_walk(monkeypatch, (1.0,) * 5, (1.0,) * 5 + (top_own,))


def _field_range_grids(seed, count):
    """``count`` seeded 3x3 grids of the field benchmark's range, the kinds
    alternating: (kind, t, points, datum), with t in [0.5, 2], the window
    inside |x_i| <= 2.8, and one datum in four a Taylor datum of degree at
    most 3, the others plane waves with |k| <= 1.5."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        kind = (BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN)[i % 2]
        t = rng.uniform(0.5, 2.0)
        axes = []
        for _ in range(2):
            width = rng.uniform(0.5, 5.6)
            lo = rng.uniform(-2.8, 2.8 - width)
            axes.append(np.linspace(lo, lo + width, 3))
        cart = [CartesianPoint(x1, x2) for x2 in axes[1] for x1 in axes[0]]
        points = [to_polar(c) for c in cart if not on_barrier(c)]
        if i % 4:
            kn, ang = rng.uniform(0.0, 1.5), rng.uniform(0.0, 2 * math.pi)
            F = PlaneWave(kn * math.cos(ang), kn * math.sin(ang))
        else:
            n = np.arange(int(rng.integers(4)) + 1)
            F = TaylorField(np.where(n[:, None] + n[None, :] <= n[-1],
                                     rng.uniform(-1.0, 1.0, (n.size, n.size)), 0.0))
        yield kind, t, points, F


def test_accepted_values_lie_within_their_estimate_of_the_top_level():
    # 1 017 field-range points on 113 grids, from a seed the estimator was
    # not tuned on, and the far points that climb highest: every accepted
    # value lies within its est_error, and within tol, of the 384x320 value
    # on its cutoff.  Here 363 of the 1 023 points stop on 32x32, and the
    # worst |value - reference| / est_error is 0.33.
    cases = list(_field_range_grids(31031, 113))
    cases += [(kind, t, [x], F) for kind, t, x, F in [REACHES_192, (BoundaryKind.NEUMANN, *FAR_CORNER)]]
    cases += [(kind, t, [to_polar(CartesianPoint(*c))], PlaneWave(*k))
              for kind, t, c, k in RESCUED_CORNERS]
    stops = []
    for kind, t, points, F in cases:
        grid = _FresnelGrid(t, F, SPEC, max(p.r for p in points))
        top = grid.quad_values(kind, points, len(_LADDER) - 1)
        for s, (reference, _, _) in zip(grid.samples(kind, points), top, strict=True):
            assert abs(s.value - reference) <= s.est_error
            assert abs(s.value - reference) <= SPEC.tol
            stops.append((s.n_rho, s.n_theta))
    assert len(stops) >= 1000
    assert {(32, 32), (192, 160), (384, 320)} <= set(stops)


@pytest.mark.parametrize("t, k, error", [
    (math.nan, (0.4, 0.3), ValueError),
    (math.inf, (0.4, 0.3), ValueError),
    (1.0, (math.nan, 0.3), ValueError),
    (1.0, (15.0, 0.0), NonConvergence),
    (1e-4, (0.4, 0.3), NonConvergence),
    (1e3, (0.4, 0.3), NonConvergence),
])
def test_out_of_range_input_raises_typed_error(t, k, error):
    # each case once returned nan+nanj with a NaN estimate (t = inf raised
    # ZeroDivisionError); a NaN or overflowing estimate is no convergence
    with np.errstate(all="ignore"), pytest.raises(error):
        psi_fresnel(BoundaryKind.DIRICHLET, t, PolarPoint(1.0, 0.3), PlaneWave(*k), SPEC)


@pytest.mark.parametrize("t, k", [(1e-4, (0.4, 0.3)), (1e3, (0.4, 0.3)), (1.0, (15.0, 0.0))])
def test_out_of_range_input_raises_without_runtime_warnings(t, k):
    # the typed error alone reports the overflow: numpy warns about nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence):
            psi_fresnel(BoundaryKind.DIRICHLET, t, PolarPoint(1.0, 0.3), PlaneWave(*k), SPEC)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_table_rejects_non_finite_time(t):
    with pytest.raises(ValueError):
        build_table(BoundaryKind.DIRICHLET, t, PolarPoint(1.0, 0.3), 4, SPEC)


def test_sample_metadata():
    s = psi_fresnel(BoundaryKind.NEUMANN, 0.8, X, PlaneWave(0.2, 0.1), SPEC)
    assert isinstance(s, WaveSample)
    assert s.t == 0.8
    assert s.x == X
    assert s.kind is BoundaryKind.NEUMANN
    assert s.rho_max > 0
    # a smooth case stops on the first level of the ladder, on its own estimate
    assert (s.n_rho, s.n_theta) == (32, 32)
    assert s.est_error < SPEC.tol


# ----------------------------------------------------------------------------
# Regularized cross-check
# ----------------------------------------------------------------------------


def test_regularized_matches_stationary_neumann():
    reg = psi_regularized_oracle(BoundaryKind.NEUMANN, 1.0, X, TaylorField([[1.0]]))
    assert abs(reg.value - 1.0) <= 1e-2


def test_regularized_fixed_eps_bias():
    # A single finite regularization strength is visibly biased; the
    # extrapolation to zero removes most of it.
    reg = psi_regularized_oracle(BoundaryKind.NEUMANN, 1.0, X, TaylorField([[1.0]]))
    raw_worst = abs(reg.eps_values[0] - 1.0)
    assert raw_worst > 0.1
    assert abs(reg.value - 1.0) < 0.05 * raw_worst
    assert reg.extrap_delta < 2e-3


def test_regularized_matches_fresnel_plane_wave():
    F = PlaneWave(0.3, -0.2)
    ref = psi_fresnel(BoundaryKind.DIRICHLET, 1.0, X, F, SPEC).value
    reg = psi_regularized_oracle(BoundaryKind.DIRICHLET, 1.0, X, F).value
    assert abs(reg - ref) <= 1e-2 * max(1.0, abs(ref))

