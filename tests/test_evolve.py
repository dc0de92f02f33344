"""Tests for the rotated-contour evaluation of the time-dependent solution."""

import math
import sys
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

X = PolarPoint(1.0, math.pi / 2)
SPEC = QuadratureSpec()
#: index of the 192x160 level
LEVEL_192 = _LADDER.index((192, 160))
# (t, x, F) at r/sqrt(t) = 6.4: the Neumann value needs the 192x160 level,
# and a cutoff from a looser kernel envelope leaves it unconverged
FAR_CORNER = (0.5933, to_polar(CartesianPoint(3.434, -3.479)), PlaneWave(1.2435, 0.1245))


# ----------------------------------------------------------------------------
# Initial data
# ----------------------------------------------------------------------------


def test_plane_wave_datum():
    assert eval_datum(PlaneWave(1.0, 0.0), math.pi, 5.0) == pytest.approx(-1.0, abs=1e-14)


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


def test_mesh_doubling_shrinks_error_estimate():
    # each level of one grid refines the one below in both directions, so
    # the difference of successive levels, which is the estimate of the
    # upper one, shrinks all the way up: here 2.6, 1.1e-3, 2.1e-8, 2.8e-12
    t, x, F = FAR_CORNER
    grid = _FresnelGrid(t, F, SPEC, x.r)
    values = [grid.quad_value(BoundaryKind.NEUMANN, x, i)[0] for i in range(len(_LADDER))]
    gaps = [abs(fine - coarse) for coarse, fine in zip(values, values[1:])]
    assert gaps[-1] > 0
    for coarse_gap, fine_gap in zip(gaps, gaps[1:]):
        assert coarse_gap / fine_gap >= 100.0


def test_finest_level_reproduces_fixed_pair():
    # far from the barrier tip at moderate t the ladder climbs to 192x160,
    # where value and estimate are those of the (192x160, 96x80) pair
    kind, t, x, F = BoundaryKind.DIRICHLET, 0.84, PolarPoint(3.15, 0.68), PlaneWave(-0.25, -1.19)
    s = psi_fresnel(kind, t, x, F, SPEC)
    assert (s.n_rho, s.n_theta) == (192, 160)
    grid = _FresnelGrid(t, F, SPEC, x.r)
    assert _LADDER[LEVEL_192 - 1] == (96, 80)
    fine, _ = grid.quad_value(kind, x, LEVEL_192)
    coarse, _ = grid.quad_value(kind, x, LEVEL_192 - 1)
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
    # far corner at r/sqrt(t) = 6.4, which needs the 192x160 level
    yield BoundaryKind.NEUMANN, *FAR_CORNER


def test_ladder_agrees_with_finest_level_within_estimate():
    levels = set()
    for kind, t, x, F in _seeded_ladder_points():
        s = psi_fresnel(kind, t, x, F, SPEC)
        levels.add(s.n_rho)
        reference, _ = _FresnelGrid(t, F, SPEC, x.r).quad_value(kind, x, LEVEL_192)
        assert abs(s.value - reference) <= s.est_error <= 10 * SPEC.tol
    # the seeded points stop at every level above the coarsest
    assert levels == {48, 96, 192}


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
        reference, _ = _FresnelGrid(t, F, SPEC, x.r).quad_value(kind, x, LEVEL_192)
        assert abs(s.value - reference) <= s.est_error <= 10 * SPEC.tol


def _grid_points():
    """Off-barrier points of a 5x5 grid on [-3, 3]^2; at t = 0.6 they stop
    at 48x48, 96x80 and 192x160."""
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
    assert {s.n_rho for s in grid} == {48, 96, 192}
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
    # every level up to the finest one any point reached, 192x160, once for
    # the grid; the 384x320 level, which no point reaches, is never built
    assert calls == list(_LADDER[:LEVEL_192 + 1])
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
            futures = [pool.submit(grid.sample, kind, p) for p in points * 3]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == LEVEL_192 + 1
    assert got == expected * 3


def test_empty_point_sequence_gives_empty_list():
    assert psi_fresnel(BoundaryKind.DIRICHLET, 0.6, [], PlaneWave(0.4, -0.3), SPEC) == []


def test_estimate_is_floored_at_the_rounding_of_the_sum():
    # here 48x48 and 32x32 agree to 6.1e-18, closer than either sum is
    # rounded, and the 192x160 rule differs by 1.5e-17
    kind, t, x = BoundaryKind.DIRICHLET, 0.769, PolarPoint(0.1147, -1.5016)
    F = TaylorField(np.array([[0.824]]))
    s = psi_fresnel(kind, t, x, F, SPEC)
    grid = _FresnelGrid(t, F, SPEC, x.r)
    reference, _ = grid.quad_value(kind, x, LEVEL_192)
    _, magnitude = grid.quad_value(kind, x, _LADDER.index((s.n_rho, s.n_theta)))
    assert s.est_error >= np.finfo(float).eps * magnitude
    assert abs(s.value - reference) <= s.est_error <= 10 * SPEC.tol


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
    ((1.0, 1.0, 1.0, 9e-7), 0, 4),
    ((1e-8,), 3, 4),
])
def test_walk_ladder_rule(gaps, start, level):
    # levels hold partial sums, so each gap is the difference to the level below
    values = np.concatenate([[0.0], np.cumsum(gaps)])
    calls = []

    def evaluate(i):
        calls.append(i)
        return values[i - start]

    value, est, nodes = _walk_ladder(evaluate, lambda fine, coarse: abs(fine - coarse), 1e-7, start)
    assert (value, nodes) == (values[level - start], _LADDER[level])
    assert est == abs(values[level - start] - values[level - start - 1])
    assert calls == list(range(start, level + 1))


@pytest.mark.parametrize("top_gap", [1.1e-6, math.nan])
def test_walk_ladder_raises_on_the_top_level(top_gap):
    values = [0.0, 1.0, 2.0, 3.0, 3.0 + top_gap]
    with pytest.raises(NonConvergence, match=r"refinement estimate .* exceeds 10\*tol=1\.000e-06 "
                       r"\(n_rho=384, n_theta=320\)$"):
        _walk_ladder(values.__getitem__, lambda fine, coarse: abs(fine - coarse), 1e-7)


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
    # a smooth case converges at the second level of the ladder
    assert (s.n_rho, s.n_theta) == (48, 48)
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

