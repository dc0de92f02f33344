"""Tests for the rotated-contour evaluation of the time-dependent solution."""

import math

import numpy as np
import pytest

from barrierwaves.evolve import (
    RHO_MAX_CAP,
    DiscreteSuperposition,
    NonConvergence,
    PlaneWave,
    QuadratureSpec,
    TailBoundUnsatisfiable,
    TaylorField,
    WaveSample,
    _node_ladder,
    _quad_value,
    effective_growth_rate,
    eval_datum,
    growth_envelope,
    psi_fresnel,
    psi_regularized_oracle,
    rho_max,
)
from barrierwaves.geometry import PHI_MAX, PHI_MIN, PolarPoint
from barrierwaves.greens import BoundaryKind

X = PolarPoint(1.0, math.pi / 2)
SPEC = QuadratureSpec()


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
    sup = DiscreteSuperposition([0.25, 0.75], [[0.3, 0.4], [0.0, -0.5]], k0=0.5)
    assert eval_datum(sup, 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_superposition_rejects_atom_above_frequency_bound():
    with pytest.raises(ValueError):
        DiscreteSuperposition([1.0], [[3.0, 4.0]], k0=4.9)


def test_growth_envelope():
    assert growth_envelope(PlaneWave(0.6, -0.8)) == (1.0, pytest.approx(1.0), 0)
    A, B, d = growth_envelope(TaylorField([[1.0, 2.0], [0.5, 0.0]]))
    assert A == pytest.approx(3.5)
    assert B == 0.0
    assert d == 1
    A, B, d = growth_envelope(DiscreteSuperposition([0.5, -0.5], [[1.0, 0.0], [0.0, 1.0]], k0=1.0))
    assert A == pytest.approx(1.0)
    assert B == pytest.approx(1.0)
    assert d == 0


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
        QuadratureSpec(n_rho=4)
    # one panel has no distinct coarser rule to estimate its error against
    for kwargs in ({"n_rho": 16, "n_theta": 16}, {"n_rho": 8, "n_theta": 8}, {"n_theta": 16},
                   {"n_rho": 32, "n_theta": 32, "panel_order": 32}):
        with pytest.raises(ValueError, match="two panels"):
            QuadratureSpec(**kwargs)
    with pytest.raises(ValueError):
        QuadratureSpec(tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(rho_max_policy="sometimes")
    with pytest.raises(ValueError):
        QuadratureSpec(rho_max_policy="fixed")


def test_rho_max_monotone_in_growth():
    rs = [rho_max(SPEC, 1.0, 1.0, B) for B in (0.0, 1.0, 2.0)]
    assert rs[0] < rs[1] < rs[2]


def test_rho_max_tail_oracle():
    # Beyond the cutoff the integrand majorant (1/t) exp(-a rho^2 + b rho)
    # must integrate to below the tolerance.
    for B in (0.0, 1.0, 2.0):
        R = rho_max(SPEC, 1.0, 1.0, B)
        a = math.sin(2 * SPEC.alpha) / 4.0
        b = 1.5 + B + 1.0
        rho = np.linspace(R, R + 60.0, 200_000)
        tail = np.trapezoid(np.exp(-a * rho**2 + b * rho), rho)
        assert tail < SPEC.tol


def test_rho_max_shrinks_at_best_rotation():
    r_best = rho_max(QuadratureSpec(alpha=math.pi / 4), 1.0, 1.0, 0.5)
    r_shallow = rho_max(QuadratureSpec(alpha=0.2), 1.0, 1.0, 0.5)
    assert r_best < r_shallow


def test_rho_max_fixed_policy():
    spec = QuadratureSpec(rho_max_policy="fixed", rho_max_value=7.5)
    assert rho_max(spec, 1.0, 1.0, 3.0) == 7.5


def test_rho_max_unsatisfiable():
    with pytest.raises(TailBoundUnsatisfiable):
        rho_max(SPEC, 1.0, 1.0, 4000.0)
    assert rho_max(SPEC, 1.0, 1.0, 2000.0) < RHO_MAX_CAP


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
    sup = DiscreteSuperposition([0.6, 0.4], [[0.3, 0.4], [0.1, -0.2]], k0=0.5)
    lhs = psi_fresnel(BoundaryKind.NEUMANN, 1.0, X, sup, SPEC).value
    rhs = (
        0.6 * psi_fresnel(BoundaryKind.NEUMANN, 1.0, X, PlaneWave(0.3, 0.4), SPEC).value
        + 0.4 * psi_fresnel(BoundaryKind.NEUMANN, 1.0, X, PlaneWave(0.1, -0.2), SPEC).value
    )
    assert abs(lhs - rhs) <= 1e-10


def test_node_ladder_halves_panels():
    assert _node_ladder(SPEC) == [(32, 32), (48, 48), (96, 80), (192, 160)]
    # levels stop once a direction is down to one panel and never repeat
    assert _node_ladder(QuadratureSpec(n_rho=24, n_theta=24)) == [(16, 16), (32, 32)]
    assert _node_ladder(QuadratureSpec(n_rho=17, n_theta=100)) == [(16, 64), (32, 112)]
    assert _node_ladder(QuadratureSpec(n_rho=10, n_theta=10, panel_order=5)) == [(5, 5), (10, 10)]


@pytest.mark.parametrize("n_rho, n_theta", [(32, 160), (160, 32), (48, 192), (17, 100)])
def test_node_ladder_refines_both_directions(n_rho, n_theta):
    levels = _node_ladder(QuadratureSpec(n_rho=n_rho, n_theta=n_theta))
    for (c_rho, c_theta), (f_rho, f_theta) in zip(levels, levels[1:]):
        assert c_rho < f_rho and c_theta < f_theta
    # only the coarsest level, which is never returned, may have one panel
    assert all(min(lv) >= 2 * 16 for lv in levels[1:])
    s = psi_fresnel(BoundaryKind.DIRICHLET, 1.0, PolarPoint(1.0, 1.0), PlaneWave(0.5, 0.5),
                    QuadratureSpec(n_rho=n_rho, n_theta=n_theta, tol=1e-4))
    assert min(s.n_rho, s.n_theta) >= 2 * 16


def test_two_panel_spec_estimate_is_honest():
    x = PolarPoint(1.0, 1.0)
    F = PlaneWave(0.5, 0.5)
    with pytest.raises(ValueError):
        psi_fresnel(BoundaryKind.DIRICHLET, 1.0, x, F, QuadratureSpec(n_rho=16, n_theta=16))
    ref = psi_fresnel(BoundaryKind.DIRICHLET, 1.0, x, F, SPEC).value
    s = psi_fresnel(BoundaryKind.DIRICHLET, 1.0, x, F, QuadratureSpec(n_rho=17, n_theta=17, tol=1e-4))
    assert (s.n_rho, s.n_theta) == (32, 32)
    assert 0 < abs(s.value - ref) <= s.est_error


def test_mesh_doubling_shrinks_error_estimate():
    F = PlaneWave(0.5, 0.5)
    # at tol 1e-4 both specs stop at the same 32x32 level
    loose = [
        psi_fresnel(BoundaryKind.DIRICHLET, 1.0, X, F, QuadratureSpec(n_rho=n, n_theta=n, tol=1e-4))
        for n in (24, 48)
    ]
    assert [(s.n_rho, s.n_theta) for s in loose] == [(32, 32), (32, 32)]
    assert loose[0] == loose[1]
    # a tighter tol sends the 48-node spec on to its finest level
    coarse, fine = (
        psi_fresnel(BoundaryKind.DIRICHLET, 1.0, X, F, QuadratureSpec(n_rho=n, n_theta=n, tol=3e-6))
        for n in (24, 48)
    )
    assert (coarse.n_rho, fine.n_rho) == (32, 48)
    assert fine.est_error > 0
    assert coarse.est_error / fine.est_error >= 4.0


def test_finest_level_reproduces_fixed_pair():
    # far from the barrier tip at moderate t the ladder climbs to 192x160,
    # where value and estimate are those of the (spec, spec/2) pair
    kind, t, x, F = BoundaryKind.DIRICHLET, 0.84, PolarPoint(3.15, 2.46), PlaneWave(-0.25, -1.19)
    s = psi_fresnel(kind, t, x, F, SPEC)
    assert (s.n_rho, s.n_theta) == (SPEC.n_rho, SPEC.n_theta)
    fine = _quad_value(kind, t, x, F, SPEC.alpha, s.rho_max, SPEC.n_rho, SPEC.n_theta, SPEC.panel_order)
    coarse = _quad_value(kind, t, x, F, SPEC.alpha, s.rho_max,
                         SPEC.n_rho // 2, SPEC.n_theta // 2, SPEC.panel_order)
    assert s.value == fine
    assert s.est_error == abs(fine - coarse)


def test_ladder_agrees_with_finest_level_within_estimate():
    rng = np.random.default_rng(20231)
    levels = set()
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
        s = psi_fresnel(kind, t, x, F, SPEC)
        levels.add(s.n_rho)
        finest = _quad_value(kind, t, x, F, SPEC.alpha, s.rho_max,
                             SPEC.n_rho, SPEC.n_theta, SPEC.panel_order)
        assert abs(s.value - finest) <= s.est_error <= 10 * SPEC.tol
    # the seeded points stop at every level above the coarsest
    assert levels == {48, 96, 192}


def test_nonconvergence_on_starved_mesh():
    with pytest.raises(NonConvergence):
        psi_fresnel(
            BoundaryKind.DIRICHLET, 1.0, X, PlaneWave(0.5, 0.5),
            QuadratureSpec(n_rho=32, n_theta=32, tol=1e-8),
        )


def test_sample_metadata():
    s = psi_fresnel(BoundaryKind.NEUMANN, 0.8, X, PlaneWave(0.2, 0.1), SPEC)
    assert isinstance(s, WaveSample)
    assert s.t == 0.8
    assert s.x == X
    assert s.kind is BoundaryKind.NEUMANN
    assert s.rho_max > 0
    # a smooth case converges two levels below the spec's 192x160
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


def test_regularized_ladder_validation():
    with pytest.raises(ValueError):
        psi_regularized_oracle(BoundaryKind.NEUMANN, 1.0, X, TaylorField([[1.0]]), epsilons=(0.1, 0.05))
    with pytest.raises(ValueError):
        psi_regularized_oracle(
            BoundaryKind.NEUMANN, 1.0, X, TaylorField([[1.0]]), epsilons=(0.1, 0.05, -0.02)
        )
