"""Tests for the infinite-order differential operator representation."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import gammaln

from barrierwaves.evolve import (
    PlaneWave,
    QuadratureSpec,
    TailBoundUnsatisfiable,
    TaylorField,
    psi_fresnel,
)
from barrierwaves.geometry import PolarPoint
from barrierwaves.greens import BoundaryKind
from barrierwaves.operator import (
    N_CAP,
    CoeffTable,
    TruncationInsufficient,
    _log_majorant_terms,
    apply_plane_wave,
    apply_taylor,
    build_table,
    coeff,
    coeff_bound,
    continuity_constant,
    derivative_bound,
    log_continuity_constant,
    truncation_order,
)

X = PolarPoint(1.0, 0.9)
ALPHA = math.pi / 4


@pytest.fixture(scope="module")
def tables_n10():
    return {kind: build_table(kind, 1.0, X, 10) for kind in BoundaryKind}


def _quiet_apply(table, k):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationInsufficient)
        return apply_plane_wave(table, k)


# ----------------------------------------------------------------------------
# Coefficient bound
# ----------------------------------------------------------------------------


def test_bound_closed_form_at_origin():
    # At r=0, t=1, alpha=pi/4 the bound collapses to
    # pi^2/(2 Gamma(1/2)^2) * 16 = 8 pi.
    assert coeff_bound(1.0, 0.0, ALPHA, 0, 0) == pytest.approx(8 * math.pi, rel=1e-12)


def test_bound_monotone_in_radius():
    vals = [coeff_bound(1.0, r, ALPHA, 2, 3) for r in (0.0, 1.0, 2.0)]
    assert vals[0] < vals[1] < vals[2]


def test_coefficients_dominated_by_bound(tables_n10):
    for kind, tab in tables_n10.items():
        for n1 in range(11):
            for n2 in range(11 - n1):
                assert abs(tab.c[n1, n2]) <= coeff_bound(1.0, X.r, ALPHA, n1, n2)


def test_table_bound_array_matches_function(tables_n10):
    tab = tables_n10[BoundaryKind.DIRICHLET]
    for n1 in range(0, 11, 3):
        for n2 in range(0, 11 - n1, 2):
            assert tab.bound[n1, n2] == pytest.approx(
                coeff_bound(1.0, X.r, ALPHA, n1, n2), rel=1e-12
            )


# ----------------------------------------------------------------------------
# Table construction
# ----------------------------------------------------------------------------


def test_stationary_coefficient_entries():
    x = PolarPoint(2.0, 1.1)
    x1, x2 = x.r * math.cos(x.phi), x.r * math.sin(x.phi)
    tn = build_table(BoundaryKind.NEUMANN, 1.0, x, 2)
    td = build_table(BoundaryKind.DIRICHLET, 1.0, x, 2)
    assert tn.c[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert tn.c[0, 1] == pytest.approx(x2, abs=1e-10)
    assert td.c[1, 0] == pytest.approx(x1, abs=1e-10)
    assert td.c[1, 1] == pytest.approx(x1 * x2, abs=1e-10)


def test_single_coefficient_reproduces_table_entry_bitwise():
    x = PolarPoint(1.2, 0.7)
    tab = build_table(BoundaryKind.NEUMANN, 0.8, x, 4)
    for n1 in range(5):
        for n2 in range(5 - n1):
            assert coeff(BoundaryKind.NEUMANN, 0.8, x, n1, n2, order=4) == complex(
                tab.c[n1, n2]
            )


def test_single_coefficient_order_validation():
    with pytest.raises(ValueError):
        coeff(BoundaryKind.NEUMANN, 0.8, X, 2, 3, order=4)


def test_entries_iterate_in_graded_order(tables_n10):
    tab = tables_n10[BoundaryKind.NEUMANN]
    seen = list(tab.entries())
    degrees = [n1 + n2 for n1, n2, _ in seen]
    assert degrees == sorted(degrees)
    assert len(seen) == (tab.N + 1) * (tab.N + 2) // 2
    for n1, n2, v in seen[:10]:
        assert v == tab.c[n1, n2]


def test_entries_beyond_order_are_zero(tables_n10):
    tab = tables_n10[BoundaryKind.DIRICHLET]
    mask = np.add.outer(np.arange(11), np.arange(11)) > 10
    assert np.all(tab.c[mask] == 0)


def test_mirror_symmetry_on_axis():
    # With the observation point on the symmetry axis the kernel is even
    # under theta -> pi - theta, so every odd-n1 moment cancels.
    x = PolarPoint(1.0, math.pi / 2)
    for kind in BoundaryKind:
        tab = build_table(kind, 1.0, x, 8)
        for n1 in range(1, 9, 2):
            for n2 in range(9 - n1):
                assert abs(tab.c[n1, n2]) < 1e-12


def test_table_order_cap():
    with pytest.raises(ValueError):
        build_table(BoundaryKind.NEUMANN, 1.0, X, N_CAP + 1)
    with pytest.raises(ValueError):
        build_table(BoundaryKind.NEUMANN, 1.0, X, -1)


def test_alpha_invariance_of_coefficients():
    tabs = [
        build_table(BoundaryKind.DIRICHLET, 1.0, X, 6, QuadratureSpec(alpha=al))
        for al in (0.5, ALPHA, 1.0)
    ]
    for i in range(len(tabs)):
        for j in range(i + 1, len(tabs)):
            assert np.max(np.abs(tabs[i].c - tabs[j].c)) <= 1e-5


def test_refinement_estimate_is_small(tables_n10):
    for tab in tables_n10.values():
        assert 0 <= tab.est_error < 1e-9


# ----------------------------------------------------------------------------
# Certified truncation order
# ----------------------------------------------------------------------------


def test_table_estimate_needs_two_panels(tables_n10):
    # one panel would make the coarse pass the fine pass again: est_error 0
    with pytest.raises(ValueError):
        build_table(BoundaryKind.DIRICHLET, 1.0, X, 10, QuadratureSpec(n_rho=16, n_theta=16))
    coarse = build_table(BoundaryKind.DIRICHLET, 1.0, X, 10, QuadratureSpec(n_rho=17, n_theta=17))
    gap = np.max(np.abs(coarse.c - tables_n10[BoundaryKind.DIRICHLET].c))
    assert 0 < gap <= coarse.est_error
    # a low panel order still gets a coarse pass with fewer panels
    small = build_table(BoundaryKind.DIRICHLET, 1.0, X, 4,
                        QuadratureSpec(n_rho=10, n_theta=10, panel_order=5))
    assert small.est_error > 0


def _log_majorant_terms_loop(t, r, alpha, log_weight, m_max):
    """Per-order loop the memoised majorant must reproduce bit for bit."""
    s = math.sin(2.0 * alpha)
    base = math.log(math.pi * math.pi / (2.0 * t)) + 4.5 * r * r / (t * s)
    log_scale = 0.5 * math.log(16.0 * t / s)
    out = np.empty(m_max + 1)
    half_gammaln = gammaln((np.arange(m_max + 1) + 1) / 2.0)
    for m in range(m_max + 1):
        n1 = np.arange(m + 1)
        logs = -half_gammaln[n1] - half_gammaln[m - n1]
        peak = logs.max()
        log_S = peak + math.log(np.sum(np.exp(logs - peak)))
        mw = 0.0 if m == 0 else m * log_weight
        out[m] = base + (m + 2) * log_scale + mw + log_S
    return out


@pytest.mark.parametrize("m_max", [0, 1, 7, 8, 63, 64, 65, 300, 1500])
def test_log_majorant_terms_bitwise_equal_to_loop(m_max):
    for t, r, alpha, log_weight in ((1.0, 0.9, ALPHA, 0.0), (0.37, 2.5, 0.3, math.log(math.e * 1.7)),
                                    (1.8, 0.0, 1.2, math.log(0.05))):
        got = _log_majorant_terms(t, r, alpha, log_weight, m_max)
        assert got.tobytes() == _log_majorant_terms_loop(t, r, alpha, log_weight, m_max).tobytes()


def test_truncation_order_zero_growth():
    assert truncation_order(1.0, 1.0, ALPHA, 0.0, 1e-5) == 0


def test_truncation_order_reference_points():
    assert truncation_order(1.0, 1.0, ALPHA, 0.1, 1e-5) == 38
    assert truncation_order(0.1, 0.0, ALPHA, 0.5, 1e-5) == 58


def test_truncation_order_nonincreasing_tolerance_needs_more_terms():
    orders = [truncation_order(0.5, 0.5, ALPHA, 0.2, 10.0**-k) for k in range(3, 9)]
    assert orders == sorted(orders)


def test_truncation_order_unsatisfiable():
    with pytest.raises(TailBoundUnsatisfiable):
        truncation_order(1.0, 1.0, ALPHA, 1.0, 1e-5)


# ----------------------------------------------------------------------------
# Applying the operator
# ----------------------------------------------------------------------------


def test_apply_taylor_reproduces_stationary_values():
    tab = build_table(BoundaryKind.DIRICHLET, 1.0, X, 4)
    x1 = X.r * math.cos(X.phi)
    got = apply_taylor(tab, TaylorField([[0.0], [1.0]]))
    assert got == pytest.approx(x1, abs=1e-9)
    tabn = build_table(BoundaryKind.NEUMANN, 1.0, X, 4)
    assert apply_taylor(tabn, TaylorField([[1.0]])) == pytest.approx(1.0, abs=1e-9)


def test_apply_taylor_matches_fresnel():
    F = TaylorField([[1.0, 0.0], [1.0, 1.0]])  # 1 + z1 + z1 z2
    for kind in BoundaryKind:
        tab = build_table(kind, 1.0, X, 6)
        direct = psi_fresnel(kind, 1.0, X, F, QuadratureSpec()).value
        assert abs(apply_taylor(tab, F) - direct) <= 1e-5 * max(1.0, abs(direct))


def test_apply_taylor_degree_guard(tables_n10):
    small = build_table(BoundaryKind.NEUMANN, 1.0, X, 1)
    with pytest.raises(ValueError):
        apply_taylor(small, TaylorField([[0.0, 0.0], [0.0, 1.0]]))


def test_apply_plane_wave_at_zero_frequency_is_c00(tables_n10):
    tab = tables_n10[BoundaryKind.NEUMANN]
    assert apply_plane_wave(tab, (0.0, 0.0)) == complex(tab.c[0, 0])


def test_apply_plane_wave_matches_fresnel(tables_n10):
    k = (0.5, 0.5)
    for kind, tab in tables_n10.items():
        tab20 = build_table(kind, 1.0, X, 20)
        direct = psi_fresnel(kind, 1.0, X, PlaneWave(*k), QuadratureSpec()).value
        assert abs(_quiet_apply(tab20, k) - direct) <= 1e-5 * max(1.0, abs(direct))


def test_apply_plane_wave_stable_under_order_increase():
    k = (0.5, 0.5)
    for kind in BoundaryKind:
        a = _quiet_apply(build_table(kind, 1.0, X, 20), k)
        b = _quiet_apply(build_table(kind, 1.0, X, 24), k)
        assert abs(a - b) < QuadratureSpec().tol


def test_order_doubling_beyond_certified_order_is_inert():
    # N = 38 certifies tol 1e-5 for |k| <= 0.1 here; going higher changes
    # nothing at that frequency.
    spec = QuadratureSpec(tol=1e-5)
    a = apply_plane_wave(build_table(BoundaryKind.DIRICHLET, 1.0, X, 38, spec), (0.1, 0.1))
    b = _quiet_apply(build_table(BoundaryKind.DIRICHLET, 1.0, X, 42, spec), (0.1, 0.1))
    assert abs(a - b) < 1e-5


def test_truncation_warning_emitted_when_tail_uncertified():
    tab = build_table(BoundaryKind.DIRICHLET, 1.0, X, 8)
    with pytest.warns(TruncationInsufficient):
        apply_plane_wave(tab, (1.2, -0.7))


def test_no_warning_when_tail_certified():
    spec = QuadratureSpec(tol=1e-5)
    tab = build_table(BoundaryKind.DIRICHLET, 1.0, X, 38, spec)
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationInsufficient)
        apply_plane_wave(tab, (0.1, 0.1))


def test_holomorphy_in_wavevector(tables_n10):
    # Cauchy-Riemann residual of k1 -> apply_plane_wave at a complex point.
    tab = build_table(BoundaryKind.NEUMANN, 1.0, X, 16)
    k0 = 0.5 + 0.3j
    h = 1e-5
    d_re = (_quiet_apply(tab, (k0 + h, 0.2)) - _quiet_apply(tab, (k0 - h, 0.2))) / (2 * h)
    d_im = (_quiet_apply(tab, (k0 + 1j * h, 0.2)) - _quiet_apply(tab, (k0 - 1j * h, 0.2))) / (
        2j * h
    )
    assert abs(d_re - d_im) <= 1e-6 * max(1.0, abs(d_re))


# ----------------------------------------------------------------------------
# Derivative envelope and continuity constant
# ----------------------------------------------------------------------------


def test_derivative_bound_values():
    assert derivative_bound(0.5, 0.5, 3, 2) == pytest.approx(0.5 * (0.5 * math.e) ** 5, rel=1e-13)
    assert derivative_bound(0.7, 2.0, 0, 0) == 0.7
    with pytest.raises(ValueError):
        derivative_bound(-1.0, 0.5, 0, 0)


def test_continuity_constant_zero_growth_closed_form():
    got = continuity_constant(1.0, 1.0, ALPHA, 0.0)
    assert got == pytest.approx(8 * math.pi * math.exp(4.5), rel=1e-12)


def test_continuity_constant_monotone_in_growth():
    vals = [continuity_constant(1.0, 1.0, ALPHA, b) for b in (0.0, 0.5, 1.0)]
    assert vals[0] < vals[1] < vals[2]


def test_continuity_constant_overflow_routes_to_log_variant():
    with pytest.raises(OverflowError):
        continuity_constant(1.0, 1.0, ALPHA, 8.0)
    assert log_continuity_constant(1.0, 1.0, ALPHA, 8.0) > 1e4


def test_log_continuity_consistent_where_direct_works():
    direct = math.log(continuity_constant(1.0, 1.0, ALPHA, 0.5))
    assert log_continuity_constant(1.0, 1.0, ALPHA, 0.5) == pytest.approx(direct, abs=1e-10)
