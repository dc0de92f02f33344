"""Tests for the infinite-order differential operator representation."""

import cmath
import math
import sys
import warnings

import numpy as np
import pytest
from scipy.special import gammaln

from barrierwaves.complexfn import mittag_leffler_half
from barrierwaves.evolve import (
    NonConvergence,
    PlaneWave,
    QuadratureSpec,
    TailBoundUnsatisfiable,
    TaylorField,
    _FresnelGrid,
    psi_fresnel,
)
from barrierwaves.geometry import CartesianPoint, PolarPoint, to_polar
from barrierwaves.greens import BoundaryKind
from barrierwaves.operator import (
    N_CAP,
    CoeffTable,
    _log_majorant_terms,
    apply_plane_wave,
    apply_taylor,
    build_table,
    coeff_bound,
    log_continuity_constant,
    truncation_order,
)

X = PolarPoint(1.0, 0.9)
ALPHA = math.pi / 4
#: (kind, t, x, N) where r/sqrt(t) = 6.8: the 192x160 table differs from
#: 96x80 by 8.3e-6, above 10 * tol, and the 384x320 one from 192x160 by 2.6e-11
RESCUED_TABLE = (BoundaryKind.DIRICHLET, 0.603, PolarPoint(5.318, 1.04), 20)
#: (kind, t, x, N) whose 192x160 table differs from 96x80 by 5.9e-7, above
#: tol but within 10 * tol; the 384x320 one differs from 192x160 by 9.1e-13
BAND_TABLE = (BoundaryKind.DIRICHLET, 0.522, PolarPoint(4.574, -0.411), 20)


@pytest.fixture(scope="module")
def tables_n10():
    return {kind: build_table(kind, 1.0, X, 10) for kind in BoundaryKind}


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


def test_bound_broadcasts_over_orders():
    n1, n2 = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    grid = coeff_bound(0.7, 1.3, ALPHA, n1, n2)
    assert grid.shape == (8, 8)
    for a in range(8):
        for b in range(8):
            assert grid[a, b] == coeff_bound(0.7, 1.3, ALPHA, a, b)
    with pytest.raises(ValueError):
        coeff_bound(0.7, 1.3, ALPHA, np.array([1, -1]), 0)


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


def test_small_time_table_with_unbounded_coefficients_raises():
    # at t = 1e-3 every bound exceeds double range; build_table rejects the
    # table itself, so no caller has to remember to
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence, match="exceed double range"):
            build_table(BoundaryKind.DIRICHLET, 1e-3, PolarPoint(1.0, 0.3), 20)


def test_inaccurate_table_raises():
    # at t = 0.01 even the top level's estimate, 6e-10, is far above 10 * tol,
    # and the message, the one psi_fresnel raises, names the level reached
    with pytest.raises(NonConvergence, match=r"refinement estimate 6\.\d+e-10 exceeds "
                       r"10\*tol=1\.000e-14 \(n_rho=384, n_theta=320\)"):
        build_table(BoundaryKind.DIRICHLET, 0.01, PolarPoint(1.0, 0.3), 10, QuadratureSpec(tol=1e-15))


def test_table_estimate_above_tol_climbs_to_the_top_level():
    # tables accept a level by psi_fresnel's rule: at most tol, and only the
    # top level up to 10 * tol, so this table does not stop on 192x160
    kind, t, x, _ = BAND_TABLE
    table = build_table(*BAND_TABLE)
    assert (table.n_rho, table.n_theta) == (384, 320)
    assert table.est_error <= table.spec.tol
    k = (0.6, 0.4)
    ref = psi_fresnel(kind, t, x, PlaneWave(*k)).value
    assert abs(apply_plane_wave(table, k) - ref) <= 1e-5 * max(1.0, abs(ref))


def test_table_inaccurate_at_192_climbs_to_the_top_level():
    kind, t, x, _ = RESCUED_TABLE
    table = build_table(*RESCUED_TABLE)
    assert table.est_error <= 10 * table.spec.tol
    # acceptance criterion 3's agreement with the quadrature
    k = (0.6, 0.4)
    ref = psi_fresnel(kind, t, x, PlaneWave(*k)).value
    assert abs(apply_plane_wave(table, k) - ref) <= 1e-5 * max(1.0, abs(ref))


@pytest.mark.parametrize("case, levels", [
    ((BoundaryKind.NEUMANN, 1.0, X, 10), [(96, 80), (192, 160)]),
    (BAND_TABLE, [(96, 80), (192, 160), (384, 320)]),
])
def test_table_samples_the_kernel_through_the_quadrature_grid(monkeypatch, case, levels):
    # a table makes no kernel call of its own: it takes one batched call of
    # the quadrature grid per ladder level walked, from 96x80 up
    import barrierwaves.evolve as evolve_module
    import barrierwaves.operator as operator_module

    def refuse(*args):
        raise AssertionError("build_table called the kernel itself")

    original, calls = evolve_module._kernel_grid, []

    def counted(*args):
        G = original(*args)
        calls.append(G.shape)
        return G

    monkeypatch.setattr(operator_module, "_kernel_grid", refuse)
    monkeypatch.setattr(evolve_module, "_kernel_grid", counted)
    table = build_table(*case)
    assert (table.n_rho, table.n_theta) == levels[-1]
    assert [(shape[2], shape[3]) for shape in calls] == levels
    assert [math.prod(shape) for shape in calls] == [2 * n_rho * n_theta for n_rho, n_theta in levels]


def test_non_finite_table_raises_nonconvergence():
    # at t = 1e-4 the kernel overflows to NaN on the grid
    with np.errstate(all="ignore"), pytest.raises(NonConvergence):
        build_table(BoundaryKind.NEUMANN, 1e-4, PolarPoint(1.0, 0.3), 20)


def test_non_finite_table_raises_without_runtime_warnings():
    # the overflow is reported by the typed error alone: numpy warns about
    # nothing on the way there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergence):
            build_table(BoundaryKind.NEUMANN, 1e-4, PolarPoint(1.0, 0.3), 20)


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
        # the first level within tol of the level below, which the table reports
        assert (tab.n_rho, tab.n_theta) == (192, 160)


# ----------------------------------------------------------------------------
# Certified truncation order
# ----------------------------------------------------------------------------


def test_table_estimate_needs_two_panels():
    # the estimate compares two distinct rules: a loose tol keeps this table
    # on 192x160, and its difference to 96x80 bounds its distance to the
    # table that the default tol takes on to 384x320
    coarse = build_table(*RESCUED_TABLE, QuadratureSpec(tol=1e-5))
    gap = np.max(np.abs(coarse.c - build_table(*RESCUED_TABLE).c))
    assert 0 < gap <= coarse.est_error


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


def test_majorant_memo_grows_consistently_under_threads(monkeypatch):
    # threads of the field command share the memo: each must read entries
    # bitwise equal to the loop, whichever thread grows the memo first
    from concurrent.futures import ThreadPoolExecutor

    import barrierwaves.operator as operator_module

    monkeypatch.setattr(operator_module, "_log_S_memo", np.empty(0))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sizes = [5, 700, 64, 1023, 300, 1024, 9, 511] * 2
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(_log_majorant_terms, 1.0, 0.9, ALPHA, 0.0, m) for m in sizes]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for m, got in zip(sizes, results):
        assert got.tobytes() == _log_majorant_terms_loop(1.0, 0.9, ALPHA, 0.0, m).tobytes()
    assert operator_module._log_S_memo.size == 2048


@pytest.mark.parametrize("alpha", [0.1, 0.4, math.pi / 4])
@pytest.mark.parametrize("x", [1.0, 8.0, 20.0])
def test_default_majorant_length_runs_far_past_the_peak(alpha, x):
    # x = w sqrt(16 t / sin 2alpha) for the per-order weight w
    t = 0.7
    w = x / math.sqrt(16.0 * t / math.sin(2.0 * alpha))
    log_terms = _log_majorant_terms(t, 0.9, alpha, math.log(w))
    peak = int(np.argmax(log_terms))
    assert peak < log_terms.size - 1
    assert log_terms[-1] <= log_terms[peak] - 30.0


def test_alpha_blind_length_stops_before_the_peak():
    # 4 (4 kappa)^2 t + 40 terms, a length rule that ignores alpha, ends
    # before the majorant peaks at small alpha
    t, alpha, kappa = 1.0, 0.1, 2.0
    log_terms = _log_majorant_terms(t, 0.9, alpha, math.log(kappa))
    assert int(np.argmax(log_terms)) > int(4.0 * (4.0 * kappa) ** 2 * t + 40)


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


@pytest.mark.parametrize("t, r, B, tol", [
    (-1.0, 1.0, 0.1, 1e-5), (0.0, 1.0, 0.1, 1e-5), (math.inf, 1.0, 0.1, 1e-5),
    (math.nan, 1.0, 0.1, 1e-5), (1.0, math.nan, 0.1, 1e-5), (1.0, -5.0, 0.1, 1e-5),
    (1.0, math.inf, 0.1, 1e-5), (1.0, 1.0, math.nan, 1e-5), (1.0, 1.0, -0.1, 1e-5),
    (1.0, 1.0, math.inf, 1e-5), (1.0, 1.0, 0.1, math.nan), (1.0, 1.0, 0.1, 0.0),
    (1.0, 1.0, 0.1, math.inf), (-1.0, 1.0, 0.0, 1e-5),
])
def test_truncation_order_rejects_bad_inputs(t, r, B, tol):
    # a bad input is a ValueError, neither a bare math domain error nor an
    # unsatisfiable tail bound
    with pytest.raises(ValueError):
        truncation_order(t, r, ALPHA, B, tol)


def _first_tail_below(log_terms, tol):
    """The smallest N <= N_CAP whose tail is below tol, one log-sum-exp per order."""
    for n in range(N_CAP + 1):
        tail = log_terms[n + 1:]
        peak = float(tail.max())
        if peak + math.log(np.sum(np.exp(tail - peak))) < math.log(tol):
            return n
    return None


def _truncation_order_full_scan(t, r, alpha, B, tol):
    """The scan of every tail up to the cap, without the early rejection."""
    x = 4.0 * math.e * B * math.sqrt(t / math.sin(2.0 * alpha))
    m_max = int(4.0 * x * x + 40.0 * x + 200)
    return _first_tail_below(
        _log_majorant_terms(t, r, alpha, math.log(math.e * B), m_max), tol)


def test_truncation_order_early_rejection_matches_full_scan():
    outcomes = set()
    for t in (0.05, 0.3, 1.0, 2.5):
        for r in (0.0, 0.9, 3.0):
            for B in (0.05, 0.2, 0.5, 1.5):
                for tol in (1e-3, 1e-7, 1e-12):
                    want = _truncation_order_full_scan(t, r, ALPHA, B, tol)
                    try:
                        got = truncation_order(t, r, ALPHA, B, tol)
                    except TailBoundUnsatisfiable:
                        got = None
                    assert got == want, (t, r, B, tol)
                    outcomes.add(got is None)
    assert outcomes == {True, False}


def test_truncation_order_matches_per_order_tail_loop():
    # the default-length terms, after the order-61 rejection checked above
    rng = np.random.default_rng(24)
    certified = 0
    for _ in range(3000):
        t = rng.uniform(0.03, 2.5)
        r = rng.uniform(0.0, 6.0)
        alpha = rng.uniform(0.2, 1.3)
        B = 10.0 ** rng.uniform(-3.0, math.log10(3.2))
        tol = 10.0 ** rng.uniform(-14.0, -3.0)
        log_weight = math.log(math.e * B)
        want = None
        if _log_majorant_terms(t, r, alpha, log_weight, N_CAP + 1)[-1] < math.log(tol):
            want = _first_tail_below(_log_majorant_terms(t, r, alpha, log_weight), tol)
        try:
            got = truncation_order(t, r, alpha, B, tol)
        except TailBoundUnsatisfiable:
            got = None
        assert got == want, (t, r, alpha, B, tol)
        certified += got is not None
    assert 300 < certified < 2700


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


def test_non_finite_taylor_datum_never_reaches_the_sums(tables_n10):
    # the datum type rejects a NaN coefficient, so apply_taylor cannot sum it
    # into nan+nanj and numpy has nothing to warn about
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="Taylor coefficients must be finite"):
            apply_taylor(tables_n10[BoundaryKind.NEUMANN], TaylorField([[math.nan, 1.0]]))


def test_apply_plane_wave_at_zero_frequency_is_c00(tables_n10):
    tab = tables_n10[BoundaryKind.NEUMANN]
    assert apply_plane_wave(tab, (0.0, 0.0)) == complex(tab.c[0, 0])


def test_apply_plane_wave_matches_fresnel(tables_n10):
    k = (0.5, 0.5)
    for kind, tab in tables_n10.items():
        tab20 = build_table(kind, 1.0, X, 20)
        direct = psi_fresnel(kind, 1.0, X, PlaneWave(*k), QuadratureSpec()).value
        assert abs(apply_plane_wave(tab20, k) - direct) <= 1e-5 * max(1.0, abs(direct))


def test_apply_plane_wave_stable_under_order_increase():
    k = (0.5, 0.5)
    for kind in BoundaryKind:
        a = apply_plane_wave(build_table(kind, 1.0, X, 20), k)
        b = apply_plane_wave(build_table(kind, 1.0, X, 24), k)
        assert abs(a - b) < QuadratureSpec().tol


def test_order_doubling_beyond_certified_order_is_inert():
    # N = 38 certifies tol 1e-5 for |k| <= 0.1 here; going higher changes
    # nothing at that frequency.
    spec = QuadratureSpec(tol=1e-5)
    a = apply_plane_wave(build_table(BoundaryKind.DIRICHLET, 1.0, X, 38, spec), (0.1, 0.1))
    b = apply_plane_wave(build_table(BoundaryKind.DIRICHLET, 1.0, X, 42, spec), (0.1, 0.1))
    assert abs(a - b) < 1e-5


def test_apply_plane_wave_leaves_certification_to_the_caller():
    # |k| = 2 sqrt(2) at the N = 60 cap is beyond the certified tail; the
    # caller chose N, so applying the table warns about nothing
    tab = build_table(BoundaryKind.DIRICHLET, 1.0, PolarPoint(1.0, math.pi / 2), 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = apply_plane_wave(tab, (2.0, 2.0))
    assert cmath.isfinite(value)


# ----------------------------------------------------------------------------
# Applying the operator to a batch of wavevectors
# ----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table_n60():
    return build_table(BoundaryKind.DIRICHLET, 1.0, X, 60)


def _wavevectors(count, seed):
    """Components in [-2, 2], so |k| <= 2 sqrt(2), with a few exact corners."""
    rng = np.random.default_rng(seed)
    ks = rng.uniform(-2.0, 2.0, (count, 2))
    return np.concatenate([ks, [(2.0, 2.0), (-2.0, 2.0), (0.0, -2.0)]])


def _fsum_reference(table, weights):
    """math.fsum over every term c[n1, n2] * weights(n1, n2), parts separately.

    Returns the sum and the sum of the terms' moduli.
    """
    terms = [complex(c) * weights(n1, n2) for n1, n2, c in table.entries()]
    value = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
    return value, math.fsum(abs(z) for z in terms)


def test_batched_apply_rows_equal_single_calls_bitwise(tables_n10, table_n60):
    ks = np.concatenate([_wavevectors(9, 1), [(0.5 + 0.3j, 0.2), (0.0, 0.0)]])
    for tab in (tables_n10[BoundaryKind.NEUMANN], table_n60):
        batch = apply_plane_wave(tab, ks)
        assert batch.shape == (len(ks),)
        singles = [apply_plane_wave(tab, k) for k in ks]
        assert all(type(v) is complex for v in singles)
        assert np.array(singles).tobytes() == batch.tobytes()


def test_batched_apply_of_empty_batch_is_empty(table_n60):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = apply_plane_wave(table_n60, np.empty((0, 2)))
    assert out.shape == (0,)


def test_batched_apply_at_zero_frequency_is_c00(tables_n10):
    tab = tables_n10[BoundaryKind.DIRICHLET]
    out = apply_plane_wave(tab, np.zeros((3, 2)))
    assert (out == tab.c[0, 0]).all()


@pytest.mark.parametrize("k", [(0.1,), (0.1, 0.2, 0.3), [[0.1, 0.2, 0.3]], [[[0.1, 0.2]]],
                               (math.nan, 0.2), (0.1, complex(0.2, math.inf)),
                               [[0.1, 0.2], [math.inf, 0.0]]])
def test_apply_plane_wave_rejects_malformed_wavevectors(tables_n10, k):
    with pytest.raises(ValueError):
        apply_plane_wave(tables_n10[BoundaryKind.NEUMANN], k)


@pytest.mark.parametrize("N", [10, 60])
def test_apply_plane_wave_matches_fsum_of_terms(N):
    for kind in BoundaryKind:
        tab = build_table(kind, 1.0, X, N)
        ks = _wavevectors(12, N)
        got = apply_plane_wave(tab, ks)
        for k, value in zip(ks, got):
            ik1, ik2 = 1j * complex(k[0]), 1j * complex(k[1])
            ref, mag = _fsum_reference(tab, lambda n1, n2: ik1 ** n1 * ik2 ** n2)
            assert abs(value - ref) <= 1e-13 * mag


def test_apply_taylor_matches_fsum_of_terms(table_n60):
    rng = np.random.default_rng(7)
    f = rng.normal(size=(8, 9)) + 1j * rng.normal(size=(8, 9))
    ref, mag = _fsum_reference(
        table_n60,
        lambda n1, n2: (math.factorial(n1) * math.factorial(n2) * f[n1, n2]
                        if n1 < 8 and n2 < 9 else 0.0))
    got = apply_taylor(table_n60, TaylorField(f))
    assert type(got) is complex
    assert abs(got - ref) <= 1e-13 * mag


def test_holomorphy_in_wavevector(tables_n10):
    # Cauchy-Riemann residual of k1 -> apply_plane_wave at a complex point.
    tab = build_table(BoundaryKind.NEUMANN, 1.0, X, 16)
    k0 = 0.5 + 0.3j
    h = 1e-5
    d_re = (apply_plane_wave(tab, (k0 + h, 0.2)) - apply_plane_wave(tab, (k0 - h, 0.2))) / (2 * h)
    d_im = (apply_plane_wave(tab, (k0 + 1j * h, 0.2)) - apply_plane_wave(tab, (k0 - 1j * h, 0.2))) / (
        2j * h
    )
    assert abs(d_re - d_im) <= 1e-6 * max(1.0, abs(d_re))


# ----------------------------------------------------------------------------
# Continuity constant (log form)
# ----------------------------------------------------------------------------


def test_continuity_constant_zero_growth_closed_form():
    # E_{1/2,1/2}(0) = 1/sqrt(pi), so C = 8 pi exp(9 r^2 / (2t)) at alpha = pi/4
    got = log_continuity_constant(1.0, 1.0, ALPHA, 0.0)
    assert got == pytest.approx(math.log(8 * math.pi) + 4.5, rel=1e-12)


def test_continuity_constant_monotone_in_growth():
    vals = [log_continuity_constant(1.0, 1.0, ALPHA, b) for b in (0.0, 0.5, 1.0)]
    assert vals[0] < vals[1] < vals[2]


def test_continuity_constant_overflow_routes_to_log_variant():
    # at B = 8 the constant itself is far beyond double range; its log is not
    log_c = log_continuity_constant(1.0, 1.0, ALPHA, 8.0)
    assert 1e4 < log_c < math.inf


# ----------------------------------------------------------------------------
# Operator series on the quadrature's node ladder
# ----------------------------------------------------------------------------


def test_series_matches_the_table_route_on_the_field_range():
    # seeded points of the benchmark's field range: t in [0.5, 2], |x_i| <= 2.8,
    # plane waves with |k| <= 1.5 (at the cap N = 60 unless an order certifies)
    # and Taylor data of degree <= 3, whose series is exact at its degree
    spec = QuadratureSpec()
    rng = np.random.default_rng(27)
    for i in range(16):
        kind = (BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN)[i % 2]
        t = rng.uniform(0.5, 2.0)
        x = to_polar(CartesianPoint(*rng.uniform(-2.8, 2.8, 2)))
        if i % 4:
            k = rng.uniform(0.0, 1.5) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            F = PlaneWave(k.real, k.imag)
            try:
                N = truncation_order(t, x.r, spec.alpha, abs(k), spec.tol)
            except TailBoundUnsatisfiable:
                N = N_CAP
        else:
            degree = i // 4
            F = TaylorField(np.triu(rng.uniform(-1.0, 1.0, (degree + 1, degree + 1)))[:, ::-1])
            N = F.degree
        [(sample, sums)] = _FresnelGrid(t, F, spec, x.r).series_samples(kind, [x], [N])
        table = build_table(kind, t, x, N, spec)
        ref = (apply_plane_wave(table, (F.k1, F.k2)) if isinstance(F, PlaneWave)
               else apply_taylor(table, F))
        assert sums.shape == (N + 1,)
        assert abs(sample.value - ref) <= sample.est_error + table.est_error + 2 * spec.tol


def test_log_continuity_consistent_where_direct_works():
    # the constant's defining product, formed directly where it fits in doubles
    s = math.sin(2 * ALPHA)
    ml = mittag_leffler_half(4 * math.e * 0.5 / math.sqrt(s))
    direct = math.log(8 * math.pi**2 / s * math.exp(4.5 / s) * ml * ml)
    assert log_continuity_constant(1.0, 1.0, ALPHA, 0.5) == pytest.approx(direct, abs=1e-10)
