"""Tests for superoscillatory sequences and their evolved supershift."""

import importlib
import math
import warnings

import numpy as np
import pytest

from barrierwaves.evolve import PlaneWave, QuadratureSpec, eval_datum, growth_envelope, psi_fresnel
from barrierwaves.geometry import PolarPoint
from barrierwaves.greens import BoundaryKind
from barrierwaves.evolve import NonConvergence, TailBoundUnsatisfiable
from barrierwaves.operator import (
    N_CAP,
    TruncationInsufficient,
    apply_plane_wave,
    build_table,
    truncation_order,
)
from barrierwaves.superosc import (
    SQRT2,
    CoefficientOverflow,
    SuperoscParams,
    SupershiftRow,
    a1_distance,
    closed_form_fn,
    superosc_coefficients,
    superosc_sequence,
    supershift_experiment,
)

X = PolarPoint(1.0, math.pi / 2)


# ----------------------------------------------------------------------------
# Coefficients
# ----------------------------------------------------------------------------


def test_first_order_atoms():
    seq = superosc_sequence(SuperoscParams(2.0, 1, 1, 1))
    assert np.allclose(seq.weights, [1.5, -0.5])
    assert np.allclose(seq.wavevectors, [[1.0, 1.0], [-1.0, -1.0]])
    assert growth_envelope(seq)[1] == SQRT2


@pytest.mark.parametrize("p1, p2", [(1, 1), (1, 2), (2, 3)])
@pytest.mark.parametrize("n", [3, 4, 7, 16])
def test_sequence_growth_rate_is_sqrt2(p1, p2, n):
    # the largest atom norm is that of k_0 = 1, i.e. (1, 1), bit for bit
    assert growth_envelope(superosc_sequence(SuperoscParams(2.0, p1, p2, n)))[1] == SQRT2


def test_coefficients_sum_to_one():
    for a in (1.5, 2.0, 3.0):
        for n in (1, 5, 20, 24):
            assert abs(math.fsum(superosc_coefficients(n, a)) - 1.0) <= 1e-12


def test_frequency_moment_recovers_target():
    # sum_j C_j k_j = a: the sequence's first moment already sits at the
    # out-of-band frequency.
    for n in (2, 8):
        c = superosc_coefficients(n, 3.0)
        k = 1.0 - 2.0 * np.arange(n + 1) / n
        assert float(np.sum(c * k)) == pytest.approx(3.0, rel=1e-12)


def test_coefficient_magnitudes_grow_with_order():
    small = np.abs(superosc_coefficients(5, 2.0)).max()
    large = np.abs(superosc_coefficients(25, 2.0)).max()
    assert large > 1e3 * small


def test_coefficient_overflow_guard():
    # far past the wall, up to orders whose first weight ((1+a)/2)^n overflows doubles
    for n in (1200, 2000, 10**6):
        with pytest.raises(CoefficientOverflow):
            superosc_coefficients(n, 2.0)


def test_order_validation():
    with pytest.raises(ValueError):
        superosc_coefficients(0, 2.0)
    with pytest.raises(ValueError):
        superosc_coefficients(4, 1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        SuperoscParams(1.0, 1, 1, 4)
    with pytest.raises(ValueError):
        SuperoscParams(2.0, 0, 1, 4)
    with pytest.raises(ValueError):
        SuperoscParams(2.0, 1, 1, 0)
    p = SuperoscParams(2.0, 1, 2, 4)
    assert p.a_vec == pytest.approx((2.0, 4.0))


@pytest.mark.parametrize("p1, p2", [(2000, 1), (1, 1100)])
def test_params_reject_limit_beyond_double_range(p1, p2):
    with pytest.raises(ValueError, match="exceeds double range"):
        SuperoscParams(2.0, p1, p2, 4)


# ----------------------------------------------------------------------------
# Closed form
# ----------------------------------------------------------------------------


def test_closed_form_matches_sum_at_point():
    p = SuperoscParams(2.0, 1, 1, 10)
    direct = eval_datum(superosc_sequence(p), 0.3, -0.1)
    assert abs(closed_form_fn(p, 0.3, -0.1) - direct) <= 1e-9


def test_closed_form_at_origin_is_one():
    assert closed_form_fn(SuperoscParams(2.0, 1, 1, 7), 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_closed_form_sweep():
    rng = np.random.default_rng(3)
    for n in range(1, 17):
        p = SuperoscParams(2.0, 1, 1, n)
        seq = superosc_sequence(p)
        for _ in range(6):
            z1 = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
            z2 = complex(rng.uniform(-1.4, 1.4), rng.uniform(-1.4, 1.4))
            assert abs(closed_form_fn(p, z1, z2) - eval_datum(seq, z1, z2)) <= 1e-8


@pytest.mark.parametrize("n", [4, 16, 32])
def test_superposition_error_at_rounding_scale(n):
    # the atoms have |k| <= 1 per component, so each term is bounded by
    # |C_j| exp(|Im z1| + |Im z2|); the sum must be exact to rounding of that
    rng = np.random.default_rng(n)
    z1 = rng.uniform(-4, 4, 200) + 1j * rng.uniform(-2, 2, 200)
    z2 = rng.uniform(-4, 4, 200) + 1j * rng.uniform(-2, 2, 200)
    p = SuperoscParams(2.0, 1, 1, n)
    seq = superosc_sequence(p)
    scale = np.sum(np.abs(seq.weights)) * np.exp(np.abs(z1.imag) + np.abs(z2.imag))
    err = np.abs(eval_datum(seq, z1, z2) - closed_form_fn(p, z1, z2))
    assert np.all(err <= 1e-15 * scale)


def test_closed_form_rejects_mixed_powers():
    with pytest.raises(ValueError):
        closed_form_fn(SuperoscParams(2.0, 1, 2, 4), 0.1, 0.1)


def test_pointwise_limit_toward_target_wave():
    # F_n(z) -> exp(1j a (z1 + z2)); the closed form survives orders where
    # the explicit coefficient sum is long refused.
    target = np.exp(2j)
    errs = [
        abs(closed_form_fn(SuperoscParams(2.0, 1, 1, n), 1.0, 0.0) - target)
        for n in (10, 100, 1000)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 2e-3


# ----------------------------------------------------------------------------
# Precision budget
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("a, last_n", [(2.0, 42), (1.5, 73), (3.0, 26), (1.1, 313), (5.0, 18)])
def test_precision_wall(a, last_n):
    # the last order whose sum cancels at most 12 digits passes; the next is refused
    assert np.abs(superosc_coefficients(last_n, a)).max() <= 1e12
    with pytest.raises(CoefficientOverflow, match="more than 12 digits"):
        superosc_coefficients(last_n + 1, a)


def test_supershift_past_the_wall_evaluates_no_kernel(monkeypatch):
    superosc_module = importlib.import_module("barrierwaves.superosc")

    def refuse(*args, **kwargs):
        raise AssertionError("a table was requested for refused data")

    monkeypatch.setattr(superosc_module, "truncation_order", refuse)
    monkeypatch.setattr(superosc_module, "build_table", refuse)
    with pytest.raises(CoefficientOverflow):
        supershift_experiment(BoundaryKind.DIRICHLET, 0.5, PolarPoint(1.0, 1.2), n_list=(4, 43))


# ----------------------------------------------------------------------------
# Distance estimator
# ----------------------------------------------------------------------------


def test_a1_distance_decreases_with_order():
    d = [a1_distance(SuperoscParams(2.0, 1, 1, n), 2.0, 3.0) for n in (4, 8, 16)]
    assert d[0] > d[1] > d[2]


def test_a1_distance_doubling_growth_cannot_increase():
    p = SuperoscParams(2.0, 1, 1, 8)
    assert a1_distance(p, 2.0, 6.0) <= a1_distance(p, 2.0, 3.0)


def _a1_distance_by_eval_datum(params, radius, growth, samples=6):
    """a1_distance as first written: F_n through ``eval_datum`` on the full
    polydisc grid, one exponent per point and atom."""
    seq = superosc_sequence(params)
    phases = np.exp(2j * math.pi * np.arange(8) / 8.0)
    shells = radius * np.arange(1, samples + 1) / samples
    axis = np.concatenate([[0.0 + 0.0j], (shells[:, None] * phases[None, :]).ravel()])
    z1 = axis[:, None] * np.ones_like(axis)[None, :]
    z2 = np.ones_like(axis)[:, None] * axis[None, :]
    a1, a2 = params.a_vec
    gap = np.abs(eval_datum(seq, z1, z2) - np.exp(1j * (a1 * z1 + a2 * z2)))
    return float((gap * np.exp(-growth * np.sqrt(np.abs(z1) ** 2 + np.abs(z2) ** 2))).max())


@pytest.mark.parametrize("p1, p2", [(1, 1), (2, 1), (1, 3)])
def test_a1_distance_matches_eval_datum_oracle(p1, p2):
    # at the experiment's radius; on smaller polydiscs the supremum sits
    # where F_n's own cancellation error (about 12 digits at n = 40, a = 2)
    # sets how far any two evaluations can agree
    for n in (1, 4, 8, 12, 16, 24, 32, 40):
        params = SuperoscParams(2.0, p1, p2, n)
        growth = max(SQRT2, math.hypot(*params.a_vec))
        got = a1_distance(params, 4.0, growth)
        assert got == pytest.approx(_a1_distance_by_eval_datum(params, 4.0, growth), rel=1e-9)


def test_a1_distance_growth_guard():
    # The weight must decay faster than both exponential types grow.
    with pytest.raises(ValueError):
        a1_distance(SuperoscParams(2.0, 1, 1, 8), 2.0, 1.0)
    with pytest.raises(ValueError):
        a1_distance(SuperoscParams(2.0, 1, 1, 8), -1.0, 3.0)


# ----------------------------------------------------------------------------
# Evolved supershift
# ----------------------------------------------------------------------------


@pytest.fixture(scope="module")
def neumann_rows():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = supershift_experiment(
            BoundaryKind.NEUMANN, 1.0, X, n_list=(1, 4, 8)
        )
    return rows, caught


def test_experiment_row_structure(neumann_rows):
    rows, _ = neumann_rows
    assert [r.n for r in rows] == [1, 4, 8]
    for r in rows:
        assert isinstance(r, SupershiftRow)
        assert r.error == pytest.approx(abs(r.psi_n - r.psi_target), rel=1e-12)
        assert 0 < r.a1_dist
        assert math.isfinite(r.log_bound)


def test_experiment_warns_once_when_tail_uncertified(neumann_rows):
    _, caught = neumann_rows
    trunc = [w for w in caught if issubclass(w.category, TruncationInsufficient)]
    assert len(trunc) == 1


def test_experiment_error_within_log_bound(neumann_rows):
    rows, _ = neumann_rows
    for r in rows:
        assert r.error <= r.bound  # bound saturates to inf when C overflows
        assert math.log(r.error) <= r.log_bound


def test_first_order_supershift_is_two_wave_combination(neumann_rows):
    rows, _ = neumann_rows
    spec = QuadratureSpec()
    plus = psi_fresnel(BoundaryKind.NEUMANN, 1.0, X, PlaneWave(1.0, 1.0), spec).value
    minus = psi_fresnel(BoundaryKind.NEUMANN, 1.0, X, PlaneWave(-1.0, -1.0), spec).value
    assert abs(rows[0].psi_n - (1.5 * plus - 0.5 * minus)) <= 1e-9


def test_experiment_target_is_out_of_band_wave(neumann_rows):
    rows, _ = neumann_rows
    # every row shares the same evolved target
    assert rows[0].psi_target == rows[1].psi_target == rows[2].psi_target


def test_experiment_refuses_a_target_beyond_the_table():
    # the limit wave (2^40, 2) overflows the order-60 series, and its gap
    # a1_dist on the polydisc too: no row may carry a NaN or a zero bound
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationInsufficient)
        with pytest.raises(NonConvergence, match="target wave is not finite"):
            supershift_experiment(BoundaryKind.DIRICHLET, 1.0, PolarPoint(1.0, 0.3), p1=40)


def test_experiment_matches_per_atom_fsum_reference():
    spec = QuadratureSpec()
    n_list = (4, 8, 12, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationInsufficient)
        rows = supershift_experiment(BoundaryKind.DIRICHLET, 1.0, X, n_list=n_list, spec=spec)
        # the table the experiment builds: certified order, else the cap
        try:
            N = truncation_order(1.0, X.r, spec.alpha, math.hypot(2.0, 2.0), spec.tol)
        except TailBoundUnsatisfiable:
            N = N_CAP
        table = build_table(BoundaryKind.DIRICHLET, 1.0, X, N, spec)
        target = apply_plane_wave(table, (2.0, 2.0))
        for row, n in zip(rows, n_list):
            seq = superosc_sequence(SuperoscParams(2.0, 1, 1, n))
            terms = [w * apply_plane_wave(table, (k1, k2))
                     for w, (k1, k2) in zip(seq.weights, seq.wavevectors)]
            ref = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
            assert abs(row.psi_n - ref) <= 1e-12 * max(1.0, abs(ref))
            assert abs(row.psi_target - target) <= 1e-12 * max(1.0, abs(target))
