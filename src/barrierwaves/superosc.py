"""Superoscillating data and persistence of their fast scale under evolution.

The generating sequence

    F_n(z1, z2) = sum_j C_j(n, a) exp(1j * (k_j^p1 z1 + k_j^p2 z2)),
    k_j = 1 - 2j/n,   C_j = binom(n, j) ((1+a)/2)^(n-j) ((1-a)/2)^j

is band-limited to per-component frequencies in [-1, 1] yet converges,
as n grows, to the plane wave exp(1j*(a^p1 z1 + a^p2 z2)) whose
frequency a > 1 lies outside the band.  ``supershift_experiment`` pushes
each F_n through the boundary-value propagator and checks that the
evolved fields approach the evolved out-of-band wave, with the gap
controlled by the operator continuity constant times an entire-growth
distance between the data.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import PolarPoint
from .greens import BoundaryKind
from .evolve import DiscreteSuperposition, QuadratureSpec
from .operator import (
    N_CAP,
    TruncationInsufficient,
    apply_plane_wave,
    build_table,
    log_continuity_constant,
    truncation_order,
)
from .evolve import NonConvergence, TailBoundUnsatisfiable
from .summation import CompensatedSum

SQRT2 = math.sqrt(2.0)

#: decimal digits the order-one sum of F_n may cancel, of about 16 in a double
CANCELLED_DIGITS_MAX = 12.0

#: largest order n: ``supershift_experiment`` holds about 3.1 kB per atom,
#: so the n + 1 atoms of n = 2^16 peak near 210 MB
_ORDER_MAX = 1 << 16


class CoefficientOverflow(ArithmeticError):
    """The alternating coefficients are too large to cancel in double precision."""


@dataclass(frozen=True)
class SuperoscParams:
    """Family parameters: target frequency a > 1, component powers, order n."""

    a: float
    p1: int = 1
    p2: int = 1
    n: int = 4

    def __post_init__(self):
        if not self.a > 1:
            raise ValueError(f"target frequency must exceed 1, got a={self.a}")
        if self.p1 < 1 or self.p2 < 1:
            raise ValueError("component powers must be positive integers")
        if self.n < 1:
            raise ValueError(f"order must be a positive integer, got n={self.n}")
        for p in (self.p1, self.p2):
            try:
                self.a ** p
            except OverflowError:
                raise ValueError(
                    f"limit wavevector component a^p = {self.a}^{p} exceeds double range") from None

    @property
    def a_vec(self) -> tuple:
        """Limiting wavevector (a^p1, a^p2)."""
        return (self.a ** self.p1, self.a ** self.p2)


def superosc_coefficients(n: int, a: float) -> np.ndarray:
    """C_j(n, a) for j = 0..n, built multiplicatively.

    The coefficients alternate in sign and sum to 1; their magnitudes grow
    like a^n, which is what buys the out-of-band convergence.  Summing them
    to a value of order one cancels about log10(max|C_j|) digits, so this
    is the one place that decides the usable order: n = 42, 73, 26, 313
    and 18 are the last for a = 2, 1.5, 3, 1.1 and 5.

    Raises
    ------
    CoefficientOverflow
        If max_j |C_j| exceeds 1e12, i.e. the sum would cancel more than
        12 digits.
    ValueError
        If n is not a positive integer, or a is not above 1, or n exceeds
        2^16 with a first weight below the wall (a close to 1), the bound
        that keeps the memory of its atoms in check.  Checked before any
        array is built.
    """
    if n < 1:
        raise ValueError(f"order must be a positive integer, got n={n}")
    if not a > 1:
        raise ValueError(f"target frequency must exceed 1, got a={a}")
    up = (1.0 + a) / 2.0
    dn = (1.0 - a) / 2.0
    # |C_0| = up^n is one of the weights: an order whose first weight is past
    # the wall is refused before its n + 1 weights are built
    log10_peak = n * math.log10(up)
    if log10_peak <= CANCELLED_DIGITS_MAX:
        if n > _ORDER_MAX:
            raise ValueError(
                f"order n={n} exceeds {_ORDER_MAX}, the memory bound on its n + 1 atoms")
        c = np.empty(n + 1)
        c[0] = up ** n
        for j in range(1, n + 1):
            c[j] = c[j - 1] * (n - j + 1) / j * (dn / up)
        log10_peak = math.log10(float(np.abs(c).max()))
    if log10_peak > CANCELLED_DIGITS_MAX:
        raise CoefficientOverflow(
            f"the weights reach 10^{log10_peak:.2f} at n={n}, a={a}: summing F_n would "
            f"cancel more than {CANCELLED_DIGITS_MAX:.0f} digits")
    return c


def superosc_sequence(params: SuperoscParams) -> DiscreteSuperposition:
    """F_n as a band-limited superposition datum.

    Every wavevector (k_j^p1, k_j^p2) has components in [-1, 1], because
    |k_j| <= 1, while the limit a^p > 1 per component lies outside that
    band.  The atom k_0 = 1 gives (1, 1), so the datum's growth rate (its
    largest atom norm, ``growth_envelope``) is sqrt(2).
    """
    n, a = params.n, params.a
    c = superosc_coefficients(n, a)
    k = 1.0 - 2.0 * np.arange(n + 1) / n
    kvec = np.column_stack([k ** params.p1, k ** params.p2])
    return DiscreteSuperposition(weights=c.astype(complex), wavevectors=kvec)


def closed_form_fn(params: SuperoscParams, z1, z2):
    """(cos((z1+z2)/n) + 1j a sin((z1+z2)/n))^n; valid for p1 = p2 = 1 only."""
    if params.p1 != 1 or params.p2 != 1:
        raise ValueError("closed form requires p1 = p2 = 1")
    w = (np.asarray(z1, dtype=complex) + np.asarray(z2, dtype=complex)) / params.n
    return (np.cos(w) + 1j * params.a * np.sin(w)) ** params.n


def a1_distance(params: SuperoscParams, radius: float, growth: float) -> float:
    """Growth-weighted gap sup |F_n(z) - exp(1j a_vec . z)| exp(-growth |z|).

    The supremum over complex pairs is estimated on a deterministic
    polydisc grid: 8 phases x 6 radial shells per component,
    plus the origin.  A grid maximum can only under-estimate the true
    supremum, so treat the result as an observed gap, not a certificate.
    ``growth`` must majorize the exponential type of both functions,
    i.e. growth >= max(sqrt(2), |a_vec|).

    Raises
    ------
    ValueError
        If ``radius`` is not finite and positive, or ``growth`` is not
        finite or does not majorize that type.
    """
    if not 0 < radius < math.inf:
        raise ValueError(f"radius must be finite and positive, got {radius}")
    a_norm = math.hypot(*params.a_vec)
    if not max(SQRT2, a_norm) - 1e-12 <= growth < math.inf:
        raise ValueError(
            f"growth={growth} is not finite or does not majorize the exponential type "
            f"max(sqrt(2), {a_norm:.6g})")
    seq = superosc_sequence(params)
    phases = np.exp(2j * math.pi * np.arange(8) / 8.0)
    shells = radius * np.arange(1, 7) / 6
    axis = np.concatenate([[0.0 + 0.0j], (shells[:, None] * phases[None, :]).ravel()])
    z1 = axis[:, None]
    z2 = axis[None, :]
    # F_n on the tensor grid factorises per component: (e1 * C) @ e2^T
    e1 = np.exp(np.multiply.outer(1j * axis, seq.wavevectors[:, 0]))
    e2 = np.exp(np.multiply.outer(1j * axis, seq.wavevectors[:, 1]))
    fn = (e1 * seq.weights) @ e2.T
    a1, a2 = params.a_vec
    target = np.exp(1j * (a1 * z1 + a2 * z2))
    weight = np.exp(-growth * np.sqrt(np.abs(z1) ** 2 + np.abs(z2) ** 2))
    return float((np.abs(fn - target) * weight).max())


def _require_finite(value, what: str, params: SuperoscParams, t: float, x: PolarPoint) -> None:
    if not cmath.isfinite(value):
        raise NonConvergence(
            f"{what} is not finite at n={params.n}, a_vec={params.a_vec}, t={t}, x={x}")


@dataclass(frozen=True)
class SupershiftRow:
    """One order of the persistence experiment.

    ``bound`` is a1_dist times the operator continuity constant; it
    saturates to inf when the constant overflows doubles, with the exact
    value retained in ``log_bound`` (natural log).
    """

    n: int
    psi_n: complex
    psi_target: complex
    error: float
    a1_dist: float
    bound: float
    log_bound: float


def supershift_experiment(kind: BoundaryKind, t: float, x: PolarPoint,
                          a: float = 2.0, p1: int = 1, p2: int = 1,
                          n_list=(4, 8, 12, 16),
                          spec: QuadratureSpec = QuadratureSpec()):
    """Evolve F_n for each order and compare against the evolved limit wave.

    One coefficient table serves every order and the target: the evolved
    field of each plane-wave atom is the operator series at its
    wavevector, evaluated for all atoms of all orders and the target in
    one batched ``apply_plane_wave`` call, and F_n is the compensated
    weighted sum of its n + 1 atoms.  The table order
    comes from the certified truncation bound when it is attainable;
    otherwise the cap N = 60 is used and a single ``TruncationInsufficient``
    warning reports that the run leans on empirical coefficient decay.
    Each row's ``a1_dist`` is ``a1_distance`` on the polydisc of radius 4.

    Returns a list of ``SupershiftRow`` with n ascending.

    Raises
    ------
    CoefficientOverflow
        From ``superosc_coefficients``, for an order past the precision
        wall; the sequences are built first, so this costs no kernel
        evaluation.
    NonConvergence
        From ``build_table``: the table is not finite, its coefficient
        bounds exceed double range (small t against r^2), or its
        refinement estimate exceeds ten times ``spec.tol`` on the top
        level of the node ladder.  Also when the evolved target, a psi_n
        or an a1_dist is not finite (a target wave far outside the
        table's reach, e.g. a^p1 = 2^40).
    ValueError
        From ``SuperoscParams``: a^p1 or a^p2 beyond double range.  From
        ``truncation_order``: t not finite and positive.
    """
    params0 = SuperoscParams(a=a, p1=p1, p2=p2, n=max(n_list))
    family = [SuperoscParams(a=a, p1=p1, p2=p2, n=n) for n in sorted(n_list)]
    seqs = [superosc_sequence(params) for params in family]
    a_norm = math.hypot(*params0.a_vec)
    growth = max(SQRT2, a_norm)
    try:
        N = truncation_order(t, x.r, spec.alpha, growth, spec.tol)
    except TailBoundUnsatisfiable:
        N = N_CAP
        warnings.warn(
            f"certified truncation order unattainable at growth rate "
            f"{growth:.4g} (t={t}, r={x.r}); using table cap N={N_CAP} and "
            f"relying on empirical coefficient decay",
            TruncationInsufficient, stacklevel=2)
    table = build_table(kind, t, x, N, spec)
    log_c = log_continuity_constant(t, x.r, spec.alpha, growth)
    log_dbl_max = math.log(np.finfo(float).max)
    # every atom of every order, then the target: one application of the table;
    # an overflow shows as a non-finite value, refused below
    atoms = np.concatenate([seq.wavevectors for seq in seqs] + [[params0.a_vec]])
    with np.errstate(over="ignore", invalid="ignore"):
        values = apply_plane_wave(table, atoms)
    psi_target = complex(values[-1])
    _require_finite(psi_target, "the evolved target wave", params0, t, x)
    rows = []
    start = 0
    for params, seq in zip(family, seqs):
        n = params.n
        # the alternating weights cancel here, so this sum is compensated
        acc = CompensatedSum(0.0 + 0.0j)
        for w, v in zip(seq.weights, values[start:start + n + 1]):
            acc.add(w * v)
        start += n + 1
        psi_n = complex(acc.value)
        _require_finite(psi_n, "psi_n", params, t, x)
        with np.errstate(over="ignore", invalid="ignore"):
            dist = a1_distance(params, radius=4.0, growth=growth)
        _require_finite(dist, "a1_dist", params, t, x)
        log_bound = math.log(dist) + log_c if dist > 0 else -math.inf
        bound = math.exp(log_bound) if log_bound <= log_dbl_max else math.inf
        rows.append(SupershiftRow(
            n=n, psi_n=psi_n, psi_target=psi_target,
            error=abs(psi_n - psi_target), a1_dist=dist,
            bound=bound, log_bound=log_bound))
    return rows
