"""Infinite-order differential operator representation of the evolution.

Expanding the datum in its Taylor series under the rotated-contour
integral turns the solution into

    psi(t, x) = sum_{n1,n2} c_{n1,n2}(t, x) d^{n1+n2} F / dz1^n1 dz2^n2 (0)

with coefficients that are angular/radial moments of the propagator:

    c_{n1,n2} = exp((n1+n2+2) * 1j * alpha) / (n1! n2!)
                * Int Int G(t, x, rho*exp(1j*alpha)*(cos th, sin th))
                          * cos(th)^n1 sin(th)^n2 rho^(n1+n2+1)  dth drho

Each coefficient obeys the certified bound ``coeff_bound``; a datum with
derivative growth A*(e*B)^(n1+n2) then gives a convergent series whose
total is controlled by ``continuity_constant``.  All tabulated c share one
propagator evaluation on a single node set, so the operator route and the
direct quadrature route differ only in the angular/radial weights.

The table order is capped at N = 60: beyond that the radial weights
rho^(N+1) push the node products toward the edge of double range and the
factorial rescalings lose their accuracy guarantees.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .complexfn import gamma_real, log_mittag_leffler_half
from .geometry import PHI_MAX, PHI_MIN, PolarPoint
from .greens import BoundaryKind, _kernel_grid
from .evolve import (
    QuadratureSpec,
    TailBoundUnsatisfiable,
    TaylorField,
    _gauss_panels,
    _node_ladder,
    effective_growth_rate,
    rho_max,
)
from .summation import CompensatedSum

N_CAP = 60


class TruncationInsufficient(UserWarning):
    """The certified series tail at the requested argument exceeds the tolerance."""


def coeff_bound(t: float, r: float, alpha: float, n1: int, n2: int) -> float:
    """Certified bound on |c_{n1,n2}(t, x)|.

    pi^2 / (2 t Gamma((n1+1)/2) Gamma((n2+1)/2))
        * (16 t / sin(2 alpha))^((n1+n2+2)/2) * exp(9 r^2 / (2 t sin(2 alpha)))
    """
    if t <= 0:
        raise ValueError(f"time must be positive, got t={t}")
    if n1 < 0 or n2 < 0:
        raise ValueError("orders must be nonnegative")
    s = math.sin(2.0 * alpha)
    g1 = gamma_real((n1 + 1) / 2.0)
    g2 = gamma_real((n2 + 1) / 2.0)
    m = n1 + n2
    return (
        math.pi * math.pi / (2.0 * t * g1 * g2)
        * (16.0 * t / s) ** (0.5 * (m + 2))
        * math.exp(4.5 * r * r / (t * s))
    )


@functools.lru_cache(maxsize=None)
def _log_gamma_pair_sums(size: int) -> np.ndarray:
    """log of S_m = sum_{n1+n2=m} 1 / (Gamma((n1+1)/2) Gamma((n2+1)/2)), m < size.

    S_m depends on m alone, so it is computed once per power-of-two
    ``size`` and shared by every majorant; each entry is the same
    arithmetic whatever the size.
    """
    half_gammaln = gammaln((np.arange(size) + 1) / 2.0)
    out = np.empty(size)
    for m in range(size):
        n1 = np.arange(m + 1)
        logs = -half_gammaln[n1] - half_gammaln[m - n1]
        peak = logs.max()
        out[m] = peak + math.log(np.sum(np.exp(logs - peak)))
    out.setflags(write=False)
    return out


def _log_majorant_terms(t: float, r: float, alpha: float, log_weight: float, m_max: int):
    """log of T_m = sum_{n1+n2=m} coeff_bound * exp(m * log_weight), m = 0..m_max.

    ``log_weight`` is the log of the per-order derivative weight (e.g.
    log(e*B) for a datum envelope, log(max|k_i|) for a plane wave).
    """
    s = math.sin(2.0 * alpha)
    base = (
        math.log(math.pi * math.pi / (2.0 * t))
        + 4.5 * r * r / (t * s)
    )
    log_scale = 0.5 * math.log(16.0 * t / s)
    log_S = _log_gamma_pair_sums(1 << m_max.bit_length())[:m_max + 1]
    m = np.arange(m_max + 1)
    mw = m * log_weight
    mw[0] = 0.0
    return base + (m + 2) * log_scale + mw + log_S


def _log_tail(log_terms, n: int) -> float:
    """log of sum of log_terms[n+1:] by log-sum-exp; -inf for empty tails."""
    tail = log_terms[n + 1:]
    if tail.size == 0:
        return -math.inf
    peak = float(tail.max())
    if peak == -math.inf:
        return -math.inf
    return peak + math.log(np.sum(np.exp(tail - peak)))


def truncation_order(t: float, r: float, alpha: float, B: float, tol: float) -> int:
    """Smallest N whose certified series tail is below tol.

    The tail sums ``coeff_bound(n1,n2) * (e*B)^(n1+n2)`` over n1+n2 > N;
    this is the derivative-bound-weighted majorant of everything the
    operator discards.  The majorant is summed in log space until its
    terms have decayed far past their peak.

    Raises
    ------
    TailBoundUnsatisfiable
        If no N <= 60 suffices.  The majorant peaks near
        m = 4 * (4 e B sqrt(t / sin 2 alpha))^2, so moderate growth rates
        B already push the certified order beyond the cap even when the
        *actual* coefficient decay is long since sufficient; callers doing
        exploratory work catch this and fall back to the cap.
    """
    if B < 0:
        raise ValueError(f"growth rate must be nonnegative, got B={B}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if B == 0.0:
        return 0
    x = 4.0 * math.e * B * math.sqrt(t / math.sin(2.0 * alpha))
    m_max = int(4.0 * x * x + 40.0 * x + 200)
    log_terms = _log_majorant_terms(t, r, alpha, math.log(math.e * B), m_max)
    log_tol = math.log(tol)
    for n in range(N_CAP + 1):
        if _log_tail(log_terms, n) < log_tol:
            return n
    raise TailBoundUnsatisfiable(
        f"certified truncation order exceeds the cap {N_CAP} "
        f"(B={B}, t={t}, alpha={alpha}, tol={tol})"
    )


@dataclass(frozen=True, eq=False)
class CoeffTable:
    """Tabulated operator coefficients c_{n1,n2}, n1+n2 <= N, at one (t, x).

    ``c[n1, n2]`` and ``bound[n1, n2]`` are valid for n1+n2 <= N (other
    entries are zero).  ``tail_bound`` is the certified majorant tail at
    unit per-component frequency: applying the table to any datum whose
    mixed derivatives at 0 are bounded by one in modulus discards at most
    ``tail_bound``.  ``est_error`` is a mesh-refinement difference taken
    over all entries at once.
    """

    kind: BoundaryKind
    t: float
    x: PolarPoint
    N: int
    c: np.ndarray
    bound: np.ndarray
    tail_bound: float
    est_error: float
    spec: QuadratureSpec

    def entries(self):
        """(n1, n2, c) in graded lexicographic order."""
        for m in range(self.N + 1):
            for n1 in range(m + 1):
                yield n1, m - n1, self.c[n1, m - n1]


def build_table(kind: BoundaryKind, t: float, x: PolarPoint, N: int,
                spec: QuadratureSpec = QuadratureSpec()) -> CoeffTable:
    """Compute all coefficients with n1+n2 <= N from one propagator grid.

    The propagator is evaluated once on the shared node set; every
    coefficient is an angular/radial moment of that grid, so no entry sees
    a different kernel evaluation.  The radial cutoff accounts for the
    rho^(N+1) weight of the highest moments.  ``est_error`` compares the
    spec's rule with the level below it on ``psi_fresnel``'s node ladder.

    Raises
    ------
    ValueError
        If N exceeds the table cap (60) or is negative.
    """
    if not 0 <= N <= N_CAP:
        raise ValueError(f"table order must lie in [0, {N_CAP}], got {N}")
    if t <= 0:
        raise ValueError(f"time must be positive, got t={t}")
    B_eff = effective_growth_rate(0.0, N + 1, t, spec.alpha)
    R = rho_max(spec, t, x.r, B_eff)

    def raw_moments(n_rho, n_theta):
        u, wu = _gauss_panels(0.0, math.sqrt(R), n_rho, spec.panel_order)
        th, wth = _gauss_panels(PHI_MIN, PHI_MAX, n_theta, spec.panel_order)
        rho = u * u
        z = rho * complex(math.cos(spec.alpha), math.sin(spec.alpha))
        G = _kernel_grid(kind, t, x, z[:, None], th[None, :])
        # radial weights w * rho^(m+1) built multiplicatively
        radial = np.empty((N + 1, rho.size))
        radial[0] = 2.0 * u * wu * rho
        for m in range(1, N + 1):
            radial[m] = radial[m - 1] * rho
        T = radial @ G  # (N+1, n_theta)
        cos_pows = np.empty((N + 1, th.size))
        sin_pows = np.empty((N + 1, th.size))
        cos_pows[0] = 1.0
        sin_pows[0] = 1.0
        for n in range(1, N + 1):
            cos_pows[n] = cos_pows[n - 1] * np.cos(th)
            sin_pows[n] = sin_pows[n - 1] * np.sin(th)
        raw = np.zeros((N + 1, N + 1), dtype=complex)
        for n1 in range(N + 1):
            u1 = cos_pows[n1] * wth
            count = N - n1 + 1
            raw[n1, :count] = np.einsum("j,nj,nj->n", u1, sin_pows[:count], T[n1:n1 + count])
        return raw

    fine = raw_moments(spec.n_rho, spec.n_theta)
    # the level below the finest on psi_fresnel's ladder: half the panels
    coarse = raw_moments(*_node_ladder(spec)[-2])

    inv_fact = np.ones(N + 1)
    for n in range(1, N + 1):
        inv_fact[n] = inv_fact[n - 1] / n
    n1g, n2g = np.meshgrid(np.arange(N + 1), np.arange(N + 1), indexing="ij")
    mg = n1g + n2g
    valid = mg <= N
    phase = np.exp(1j * spec.alpha * (mg + 2))
    scale = phase * inv_fact[n1g] * inv_fact[n2g]
    c = np.where(valid, scale * fine, 0.0)
    diff = np.abs(np.where(valid, scale * (fine - coarse), 0.0))
    est_error = float(diff.max())

    bound = np.zeros((N + 1, N + 1))
    for n1 in range(N + 1):
        for n2 in range(N + 1 - n1):
            bound[n1, n2] = coeff_bound(t, x.r, spec.alpha, n1, n2)

    x_ml = 4.0 * math.sqrt(t / math.sin(2.0 * spec.alpha))
    m_max = int(4.0 * x_ml * x_ml + 40.0 * x_ml + 200)
    log_terms = _log_majorant_terms(t, x.r, spec.alpha, 0.0, max(m_max, N + 2))
    log_tail = _log_tail(log_terms, N)
    tail_bound = math.inf if log_tail > math.log(np.finfo(float).max) else math.exp(log_tail)

    c.setflags(write=False)
    bound.setflags(write=False)
    return CoeffTable(kind=kind, t=t, x=x, N=N, c=c, bound=bound,
                      tail_bound=tail_bound, est_error=est_error, spec=spec)


def coeff(kind: BoundaryKind, t: float, x: PolarPoint, n1: int, n2: int,
          spec: QuadratureSpec = QuadratureSpec(), order=None) -> complex:
    """Single coefficient c_{n1,n2} through the shared-node table machinery.

    ``order`` selects the table order (default n1+n2); passing the order of
    an existing table reproduces that table's entry bit for bit, since the
    node set and weights depend only on (kind, t, x, order, spec).
    """
    if order is None:
        order = n1 + n2
    if order < n1 + n2:
        raise ValueError(f"order {order} cannot hold entry ({n1}, {n2})")
    table = build_table(kind, t, x, order, spec)
    return complex(table.c[n1, n2])


def derivative_bound(A: float, B: float, n1: int, n2: int) -> float:
    """Envelope A * (e*B)^(n1+n2) for the mixed derivatives at 0 of a datum
    with |F(z)| <= A * exp(B |z|)."""
    if A < 0 or B < 0:
        raise ValueError("envelope parameters must be nonnegative")
    return A * (math.e * B) ** (n1 + n2)


def apply_taylor(table: CoeffTable, F: TaylorField) -> complex:
    """Apply the tabulated operator to polynomial data.

    sum c[n1, n2] * n1! * n2! * f[n1, n2] in graded lexicographic order
    with compensated accumulation.  The polynomial must fit inside the
    table order.

    Raises
    ------
    ValueError
        If the datum degree exceeds the table order.
    """
    if F.degree > table.N:
        raise ValueError(f"datum degree {F.degree} exceeds table order {table.N}")
    fact = np.ones(table.N + 1)
    for n in range(1, table.N + 1):
        fact[n] = fact[n - 1] * n
    rows, cols = F.coeffs.shape
    acc = CompensatedSum(0.0 + 0.0j)
    for m in range(table.N + 1):
        for n1 in range(m + 1):
            n2 = m - n1
            if n1 < rows and n2 < cols:
                f = F.coeffs[n1, n2]
                if f != 0:
                    acc.add(table.c[n1, n2] * fact[n1] * fact[n2] * f)
    return complex(acc.value)


def apply_plane_wave(table: CoeffTable, k) -> complex:
    """Apply the tabulated operator to exp(1j*(k1 z1 + k2 z2)).

    The mixed derivatives at 0 are (1j k1)^n1 (1j k2)^n2, so the result is
    the bivariate power series of the solution in k truncated at the table
    order; it is an entire function of both components.  Emits a
    ``TruncationInsufficient`` warning when the certified tail at
    max(|k1|, |k2|) exceeds the table's quadrature tolerance.
    """
    k1, k2 = complex(k[0]), complex(k[1])
    kappa = max(abs(k1), abs(k2))
    if kappa > 0:
        log_terms = _log_majorant_terms(
            table.t, table.x.r, table.spec.alpha, math.log(kappa),
            max(int(4.0 * (4.0 * kappa) ** 2 * table.t + 40), table.N + 2))
        if _log_tail(log_terms, table.N) > math.log(table.spec.tol):
            warnings.warn(
                f"certified series tail at |k|={kappa:.3g} exceeds tol={table.spec.tol}; "
                f"result relies on empirical coefficient decay",
                TruncationInsufficient, stacklevel=2)
    ik1, ik2 = 1j * k1, 1j * k2
    pow1 = np.ones(table.N + 1, dtype=complex)
    pow2 = np.ones(table.N + 1, dtype=complex)
    for n in range(1, table.N + 1):
        pow1[n] = pow1[n - 1] * ik1
        pow2[n] = pow2[n - 1] * ik2
    acc = CompensatedSum(0.0 + 0.0j)
    for m in range(table.N + 1):
        for n1 in range(m + 1):
            acc.add(table.c[n1, m - n1] * pow1[n1] * pow2[m - n1])
    return complex(acc.value)


def continuity_constant(t: float, r: float, alpha: float, B: float) -> float:
    """Constant C(t, x) with |psi(F) - psi(G)| <= A_dist * C for data whose
    difference has envelope A_dist * exp(B |z|):

        C = (8 pi^2 / sin 2 alpha) * exp(9 r^2 / (2 t sin 2 alpha))
            * E_{1/2,1/2}(4 e B sqrt(t) / sqrt(sin 2 alpha))^2

    Raises
    ------
    OverflowError
        If the value exceeds double range (use ``log_continuity_constant``).
    """
    log_c = log_continuity_constant(t, r, alpha, B)
    if log_c > math.log(np.finfo(float).max):
        raise OverflowError(
            f"continuity constant overflows double range (log={log_c:.6g}); "
            f"use log_continuity_constant")
    return math.exp(log_c)


def log_continuity_constant(t: float, r: float, alpha: float, B: float) -> float:
    """Natural log of ``continuity_constant``; finite for all admissible inputs."""
    if t <= 0:
        raise ValueError(f"time must be positive, got t={t}")
    if B < 0:
        raise ValueError(f"growth rate must be nonnegative, got B={B}")
    s = math.sin(2.0 * alpha)
    x = 4.0 * math.e * B * math.sqrt(t) / math.sqrt(s)
    return (
        math.log(8.0 * math.pi * math.pi / s)
        + 4.5 * r * r / (t * s)
        + 2.0 * log_mittag_leffler_half(x)
    )
