"""Infinite-order differential operator representation of the evolution.

Expanding the datum in its Taylor series under the rotated-contour
integral turns the solution into

    psi(t, x) = sum_{n1,n2} c_{n1,n2}(t, x) d^{n1+n2} F / dz1^n1 dz2^n2 (0)

with coefficients that are angular/radial moments of the propagator:

    c_{n1,n2} = exp((n1+n2+2) * 1j * alpha) / (n1! n2!)
                * Int Int G(t, x, rho*exp(1j*alpha)*(cos th, sin th))
                          * cos(th)^n1 sin(th)^n2 rho^(n1+n2+1)  dth drho

G is read from the kernel pair pref*exp(P)*(L(-w1), L(w1)) of
``greens._kernel_grid``: its direct half at th, and its image half, which
belongs to the mirror point (-cos th, sin th), with a factor (-1)^n1 and
the boundary sign.

Each coefficient obeys the certified bound ``coeff_bound``; a datum with
derivative growth A*(e*B)^(n1+n2) then gives a convergent series whose
total is controlled by ``log_continuity_constant``.  ``build_table``
samples the propagator through one ``evolve._FresnelGrid``, whose datum is
the monomial z1^(N+1): the radial cutoff, each ladder level's nodes and
weights and the one kernel call per level are the quadrature's own, and
the table adds only the moment weights rho^(n1+n2+1) and
cos(th)^n1 sin(th)^n2.  ``field --method operator`` tabulates nothing:
``evolve._FresnelGrid.series_samples`` contracts the same moments with the
datum's derivatives order by order, on the quadrature's own nodes.

The table order is capped at N = 60 (``N_CAP``).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .complexfn import log_mittag_leffler_half
from .geometry import PolarPoint
# _kernel_grid is unused here: a wrap target of bench/tracing.py, held by tests/test_bench_contract.py
from .greens import BoundaryKind, _check_radius, _check_time, _kernel_grid  # noqa: F401
from .evolve import (
    NonConvergence,
    QuadratureSpec,
    TailBoundUnsatisfiable,
    TaylorField,
    _FresnelGrid,
    _walk_ladder,
)
from .summation import CompensatedSum

N_CAP = 60


class TruncationInsufficient(UserWarning):
    """No certified truncation order exists, so the table cap N = 60 is used.

    ``truncation_order`` raises ``TailBoundUnsatisfiable`` in that case;
    callers that fall back to the cap, as ``supershift_experiment`` does,
    warn with this category that the result relies on empirical
    coefficient decay.
    """


def _log_bound_factors(t: float, r: float, alpha: float) -> tuple[float, float]:
    """(log of pi^2/(2t) exp(9 r^2/(2 t sin 2alpha)), log of sqrt(16 t/sin 2alpha)).

    The two order-independent factors of ``coeff_bound``.

    Raises
    ------
    ValueError
        If t is not finite and positive, r not finite and nonnegative, or
        alpha not in (0, pi/2).
    """
    _check_time(t)
    _check_radius(r)
    if not 0.0 < alpha < 0.5 * math.pi:
        raise ValueError(f"alpha must lie in (0, pi/2), got {alpha}")
    s = math.sin(2.0 * alpha)
    base = (
        math.log(math.pi * math.pi / (2.0 * t))
        + 4.5 * r * r / (t * s)
    )
    return base, 0.5 * math.log(16.0 * t / s)


def coeff_bound(t: float, r: float, alpha: float, n1, n2):
    """Certified bound on |c_{n1,n2}(t, x)|; broadcasts over arrays of orders.

    pi^2 / (2 t Gamma((n1+1)/2) Gamma((n2+1)/2))
        * (16 t / sin(2 alpha))^((n1+n2+2)/2) * exp(9 r^2 / (2 t sin(2 alpha)))

    Evaluated in log space; a bound beyond double range is inf.

    Raises
    ------
    ValueError
        If t is not finite and positive, r not finite and nonnegative,
        alpha not in (0, pi/2), or an order is negative.
    """
    base, log_scale = _log_bound_factors(t, r, alpha)
    n1 = np.asarray(n1)
    n2 = np.asarray(n2)
    if np.any(n1 < 0) or np.any(n2 < 0):
        raise ValueError("orders must be nonnegative")
    log_b = (base + (n1 + n2 + 2) * log_scale
             - gammaln((n1 + 1) / 2.0) - gammaln((n2 + 1) / 2.0))
    with np.errstate(over="ignore"):
        bound = np.exp(log_b)
    return float(bound) if bound.ndim == 0 else bound


_log_S_memo = np.empty(0)
_log_S_lock = threading.Lock()


def _log_gamma_pair_sums(m_max: int) -> np.ndarray:
    """log of S_m = sum_{n1+n2=m} 1 / (Gamma((n1+1)/2) Gamma((n2+1)/2)), m <= m_max.

    S_m depends on m alone, so every majorant reads one shared memo.  The
    memo grows to the next power of two when asked past its end; each
    entry is computed once, with the same arithmetic whatever the size.
    """
    global _log_S_memo
    with _log_S_lock:
        memo = _log_S_memo
        if memo.size <= m_max:
            size = 1 << m_max.bit_length()
            half_gammaln = gammaln((np.arange(size) + 1) / 2.0)
            neg = -half_gammaln
            grown = np.empty(size)
            grown[:memo.size] = memo
            for m in range(memo.size, size):
                logs = neg[:m + 1] - half_gammaln[m::-1]
                peak = logs.max()
                grown[m] = peak + math.log(np.sum(np.exp(logs - peak)))
            grown.setflags(write=False)
            _log_S_memo = memo = grown
    return memo[:m_max + 1]


def _log_majorant_terms(t: float, r: float, alpha: float, log_weight: float,
                        m_max: int | None = None):
    """log of T_m = sum_{n1+n2=m} coeff_bound * exp(m * log_weight), m = 0..m_max.

    ``log_weight`` is the log of the per-order derivative weight w, e.g.
    log(e*B) for a datum envelope.  The terms peak near m = 4 x^2,
    x = w sqrt(16 t / sin 2alpha); the default ``m_max`` = 4 x^2 + 40 x
    + 200 ends far past the peak, and past N_CAP.
    """
    base, log_scale = _log_bound_factors(t, r, alpha)
    if m_max is None:
        x = math.exp(log_scale + log_weight)
        m_max = int(4.0 * x * x + 40.0 * x + 200)
    log_S = _log_gamma_pair_sums(m_max)
    m = np.arange(m_max + 1)
    mw = m * log_weight
    mw[0] = 0.0
    return base + (m + 2) * log_scale + mw + log_S


def truncation_order(t: float, r: float, alpha: float, B: float, tol: float) -> int:
    """Smallest N whose certified series tail is below tol.

    The tail sums ``coeff_bound(n1,n2) * (e*B)^(n1+n2)`` over n1+n2 > N;
    this is the derivative-bound-weighted majorant of everything the
    operator discards, summed in log space over the default length of
    ``_log_majorant_terms``: one ``logaddexp`` accumulation from the far
    end gives every tail at once.  Every tail with N <= 60 holds the term
    of order 61, and a log-sum is never below its largest term, so an
    order-61 term at or above tol rejects the cap from the first 62 terms.

    Raises
    ------
    TailBoundUnsatisfiable
        If no N <= 60 suffices.  The majorant peaks near
        m = 4 * (4 e B sqrt(t / sin 2 alpha))^2, so moderate growth rates
        B already push the certified order beyond the cap even when the
        *actual* coefficient decay is long since sufficient; callers doing
        exploratory work catch this and fall back to the cap.
    ValueError
        If t or tol is not finite and positive, or r or B not finite and
        nonnegative.
    """
    _check_time(t)
    _check_radius(r)
    if not 0 <= B < math.inf:
        raise ValueError(f"growth rate must be finite and nonnegative, got B={B}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if B == 0.0:
        return 0
    log_weight = math.log(math.e * B)
    log_tol = math.log(tol)
    # the memo makes these entries bitwise equal to those of the long array
    if _log_majorant_terms(t, r, alpha, log_weight, N_CAP + 1)[-1] < log_tol:
        log_terms = _log_majorant_terms(t, r, alpha, log_weight)
        # suffix[m] = log of the sum of log_terms[m:]; the tail of N is suffix[N + 1]
        suffix = np.logaddexp.accumulate(log_terms[::-1])[::-1]
        below = np.flatnonzero(suffix[1:N_CAP + 2] < log_tol)
        if below.size:
            return int(below[0])
    raise TailBoundUnsatisfiable(
        f"certified truncation order exceeds the cap {N_CAP} "
        f"(B={B}, t={t}, alpha={alpha}, tol={tol})"
    )


def _bound_table(t: float, r: float, alpha: float, N: int) -> np.ndarray:
    """``coeff_bound`` of every order n1 + n2 <= N at radius r, as an
    (N + 1) x (N + 1) array with zeros past the order.

    Raises
    ------
    NonConvergence
        If a bound exceeds double range: for small t the factor
        exp(9 r^2 / (2 t sin 2alpha)) leaves it, whatever N.  Callers check
        this before any kernel evaluation.
    ValueError
        If t is not finite and positive.
    """
    n1g, n2g = np.meshgrid(np.arange(N + 1), np.arange(N + 1), indexing="ij")
    valid = n1g + n2g <= N
    bound = np.zeros((N + 1, N + 1))
    bound[valid] = coeff_bound(t, r, alpha, n1g[valid], n2g[valid])
    if np.isinf(bound).any():
        raise NonConvergence(
            f"coefficient bounds at t={t}, r={r}, N={N} exceed double range")
    return bound


@dataclass(frozen=True, eq=False)
class CoeffTable:
    """Tabulated operator coefficients c_{n1,n2}, n1+n2 <= N, at one (t, x).

    ``c[n1, n2]`` and ``bound[n1, n2]`` are valid for n1+n2 <= N (other
    entries are zero).  ``n_rho`` and ``n_theta`` are the node counts of
    the ladder level the table was taken on, and ``est_error`` is its
    largest entrywise difference to the level below.  ``build_table``
    returns only usable tables: finite entries and bounds, on a level
    that ``evolve._walk_ladder``'s rule accepts at spec.tol.
    Whether N certifies a given datum is the caller's choice of N, through
    ``truncation_order``.
    """

    kind: BoundaryKind
    t: float
    x: PolarPoint
    N: int
    c: np.ndarray
    bound: np.ndarray
    est_error: float
    spec: QuadratureSpec
    n_rho: int
    n_theta: int

    def entries(self):
        """(n1, n2, c) in graded lexicographic order."""
        for m in range(self.N + 1):
            for n1 in range(m + 1):
                yield n1, m - n1, self.c[n1, m - n1]


def build_table(kind: BoundaryKind, t: float, x: PolarPoint, N: int,
                spec: QuadratureSpec = QuadratureSpec()) -> CoeffTable:
    """Compute all coefficients with n1+n2 <= N from one propagator grid.

    The propagator is sampled through an ``evolve._FresnelGrid`` at x whose
    datum is the monomial z1^(N+1), with envelope (A, B, degree) =
    (1, 0, N + 1): the grid's radial cutoff then accounts for the
    rho^(N+1) weight of the highest moments.  Each ladder level takes the
    grid's rule and one kernel evaluation of the grid's, and every
    coefficient is an angular/radial moment of that level, so no entry
    sees a different kernel evaluation.  The table walks
    ``psi_fresnel``'s node ladder from 96x80 up, judged by
    ``evolve._walk_ladder``'s rule at spec.tol on its largest entrywise
    difference to the level below, which is its ``est_error``.

    A returned table is usable as it stands: its entries and bounds are
    finite and its ``est_error`` meets that rule.

    Raises
    ------
    ValueError
        If N exceeds the table cap (60) or is negative, or t is not finite
        and positive.
    NonConvergence
        If a coefficient bound exceeds double range (for small t this is
        where exp(9 r^2 / (2 t sin 2alpha)) leaves it; checked before any
        kernel evaluation), an entry is not finite, or the top level,
        384x320, is not accepted.
    """
    if not 0 <= N <= N_CAP:
        raise ValueError(f"table order must lie in [0, {N_CAP}], got {N}")
    bound = _bound_table(t, x.r, spec.alpha, N)
    n1g, n2g = np.meshgrid(np.arange(N + 1), np.arange(N + 1), indexing="ij")
    mg = n1g + n2g
    valid = mg <= N
    # the datum z1^(N+1) has the envelope (1, 0, N + 1), so the grid's
    # cutoff carries the rho^(N+1) growth of the highest moments
    grid = _FresnelGrid(t, TaylorField([[0.0]] * (N + 1) + [[1.0]]), spec, x.r)

    def raw_moments(i):
        rho, _, w_rho, th, wth = grid.rule(i)
        # the one batch of the one point x
        G = next(grid._kernel_batches([x], i))[:, 0]
        # radial weights w * rho^(m+1) (w_rho carries the first power), free
        # of the series' 1/m!: the factorials scale the finished moments
        radial = np.empty((N + 1, rho.size))
        radial[0] = w_rho
        radial[1:] = rho
        np.cumprod(radial, axis=0, out=radial)
        T_direct, T_image = radial @ G  # each (N+1, n_theta)
        # the image half sits at the mirror point (-z1, z2): factor (-1)^n1
        T = (T_direct + kind.sign * T_image, T_direct - kind.sign * T_image)
        # cos(th)^n and sin(th)^n, n = 0..N
        pows = np.ones((2, N + 1, th.size))
        pows[:, 1:] = np.array((np.cos(th), np.sin(th)))[:, None]
        cos_pows, sin_pows = np.cumprod(pows, axis=1)
        raw = np.zeros((N + 1, N + 1), dtype=complex)
        for n1 in range(N + 1):
            u1 = cos_pows[n1] * wth
            count = N - n1 + 1
            raw[n1, :count] = np.einsum("j,nj,nj->n", u1, sin_pows[:count], T[n1 % 2][n1:n1 + count])
        return raw

    inv_fact = np.ones(N + 1)
    for n in range(1, N + 1):
        inv_fact[n] = inv_fact[n - 1] / n
    phase = np.exp(1j * spec.alpha * (mg + 2))
    scale = phase * inv_fact[n1g] * inv_fact[n2g]

    def entries(raw):
        return np.where(valid, scale * raw, 0.0)

    def evaluate(i, _, coarse, limit):
        # the walk's one item: its gap, NaN on the first level
        raw = raw_moments(i)
        if coarse[0] is None:
            return [(raw, math.nan)]
        est = float(np.abs(entries(raw - coarse[0])).max())
        if not np.isfinite(entries(raw)).all():
            raise NonConvergence(
                f"coefficient table at t={t}, r={x.r}, N={N} is not finite "
                f"(refinement estimate {est:.3e})")
        return [(raw, est)]

    # every level costs a full moment pass, so tables start on 96x80
    [(raw, est_error, (n_rho, n_theta))] = _walk_ladder(evaluate, spec.tol, 1, start=(96, 80))
    c = entries(raw)
    c.setflags(write=False)
    bound.setflags(write=False)
    return CoeffTable(kind=kind, t=t, x=x, N=N, c=c, bound=bound,
                      est_error=est_error, spec=spec, n_rho=n_rho, n_theta=n_theta)


def _graded_sum(order_terms, N: int, shape=()):
    """sum over m = 0..N of order_terms(m).sum(axis=-1), compensated across orders.

    ``order_terms(m)`` holds the terms with n1 + n2 = m along its last axis.
    Each order is reduced in extended precision (``np.clongdouble``), so
    its partial sum is about as accurate as a compensated sum of its
    terms; the N + 1 partial sums, of the given shape, go through one
    ``CompensatedSum`` and are rounded to double once at the end.  Where
    the platform's long double is plain double, each order carries the
    rounding of numpy's pairwise sum instead.
    """
    acc = CompensatedSum(np.zeros(shape, dtype=np.clongdouble))
    for m in range(N + 1):
        acc.add(np.sum(order_terms(m), axis=-1, dtype=np.clongdouble))
    return acc.value.astype(complex)


def apply_taylor(table: CoeffTable, F: TaylorField) -> complex:
    """Apply the tabulated operator to polynomial data.

    sum c[n1, n2] * n1! * n2! * f[n1, n2], summed order by order
    (n1 + n2 = m) and compensated across orders.  The polynomial must fit
    inside the table order.

    Raises
    ------
    ValueError
        If the datum degree exceeds the table order.
    """
    N = table.N
    if F.degree > N:
        raise ValueError(f"datum degree {F.degree} exceeds table order {N}")
    fact = np.ones(N + 1)
    for n in range(1, N + 1):
        fact[n] = fact[n - 1] * n
    # rows or columns past the table order hold only zeros (degree <= N)
    f = F.coeffs[:N + 1, :N + 1]
    rows, cols = f.shape
    terms = np.zeros((N + 1, N + 1), dtype=complex)
    terms[:rows, :cols] = table.c[:rows, :cols] * fact[:rows, None] * fact[None, :cols] * f
    # terms[n1, m - n1] for n1 = 0..m: an anti-diagonal of the flipped table
    flipped = terms[:, ::-1]
    return complex(_graded_sum(lambda m: np.diagonal(flipped, offset=N - m), N))


def apply_plane_wave(table: CoeffTable, k):
    """Apply the tabulated operator to exp(1j*(k1 z1 + k2 z2)).

    ``k`` is one wavevector of shape (2,), which gives a complex number, or
    a batch of shape (K, 2), which gives a (K,) array; both take the same
    path, so each row of a batch equals the single-wavevector result bit
    for bit.  The mixed derivatives at 0 are (1j k1)^n1 (1j k2)^n2, so the
    result is the bivariate power series of the solution in k truncated at
    the table order; it is an entire function of both components.  The
    terms of each order n1 + n2 = m are formed and summed for all
    wavevectors at once, in extended precision, and the N + 1 order sums
    are compensated.

    The table order is the caller's choice, and with it the certification:
    ``truncation_order`` gives the N whose certified tail is below a
    tolerance for a growth rate, and this function sums whatever table it
    is given, without a tail check of its own.

    Raises
    ------
    ValueError
        If ``k`` is not of shape (2,) or (K, 2), or a component is not
        finite.
    """
    k = np.asarray(k, dtype=complex)
    if k.shape != (2,) and (k.ndim != 2 or k.shape[1] != 2):
        raise ValueError(f"wavevectors must have shape (2,) or (K, 2), got {k.shape}")
    if not np.isfinite(k).all():
        raise ValueError("wavevectors must be finite")
    batch = k.reshape(-1, 2)
    N = table.N
    ik = 1j * batch
    pow1 = np.ones((batch.shape[0], N + 1), dtype=complex)
    pow2 = np.ones((batch.shape[0], N + 1), dtype=complex)
    for n in range(1, N + 1):
        pow1[:, n] = pow1[:, n - 1] * ik[:, 0]
        pow2[:, n] = pow2[:, n - 1] * ik[:, 1]
    # c[n1, m - n1] for n1 = 0..m: an anti-diagonal of the flipped table
    flipped = table.c[:, ::-1]

    def order_terms(m):
        return np.diagonal(flipped, offset=N - m) * pow1[:, :m + 1] * pow2[:, m::-1]

    value = _graded_sum(order_terms, N, batch.shape[:1])
    return complex(value[0]) if k.ndim == 1 else value


def log_continuity_constant(t: float, r: float, alpha: float, B: float) -> float:
    """Natural log of the constant C(t, x) with |psi(F) - psi(G)| <= A_dist * C
    for data whose difference has envelope A_dist * exp(B |z|):

        C = (8 pi^2 / sin 2 alpha) * exp(9 r^2 / (2 t sin 2 alpha))
            * E_{1/2,1/2}(4 e B sqrt(t) / sqrt(sin 2 alpha))^2

    C itself overflows doubles already at moderate B; its log is finite for
    all admissible inputs.

    Raises
    ------
    ValueError
        If t is not finite and positive, r or B not finite and nonnegative,
        or alpha not in (0, pi/2).
    """
    # (8 pi^2 / sin 2alpha) exp(9 r^2 / (2 t sin 2alpha)) = exp(base) * scale^2
    base, log_scale = _log_bound_factors(t, r, alpha)
    if not 0 <= B < math.inf:
        raise ValueError(f"growth rate must be finite and nonnegative, got B={B}")
    x = math.exp(log_scale) * math.e * B
    return base + 2.0 * log_scale + 2.0 * log_mittag_leffler_half(x)
