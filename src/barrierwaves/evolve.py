"""Time evolution by rotated-contour quadrature of the propagator.

The solution with initial datum F is the integral of ``G(t, x, y) F(y)``
over the slit plane.  Writing y in polar coordinates and rotating the
radial variable to ``z = rho * exp(1j*alpha)`` with ``alpha`` in (0, pi/2)
leaves the value unchanged (holomorphy in z plus decay) but replaces the
Fresnel oscillation by the Gaussian factor ``exp(-rho^2 sin(2 alpha)/(4t))``,
so a fixed-order panel quadrature converges quickly:

    psi = exp(2j*alpha) * Int_0^inf Int_{-pi/2}^{3pi/2}
              G(t, x, rho*exp(1j*alpha)*(cos th, sin th))
              * F(rho*exp(1j*alpha)*(cos th, sin th)) * rho  dth drho

The propagator's reflected term is its direct term at the mirror angle
pi - th, and th -> pi - th maps the interval onto itself, so with
z = rho*exp(1j*alpha) and (D, I) = pref*exp(P)*(L(-w1), L(w1)) the kernel
pair of ``greens._kernel_grid`` (w1 = sqrt(r z) cos((phi-th)/2)/sqrt(it))

    psi = exp(2j*alpha) * Int Int [ D(z, th) F(z cos th, z sin th)
                                    + sign * I(z, th) F(-z cos th, z sin th) ]
              * rho  dth drho

which needs one ``wofz`` value per node.  Negating z1 is exact, so the
mirrored datum does not rely on the nodes being symmetric under th -> pi - th.

The radial integral is cut off at the R of ``rho_max``, taken from the
envelope of the pair on the ray (``greens.greens_reduced_bound``):

    |D(z, th)| + |I(z, th)| <= (1/(2 pi t)) * exp(r rho/(2t) - rho^2 sin(2 alpha)/(4t))

The datum F must extend to an entire function of (z1, z2) with an
exponential growth envelope |F(z)| <= A * exp(B |z|); plane waves, finite
Taylor data and finite superpositions of plane waves are provided.

Radial nodes are placed in the square-root variable u = sqrt(rho): the
kernel carries half-integer powers of rho (through sqrt(r z)), so the
integrand is analytic in u but only Holder-smooth in rho, and panel
Gauss-Legendre in rho itself stalls near the origin.

Accuracy is controlled by a fixed coarse-to-fine ladder of tensor rules
on one radial cutoff, 32x32, 48x48, 64x64, 96x80, 192x160 and 384x320
nodes (``_LADDER``), evaluated from the coarsest up and no further than
the first accepted level.  ``_walk_ladder`` is that walk for values,
operator series and coefficient tables alike, and its docstring states
the one rule by which a level is accepted.  A field value's level can
also be accepted on its estimate of its own error from its own Gauss
nodes (``_panel_error``): per block of 16x16 nodes, the Legendre
coefficients of the weighted terms summed along theta and along rho,
with a geometric decay fitted to the last of them and carried to degree
32, the first degree a 16-node Gauss rule misses (Berntsen & Espelid,
ACM TOMS 17, 1991).  On the benchmark's field range 38 % of the points
stop at 32x32 on their own estimate, 43 % at 48x48 and 18 % at 64x64.

Only the kernel depends on the evaluation point x: the cutoff, the nodes,
the tensor weights and the datum at the nodes depend on t, F and the spec
alone, apart from the cutoff's growth with r.  A batch of points (a
``field`` grid) therefore takes one cutoff, at its largest r, which
bounds the tail of every point of the batch, and builds each ladder level
it reaches once, with the datum already multiplied by the weights
(``_FresnelGrid``).  The batch walks the ladder level by level: each
level evaluates the kernel once for all the points that have not yet
been accepted below it, with their r and phi on a leading points axis, in
calls of at most one 192x160 level's nodes (``_BATCH_NODES``), contracts
each call's kernel values with the datum in one pass that also gives
the own error estimates the points need, and each point still stops at
its own level.  A node's kernel value does not depend on the batch it is
evaluated in, and every sum and matmul after it has the same shape for
each point, so a point's value and estimates are the same alone or in
any batch.  The operator series of ``field --method operator`` walks the
same levels, with the datum's derivatives of each order in place of the
datum.  ``operator.build_table`` walks them from 96x80 up on a grid whose
datum is the monomial z1^(N+1), so that the cutoff bounds its moments of
order N; it takes each level's rule and kernel from the grid and adds only
the moment weights.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

from .geometry import PHI_MAX, PHI_MIN, PolarPoint
from .greens import (_ENVELOPE_PREF, _ENVELOPE_RATE, BoundaryKind, _check_radius, _check_time,
                     _kernel_grid)

RHO_MAX_CAP = 1.0e4
_EPS = np.finfo(float).eps
#: Gauss-Legendre nodes per panel of every quadrature rule
_PANEL_ORDER = 16
#: (n_rho, n_theta) node counts of the refinement ladder, coarsest first;
#: each level refines the one below in both directions by whole panels
_LADDER = ((32, 32), (48, 48), (64, 64), (96, 80), (192, 160), (384, 320))
#: most kernel nodes of one batched ``_kernel_grid`` call: one 192x160
#: level, so a batch of points allocates no more than one point's pass there
_BATCH_NODES = 192 * 160


class TailBoundUnsatisfiable(ArithmeticError):
    """No radial cutoff below the cap meets the tail tolerance."""


class NonConvergence(ArithmeticError):
    """Mesh refinement (or regularization extrapolation) failed to settle."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Parameters of the rotated-contour quadrature.

    The node counts are not parameters: every quadrature walks the fixed
    ladder ``_LADDER`` (32x32, 48x48, 64x64, 96x80, 192x160 and 384x320
    nodes) and stops on the first level that ``_walk_ladder``'s rule
    accepts at ``tol``.

    Attributes
    ----------
    alpha : float
        Contour rotation angle, in (0, pi/2).  pi/4 maximizes the Gaussian
        decay rate sin(2*alpha)/(4t).
    tol : float
        Target absolute accuracy, finite and positive; drives the
        refinement check and the radial cutoff, which ``rho_max`` always
        derives from the tail bound.
    """

    alpha: float = 0.25 * math.pi
    tol: float = 1e-7

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5 * math.pi:
            raise ValueError(f"alpha must lie in (0, pi/2), got {self.alpha}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")


@dataclass(frozen=True)
class PlaneWave:
    """F(z) = exp(1j*(k1*z1 + k2*z2)); k may be complex."""

    k1: complex
    k2: complex


def _check_envelope(values: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless sum |values|, the envelope factor A of
    ``growth_envelope``, is finite for finite ``values``."""
    with np.errstate(over="ignore"):
        total = np.sum(np.abs(values))
    if not np.isfinite(total):
        raise ValueError(f"growth envelope A = sum |{what}| exceeds double range")


@dataclass(frozen=True, eq=False)
class TaylorField:
    """Polynomial datum F(z) = sum f[n1][n2] z1^n1 z2^n2.

    Its growth envelope follows from the coefficients: |F(z)| is at most
    sum |f| times a power of |z| of the degree, so (A, B) = (sum |f|, 0),
    with A = 1 for the zero polynomial.

    Raises
    ------
    ValueError
        If a coefficient is not finite, or sum |f| overflows.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        if not np.isfinite(arr).all():
            raise ValueError("Taylor coefficients must be finite")
        _check_envelope(arr, "Taylor coefficients")
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        n1, n2 = np.nonzero(self.coeffs)
        return int((n1 + n2).max(initial=0))


@dataclass(frozen=True, eq=False)
class DiscreteSuperposition:
    """F(z) = sum_j weights[j] * exp(1j*(k[j,0]*z1 + k[j,1]*z2)).

    Its growth rate is the largest Euclidean length of a wavevector.

    Raises
    ------
    ValueError
        If the wavevectors are not real or not of shape (len(weights), 2),
        a weight or wavevector component is not finite, or sum |weights|
        overflows.
    """

    weights: np.ndarray
    wavevectors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=complex)
        k = np.asarray(self.wavevectors)
        if np.iscomplexobj(k) and np.any(k.imag != 0):
            raise ValueError("wavevectors must be real")
        k = np.asarray(k.real, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "wavevectors", k)
        if k.ndim != 2 or k.shape[1] != 2 or k.shape[0] != w.shape[0]:
            raise ValueError("wavevectors must have shape (len(weights), 2)")
        if not (np.isfinite(w).all() and np.isfinite(k).all()):
            raise ValueError("weights and wavevectors must be finite")
        _check_envelope(w, "superposition weights")


InitialDatum = PlaneWave | TaylorField | DiscreteSuperposition


@dataclass(frozen=True)
class WaveSample:
    """One evaluated solution value with its error estimate.

    ``n_rho`` and ``n_theta`` are the node counts of the ladder level that
    was returned.  ``est_error`` is the estimate that accepted that level,
    picked as ``_walk_ladder`` states for field values and operator series.
    Every estimate is taken on the radial cutoff ``rho_max``, so
    ``est_error`` does not see the tail beyond it; that tail, at most the
    spec's ``tol`` by the choice of the cutoff, comes on top of it.
    """

    value: complex
    est_error: float
    t: float
    x: PolarPoint
    kind: BoundaryKind
    rho_max: float
    n_rho: int
    n_theta: int


def eval_datum(F: InitialDatum, z1, z2):
    """Evaluate the datum at (z1, z2); broadcasts over array arguments.

    A ``DiscreteSuperposition`` forms one complex exponent per point and
    atom, so it holds an array of the broadcast shape times the atom count
    (about 67 MB for ``psi_fresnel``'s finest level, 384x320, with 17 atoms).
    """
    if isinstance(F, PlaneWave):
        return np.exp(1j * (F.k1 * np.asarray(z1, dtype=complex) + F.k2 * np.asarray(z2, dtype=complex)))
    if isinstance(F, TaylorField):
        z1 = np.asarray(z1, dtype=complex)
        z2 = np.asarray(z2, dtype=complex)
        c = F.coeffs
        # Horner in z1 over rows, each row Horner in z2
        out = np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
        for row in c[::-1]:
            inner = np.zeros_like(out)
            for v in row[::-1]:
                inner = inner * z2 + v
            out = out * z1 + inner
        return out
    if isinstance(F, DiscreteSuperposition):
        # one exponent per (point, atom) on a trailing atom axis, then a matmul
        ik = 1j * F.wavevectors
        phase = np.multiply.outer(np.asarray(z1, dtype=complex), ik[:, 0])
        phase = phase + np.multiply.outer(np.asarray(z2, dtype=complex), ik[:, 1])
        return np.exp(phase, out=phase) @ F.weights
    raise TypeError(f"not an initial datum: {F!r}")


def growth_envelope(F: InitialDatum) -> tuple[float, float, int]:
    """(A, B, degree) with |F(z)| <= A * (stuff of degree) * exp(B |z|)."""
    if isinstance(F, PlaneWave):
        return 1.0, math.hypot(abs(F.k1), abs(F.k2)), 0
    if isinstance(F, TaylorField):
        return float(np.sum(np.abs(F.coeffs))) or 1.0, 0.0, F.degree
    if isinstance(F, DiscreteSuperposition):
        norms = np.hypot(F.wavevectors[:, 0], F.wavevectors[:, 1])
        return float(np.sum(np.abs(F.weights))), float(norms.max(initial=0.0)), 0
    raise TypeError(f"not an initial datum: {F!r}")


#: Gauss-Legendre nodes and weights of one panel, on [-1, 1]
_PANEL_NODES, _PANEL_WEIGHTS = leggauss(_PANEL_ORDER)


def _gauss_panels(a: float, b: float, n: int):
    """Composite Gauss-Legendre nodes/weights on [a, b], >= n nodes total."""
    npan = max(1, -(-n // _PANEL_ORDER))
    edges = np.linspace(a, b, npan + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[1:] + edges[:-1])
    return (mids[:, None] + half * _PANEL_NODES).ravel(), np.tile(half * _PANEL_WEIGHTS, npan)


#: Legendre analysis of one panel: row j times the panel's weighted terms
#: is h * c_j, the panel's half-width h times the j-th Legendre coefficient
#: of the integrand on it (the rule integrates f * P_j exactly for f of
#: degree below 32 - j)
_PANEL_COEFFS = (legvander(_PANEL_NODES, _PANEL_ORDER - 1) * (np.arange(_PANEL_ORDER) + 0.5)).T
#: |Q(P_32)| = 0.307, the panel rule's error on P_32, the first Legendre
#: polynomial it does not integrate exactly
_PANEL_MISS = abs(float(_PANEL_WEIGHTS @ legvander(_PANEL_NODES, 2 * _PANEL_ORDER)[:, -1]))
#: sums one panel's complex terms, viewed as (re, im) pairs of floats
_PANEL_SUM = np.tile(np.eye(2), (_PANEL_ORDER, 1))


def _panel_error(along_theta: np.ndarray, along_rho: np.ndarray) -> np.ndarray:
    """Per point, an estimate of a tensor level's error from its own terms.

    ``along_theta`` (points, n_rho, theta panels) holds the weighted terms
    summed over each panel's theta nodes, ``along_rho`` (points, rho
    panels, n_theta) summed over each panel's rho nodes.  To first order
    the tensor rule's error is the rho rule's error on the theta sums plus
    the theta rule's error on the rho sums.  So for every block of 16x16
    nodes and both kinds of sums, the largest of the Legendre coefficients
    h * |c_12| .. h * |c_15| is carried the 17 degrees from 15 to 32 at the
    decay ratio over four degrees fitted from h * |c_8| .. h * |c_11| (at
    most 1), and multiplied by the panel rule's error on P_32; the blocks'
    errors add up, and a NaN coefficient makes the estimate NaN.  Every
    matmul has the same shape for each point, whatever the batch, so a
    point's estimate has the same bits in any batch.
    """
    count, n_rho, theta_panels = along_theta.shape
    rho_panels = n_rho // _PANEL_ORDER
    # per point, both kinds of panel run with the node axis first:
    # (points, 16, 2, blocks), one matmul of fixed shape per point
    runs = np.stack([
        along_theta.reshape(count, rho_panels, _PANEL_ORDER, theta_panels).transpose(0, 2, 1, 3),
        along_rho.reshape(count, rho_panels, theta_panels, _PANEL_ORDER).transpose(0, 3, 1, 2),
    ], axis=2)
    coeffs = (_PANEL_COEFFS @ runs.reshape(count, _PANEL_ORDER, -1).view(float)).view(complex)
    coeffs = np.abs(coeffs).swapaxes(0, 1)
    last = coeffs[12:].max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.fmin(last / coeffs[8:12].max(axis=0), 1.0)
    return (_PANEL_MISS * last * ratio ** 4.25).sum(axis=-1)


def effective_growth_rate(B: float, degree: int, t: float, alpha: float) -> float:
    """Growth rate after absorbing a polynomial factor rho^degree.

    Bounds rho^d <= (rho_s/e)^d * exp(d*rho/rho_s) with the matching scale
    rho_s chosen where the Gaussian weight balances the power, so the tail
    majorant stays a pure Gaussian-times-exponential.
    """
    if degree <= 0:
        return B
    rho_s = math.sqrt(2.0 * t * degree / math.sin(2.0 * alpha))
    return B + degree / rho_s


def rho_max(spec: QuadratureSpec, t: float, r: float, B: float) -> float:
    """Radial cutoff R such that the tail of the kernel majorant is < tol.

    On the ray z = rho*exp(1j*alpha) the kernel pair obeys
    |D| + |I| <= ``greens_reduced_bound(t, r, rho)`` * exp(-a rho^2) with
    ``a = sin(2 alpha)/(4t)``.  Over the angular interval of length 2 pi,
    with |F| <= exp(B rho) (the datum's A is folded into the tolerance by
    the caller) and the polar Jacobian rho <= exp(rho), the integrand
    modulus is dominated by ``(3/(2t)) * exp(-a rho^2 + b rho)`` with
    ``b = r/(2t) + B + 1``; the Gaussian tail bound
    ``Int_R^inf <= (3/(2t)) * exp(b^2/(4a)) * exp(-a (R-mu)^2) / (2 a (R-mu))``
    with ``mu = b/(2a)`` is inverted for the smallest adequate R by
    bisection.  Every quadrature takes its cutoff from here: below this R
    the tail is no longer bounded by tol, and ``est_error``, which compares
    two rules on one R, does not see the tail.

    Raises
    ------
    TailBoundUnsatisfiable
        If no R below the cap (1e4) meets the tolerance.
    ValueError
        If t is not finite and positive, or r or B not finite and
        nonnegative.
    """
    _check_time(t)
    _check_radius(r)
    if not 0 <= B < math.inf:
        raise ValueError(f"growth rate must be finite and nonnegative, got B={B}")
    a = math.sin(2.0 * spec.alpha) / (4.0 * t)
    b = _ENVELOPE_RATE * r / t + B + 1.0
    mu = b / (2.0 * a)
    log_pref = math.log(2.0 * math.pi * _ENVELOPE_PREF / t) + b * b / (4.0 * a)

    def log_tail(R: float) -> float:
        x = R - mu
        return log_pref - a * x * x - math.log(2.0 * a * x)

    log_tol = math.log(spec.tol)
    lo = mu + 1e-9
    hi = RHO_MAX_CAP
    if mu >= RHO_MAX_CAP or log_tail(hi) >= log_tol:
        raise TailBoundUnsatisfiable(
            f"no radial cutoff below {RHO_MAX_CAP} reaches tol={spec.tol} "
            f"(growth B={B}, decay rate {a})"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if log_tail(mid) < log_tol:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-9 * max(1.0, hi):
            break
    return hi


def _polar_rule(R: float, n_rho: int, n_theta: int, alpha: float = 0.0):
    """Tensor rule of every quadrature: (rho, z, w_rho, theta, w_theta).

    Radial nodes rho on [0, R] are placed in u = sqrt(rho), angular nodes
    theta on the slit interval; ``z = rho * exp(1j*alpha)`` is the rotated
    radius.  ``w_rho`` carries d rho = 2 u du and the polar Jacobian rho,
    so Sum w_rho[i] w_theta[j] f(z[i], theta[j]) approximates
    Int Int f(z, th) rho dth drho.
    """
    u, wu = _gauss_panels(0.0, math.sqrt(R), n_rho)
    th, wth = _gauss_panels(PHI_MIN, PHI_MAX, n_theta)
    rho = u * u
    z = rho * complex(math.cos(alpha), math.sin(alpha))
    return rho, z, 2.0 * u * wu * rho, th, wth


def _gap(fine, coarse) -> float:
    """A level's difference to the level below, from their results
    (value, sum of |terms|, ...): floored at the rounding eps * sum |terms|
    of its own sum, since a difference below that says nothing; infinite
    when the difference overflows, and NaN on the first level, where
    ``coarse`` is None."""
    if coarse is None:
        return math.nan
    try:
        return max(abs(fine[0] - coarse[0]), _EPS * fine[1])
    except OverflowError:
        return math.inf


def _walk_ladder(evaluate, tol: float, count: int, start: tuple[int, int] = _LADDER[0]) -> list:
    """For each of ``count`` items, (result, estimate, (n_rho, n_theta)) of
    the first ladder level from ``start`` up that is accepted.  ``start``
    is the (n_rho, n_theta) of the level the walk begins on, so a caller
    names it by its node counts, not by its place in the ladder.

    The walk is level-major: ``evaluate(i, active, coarse, limit)`` gives
    level i's (result, estimate) of the items whose indices are listed in
    ``active``, those that have not been accepted below level i, so a
    level is evaluated once for all the items that reach it and for no
    other.  ``coarse`` holds, in the same order, each item's result on the
    level below, None on the first level, and ``limit`` is the level's
    limit: ``tol``, and 10 * tol on the top level, 384x320.

    This is the one acceptance rule of every quadrature: a level is
    accepted when its estimate is at most its limit, and a NaN estimate
    accepts nothing.  The evaluator picks the estimate.  Field values
    (``_FresnelGrid.quad_values``) take their gap to the level below
    (``_gap``) when that is within the limit, else the level's estimate of
    its own error from its own nodes (``_panel_error``, floored at the
    rounding eps * sum |terms|) when that is, else the gap; the own
    estimate is computed only where the gap misses the limit, and the
    first level, which has no gap, is judged on it alone.  The operator
    series and the coefficient tables return their gap, so their first
    level is never accepted.  When an item's top level is not accepted
    either, ``NonConvergence`` names that level's estimate, for the first
    such item.  Overflow is left to the estimates, which are then not
    finite.
    """
    first = _LADDER.index(start)
    top = len(_LADDER) - 1
    results = [None] * count
    active = list(range(count))
    coarse = [None] * count
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(first, top + 1):
            if not active:
                break
            limit = 10.0 * tol if i == top else tol
            for j, (fine, est) in zip(active, evaluate(i, active, coarse, limit)):
                results[j] = (fine, est, _LADDER[i])
            # a NaN estimate fails this test too, so no NaN leaves as converged
            active = [j for j in active if not results[j][1] <= limit]
            coarse = [results[j][0] for j in active]
    if active:
        _, est, nodes = results[active[0]]
        raise NonConvergence(f"refinement estimate {est:.3e} exceeds 10*tol={10 * tol:.3e} "
                             "(n_rho={}, n_theta={})".format(*nodes))
    return results


def _directional_derivatives(F: InitialDatum, u1, u2, N: int) -> np.ndarray:
    """d^m/ds^m F(s u) at s = 0 for m = 0..N, stacked on a leading axis.

    For a plane wave this is (1j k.u)^m; for a Taylor datum, m! times its
    homogeneous part of degree m at u.  ``u1`` and ``u2`` broadcast.

    Raises
    ------
    TypeError
        For a datum that is neither a ``PlaneWave`` nor a ``TaylorField``.
    """
    u1 = np.asarray(u1, dtype=complex)
    u2 = np.asarray(u2, dtype=complex)
    out = np.zeros((N + 1,) + np.broadcast(u1, u2).shape, dtype=complex)
    if isinstance(F, PlaneWave):
        out[0] = 1.0
        out[1:] = 1j * (F.k1 * u1 + F.k2 * u2)
        return np.cumprod(out, axis=0, out=out)
    if isinstance(F, TaylorField):
        c = F.coeffs
        fact = 1.0
        for m in range(N + 1):
            fact *= max(m, 1)
            for n1 in range(max(0, m - c.shape[1] + 1), min(m, c.shape[0] - 1) + 1):
                out[m] += c[n1, m - n1] * u1 ** n1 * u2 ** (m - n1)
            out[m] *= fact
        return out
    raise TypeError(f"no operator series for datum {F!r}")


class _FresnelGrid:
    """Rotated-contour quadrature shared by every point of one grid.

    All points integrate the same datum at the same t, so they share one
    radial cutoff, ``rho_max`` at the largest radius ``r_max`` of the grid:
    the tail majorant grows with r, so that cutoff bounds every point's
    tail.  They share each ladder level's node set too: its rotated radii,
    its angles and the datum at (+-z1, z2) times the tensor weights are
    built on first use, once, under a lock, so threads that share the grid
    read the same arrays.  A sequence of points walks the ladder together
    (``samples``, ``series_samples``): per level, one kernel call for each
    batch of at most ``_BATCH_NODES`` nodes of the points still walking,
    then, for field values, one contraction of the whole batch with the
    datum (``quad_values``) and, for the series, one product-sum per point.

    The same cutoff and nodes serve the operator series sum_{m<=N} S_m,
    S_m = sum_{n1+n2=m} c_{n1,n2} d^{n1+n2}F(0) (``series_samples``).  With
    a_m(u) = d^m/ds^m F(s u) at s = 0 and e = exp(1j alpha),

        S_m = exp(2j alpha) * sum_{rho, th} w_rho rho^m / m! * w_th
              * (D a_m(e (cos th, sin th)) + sign * I a_m(e (-cos th, sin th)))

    which is the coefficients' moment formula (``operator``) contracted
    with the datum's derivatives; the image half takes the mirrored
    direction, as the quadrature takes the mirrored datum.  Each level
    keeps the radial factors w_rho rho^m / m! and both halves' angular
    factors w_th a_m, m = 0..N, once per order N.  A plane wave's truncated
    series is bounded by exp(|k| |z|), and a Taylor datum's series of its
    degree is the datum, so the quadrature's cutoff bounds it as well.

    Raises
    ------
    TailBoundUnsatisfiable
        Propagated from the radial cutoff search, or if spec.tol divided by
        the datum's envelope factor A, the tail tolerance, underflows to 0.
    ValueError
        If t is not finite and positive, or the datum's growth rate is not
        finite.
    """

    def __init__(self, t: float, F: InitialDatum, spec: QuadratureSpec, r_max: float):
        _check_time(t)
        A, B, degree = growth_envelope(F)
        B_eff = effective_growth_rate(B, degree, t, spec.alpha)
        tail_tol = spec.tol / max(A, 1.0)
        if tail_tol == 0.0:
            raise TailBoundUnsatisfiable(
                f"tail tolerance tol/A underflows to 0 for tol={spec.tol} and the "
                f"datum's envelope factor A={A:.3e}")
        self.t, self.F, self.spec, self.r_max = t, F, spec, r_max
        self.rho_max = rho_max(replace(spec, tol=tail_tol), t, r_max, B_eff)
        self._phase = complex(math.cos(2.0 * spec.alpha), math.sin(2.0 * spec.alpha))
        self._levels = {}
        self._lock = threading.RLock()

    def _cached(self, key, build):
        """The level stored under ``key``, built by ``build()`` on first use."""
        level = self._levels.get(key)
        if level is None:
            with self._lock:
                level = self._levels.get(key)
                if level is None:
                    level = self._levels[key] = build()
        return level

    def rule(self, i: int):
        """``_polar_rule`` of ladder level ``i`` on the grid's cutoff."""
        return self._cached(("rule", i), lambda: _polar_rule(
            self.rho_max, *_LADDER[i], self.spec.alpha))

    def level(self, i: int):
        """The datum at (+-z1, z2) times the tensor weights on ladder level ``i``."""
        return self._cached(i, lambda: self._build(i))

    def _build(self, i: int):
        _, z, w_rho, th, wth = self.rule(i)
        z, th = z[:, None], th[None, :]
        datum = eval_datum(self.F, np.multiply.outer((1.0, -1.0), z * np.cos(th)), z * np.sin(th))
        datum *= w_rho[:, None] * wth[None, :]
        datum.setflags(write=False)
        return datum

    def series_level(self, i: int, N: int):
        """(radial powers, angular factors) of ladder level ``i`` for the
        operator series to order ``N``."""
        return self._cached((i, N), lambda: self._build_series(i, N))

    def _build_series(self, i: int, N: int):
        rho, _, w_rho, th, wth = self.rule(i)
        # w rho^(m+1) / m!: w_rho already carries the first power
        radial = np.empty((N + 1, rho.size))
        radial[0] = w_rho
        radial[1:] = rho / np.arange(1, N + 1)[:, None]
        np.cumprod(radial, axis=0, out=radial)
        # the image half sits at the mirror point (-z1, z2)
        rot = complex(math.cos(self.spec.alpha), math.sin(self.spec.alpha))
        u1 = np.multiply.outer((rot, -rot), np.cos(th))
        angular = _directional_derivatives(self.F, u1, rot * np.sin(th), N).transpose(1, 0, 2) * wth
        radial.setflags(write=False)
        angular.setflags(write=False)
        return radial, angular

    def _kernel_batches(self, points: Sequence[PolarPoint], i: int):
        """The kernel pairs of ``points`` on ladder level ``i``, one array of
        shape (2, points, n_rho, n_theta) per batch of at most
        ``_BATCH_NODES`` nodes, from one ``_kernel_grid`` call each, with
        the radii and angles on a leading points axis."""
        _, z, _, th, _ = self.rule(i)
        size = max(1, _BATCH_NODES // (z.size * th.size))
        for lo in range(0, len(points), size):
            batch = points[lo:lo + size]
            r = np.array([p.r for p in batch])[:, None, None]
            phi = np.array([p.phi for p in batch])[:, None, None]
            yield _kernel_grid(self.t, r, phi, z[:, None], th[None, :])

    def quad_values(self, kind: BoundaryKind, points: Sequence[PolarPoint], i: int,
                    coarse: Sequence[tuple | None] | None = None,
                    limit: float = math.inf) -> list[tuple[complex, float, float]]:
        """One tensor quadrature pass on ladder level ``i`` at each of
        ``points``: [(value, sum of |terms|, estimate of the level's error)].

        The sum is of w * (D F(z1, z2) + sign * I F(-z1, z2)) over the
        level's nodes, (D, I) the kernel pair of ``greens._kernel_grid``.
        Each batch of points is contracted with the datum in one pass.
        ``coarse`` may give each point's result on the level below, or
        None; the estimate is the one ``_walk_ladder`` describes for field
        values against ``limit``, and the own estimate comes from the same
        terms.  With the defaults, no results below and no limit, it is
        the level's own estimate.
        """
        datum = self.level(i)
        n_rho, n_theta = _LADDER[i]
        out = []
        for terms in self._kernel_batches(points, i):
            terms *= datum[:, None]
            count, offset = terms.shape[1], len(out)
            # each half summed over every panel's theta nodes, by a real
            # matmul whose products by 1 and 0 are exact
            direct, image = ((half.view(float).reshape(count, -1, 2 * _PANEL_ORDER) @ _PANEL_SUM)
                             .view(complex) for half in terms)
            along_theta = (direct + kind.sign * image).reshape(count, n_rho, -1)
            values = (self._phase * along_theta.reshape(count, -1).sum(axis=-1)).tolist()
            moduli = np.abs(terms).sum(axis=(2, 3)).sum(axis=0)
            errors = np.array([_gap(fine, None if coarse is None else coarse[offset + k])
                               for k, fine in enumerate(zip(values, moduli))])
            # a NaN gap, as on the first level, misses the limit too
            own = np.flatnonzero(~(errors <= limit))
            if own.size:
                # each half summed over every panel's rho nodes
                along_rho = terms.reshape(2, count, -1, _PANEL_ORDER, n_theta).sum(axis=-2)
                along_rho = along_rho[0] + kind.sign * along_rho[1]
                est = np.maximum(_panel_error(along_theta[own], along_rho[own]), _EPS * moduli[own])
                errors[own] = np.where(est <= limit, est, errors[own])
            out.extend(zip(values, moduli.tolist(), errors.tolist()))
        return out

    def series_values(self, kind: BoundaryKind, points: Sequence[PolarPoint],
                      orders: Sequence[int], i: int) -> list:
        """The operator series to order ``orders[j]`` at ``points[j]`` on
        ladder level ``i``: [(value, sum of |terms|, order sums S_0..S_N)].

        Per point, one radial matmul for both halves of its kernel pair and
        one angular contraction give every S_m; the terms are the products
        of the angular contraction.
        """
        out = []
        kernels = (G for batch in self._kernel_batches(points, i) for G in batch.swapaxes(0, 1))
        for G, N in zip(kernels, orders):
            radial, angular = self.series_level(i, N)
            # a real matrix times the complex grid, as (re, im) pairs of columns
            terms = (radial @ G.view(float)).view(complex)
            terms *= angular
            direct, image = terms.sum(axis=-1)
            sums = self._phase * (direct + kind.sign * image)
            out.append((complex(sums.sum()), float(np.abs(terms).sum()), sums))
        return out

    def samples(self, kind: BoundaryKind, points: Sequence[PolarPoint]) -> list[WaveSample]:
        """Walk the ladder at each of ``points``, whose radii are at most
        ``r_max``, up to its first accepted level; a level is built only
        when some point reaches it."""
        points = list(points)
        walked = self._walk(kind, points, lambda i, active, coarse, limit: [
            (fine, fine[2]) for fine in self.quad_values(
                kind, [points[j] for j in active], i, coarse, limit)])
        return [sample for sample, _ in walked]

    def series_samples(self, kind: BoundaryKind, points: Sequence[PolarPoint],
                       orders: Sequence[int]) -> list[tuple[WaveSample, np.ndarray]]:
        """The operator series to order ``orders[j]`` at ``points[j]``,
        judged on the ladder by its gap: per point its sample, and its
        order sums S_0..S_N on the returned level.  The datum must be a
        ``PlaneWave`` or a ``TaylorField``, and a Taylor datum's degree at
        most each order."""
        points, orders = list(points), list(orders)
        walked = self._walk(kind, points, lambda i, active, coarse, limit: [
            (fine, _gap(fine, below)) for fine, below in zip(self.series_values(
                kind, [points[j] for j in active], [orders[j] for j in active], i), coarse)])
        return [(sample, fine[2]) for sample, fine in walked]

    def _walk(self, kind: BoundaryKind, points: list[PolarPoint], evaluate):
        """Per point, the sample of its first accepted level and that
        level's (value, sum of |terms|, ...) from ``evaluate``
        (``_walk_ladder``)."""
        walked = _walk_ladder(evaluate, self.spec.tol, len(points))
        return [(WaveSample(value=fine[0], est_error=est, t=self.t, x=x, kind=kind,
                            rho_max=self.rho_max, n_rho=n_rho, n_theta=n_theta), fine)
                for x, (fine, est, (n_rho, n_theta)) in zip(points, walked)]


def psi_fresnel(kind: BoundaryKind, t: float, x: PolarPoint | Sequence[PolarPoint],
                F: InitialDatum, spec: QuadratureSpec = QuadratureSpec()
                ) -> WaveSample | list[WaveSample]:
    """Solution value at (t, x) by rotated-contour quadrature.

    ``x`` is one point, which gives one ``WaveSample``, or a sequence of
    points, which gives a list of them in the same order.  The points of a
    sequence share one radial cutoff, the one for the largest of their
    radii (it bounds the tail at every smaller radius too), and each
    ladder level's nodes and datum values are computed once for all of
    them; ``WaveSample.rho_max`` reports that shared cutoff.

    At each point the tensor rules of the fixed node ladder (32x32, 48x48,
    64x64, 96x80, 192x160 and 384x320 nodes) are evaluated from the
    coarsest up, all on one radial cutoff, and the first level accepted by
    ``_walk_ladder``'s rule at ``spec.tol`` is returned, with the estimate
    that accepted it as ``est_error``.  Each point stops at its own level,
    and a level no point reaches is never built.  ``est_error`` is taken
    on one cutoff; the tail beyond it, at most ``spec.tol``, comes on top
    of it.

    Raises
    ------
    NonConvergence
        If some point's finest level is not accepted (the message names
        its difference to the level below).
    TailBoundUnsatisfiable
        Propagated from the radial cutoff search.
    ValueError
        If t is not finite and positive, or the datum's growth rate is not
        finite.
    """
    single = isinstance(x, PolarPoint)
    points = [x] if single else list(x)
    grid = _FresnelGrid(t, F, spec, max((p.r for p in points), default=0.0))
    samples = grid.samples(kind, points)
    return samples[0] if single else samples


@dataclass(frozen=True)
class RegularizedResult:
    """Output of the Gaussian-regularized reference evaluation."""

    value: complex
    eps_values: tuple
    extrap_delta: float


def psi_regularized_oracle(kind: BoundaryKind, t: float, x: PolarPoint,
                           F: InitialDatum) -> RegularizedResult:
    """Reference solution value by Gaussian regularization on real coordinates.

    Computes ``Int exp(-eps |y|^2) G(t,x,y) F(y) dy`` for eps = 0.1, 0.05,
    0.025 and 0.0125 over the *unrotated* (real) coordinates, each on a
    1024 x 256 polar rule, then removes the regularization by polynomial
    extrapolation to eps = 0.  Slow and low-accuracy (about 1e-2 relative)
    but entirely independent of the contour rotation, so it cross-checks
    ``psi_fresnel``.

    The regularization bias scales with eps * 4t, so the eps ladder must
    descend well below 1/(4t); this ratio-2 geometric sequence reaches
    1/80, which extrapolates to a few 1e-4 at t = 1.

    The datum must stay bounded on real points (real wavevectors or
    polynomial data).

    Raises
    ------
    NonConvergence
        If the extrapolation does not stabilize.
    """
    eps_arr = np.array((0.1, 0.05, 0.025, 0.0125))
    A, B, degree = growth_envelope(F)
    values = []
    for eps in eps_arr:
        # |G F| <= C (1+rho)^d on real points; Gaussian tail below 1e-4 * tol-scale
        C = max(A, 1.0) / (math.pi * t)
        R = math.sqrt(max(math.log(C / (2.0 * eps * 1e-6)), 1.0) / eps)
        R = R * (1.0 + 0.1 * degree)
        rho, _, w_rho, th, wth = _polar_rule(R, 1024, 256)
        G = _kernel_grid(t, x.r, x.phi, rho[:, None], th[None, :])
        y1 = rho[:, None] * np.cos(th)[None, :]
        y2 = rho[:, None] * np.sin(th)[None, :]
        damp = np.exp(-eps * rho * rho)
        # the weighted sum of D F(y1, y2) + sign * I F(-y1, y2), (D, I) = G
        terms = eval_datum(F, np.multiply.outer((1.0, -1.0), y1), y2)
        terms *= G
        terms *= (w_rho * damp)[:, None] * wth[None, :]
        direct, image = terms.sum(axis=(1, 2))
        values.append(complex(direct + kind.sign * image))
    # Lagrange extrapolation to eps = 0, full set and leave-first-out
    def lagrange_at_zero(xs, ys):
        total = 0.0 + 0.0j
        for i, (xi, yi) in enumerate(zip(xs, ys)):
            li = 1.0
            for j, xj in enumerate(xs):
                if j != i:
                    li *= xj / (xj - xi)
            total += yi * li
        return total

    full = lagrange_at_zero(eps_arr, values)
    shorter = lagrange_at_zero(eps_arr[1:], values[1:])
    delta = abs(full - shorter)
    if delta > max(0.02 * abs(full), 2e-3):
        raise NonConvergence(
            f"regularization extrapolation unstable: delta={delta:.3e} at value {full:.3e}"
        )
    return RegularizedResult(value=full, eps_values=tuple(values), extrap_delta=delta)
