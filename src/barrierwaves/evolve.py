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
on one radial cutoff, 32x32, 48x48, 96x80, 192x160 and 384x320 nodes
(``_LADDER``), evaluated from the coarsest up; the first level that agrees
with the level below to within ``tol`` is returned with that difference as
its error estimate, floored at the rounding error eps * sum |terms| of the
level's own sum.  Each level is the error estimate of the next, so no node
is evaluated beyond the first converged level.  ``_walk_ladder`` is that
walk for values and coefficient tables alike.

Only the kernel depends on the evaluation point x: the cutoff, the nodes,
the tensor weights and the datum at the nodes depend on t, F and the spec
alone, apart from the cutoff's growth with r.  A batch of points (a
``field`` grid) therefore takes one cutoff, at its largest r, which
bounds the tail of every point of the batch, and builds each ladder level
it reaches once, with the datum already multiplied by the weights
(``_FresnelGrid``).  A point then costs one kernel grid and one
product-sum per level, and still stops at its own level.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import PHI_MAX, PHI_MIN, PolarPoint
from .greens import _ENVELOPE_PREF, _ENVELOPE_RATE, BoundaryKind, _check_time, _kernel_grid

RHO_MAX_CAP = 1.0e4
_EPS = np.finfo(float).eps
#: Gauss-Legendre nodes per panel of every quadrature rule
_PANEL_ORDER = 16
#: (n_rho, n_theta) node counts of the refinement ladder, coarsest first;
#: each level refines the one below in both directions
_LADDER = ((32, 32), (48, 48), (96, 80), (192, 160), (384, 320))


class TailBoundUnsatisfiable(ArithmeticError):
    """No radial cutoff below the cap meets the tail tolerance."""


class NonConvergence(ArithmeticError):
    """Mesh refinement (or regularization extrapolation) failed to settle."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Parameters of the rotated-contour quadrature.

    The node counts are not parameters: every quadrature walks the fixed
    ladder ``_LADDER`` (32x32 up to 384x320 nodes) and stops where its
    refinement estimate meets ``tol``.

    Attributes
    ----------
    alpha : float
        Contour rotation angle, in (0, pi/2).  pi/4 maximizes the Gaussian
        decay rate sin(2*alpha)/(4t).
    tol : float
        Target absolute accuracy; drives the refinement check and the
        radial cutoff, which ``rho_max`` always derives from the tail bound.
    """

    alpha: float = 0.25 * math.pi
    tol: float = 1e-7

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5 * math.pi:
            raise ValueError(f"alpha must lie in (0, pi/2), got {self.alpha}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


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
        nz = np.argwhere(np.abs(self.coeffs) > 0)
        if nz.size == 0:
            return 0
        return int(max(n1 + n2 for n1, n2 in nz))


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
    """One evaluated solution value with its refinement error estimate.

    ``n_rho`` and ``n_theta`` are the node counts of the ladder level that
    was returned; ``est_error`` is its difference to the level below, or
    the rounding floor eps * sum |terms| when that is larger.  Both levels
    share the radial cutoff ``rho_max``, so ``est_error`` does not see the
    tail beyond it; that tail, at most the spec's ``tol`` by the choice of
    the cutoff, comes on top of it.
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
        If t is not finite and positive, or B not finite and nonnegative.
    """
    _check_time(t)
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


def _paired_sum(kind, G, F, z1, z2, w2d) -> tuple[complex, float]:
    """Sum of w2d * (D F(z1, z2) + sign * I F(-z1, z2)) over the grid, (D, I) = G,
    and the sum of the moduli of its direct and image terms."""
    terms = eval_datum(F, np.multiply.outer((1.0, -1.0), z1), z2)
    terms *= G
    terms *= w2d
    direct, image = terms.sum(axis=(1, 2))
    return complex(direct + kind.sign * image), float(np.abs(terms).sum())


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


def _walk_ladder(evaluate, gap, tol: float, start: int = 0):
    """(value, estimate, (n_rho, n_theta)) of the first ladder level from
    ``start`` up, ``evaluate(i)`` giving level i's value, whose estimate
    ``gap(fine, coarse)`` against the level below is at most ``tol``; the
    top level is accepted up to 10 * tol, and otherwise ``NonConvergence``
    names it.  Overflow is left to the estimate, which is then not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        coarse = evaluate(start)
        for i in range(start + 1, len(_LADDER)):
            fine = evaluate(i)
            est = gap(fine, coarse)
            if est <= tol:
                break
            coarse = fine
    # a NaN estimate fails this test too, so no NaN leaves as converged
    if not est <= 10.0 * tol:
        raise NonConvergence(f"refinement estimate {est:.3e} exceeds 10*tol={10 * tol:.3e} "
                             "(n_rho={}, n_theta={})".format(*_LADDER[i]))
    return fine, est, _LADDER[i]


class _FresnelGrid:
    """Rotated-contour quadrature shared by every point of one grid.

    All points integrate the same datum at the same t, so they share one
    radial cutoff, ``rho_max`` at the largest radius ``r_max`` of the grid:
    the tail majorant grows with r, so that cutoff bounds every point's
    tail.  They share each ladder level's node set too: its rotated radii,
    its angles and the datum at (+-z1, z2) times the tensor weights are
    built on first use, once, under a lock, so threads that share the grid
    read the same read-only arrays.  Per point and level only the kernel
    and one product-sum remain.

    Raises
    ------
    TailBoundUnsatisfiable
        Propagated from the radial cutoff search.
    ValueError
        If t is not finite and positive, or the datum's growth rate is not
        finite.
    """

    def __init__(self, t: float, F: InitialDatum, spec: QuadratureSpec, r_max: float):
        _check_time(t)
        A, B, degree = growth_envelope(F)
        B_eff = effective_growth_rate(B, degree, t, spec.alpha)
        tail_spec = spec if A <= 1.0 else replace(spec, tol=spec.tol / A)
        self.t, self.F, self.spec, self.r_max = t, F, spec, r_max
        self.rho_max = rho_max(tail_spec, t, r_max, B_eff)
        self._phase = complex(math.cos(2.0 * spec.alpha), math.sin(2.0 * spec.alpha))
        self._levels = [None] * len(_LADDER)
        self._lock = threading.Lock()

    def level(self, i: int):
        """(z column, theta row, weighted datum pair) of ladder level ``i``."""
        level = self._levels[i]
        if level is None:
            with self._lock:
                level = self._levels[i]
                if level is None:
                    level = self._levels[i] = self._build(*_LADDER[i])
        return level

    def _build(self, n_rho: int, n_theta: int):
        _, z, w_rho, th, wth = _polar_rule(self.rho_max, n_rho, n_theta, self.spec.alpha)
        z, th = z[:, None], th[None, :]
        datum = eval_datum(self.F, np.multiply.outer((1.0, -1.0), z * np.cos(th)), z * np.sin(th))
        datum *= w_rho[:, None] * wth[None, :]
        datum.setflags(write=False)
        return z, th, datum

    def quad_value(self, kind: BoundaryKind, x: PolarPoint, i: int) -> tuple[complex, float]:
        """One tensor quadrature pass on ladder level ``i``: (value, sum of |terms|).

        The sum is of w * (D F(z1, z2) + sign * I F(-z1, z2)) over the
        level's nodes, (D, I) the kernel pair of ``greens._kernel_grid``.
        """
        z, th, datum = self.level(i)
        terms = _kernel_grid(self.t, x, z, th)
        terms *= datum
        direct, image = terms.sum(axis=(1, 2))
        return self._phase * complex(direct + kind.sign * image), float(np.abs(terms).sum())

    def sample(self, kind: BoundaryKind, x: PolarPoint) -> WaveSample:
        """Walk the ladder at ``x``, whose radius is at most ``r_max``, up to
        its first converged level; a level is built only when some point
        reaches it."""
        def gap(fine, coarse):
            try:
                # a difference below the rounding of the sum itself says nothing
                return max(abs(fine[0] - coarse[0]), _EPS * fine[1])
            except OverflowError:
                return math.inf

        (value, _), est, (n_rho, n_theta) = _walk_ladder(
            lambda i: self.quad_value(kind, x, i), gap, self.spec.tol)
        return WaveSample(value=value, est_error=est, t=self.t, x=x, kind=kind,
                          rho_max=self.rho_max, n_rho=n_rho, n_theta=n_theta)


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
    96x80, 192x160 and 384x320 nodes) are evaluated from the coarsest up,
    all on one radial cutoff, and the first level whose difference to the
    level below is at most ``spec.tol`` is returned; that difference, or
    eps times the sum of the moduli of the level's terms (the rounding of
    the sum) when that is larger, is reported as ``est_error``.  Each point
    stops at its own level, and a level no point reaches is never built.
    The finest level is accepted up to 10 * spec.tol.  ``est_error`` compares
    two levels on one cutoff; the tail beyond the cutoff, at most
    ``spec.tol``, comes on top of it.

    Raises
    ------
    NonConvergence
        If at some point the finest level differs from the level below by
        more than 10 * spec.tol, or the difference is not a number.
    TailBoundUnsatisfiable
        Propagated from the radial cutoff search.
    ValueError
        If t is not finite and positive, or the datum's growth rate is not
        finite.
    """
    single = isinstance(x, PolarPoint)
    points = [x] if single else list(x)
    grid = _FresnelGrid(t, F, spec, max((p.r for p in points), default=0.0))
    samples = [grid.sample(kind, p) for p in points]
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
        G = _kernel_grid(t, x, rho[:, None], th[None, :])
        y1 = rho[:, None] * np.cos(th)[None, :]
        y2 = rho[:, None] * np.sin(th)[None, :]
        damp = np.exp(-eps * rho * rho)
        w2d = (w_rho * damp)[:, None] * wth[None, :]
        values.append(_paired_sum(kind, G, F, y1, y2, w2d)[0])
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
