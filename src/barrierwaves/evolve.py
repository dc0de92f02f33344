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

The datum F must extend to an entire function of (z1, z2) with an
exponential growth envelope |F(z)| <= A * exp(B |z|); plane waves, finite
Taylor data and finite superpositions of plane waves are provided.

Radial nodes are placed in the square-root variable u = sqrt(rho): the
kernel carries half-integer powers of rho (through sqrt(r z)), so the
integrand is analytic in u but only Holder-smooth in rho, and panel
Gauss-Legendre in rho itself stalls near the origin.

Accuracy is controlled by a coarse-to-fine ladder of tensor rules on one
radial cutoff: the spec's panel counts, halved up to three times (rounded
up to whole panels, and only while both directions keep two panels or
more), are evaluated from the coarsest up, and the first
level that agrees with the level below to within ``tol`` is returned with
that difference as its error estimate.  Each level is the error estimate
of the next, so no node is evaluated beyond the first converged level.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import PHI_MAX, PHI_MIN, PolarPoint
from .greens import BoundaryKind, _kernel_grid
from .summation import compensated_array_sum

RHO_MAX_CAP = 1.0e4


class TailBoundUnsatisfiable(ArithmeticError):
    """No radial cutoff below the cap meets the tail tolerance."""


class NonConvergence(ArithmeticError):
    """Mesh refinement (or regularization extrapolation) failed to settle."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Parameters of the rotated-contour quadrature.

    Attributes
    ----------
    alpha : float
        Contour rotation angle, in (0, pi/2).  pi/4 maximizes the Gaussian
        decay rate sin(2*alpha)/(4t).
    n_theta, n_rho : int
        Node counts of the finest rule in the angle and in the radial
        square-root variable (each rounded up to a whole number of
        panels, and each above ``panel_order``, i.e. at least two panels).
        ``psi_fresnel`` stops at a coarser level of its ladder once that
        level converges; ``build_table`` always returns this level and
        takes its estimate from the level below.
    tol : float
        Target absolute accuracy; drives the radial cutoff and the
        refinement check.
    rho_max_policy : str
        "auto" derives the radial cutoff from the tail majorant;
        "fixed" uses ``rho_max_value`` as given.
    rho_max_value : float or None
        Cutoff used under the "fixed" policy.
    panel_order : int
        Gauss-Legendre order per panel.
    """

    alpha: float = 0.25 * math.pi
    n_theta: int = 160
    n_rho: int = 192
    tol: float = 1e-7
    rho_max_policy: str = "auto"
    rho_max_value: float | None = None
    panel_order: int = 16

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5 * math.pi:
            raise ValueError(f"alpha must lie in (0, pi/2), got {self.alpha}")
        if not self.tol > 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.rho_max_policy not in ("auto", "fixed"):
            raise ValueError(f"unknown rho_max_policy {self.rho_max_policy!r}")
        if self.rho_max_policy == "fixed":
            if self.rho_max_value is None or not self.rho_max_value > 0:
                raise ValueError("fixed policy needs a positive rho_max_value")
        if self.panel_order < 2:
            raise ValueError("panel_order must be at least 2")
        if self.n_theta <= self.panel_order or self.n_rho <= self.panel_order:
            # one panel has no coarser rule to estimate its error against
            raise ValueError(
                f"n_rho and n_theta must exceed panel_order={self.panel_order} "
                f"(at least two panels), got n_rho={self.n_rho}, n_theta={self.n_theta}")


@dataclass(frozen=True)
class PlaneWave:
    """F(z) = exp(1j*(k1*z1 + k2*z2)); k may be complex."""

    k1: complex
    k2: complex


@dataclass(frozen=True, eq=False)
class TaylorField:
    """Polynomial datum F(z) = sum f[n1][n2] z1^n1 z2^n2.

    ``bound_a``/``bound_b`` declare the growth envelope A*exp(B|z|) used by
    the radial truncation; the degree itself is handled separately, so
    (sum |f|, 0) is always an admissible declaration.
    """

    coeffs: np.ndarray
    bound_a: float = 0.0
    bound_b: float = 0.0

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.coeffs, dtype=complex))
        object.__setattr__(self, "coeffs", arr)
        if self.bound_a == 0.0:
            object.__setattr__(self, "bound_a", float(np.sum(np.abs(arr))) or 1.0)
        if self.bound_b < 0:
            raise ValueError("bound_b must be nonnegative")

    @property
    def degree(self) -> int:
        nz = np.argwhere(np.abs(self.coeffs) > 0)
        if nz.size == 0:
            return 0
        return int(max(n1 + n2 for n1, n2 in nz))


@dataclass(frozen=True, eq=False)
class DiscreteSuperposition:
    """F(z) = sum_j weights[j] * exp(1j*(k[j,0]*z1 + k[j,1]*z2)).

    ``k0`` bounds the Euclidean length of every wavevector.
    """

    weights: np.ndarray
    wavevectors: np.ndarray
    k0: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=complex)
        k = np.asarray(self.wavevectors, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "wavevectors", k)
        if k.ndim != 2 or k.shape[1] != 2 or k.shape[0] != w.shape[0]:
            raise ValueError("wavevectors must have shape (len(weights), 2)")
        norms = np.hypot(k[:, 0], k[:, 1])
        if np.any(norms > self.k0 * (1 + 1e-12)):
            raise ValueError("an atom exceeds the declared frequency bound k0")


InitialDatum = PlaneWave | TaylorField | DiscreteSuperposition


@dataclass(frozen=True)
class WaveSample:
    """One evaluated solution value with its refinement error estimate.

    ``n_rho`` and ``n_theta`` are the node counts of the ladder level that
    was returned; ``est_error`` is its difference to the level below.
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
    """Evaluate the datum at (z1, z2); broadcasts over array arguments."""
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
        z1 = np.asarray(z1, dtype=complex)
        z2 = np.asarray(z2, dtype=complex)
        terms = (
            w * np.exp(1j * (k1 * z1 + k2 * z2))
            for w, (k1, k2) in zip(F.weights, F.wavevectors)
        )
        return compensated_array_sum(terms)
    raise TypeError(f"not an initial datum: {F!r}")


def growth_envelope(F: InitialDatum) -> tuple[float, float, int]:
    """(A, B, degree) with |F(z)| <= A * (stuff of degree) * exp(B |z|)."""
    if isinstance(F, PlaneWave):
        return 1.0, math.hypot(abs(F.k1), abs(F.k2)), 0
    if isinstance(F, TaylorField):
        return F.bound_a, F.bound_b, F.degree
    if isinstance(F, DiscreteSuperposition):
        return float(np.sum(np.abs(F.weights))), F.k0, 0
    raise TypeError(f"not an initial datum: {F!r}")


@functools.lru_cache(maxsize=256)
def _gauss_panels(a: float, b: float, n: int, order: int):
    """Composite Gauss-Legendre nodes/weights on [a, b], >= n nodes total."""
    npan = max(1, -(-n // order))
    x0, w0 = leggauss(order)
    edges = np.linspace(a, b, npan + 1)
    half = 0.5 * (edges[1] - edges[0])
    mids = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mids[:, None] + half * x0[None, :]).ravel()
    weights = np.tile(half * w0, npan)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


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

    The integrand modulus is dominated by
    ``(1/t) * exp(-a rho^2 + b rho)`` with ``a = sin(2 alpha)/(4t)`` and
    ``b = 3r/(2t) + B + 1``; the Gaussian tail bound
    ``Int_R^inf <= exp(b^2/(4a)) * exp(-a (R-mu)^2) / (2 a (R-mu) t)`` with
    ``mu = b/(2a)`` is inverted for the smallest adequate R by bisection.

    Raises
    ------
    TailBoundUnsatisfiable
        If no R below the cap (1e4) meets the tolerance.
    """
    if t <= 0:
        raise ValueError(f"time must be positive, got t={t}")
    if B < 0:
        raise ValueError(f"growth rate must be nonnegative, got B={B}")
    if spec.rho_max_policy == "fixed":
        return float(spec.rho_max_value)
    a = math.sin(2.0 * spec.alpha) / (4.0 * t)
    b = 1.5 * r / t + B + 1.0
    mu = b / (2.0 * a)

    def log_tail(R: float) -> float:
        x = R - mu
        return b * b / (4.0 * a) - a * x * x - math.log(2.0 * a * x * t)

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


def _quad_value(kind, t, x, F, alpha, R, n_rho, n_theta, order):
    """One tensor quadrature pass at the given node counts."""
    u, wu = _gauss_panels(0.0, math.sqrt(R), n_rho, order)
    th, wth = _gauss_panels(PHI_MIN, PHI_MAX, n_theta, order)
    rho = u * u
    z = rho * complex(math.cos(alpha), math.sin(alpha))
    G = _kernel_grid(kind, t, x, z[:, None], th[None, :])
    z1 = z[:, None] * np.cos(th)[None, :]
    z2 = z[:, None] * np.sin(th)[None, :]
    Fv = eval_datum(F, z1, z2)
    # d rho = 2 u du on top of the datum, kernel and polar Jacobian rho
    w2d = (2.0 * u * wu * rho)[:, None] * wth[None, :]
    phase = complex(math.cos(2.0 * alpha), math.sin(2.0 * alpha))
    return phase * complex(np.sum(w2d * G * Fv))


def _node_ladder(spec: QuadratureSpec) -> list[tuple[int, int]]:
    """(n_rho, n_theta) node counts of the refinement ladder, coarsest first.

    The finest level holds the spec's panel counts; each coarser level
    halves them (rounding up to whole panels), at most three times and
    only while both directions still have two panels or more, so each
    level refines the one below in both directions.  The default spec
    gives 32x32, 48x48, 96x80 and 192x160 nodes.
    """
    order = spec.panel_order
    panels = [(-(-spec.n_rho // order), -(-spec.n_theta // order))]
    for _ in range(3):
        p_rho, p_theta = panels[-1]
        if min(p_rho, p_theta) == 1:
            break
        panels.append((-(-p_rho // 2), -(-p_theta // 2)))
    return [(p_rho * order, p_theta * order) for p_rho, p_theta in reversed(panels)]


def psi_fresnel(kind: BoundaryKind, t: float, x: PolarPoint, F: InitialDatum,
                spec: QuadratureSpec = QuadratureSpec()) -> WaveSample:
    """Solution value at (t, x) by rotated-contour quadrature.

    Evaluates the tensor rules of the node ladder (``spec.n_rho`` x
    ``spec.n_theta`` at the finest level, up to three halvings below) from
    the coarsest up, all on one radial cutoff, and returns the first level
    whose difference to the level below is at most ``spec.tol``; that
    difference is reported as ``est_error``.  The finest level is accepted
    up to 10 * spec.tol.

    Raises
    ------
    NonConvergence
        If the finest level differs from the level below by more than
        10 * spec.tol.
    TailBoundUnsatisfiable
        Propagated from the radial cutoff search.
    """
    if t <= 0:
        raise ValueError(f"time must be positive, got t={t}")
    A, B, degree = growth_envelope(F)
    B_eff = effective_growth_rate(B, degree, t, spec.alpha)
    tail_spec = spec if A <= 1.0 else replace(spec, tol=spec.tol / A)
    R = rho_max(tail_spec, t, x.r, B_eff)
    levels = _node_ladder(spec)
    coarse = _quad_value(kind, t, x, F, spec.alpha, R, *levels[0], spec.panel_order)
    for n_rho, n_theta in levels[1:]:
        fine = _quad_value(kind, t, x, F, spec.alpha, R, n_rho, n_theta, spec.panel_order)
        est = abs(fine - coarse)
        if est <= spec.tol:
            break
        coarse = fine
    if est > 10.0 * spec.tol:
        raise NonConvergence(
            f"refinement difference {est:.3e} exceeds 10*tol={10 * spec.tol:.3e} "
            f"(n_rho={n_rho}, n_theta={n_theta})"
        )
    return WaveSample(value=fine, est_error=est, t=t, x=x, kind=kind,
                      rho_max=R, n_rho=n_rho, n_theta=n_theta)


@dataclass(frozen=True)
class RegularizedResult:
    """Output of the Gaussian-regularized reference evaluation."""

    value: complex
    eps_values: tuple
    extrap_delta: float


def psi_regularized_oracle(kind: BoundaryKind, t: float, x: PolarPoint, F: InitialDatum,
                           epsilons=(0.1, 0.05, 0.025, 0.0125),
                           n_rho: int = 1024, n_theta: int = 256) -> RegularizedResult:
    """Reference solution value by Gaussian regularization on real coordinates.

    Computes ``Int exp(-eps |y|^2) G(t,x,y) F(y) dy`` for a decreasing
    sequence of eps over the *unrotated* (real) coordinates, then removes
    the regularization by polynomial extrapolation to eps = 0.  Slow and
    low-accuracy (about 1e-2 relative) but entirely independent of the
    contour rotation, so it cross-checks ``psi_fresnel``.

    The regularization bias scales with eps * 4t, so the eps ladder must
    descend well below 1/(4t); the default reaches 1/80 with a ratio-2
    geometric sequence, which extrapolates to a few 1e-4 at t = 1.

    The datum must stay bounded on real points (real wavevectors or
    polynomial data).

    Raises
    ------
    NonConvergence
        If the extrapolation does not stabilize.
    """
    if len(epsilons) < 3:
        raise ValueError("need at least three regularization strengths")
    eps_arr = np.asarray(sorted(epsilons, reverse=True), dtype=float)
    if np.any(eps_arr <= 0):
        raise ValueError("regularization strengths must be positive")
    A, B, degree = growth_envelope(F)
    order = 16
    values = []
    for eps in eps_arr:
        # |G F| <= C (1+rho)^d on real points; Gaussian tail below 1e-4 * tol-scale
        C = max(A, 1.0) / (math.pi * t)
        R = math.sqrt(max(math.log(C / (2.0 * eps * 1e-6)), 1.0) / eps)
        R = R * (1.0 + 0.1 * degree)
        u, wu = _gauss_panels(0.0, math.sqrt(R), n_rho, order)
        th, wth = _gauss_panels(PHI_MIN, PHI_MAX, n_theta, order)
        rho = u * u
        G = _kernel_grid(kind, t, x, rho[:, None], th[None, :])
        y1 = rho[:, None] * np.cos(th)[None, :]
        y2 = rho[:, None] * np.sin(th)[None, :]
        Fv = eval_datum(F, y1, y2)
        damp = np.exp(-eps * rho * rho)
        w2d = (2.0 * u * wu * rho * damp)[:, None] * wth[None, :]
        values.append(complex(np.sum(w2d * G * Fv)))
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
