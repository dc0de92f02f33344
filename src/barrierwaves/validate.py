"""Self-check suites over every module's invariants.

Each suite evaluates a small, fast batch of identities and reports its
worst observed residual against a fixed tolerance.  The batches reuse the
library's public entry points (not private shortcuts), so a sign flip or
broken kernel anywhere upstream trips at least one suite.  The CLI
``validate`` command prints the table and exits nonzero on any failure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import complexfn
from .geometry import CartesianPoint, PolarPoint, to_cartesian, to_polar
from .greens import BoundaryKind, greens, schrodinger_residual, wofz
from .evolve import PlaneWave, QuadratureSpec, TaylorField, psi_fresnel
from .operator import apply_plane_wave, build_table
from .superosc import SuperoscParams, a1_distance, closed_form_fn, superosc_sequence
from .evolve import eval_datum


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one invariant suite."""

    name: str
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def _suite_special_functions() -> SuiteResult:
    worst = abs(complexfn.erfcx(0.0) - 1.0)
    rng = np.random.default_rng(20240917)
    z = rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40)
    refl = np.abs(complexfn.erfcx(z) + complexfn.erfcx(-z) - 2 * np.exp(z * z))
    worst = max(worst, float((refl / (2 * np.exp(np.abs(z) ** 2))).max()))
    # derivative relation and growth bound
    h = 1e-6
    for zz in (0.3 + 0.2j, -0.7 + 1.1j, 1.5 - 0.4j):
        dnum = (complexfn.erfcx(zz + h) - complexfn.erfcx(zz - h)) / (2 * h)
        dref = 2 * zz * complexfn.erfcx(zz) - complexfn.TWO_OVER_SQRT_PI
        worst = max(worst, abs(dnum - dref) / max(abs(dref), 1.0))
    grow = np.abs(complexfn.erfcx(z)) / (2.0 * np.exp(np.abs(z) ** 2))
    worst = max(worst, float(np.maximum(grow - 1.0, 0.0).max()))
    # independent quadrature oracle on the right half-plane
    zq = rng.uniform(0.05, 2, 12) + 1j * rng.uniform(-2, 2, 12)
    for zz in zq:
        ref = complexfn.erfcx_by_quadrature(complex(zz))
        worst = max(worst, abs(complexfn.erfcx(complex(zz)) - ref) / abs(ref))
    # the grid kernel's own Faddeeva evaluator there: erfcx(z) = w(iz)
    grid = wofz(1j * zq, np.empty((2,) + zq.shape, dtype=complex))
    ref = complexfn.erfcx(zq)
    worst = max(worst, float((np.abs(grid - ref) / np.abs(ref)).max()))
    return SuiteResult("special-functions", worst, 1e-9)


def _suite_geometry() -> SuiteResult:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        p = PolarPoint(float(rng.uniform(0.01, 10)),
                       float(rng.uniform(-math.pi / 2 + 1e-6, 3 * math.pi / 2 - 1e-6)))
        q = to_polar(to_cartesian(p))
        worst = max(worst, abs(q.r - p.r) / p.r, abs(q.phi - p.phi))
    from .geometry import in_domain
    barrier_ok = (not in_domain(CartesianPoint(0.0, -1.0))
                  and in_domain(CartesianPoint(0.0, 1.0))
                  and in_domain(CartesianPoint(1e-300, -1.0)))
    if not barrier_ok:
        worst = math.inf
    return SuiteResult("geometry", worst, 1e-12)


def _suite_propagator_boundary() -> SuiteResult:
    """Dirichlet values and per-face Neumann normal derivatives on the barrier."""
    worst = 0.0
    y = PolarPoint(1.3, 0.9)
    t = 0.8
    for face_phi in (-math.pi / 2, 3 * math.pi / 2):
        for r in (0.4, 1.1, 2.7):
            xb = PolarPoint(r, face_phi)
            gd = greens(BoundaryKind.DIRICHLET, t, xb, y)
            scale = abs(greens(BoundaryKind.DIRICHLET, t, PolarPoint(r, face_phi
                         + (1.0 if face_phi < 0 else -1.0)), y))
            worst = max(worst, abs(gd) / max(scale, 1e-30))
            # one-sided second-order normal derivative along the face
            delta = 1e-4
            sgn = 1.0 if face_phi < 0 else -1.0
            vals = [greens(BoundaryKind.NEUMANN, t, PolarPoint(r, face_phi + sgn * k * delta), y)
                    for k in range(3)]
            dphi = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * delta * r)
            worst = max(worst, abs(dphi) / max(abs(vals[0]) / r, 1e-30))
    return SuiteResult("propagator-boundary", worst, 1e-5)


def _suite_propagator_pde() -> SuiteResult:
    worst = 0.0
    y = PolarPoint(1.1, 2.2)
    for kind in BoundaryKind:
        for x in (to_cartesian(PolarPoint(1.7, 0.4)), to_cartesian(PolarPoint(0.9, -0.8))):
            worst = max(worst, schrodinger_residual(kind, 1.0, x, y, 1e-3))
    # symmetry in the two arguments
    a, b = PolarPoint(1.2, 0.3), PolarPoint(2.1, 2.6)
    for kind in BoundaryKind:
        g1, g2 = greens(kind, 0.7, a, b), greens(kind, 0.7, b, a)
        worst = max(worst, abs(g1 - g2) / abs(g1))
    # the two kinds average to the kernel with the corner term dropped
    gd = greens(BoundaryKind.DIRICHLET, 0.7, a, b)
    gn = greens(BoundaryKind.NEUMANN, 0.7, a, b)
    xc, yc = to_cartesian(a), to_cartesian(b)
    d2 = (xc.x1 - yc.x1) ** 2 + (xc.x2 - yc.x2) ** 2
    pref = 1.0 / (8j * math.pi * 0.7)
    w1 = (cmath.sqrt(a.r * b.r) * math.cos((a.phi - b.phi) / 2)
          * cmath.exp(-0.25j * math.pi) / math.sqrt(0.7))
    free = pref * cmath.exp(0.25j * d2 / 0.7 - w1 * w1) * complexfn.erfcx(w1)
    worst = max(worst, abs(0.5 * (gd + gn) - free) / abs(free))
    return SuiteResult("propagator-pde", worst, 2e-4)


def _suite_quadrature_stationary() -> SuiteResult:
    worst = 0.0
    cases = [
        (BoundaryKind.NEUMANN, TaylorField(np.array([[1.0]], dtype=complex)),
         lambda c: 1.0),
        (BoundaryKind.NEUMANN, TaylorField(np.array([[0.0, 1.0]], dtype=complex)),
         lambda c: c.x2),
        (BoundaryKind.DIRICHLET, TaylorField(np.array([[0.0], [1.0]], dtype=complex)),
         lambda c: c.x1),
    ]
    for kind, F, expect in cases:
        for x in (PolarPoint(1.0, math.pi / 2), PolarPoint(1.5, 2.4)):
            s = psi_fresnel(kind, 0.9, x, F)
            ref = expect(to_cartesian(x))
            worst = max(worst, abs(s.value - ref) / max(abs(ref), 1.0))
    return SuiteResult("quadrature-stationary", worst, 1e-6)


def _suite_alpha_invariance() -> SuiteResult:
    x = PolarPoint(1.2, 1.1)
    F = PlaneWave(0.4, -0.3)
    vals = [psi_fresnel(BoundaryKind.DIRICHLET, 1.0, x, F,
                        QuadratureSpec(alpha=al)).value
            for al in (0.4, math.pi / 4, 1.1)]
    spread = max(abs(v - vals[0]) for v in vals) / abs(vals[0])
    return SuiteResult("alpha-invariance", spread, 1e-6)


def _suite_operator_table() -> SuiteResult:
    worst = 0.0
    x = PolarPoint(1.0, math.pi / 2)
    for kind in BoundaryKind:
        tab = build_table(kind, 1.0, x, 24)
        over = np.maximum(np.abs(tab.c) - tab.bound, 0.0)
        worst = max(worst, float(over.max()))
        v = apply_plane_wave(tab, (0.3, 0.2))
        f = psi_fresnel(kind, 1.0, x, PlaneWave(0.3, 0.2))
        worst = max(worst, abs(v - f.value) / abs(f.value))
    xc = to_cartesian(x)
    tabn = build_table(BoundaryKind.NEUMANN, 1.0, x, 4)
    worst = max(worst, abs(tabn.c[0, 0] - 1.0), abs(tabn.c[0, 1] - xc.x2))
    return SuiteResult("operator-table", worst, 1e-6)


def _suite_superoscillation() -> SuiteResult:
    worst = 0.0
    rng = np.random.default_rng(11)
    for n in (3, 10):
        params = SuperoscParams(a=2.0, n=n)
        seq = superosc_sequence(params)
        z1 = rng.normal(size=6) + 1j * rng.normal(size=6)
        z2 = rng.normal(size=6) + 1j * rng.normal(size=6)
        diff = np.abs(eval_datum(seq, z1, z2) - closed_form_fn(params, z1, z2))
        worst = max(worst, float(diff.max()))
        worst = max(worst, abs(complex(np.sum(seq.weights)) - 1.0))
    dists = [a1_distance(SuperoscParams(a=2.0, n=n), radius=2.0, growth=3.0)
             for n in (4, 8, 16)]
    if not (dists[0] > dists[1] > dists[2]):
        worst = math.inf
    return SuiteResult("superoscillation", worst, 1e-8)


_SUITES = (
    _suite_special_functions,
    _suite_geometry,
    _suite_propagator_boundary,
    _suite_propagator_pde,
    _suite_quadrature_stationary,
    _suite_alpha_invariance,
    _suite_operator_table,
    _suite_superoscillation,
)


def run_suites() -> list:
    """Run every invariant suite; returns the list of SuiteResult.

    The operator probes use table orders below the certified one and
    check their values against independent references instead.
    """
    return [suite() for suite in _SUITES]
