"""Persistence of superoscillations under evolution past the barrier.

Each F_n is a band-limited superposition (per-component frequencies of
modulus 1, so |k| <= sqrt(2)) that converges to the plane wave
exp(i a (z1 + z2)) with a = 2 beyond the band.  Evolving both and
comparing at a fixed point shows the evolved F_n approaching the evolved
limit wave: the superoscillatory character survives the evolution.

Two regimes are shown.  At t = 0.3 the error falls monotonically from
n = 4 on.  At t = 1 the error first grows (it peaks near n = 12) and
only then decays, so the monotone window starts at n = 16; the printed
growth-weighted distance of F_n to the limit wave shrinks throughout,
confirming the eventual decay is forced by the a-priori error bound.
"""

import math
import warnings

from barrierwaves import BoundaryKind, CoefficientOverflow, PolarPoint, supershift_experiment
from barrierwaves.operator import TruncationInsufficient

X = PolarPoint(1.0, math.pi / 2)

for t, n_list in ((0.3, (4, 8, 12, 16)), (1.0, (16, 24, 32, 40))):
    for kind in (BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN):
        print(f"--- {kind.name}, t={t}, x=(r=1, phi=pi/2), a=2 ---")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationInsufficient)
            rows = supershift_experiment(kind, t, X, n_list=n_list)
        print(f"{'n':>4} {'|Psi(F_n) - Psi(limit)|':>24} {'distance to limit':>18} "
              f"{'log error bound':>16}")
        for row in rows:
            print(f"{row.n:4d} {row.error:24.4f} {row.a1_dist:18.6f} {row.log_bound:16.1f}")
        decreasing = all(a.error > b.error for a, b in zip(rows, rows[1:]))
        print(f"strictly decreasing over this window: {decreasing}\n")

print("The weights C_j alternate in sign and grow like a^n, so summing F_n")
print("cancels about log10(max|C_j|) digits.  superosc_coefficients refuses")
print("any order whose weights exceed 1e12 (more than 12 of double precision's")
print("~16 digits): at a = 2, n = 42 is the last usable order.  Asking for 43:")
try:
    supershift_experiment(BoundaryKind.DIRICHLET, 1.0, X, n_list=(4, 43))
except CoefficientOverflow as exc:
    print(f"  CoefficientOverflow: {exc}")
