"""Two independent routes to the same evolved field value.

The field at (t, x) can be computed either by rotated-contour quadrature
of the propagator against the initial datum, or by applying the tabulated
differential-operator coefficients to the datum's derivatives at zero.
This script prints both values for a plane wave and a polynomial, then
shows the operator route converging to the quadrature route as the
truncation order grows.
"""

from barrierwaves import (
    BoundaryKind,
    PlaneWave,
    PolarPoint,
    TaylorField,
    apply_plane_wave,
    apply_taylor,
    build_table,
    psi_fresnel,
)

T = 1.0
X = PolarPoint(1.0, 0.3)
K = (0.8, -0.8)
POLY = TaylorField([[1.0, 0.0], [1.0, 1.0]])  # 1 + z1 + z1 z2

for kind in (BoundaryKind.DIRICHLET, BoundaryKind.NEUMANN):
    print(f"--- {kind.name}, t={T}, x=(r={X.r}, phi={X.phi}) ---")
    ref_pw = psi_fresnel(kind, T, X, PlaneWave(*K)).value
    ref_poly = psi_fresnel(kind, T, X, POLY).value
    print(f"quadrature, plane wave k={K}: {ref_pw:.10f}")
    print(f"quadrature, 1 + z1 + z1*z2:   {ref_poly:.10f}")
    print(f"{'order':>6} {'plane-wave error':>18} {'polynomial error':>18}")
    # orders this low carry no certified tail bound; the table below shows
    # the actual convergence instead
    for order in (4, 8, 16, 24, 32):
        tab = build_table(kind, T, X, order)
        err_pw = abs(apply_plane_wave(tab, K) - ref_pw)
        err_poly = abs(apply_taylor(tab, POLY) - ref_poly)
        print(f"{order:6d} {err_pw:18.3e} {err_poly:18.3e}")
    print()

print("The polynomial is exact once the order covers its degree; the plane")
print("wave converges factorially in the truncation order.")
