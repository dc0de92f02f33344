"""Render |Psi| on a grid around the barrier as CSV and 16-bit PGM.

Evolves a plane wave in the slit plane and writes the field magnitude as
an image: the barrier {x1 = 0, x2 <= 0} appears as a black stripe
(grid points on it are excluded from the domain), and the Dirichlet
condition dims the field alongside it.  Output goes to the current
directory; any PGM viewer (or GIMP/ImageMagick) displays the result.
"""

import numpy as np

from barrierwaves import BoundaryKind, PlaneWave, psi_fresnel, to_polar
from barrierwaves.cli import write_csv, write_pgm
from barrierwaves.geometry import CartesianPoint, in_domain

T = 0.8
K = PlaneWave(0.4, -0.3)
KIND = BoundaryKind.DIRICHLET
N1 = N2 = 41  # use ~161 for a smoother image; runtime grows linearly

x1s = np.linspace(-2.0, 2.0, N1)
x2s = np.linspace(-2.0, 2.0, N2)

# image row 0 at the top; one psi_fresnel call on every in-domain point,
# so they share one radial cutoff and one node set per ladder level
points = {}
for j, x2 in enumerate(x2s[::-1]):
    for i, x1 in enumerate(x1s):
        c = CartesianPoint(float(x1), float(x2))
        if in_domain(c):
            points[j, i] = to_polar(c)
image = np.full((N2, N1), np.nan, dtype=complex)
for (j, i), sample in zip(points, psi_fresnel(KIND, T, list(points.values()), K)):
    image[j, i] = sample.value

rows = []
for j, x2 in enumerate(x2s[::-1]):
    for i, x1 in enumerate(x1s):
        v = image[j, i]
        rows.append((x1, x2, None, None, None) if np.isnan(v) else (x1, x2, v.real, v.imag, abs(v)))

write_csv(("x1", "x2", "re", "im", "abs"), rows, "field.csv")
write_pgm(image, "field.pgm", component="abs")
finite = np.abs(image[~np.isnan(image)])
print(f"wrote field.csv ({len(rows)} rows) and field.pgm ({N1}x{N2})")
print(f"|Psi| ranges from {finite.min():.4f} to {finite.max():.4f}; "
      f"{np.isnan(image).sum()} grid points sit on the barrier")
