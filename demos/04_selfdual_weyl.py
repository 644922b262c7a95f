"""The self-dual Weyl operator as a 3x3 matrix and its spectral invariants.

On a Kahler 4-manifold W+ is forced into the shape (S/6) diag(2,-1,-1); on
the strictly almost Kahler nilmanifold it has two eigenvalues but the wrong
proportions, and the gap is exactly what the integrability conditions see.
"""

import numpy as np

from weyl4.catalog import builtin_manifolds
from weyl4.conditions import point_context, stack_rows

TOL = 1e-12  # values below it are rounding noise, whose last digits vary with numpy, BLAS and CPU


def clean(x):
    """0 for a value at rounding level, so the printed output does not depend on its last bits."""
    return 0.0 if abs(x) <= TOL else x


rng = np.random.default_rng(1)
print(f"{'manifold':26s} {'|W+|^2':>10s} {'det W+':>10s} {'S^2/6':>10s}  eigenvalues")
for spec in builtin_manifolds():
    pt = spec.sample_points(1, rng)[0]
    r = stack_rows(point_context(spec, pt, order=2))  # a stack of one row
    w = r.wplus
    eig = ", ".join(f"{clean(v): .4f}" for v in w.eigenvalues[0])
    print(
        f"{spec.id:26s} {clean(w.norm2[0]):10.4f} {clean(w.det[0]):10.4f} "
        f"{r.S_v[0]**2 / 6:10.4f}  ({eig})"
    )

print("\ncharacteristic polynomial is t^3 - |W+|^2/2 t - det(W+); on the")
print("nilmanifold the spectrum is (1/3, 1/3, -2/3): two eigenvalues, yet")
print("|W+|^2 = 2/3 differs from S^2/6 = 1/24 -- the Kahler test fails there.")
