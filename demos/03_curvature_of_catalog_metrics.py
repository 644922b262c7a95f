"""Curvature of the built-in metrics: Einstein constants, scalar curvature,
Weyl tensor size, all straight from metric jets."""

import numpy as np

from weyl4.catalog import builtin_manifolds
from weyl4.curvature import curvature_bundle

TOL = 1e-12  # values below it are rounding noise, whose last digits vary with numpy, BLAS and CPU


def clean(x):
    """0 for a value at rounding level, so the printed output does not depend on its last bits."""
    return 0.0 if abs(x) <= TOL else x


rng = np.random.default_rng(0)
print(f"{'manifold':26s} {'S':>10s} {'|Ric - (S/4)g|':>15s} {'|W|':>10s} {'|Riem|':>10s}")
for spec in builtin_manifolds():
    pt = spec.sample_points(1, rng)[0]
    bundle = curvature_bundle(spec.metric_point(pt, order=2))
    einstein_dev = np.abs(bundle.ric_v - (bundle.S_v / 4.0) * np.eye(4)).max()
    print(
        f"{spec.id:26s} {bundle.S_v:10.4f} {clean(einstein_dev):15.2e} "
        f"{clean(np.abs(bundle.weyl_v).max()):10.2e} {np.abs(bundle.riem_v).max():10.2e}"
    )

print("\nscalar curvature constancy (20 random points):")
for name in ("fubini_study_cp2", "complex_hyperbolic_ch2", "kodaira_thurston"):
    spec = next(s for s in builtin_manifolds() if s.id == name)
    vals = [
        curvature_bundle(spec.metric_point(p, 2)).S_v for p in spec.sample_points(20, rng)
    ]
    print(f"  {name:26s} S = {np.mean(vals):.6f}  spread {clean(np.ptp(vals)):.2e}")
