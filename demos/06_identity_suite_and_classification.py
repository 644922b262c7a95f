"""Running the full identity registry and the structure classifier.

Each registered relation is evaluated through two independent code paths
where one exists, gated by its numeric applicability predicate, and
normalized by the largest term on either side.
"""

from weyl4.catalog import get_manifold
from weyl4.conditions import classify_structure, run_suite

TOL = 1e-12  # values below it are rounding noise, whose last digits vary with numpy, BLAS and CPU


def clean(x):
    """0 for a value at rounding level, so the printed output does not depend on its last bits."""
    return 0.0 if abs(x) <= TOL else x


for name in ("fubini_study_cp2", "kodaira_thurston", "perturbed_j"):
    spec = get_manifold(name)
    report = run_suite(spec, n_points=10, seed=7)
    verdict, residuals = classify_structure(spec, n_points=10, seed=7)
    print(f"== {name}: classification '{verdict}', suite {'PASS' if report.passed else 'FAIL'}")
    for key, value in residuals.items():
        print(f"   {key:10s} residual {clean(value):.2e}")
    flagged = [r for r in report.identities if r["verdict"].startswith(("violated", "indeterminate"))]
    for row in flagged:
        print(f"   {row['id']} [{row['anchor']}]: {row['verdict']} (max rel {clean(row['max_rel_residual']):.2e})")
    if not flagged:
        applicable = sum(1 for r in report.identities if r["applicable_points"])
        print(f"   all {applicable} applicable identities pass")
    print()
