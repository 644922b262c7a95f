"""Defining a manifold in a config file and running it through the engine.

The file gives metric entries and an optional almost complex structure as
coordinate expressions, a sampling domain, an optional note, and
ground-truth tags that the suite re-verifies.  The builtin catalog is
written in this format: each entry is one file in ``src/weyl4/manifolds/``,
read by the same loader with the same validation.
"""

import tempfile
from pathlib import Path

from weyl4.catalog import load_manifold_config
from weyl4.conditions import classify_structure, run_suite

TOL = 1e-12  # values below it are rounding noise, whose last digits vary with numpy, BLAS and CPU


def clean(x):
    """0 for a value at rounding level, so the printed output does not depend on its last bits."""
    return 0.0 if abs(x) <= TOL else x


CONFIG = """\
[manifold]
id = cigar_product
coords = x, y, z, t
compact = false
domain = -0.8..0.8, -0.8..0.8, -0.8..0.8, -0.8..0.8

[metric]
g_11 = 1/(1 + x^2 + y^2)
g_22 = 1/(1 + x^2 + y^2)
g_33 = 1
g_44 = 1

[structure]
J_1_2 = -1
J_2_1 = 1
J_3_4 = -1
J_4_3 = 1

[tags]
tags = kahler
"""

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "cigar.cfg"
    path.write_text(CONFIG)
    spec = load_manifold_config(str(path))
    print(f"loaded '{spec.id}' with coordinates {spec.coords}")

    verdict, residuals = classify_structure(spec, n_points=10, seed=0)
    print("classification:", verdict)

    report = run_suite(spec, n_points=10, seed=0)
    print("suite:", "PASS" if report.passed else "FAIL")
    for row in report.identities:
        if row["id"] in ("EQ82", "EQ116", "EQ42"):
            print(f"  {row['id']}: {row['verdict']} (max rel {clean(row['max_rel_residual']):.2e}, "
                  f"applicable at {row['applicable_points']} points)")
