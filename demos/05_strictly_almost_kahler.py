"""The Kodaira-Thurston nilmanifold: closed fundamental form, non-integrable J.

Every structural identity holds, the almost-Kahler gate is satisfied
(d Omega = 0, eta = J xi), but the Kahler characterization |W+|^2 = S^2/6 is
violated by a strictly positive gap that the defect identity accounts for
exactly.
"""

import numpy as np

from weyl4.catalog import get_manifold
from weyl4.conditions import evaluate_identity, point_context, stack_rows

spec = get_manifold("kodaira_thurston")
pt = np.array([0.37, 0.21, 0.83, 0.5])
r = stack_rows(point_context(spec, pt, order=4))  # a stack of one row
nj, S, s_star = r.nj, r.S_v[0], r.star.s_star[0]

print("structure data at", pt.tolist())
print(f"  |d Omega|        = {np.abs(nj.d_omega).max():.2e}   (closed)")
print(f"  |eta - J xi|     = {np.abs(nj.eta[0] - r.J[0] @ nj.xi[0]).max():.2e}")
print(f"  |nabla J|^2      = {nj.norm2[0]:.6f}        (nonzero: not Kahler)")
print(f"  |N_J|            = {np.abs(nj.nijenhuis).max():.2f}            (non-integrable)")

print("\ncurvature scalars")
print(f"  S = {S:.4f}   S* = {s_star:.4f}   S* - S = 2|nabla J|^2 -> "
      f"{s_star - S:.4f} vs {2 * nj.norm2[0]:.4f}")

res = evaluate_identity("EQ01", spec, pt)
print(f"\nKahler test |W+|^2 = S^2/6:  lhs {res.lhs:.6f}  rhs {res.rhs:.6f}  "
      f"gap {res.lhs - res.rhs:+.6f}  (definitive violation)")

res116 = evaluate_identity("EQ116", spec, pt)
print(f"defect identity: |W+|^2 - S^2/6 = S|nJ|^2 + |nJ|^4 + 8|Ric*-|^2 + |Rt|^2")
print(f"  lhs {res116.lhs:.6f}  rhs {res116.rhs:.6f}  residual {res116.abs_residual:.2e}")
print("the gap is fully explained by the non-integrability terms.")
