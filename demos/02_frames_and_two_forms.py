"""J-adapted frames, quaternionic supplements, and the 2-form dictionary.

Given a compatible almost complex structure J at a point, a J-frame
(e1, e2 = J e1, e3, e4 = J e3) determines a quaternionic pair (I, K) with
I J K = -1, and the associated 2-forms (Omega_J, Omega_I, Omega_K) form an
orthonormal basis of the self-dual forms.
"""

import numpy as np

from weyl4.catalog import get_manifold
from weyl4.hermitian import AcsPoint
from weyl4.pointgeom import build_j_frame, inner_endo, rotate_supplement
from weyl4.selfdual import lambda2_split

TOL = 1e-12  # values below it are rounding noise, whose last digits vary with numpy, BLAS and CPU


def clean(x):
    """0 for a value at rounding level, so the printed output does not depend on its last bits."""
    return 0.0 if abs(x) <= TOL else x


spec = get_manifold("fubini_study_cp2")
point = [0.3, -0.2, 0.5, 0.1]
mp = spec.metric_point(point, order=2)
acs = AcsPoint.from_jets(spec.j_jets(point, 1), mp)  # validates J against the metric
frame = build_j_frame(mp, acs, seed=np.eye(4)[0])

print("frame vectors (columns):")
print(np.round(frame.E, 6) + 0.0)  # + 0.0 turns a rounded -0. into 0.
print("quaternion residual |IJK + 1|:", clean(np.abs(frame.I @ frame.J @ frame.K + np.eye(4)).max()))

names = ("J", "I", "K")
for a, A in zip(names, lambda2_split(frame)):
    for b, B in zip(names, lambda2_split(frame)):
        print(f"<{a},{b}> = {clean(inner_endo(A, B, mp)): .3f}", end="  ")
    print()

# the supplement is only determined up to a rotation in the (I, K) plane
rotated = rotate_supplement(frame, 0.7)
print("\nafter rotating the supplement by 0.7 rad:")
print("  |I'^2 + 1| =", clean(np.abs(rotated.I @ rotated.I + np.eye(4)).max()))
print("  <I', K'>  =", clean(inner_endo(rotated.I, rotated.K, mp)))
