import importlib.util
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from weyl4.catalog import builtin_manifolds

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

TWO_PI = repr(2.0 * math.pi)
UNIT_BOX = "[manifold]\nid = {}\ncoords = x, y, z, t\ncompact = true\ndomain = 0..1, 0..1, 0..1, 0..1\n"

# g = (2 + sin^2 2 pi x)(dx^2 + dy^2) + dz^2 + dt^2 with the standard J: the metric
# reads x only, and its curvature is not constant along x
SIN2_TORUS = UNIT_BOX.format("sin2_torus") + f"""[metric]
g_11 = 2 + sin({TWO_PI}*x)^2
g_22 = 2 + sin({TWO_PI}*x)^2
g_33 = 1
g_44 = 1
[structure]
J_1_2 = -1
J_2_1 = 1
J_3_4 = -1
J_4_3 = 1
"""

# the flat metric, and J = cos(th) I + sin(th) K for two anticommuting orthogonal
# complex structures I, K with th = 0.5 sin 2 pi t: only J reads t
_TH = f"0.5*sin({TWO_PI}*t)"
TWISTED_J_TORUS = UNIT_BOX.format("twisted_j_torus") + f"""[metric]
g_11 = 1
g_22 = 1
g_33 = 1
g_44 = 1
[structure]
J_1_2 = -cos({_TH})
J_2_1 = cos({_TH})
J_3_4 = -cos({_TH})
J_4_3 = cos({_TH})
J_1_3 = -sin({_TH})
J_3_1 = sin({_TH})
J_2_4 = sin({_TH})
J_4_2 = -sin({_TH})
"""


@pytest.fixture(scope="session")
def catalog():
    return {spec.id: spec for spec in builtin_manifolds()}


def perfbench_module(name: str):
    """``perfbench/<name>.py``, imported once as ``perfbench_<name>`` (its
    dataclasses need the module in ``sys.modules``)."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]
