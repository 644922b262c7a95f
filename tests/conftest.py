import importlib.util
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from weyl4.catalog import builtin_manifolds

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
