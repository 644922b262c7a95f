import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from weyl4.catalog import builtin_manifolds


@pytest.fixture(scope="session")
def catalog():
    return {spec.id: spec for spec in builtin_manifolds()}

