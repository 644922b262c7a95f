"""Every demo prints exactly its expected output.

Each script in ``demos/`` runs in a fresh interpreter and its standard
output is compared byte for byte with ``demos/expected/<name>.txt``.  A
change that moves a printed digit shows here; regenerate an expected file
only for a change that is meant to move it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_is_unchanged(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (ROOT / "demos" / "expected" / f"{demo.stem}.txt").read_text(encoding="utf-8")
