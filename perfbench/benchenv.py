"""Process set-up shared by the benchmark scripts.

Import this module before anything imports numpy: it pins the BLAS and
OpenMP thread pools to one thread and puts the checkout's ``src`` first on
``sys.path``, so the benchmark measures the weyl4 sources it ships with and
never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class BenchSetupError(RuntimeError):
    """The checkout cannot be benchmarked (sources missing or shadowed)."""


def use_checkout_sources() -> None:
    """Make ``import weyl4`` resolve to ``<checkout>/src/weyl4`` or raise."""
    if not (SRC / "weyl4" / "__init__.py").is_file():
        raise BenchSetupError(f"no weyl4 sources under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def check_imported_from_checkout() -> None:
    weyl4 = sys.modules.get("weyl4")
    if weyl4 is None or Path(weyl4.__file__).resolve().parent != SRC / "weyl4":
        raise BenchSetupError("weyl4 was not imported from this checkout's src/")


def environment() -> dict:
    """Facts a reader needs to compare two result files."""
    import platform

    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        pass
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _git_sha() -> str:
    """HEAD of the checkout read from ``.git`` directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
