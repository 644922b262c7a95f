"""Time one cold set-up in a fresh interpreter and print it as JSON.

Set-up is importing weyl4 (and numpy), building the catalog, writing,
parsing and validating the generated config, and the first point contexts
at jet orders 2 and 4.  ``run.py`` starts this script several times and
reports the median.

Usage: python3 perfbench/setup_probe.py SEED WORKDIR
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import benchenv


def main(argv: list) -> int:
    seed, workdir = int(argv[0]), Path(argv[1])
    benchenv.use_checkout_sources()
    t0 = time.perf_counter()
    import numpy as np

    import workloads

    t_import = time.perf_counter()
    workloads.prepare(np.random.default_rng(seed), workdir)
    t_end = time.perf_counter()
    benchenv.check_imported_from_checkout()
    print(json.dumps({"setup_s": t_end - t0, "import_s": t_import - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
