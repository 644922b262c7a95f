"""weyl4 benchmark: end-to-end metrics per workload, or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload check_o4 --seed 1 --seconds 30 --trace 0

Workloads are described in ``workloads.py``.  Each run measures the weyl4
sources of the checkout it sits in (``src/``), single-process and with BLAS
pinned to one thread, and gates every call's output.

``--trace 0`` times whole calls for ``--seconds`` seconds, after one untimed
warm-up cycle, and reports the end-to-end metrics:

* ``setup_s``: median of several cold set-ups, each in a fresh interpreter
  (``setup_probe.py``);
* ``points_per_s``: point contexts (check, classify) or quadrature nodes
  (integrate) completed per second of call time, median over cycles;
* ``call_p50_s`` and ``call_p90_s`` over the timed calls;
* ``ok_ratio``: 1 - fail_ratio, gated calls that passed over calls attempted;
* ``peak_rss_mb``: peak resident set of the measuring process.

``--trace 1`` times the calls of ``--seconds / 3`` seconds untraced, replays
the same calls with every layer wrapped by ``tracer.Tracer``, and reports
the per-layer metrics, the tracing overhead (traced over untraced call time)
and the share of traced call time the summed self times account for.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import benchenv

SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60
COVERAGE_TOL = 0.03  # summed self time must be within 3% of traced call time


class Tally:
    """Counts gated calls and their failures; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, call) -> float:
        """Run one call, gate its result, return its wall time in seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call.run()
        except Exception:
            dt = time.perf_counter() - t0
            self._fail(call, traceback.format_exc())
            return dt
        dt = time.perf_counter() - t0
        try:
            message = call.check(result)
        except Exception:
            message = traceback.format_exc()
        if message:
            self._fail(call, message)
        return dt

    def _fail(self, call, message: str) -> None:
        self.failed += 1
        print(f"FAILED {call.label}: {message}", file=sys.stderr)


def measure(make_cycle, seconds: float, tally: Tally) -> list:
    """Whole cycles until ``seconds`` have passed: one [(call, wall seconds)]
    list per cycle."""
    cycles = []
    end = time.perf_counter() + seconds
    while True:
        cycles.append([(call, tally.run(call)) for call in make_cycle()])
        if time.perf_counter() >= end:
            return cycles


def measure_setup(seed: int, workdir: Path) -> list:
    """Cold set-up times, one fresh interpreter each, run one after another."""
    times = []
    for k in range(SETUP_REPEATS):
        probe_dir = workdir / f"setup{k}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(seed), str(probe_dir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def end_to_end(cycles: list, setups: list, tally: Tally) -> dict:
    times = [dt for cycle in cycles for _, dt in cycle]
    points = sum(call.points for cycle in cycles for call, _ in cycle)
    rates = [sum(c.points for c, _ in cycle) / sum(dt for _, dt in cycle) for cycle in cycles]
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
    beyond = sum(t > p90 for t in times)
    ok = (tally.attempted - tally.failed) / tally.attempted
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "points_per_s": (statistics.median(rates), "1/s"),
        "call_p50_s": (statistics.median(times), "s"),
        "call_p90_s": (p90, "s"),
        "ok_ratio": (ok, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "points_per_s": f"median of {len(cycles)} cycles; {points} points in {sum(times):.3f} s of calls",
        "call_p50_s": f"{len(times)} samples",
        "call_p90_s": f"{len(times)} samples, {beyond} beyond"
        + ("" if beyond >= 10 else "; fewer than 10 beyond, p90 unreliable"),
        "ok_ratio": f"fail_ratio {tally.failed}/{tally.attempted} = {1.0 - ok:g}",
        "peak_rss_mb": "measuring process",
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:14s} {value:.6g} {unit}  ({notes[name]})")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def per_layer(workload: str, make_cycle, seconds: float, tally: Tally) -> dict:
    import tracer

    untraced = [sample for cycle in measure(make_cycle, seconds / 3.0, tally) for sample in cycle]
    calls = [call for call, _ in untraced]
    with tracer.Tracer() as tr:
        traced = [tally.run(call) for call in calls]
    tr.check_reached(workload)

    traced_s = sum(traced)
    overhead = traced_s / sum(dt for _, dt in untraced)
    coverage = tr.self_seconds() / traced_s
    if abs(coverage - 1.0) > COVERAGE_TOL:
        raise tracer.TraceError(f"self times cover {coverage:.4f} of traced call time")
    points = tr.stats["conditions.point_context"][0]
    requested = sum(call.points for call in calls)
    values = tr.metrics(points=points, nodes=requested, calls=len(calls))
    values["trace.overhead_ratio"] = overhead
    values["trace.self_coverage"] = coverage
    print(f"  traced {len(calls)} calls asking for {requested} points or nodes, "
          f"{points} point contexts built; overhead x{overhead:.3f}, "
          f"self-time coverage {coverage:.4f}")
    out = {}
    for name, unit, _ in tracer.metric_specs():
        print(f"  {name:48s} {values[name]:.6g} {unit}")
        out[name] = {"value": values[name], "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("check_o4", "classify_o2", "integrate_sak"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        benchenv.use_checkout_sources()
    except benchenv.BenchSetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    import workloads

    benchenv.check_imported_from_checkout()
    print("env " + json.dumps(benchenv.environment(), sort_keys=True))

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=benchenv.ROOT))
    try:
        rng = np.random.default_rng(args.seed)
        inputs = workloads.prepare(rng, workdir)

        def make_cycle():
            return workloads.WORKLOADS[args.workload](inputs, rng)

        tally = Tally()
        for call in make_cycle():  # warm-up: caches and lazy set-up
            tally.run(call)
        print(f"{args.workload} seed={args.seed} trace={args.trace}")
        if args.trace:
            metrics = per_layer(args.workload, make_cycle, args.seconds, tally)
        else:
            cycles = measure(make_cycle, args.seconds, tally)
            metrics = end_to_end(cycles, measure_setup(args.seed, workdir), tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
