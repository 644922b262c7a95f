"""Smoke test of the benchmark itself.

Runs every workload for one second, untraced and traced, and checks that the
result line is well formed, that every gated call passed, and that it
carries every metric BENCHMARK.json names, with its unit.  Then checks that
the benchmark refuses to run, without printing a result, when the weyl4
sources are missing.

Usage, from the repository root (takes about a minute):

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seed", "7", "--seconds", "1"]


def fail(message: str) -> None:
    raise SystemExit(f"smoke: FAILED: {message}")


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180, check=False)


def check_result(proc: subprocess.CompletedProcess, expected: dict, what: str) -> None:
    if proc.returncode != 0:
        fail(f"{what}: exit code {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        fail(f"{what}: correct={result['correct']} failed={result['failed']}\n{proc.stderr}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"{what}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}, "
             f"units {[(n, got[n], u) for n, u in expected.items() if n in got and got[n] != u]}")
    bad = [n for n, m in result["metrics"].items() if not isinstance(m["value"], (int, float))]
    if bad:
        fail(f"{what}: non-numeric values for {bad}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            check_result(run(ROOT, "--workload", workload, "--trace", str(trace)), expected[trace], what)
            print(f"smoke: ok {what}")

    with tempfile.TemporaryDirectory(prefix=".perfbench-smoke-", dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(Path(bare), "--workload", bench["workloads"][0]["name"], "--trace", "0")
        if proc.returncode == 0 or '"correct"' in proc.stdout:
            fail("the benchmark ran without the weyl4 sources")
    print("smoke: ok refuses to run without sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
