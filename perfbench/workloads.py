"""The benchmark's workloads: generated inputs, the timed call and its gate.

Every workload is a closed loop with one client: the next call starts when
the previous one has returned.  A workload yields its calls one cycle at a
time; a cycle visits each input once, and every call draws its own sample
seed from the run's generator, so the run seed fixes every input.

* ``check_o4`` runs ``weyl4 check`` (jet order 4, all identities) on every
  catalog entry.  It is what users run, the only workload that runs the
  identity evaluators and the report writer, and about half its point time
  is ``jmul`` at order 4.
* ``classify_o2`` runs ``weyl4 classify`` on every entry with a J.  At
  order 2 ``jmul`` is cheap and expression evaluation weighs more, and the
  verdict reads none of the frame data beyond nabla J, so work the context
  computes eagerly shows here and not on ``check_o4``.
* ``integrate_sak`` runs ``check_integral_formulas`` on a compact strictly
  almost-Kahler torus whose curvature is not constant, so the constancy
  shortcut cannot fire and every node runs the order-4 pipeline through the
  quadrature loop and its per-node cache, with no identity evaluator.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from weyl4 import cli, conditions
from weyl4.catalog import ManifoldSpec, builtin_manifolds, load_manifold_config
from weyl4.conditions import QuadratureSpec, point_context

POINTS = 25  # sample points per check / classify call (the CLI default)

# A coarse ladder: levels 1 and 2 plus 8 constancy samples, 25 distinct nodes
# per call.  Calls must stay short enough (about 0.1 s here) that a 30 s run
# holds well over a hundred of them, so that call_p90_s has at least ten
# samples beyond it.
QUAD = {"n": 1, "n_refine": 2, "constancy_samples": 8}

# Verdicts at the seed commit, for every catalog entry.
EXPECTED_CLASSIFICATION = {
    "euclidean_flat": "Kähler",
    "flat_torus": "Kähler",
    "fubini_study_cp2": "Kähler",
    "complex_hyperbolic_ch2": "Kähler",
    "kahler_potential_generic": "Kähler",
    "kodaira_thurston": "almost-Kähler non-Kähler",
    "round_conformal": "Hermitian non-Kähler",
    "perturbed_j": "generic almost-Hermitian",
}
# Rows that are expected to fail, and the only entries whose check exits 1.
EXPECTED_VIOLATIONS = {"kodaira_thurston": {"EQ01", "EQ06"}}

TWO_PI = repr(2.0 * math.pi)


@dataclass(frozen=True)
class Call:
    """One top-level call: ``run`` is timed, ``check`` gates its result."""

    label: str
    points: int  # point contexts or quadrature nodes the call completes
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # failure message, or None


@dataclass(frozen=True)
class Inputs:
    specs: list
    sak: ManifoldSpec


def sak_config(phi: float) -> str:
    """g = diag(e^{-2a}, e^{2a}, 1, 1), a = 0.3 sin 2pi(z + phi), J = -g^{-1} omega_0."""
    a2 = f"0.6*sin({TWO_PI}*(z + {phi!r}))"
    return f"""[manifold]
id = sak_torus
coords = x, y, z, t
compact = true
domain = 0..1, 0..1, 0..1, 0..1

[metric]
g_11 = exp(-{a2})
g_22 = exp({a2})
g_33 = 1
g_44 = 1

[structure]
J_1_2 = -exp({a2})
J_2_1 = exp(-{a2})
J_3_4 = -1
J_4_3 = 1
"""


def prepare(rng: np.random.Generator, workdir: Path) -> Inputs:
    """Everything set up before the first call: catalog, generated config,
    and the first point contexts at orders 2 and 4 (jet tables)."""
    specs = builtin_manifolds()
    path = workdir / "sak_torus.cfg"
    path.write_text(sak_config(float(rng.uniform())), encoding="utf-8")
    sak = load_manifold_config(str(path))
    point = sak.sample_points(1, rng)[0]
    point_context(sak, point, 2)
    point_context(sak, point, 4)
    return Inputs(specs=specs, sak=sak)


def _seed(rng: np.random.Generator) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


def _cli(argv: list) -> tuple:
    """Run the CLI (looked up at call time, so that a tracer sees it) with its report captured in memory: (exit code, report).

    The report goes to standard output rather than to ``--out``, because on
    some file systems truncating an existing file costs tens of milliseconds
    at random, which would swamp the shortest calls."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def check_o4(inputs: Inputs, rng: np.random.Generator) -> list:
    calls = []
    for spec in inputs.specs:
        argv = ["check", spec.id, "--points", str(POINTS), "--seed", _seed(rng)]
        calls.append(Call(" ".join(argv), POINTS, functools.partial(_cli, argv),
                          functools.partial(_gate_check, spec.id)))
    return calls


def _gate_check(sid: str, result: tuple) -> Optional[str]:
    rc, text = result
    expected = EXPECTED_VIOLATIONS.get(sid, set())
    if rc != (1 if expected else 0):
        return f"exit code {rc}"
    report = json.loads(text)
    if report["jet_order"] != 4:
        return f"jet order {report['jet_order']}"
    if report["classification"] != EXPECTED_CLASSIFICATION[sid]:
        return f"classification {report['classification']!r}"
    unconfirmed = sorted(t for t, v in report["tags"].items() if not v["confirmed"])
    if unconfirmed:
        return f"unconfirmed tags {unconfirmed}"
    bad = {r["id"]: r["verdict"] for r in report["identities"]
           if not (r["verdict"].startswith("pass") or r["verdict"] == "not applicable")}
    if set(bad) != expected or not all(v.startswith("violated (expected") for v in bad.values()):
        return f"non-pass rows {bad}"
    return None


def classify_o2(inputs: Inputs, rng: np.random.Generator) -> list:
    calls = []
    for spec in inputs.specs:
        if not spec.has_j:
            continue
        argv = ["classify", spec.id, "--points", str(POINTS), "--seed", _seed(rng),
                "--format", "json"]
        calls.append(Call(" ".join(argv), POINTS, functools.partial(_cli, argv),
                          functools.partial(_gate_classify, spec.id)))
    return calls


def _gate_classify(sid: str, result: tuple) -> Optional[str]:
    rc, text = result
    if rc != 0:
        return f"exit code {rc}"
    verdict = json.loads(text)["verdict"]
    if verdict != EXPECTED_CLASSIFICATION[sid]:
        return f"verdict {verdict!r}"
    return None


def quadrature_nodes(quad: QuadratureSpec) -> int:
    """Distinct points one ``check_integral_formulas`` call asks for: the
    constancy samples plus the tensor Gauss-Legendre nodes of each level."""
    levels = {max(2, quad.n // 2), quad.n, quad.n_refine}
    return quad.constancy_samples + sum(n**4 for n in levels)


def integrate_sak(inputs: Inputs, rng: np.random.Generator) -> list:
    quad = QuadratureSpec(seed=int(_seed(rng)), **QUAD)
    return [Call(f"check_integral_formulas(sak_torus, seed={quad.seed})",
                 quadrature_nodes(quad),
                 lambda: conditions.check_integral_formulas(inputs.sak, quad), _gate_integrals)]


def _gate_integrals(report: dict) -> Optional[str]:
    err = report["error_estimate"]
    scale = max(abs(report["i117"]), abs(report["i118"]), abs(report["Q"]), 1.0)
    if report["used_constancy_shortcut"]:
        return "constancy shortcut used"
    if abs(report["volume"] - 1.0) > 1e-12:
        return f"volume {report['volume']!r}"
    if abs(report["eq116_integrated"]) > 1e-9 * scale:
        return f"eq116_integrated {report['eq116_integrated']!r}"
    if abs(report["i117"]) > err or abs(report["i118"]) > err:
        return f"|i117|={abs(report['i117']):.3e} or |i118|={abs(report['i118']):.3e} > error {err:.3e}"
    return None


WORKLOADS = {"check_o4": check_o4, "classify_o2": classify_o2, "integrate_sak": integrate_sak}
