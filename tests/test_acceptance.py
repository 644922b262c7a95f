"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here, not calibrated elsewhere.
"""

import json
import time

import numpy as np
import pytest

from fd_oracle import richardson, second_richardson
from weyl4.catalog import builtin_manifolds, conformally_rescaled, get_manifold
from weyl4.cli import main as cli_main
from weyl4.conditions import (
    check_integral_formulas,
    point_context,
    run_suite,
    stack_rows,
)
from weyl4.curvature import curvature_bundle
from weyl4.exprjet import eval_jet, eval_values, jpartials
from weyl4.hermitian import AcsPoint, gl121_delta_wplus, nabla_j_data
from weyl4.pointgeom import build_j_frame
from weyl4.selfdual import delta_wpm

from weyl4.exprjet import parse_expression

from paper_oracles import conformal_nabla_j, j_frame, prop21_equivalence


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_flat_baseline():
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("euclidean_flat", "flat_torus"):
        spec = get_manifold(name)
        rng = np.random.default_rng(1)
        rows = stack_rows(point_context(spec, pt, 2) for pt in spec.sample_points(100, rng))
        quantities = [
            np.abs(rows.riem_v).max(),
            np.abs(rows.ric_v).max(),
            np.abs(rows.S_v).max(),
            np.abs(rows.wplus.m).max(),
            np.abs(rows.nj.nabla_j).max(),
            rows.nj.nijenhuis_norm,
            np.sqrt(rows.star.rt2).max(),
            np.sqrt(rows.star.ric_star_minus2).max(),
        ]
        worst = max(worst, max(quantities))
    runtime = time.perf_counter() - t0
    ok = worst < 1e-9 and runtime < 10.0
    report(1, ok, f"flat baseline: worst quantity norm {worst:.2e}, runtime {runtime:.1f}s")
    assert worst < 1e-9
    assert runtime < 10.0


def test_criterion_2_kahler_identity_suite():
    t0 = time.perf_counter()
    ids = ["EQ82", "EQ83", "EQ84", "EQ85", "EQ86", "EQ87", "EQ88", "EQ114"]
    worst = 0.0
    for name in ("fubini_study_cp2", "complex_hyperbolic_ch2", "kahler_potential_generic"):
        rep = run_suite(get_manifold(name), 50, seed=2, identities=ids)
        for row in rep.identities:
            if row["applicable_points"]:
                worst = max(worst, row["max_rel_residual"])
            assert row["verdict"] in ("pass", "not applicable"), (name, row)
    runtime = time.perf_counter() - t0
    ok = worst < 1e-6 and runtime < 120.0
    report(2, ok, f"Kahler identity suite: worst rel residual {worst:.2e}, runtime {runtime:.1f}s")
    assert worst < 1e-6
    assert runtime < 120.0


def test_criterion_3_universal_identities():
    t0 = time.perf_counter()
    ids = ["EQ42", "EQ46", "EQ54", "EQ63", "EQ65", "EQ69", "EQ71", "EQ70",
           "EQ72", "EQ73", "EQ75", "EQ48", "EQ121", "EQ131"]
    worst = 0.0
    worst_margin = 0.0
    for spec in builtin_manifolds():
        rep = run_suite(spec, 25, seed=3, identities=ids, rotations=5)
        for row in rep.identities:
            if not row["applicable_points"]:
                continue
            if row["id"] == "EQ131":
                worst_margin = min(worst_margin, row["min_signed_margin"])
            else:
                worst = max(worst, row["max_rel_residual"])
    runtime = time.perf_counter() - t0
    ok = worst < 1e-7 and worst_margin >= -1e-7 and runtime < 300.0
    report(
        3,
        ok,
        f"universal identities with rotated frames: worst rel {worst:.2e}, "
        f"worst signed margin {worst_margin:.2e}, runtime {runtime:.1f}s",
    )
    assert worst < 1e-7
    assert worst_margin >= -1e-7
    assert runtime < 300.0


def test_criterion_4_strictly_almost_kahler():
    spec = get_manifold("kodaira_thurston")
    rng = np.random.default_rng(4)
    rows = stack_rows(point_context(spec, pt, 2) for pt in spec.sample_points(20, rng))
    worst_domega = rows.nj.d_omega_norm
    worst_eta = float(np.abs(rows.nj.eta - (rows.J @ rows.nj.xi[..., None])[..., 0]).max())
    min_nj2 = float(rows.nj.norm2.min())
    min_nijenhuis = float(np.abs(rows.nj.nijenhuis).reshape(len(rows.S_v), -1).max(axis=1).min())

    from weyl4.conditions import classify_structure

    verdict, _ = classify_structure(spec, 20, seed=4)

    rep = run_suite(spec, 50, seed=4, identities=["EQ116", "EQ01"])
    by_id = {r["id"]: r for r in rep.identities}
    eq116 = by_id["EQ116"]["max_rel_residual"]
    eq01 = by_id["EQ01"]

    # the violation must be a strictly positive gap, not noise
    from weyl4.conditions import evaluate_identity

    res = evaluate_identity("EQ01", spec, spec.sample_points(1, rng)[0])
    gap = res.lhs - res.rhs

    ok = (
        worst_domega < 1e-9
        and worst_eta < 1e-9
        and min_nj2 > 1e-2
        and min_nijenhuis > 1e-2
        and verdict == "almost-Kähler non-Kähler"
        and eq116 < 1e-7
        and eq01["verdict"].startswith("violated")
        and gap > 1e-4
    )
    report(
        4,
        ok,
        f"strictly almost Kahler: dOmega {worst_domega:.1e}, eta-Jxi {worst_eta:.1e}, "
        f"|nabla J|^2 >= {min_nj2:.2f}, verdict '{verdict}', EQ116 {eq116:.1e}, "
        f"EQ01 gap +{gap:.3f} ({eq01['verdict']})",
    )
    assert worst_domega < 1e-9 and worst_eta < 1e-9
    assert min_nj2 > 0.0 and min_nijenhuis > 0.0
    assert verdict == "almost-Kähler non-Kähler"
    assert eq116 < 1e-7
    assert eq01["verdict"] == "violated (expected: strictly almost Kahler)"
    assert gap > 1e-4


def test_criterion_5_integral_formulas():
    t0 = time.perf_counter()
    results = {}
    for name in ("flat_torus", "kodaira_thurston"):
        rep = check_integral_formulas(get_manifold(name))
        vol = rep["volume"]
        results[name] = rep
        assert abs(rep["i117"]) < 1e-6 * vol, name
        assert abs(rep["i118"]) < 1e-6 * vol, name
        assert abs(rep["eq116_integrated"]) < 1e-6 * vol, name
        # the shortcut is only taken after the explicit 20-sample check
        assert rep["used_constancy_shortcut"]
    runtime = time.perf_counter() - t0
    ok = runtime < 300.0
    report(
        5,
        ok,
        "integral formulas: "
        + ", ".join(
            f"{n}: |117|={abs(r['i117']):.1e}, |118|={abs(r['i118']):.1e}, "
            f"|int EQ116|={abs(r['eq116_integrated']):.1e}"
            for n, r in results.items()
        )
        + f", runtime {runtime:.1f}s",
    )
    assert runtime < 300.0


def test_criterion_6_conformal_cross_check():
    worst = 0.0
    for name in ("kahler_potential_generic", "kodaira_thurston"):
        spec = get_manifold(name)
        pt = [0.3, 0.25, 0.45, 0.6]
        f_text = f"0.2*{spec.coords[0]}"
        mp = spec.metric_point(pt, 3)
        bundle = curvature_bundle(mp)
        acs = AcsPoint.from_jets(spec.j_jets(pt, 2), mp)
        frame = build_j_frame(mp, acs, np.eye(4)[0])
        nj = nabla_j_data(acs, bundle, frame)
        f_jet = eval_jet(parse_expression(f_text, spec.coords), pt, 1)
        predicted = conformal_nabla_j(nj, frame, f_jet)

        rescaled = conformally_rescaled(spec, f_text)
        mp2 = rescaled.metric_point(pt, 3)
        bundle2 = curvature_bundle(mp2)
        acs2 = AcsPoint.from_jets(spec.j_jets(pt, 2), mp2)
        frame2 = build_j_frame(mp2, acs2, np.eye(4)[0])
        direct = nabla_j_data(acs2, bundle2, frame2).nabla_j
        scale = max(np.abs(direct).max(), 1.0)
        worst = max(worst, float(np.abs(predicted - direct).max() / scale))
    ok = worst < 1e-7
    report(6, ok, f"conformal nabla-J prediction vs recomputation: worst rel {worst:.2e}")
    assert worst < 1e-7


def test_criterion_7_prop21_coherence():
    small = 0.0
    for name in ("fubini_study_cp2", "complex_hyperbolic_ch2", "kahler_potential_generic"):
        rep = prop21_equivalence(get_manifold(name), 15, seed=7)
        small = max(small, rep["max_residual"])
    large_rep = prop21_equivalence(get_manifold("kodaira_thurston"), 15, seed=7)
    large = large_rep["min_residual"]
    gap = large / max(small, 1e-300)
    ok = small < 1e-8 and large > 1e-4 and gap >= 1e3
    report(
        7,
        ok,
        f"Prop 2.1 coherence: Kahler max {small:.2e}, nilmanifold min {large:.2e}, gap {gap:.1e}",
    )
    assert small < 1e-8
    assert large > 1e-4
    assert gap >= 1e3


def _vector_eval(expr, cols, shifts):
    moved = [c + s for c, s in zip(cols, shifts)]
    return np.broadcast_to(np.asarray(eval_values(expr, moved)), cols[0].shape).astype(float)


def _fd_first(expr, cols, v, h):
    e = [h if k == v else 0.0 for k in range(4)]
    em = [-s for s in e]
    return (_vector_eval(expr, cols, e) - _vector_eval(expr, cols, em)) / (2.0 * h)


def _fd_second(expr, cols, v, w, h):
    if v == w:
        e = [h if k == v else 0.0 for k in range(4)]
        em = [-s for s in e]
        zero = [0.0] * 4
        return (
            _vector_eval(expr, cols, e)
            - 2.0 * _vector_eval(expr, cols, zero)
            + _vector_eval(expr, cols, em)
        ) / h**2
    total = np.zeros(cols[0].shape)
    for sv in (1.0, -1.0):
        for sw in (1.0, -1.0):
            e = [0.0] * 4
            e[v], e[w] = sv * h, sw * h
            total += sv * sw * _vector_eval(expr, cols, e)
    return total / (4.0 * h**2)


def test_criterion_8_differentiation_integrity():
    # first and second jet coefficients of every catalog metric component vs
    # Richardson-extrapolated central differences at 100 random points
    worst = 0.0
    for spec in builtin_manifolds():
        rng = np.random.default_rng(8)
        pts = spec.sample_points(100, rng)
        cols = [pts[:, i] for i in range(4)]
        h = 1e-3
        for i in range(4):
            for j in range(i, 4):
                expr = spec.metric_exprs[i][j]
                jets = [eval_jet(expr, pt, 2) for pt in pts]

                def check(fd, *directions):
                    nonlocal worst
                    got = np.array([jpartials(jt, len(directions))[directions] for jt in jets])
                    err = np.abs(got - fd)
                    tol = np.maximum(1e-6 * np.abs(fd), 1e-8)
                    tol[np.abs(fd) < 1e-2] = 1e-8
                    worst = max(worst, float((err / tol).max()))

                for v in range(4):
                    fd = (4.0 * _fd_first(expr, cols, v, h / 2) - _fd_first(expr, cols, v, h)) / 3.0
                    check(fd, v)
                for v in range(4):
                    for w in range(v, 4):
                        fd = (
                            4.0 * _fd_second(expr, cols, v, w, h / 2)
                            - _fd_second(expr, cols, v, w, h)
                        ) / 3.0
                        check(fd, v, w)

    # second path: delta W+ from the divergence of nabla W+ against the
    # nabla-Ric route, all catalog manifolds
    worst_dw = 0.0
    for spec in builtin_manifolds():
        rng = np.random.default_rng(9)
        for pt in spec.sample_points(3, rng):
            mp = spec.metric_point(pt, 3)
            bundle = curvature_bundle(mp)
            frame = j_frame(mp, spec.j_matrix(pt), np.eye(4)[0])
            dwp = delta_wpm(bundle, frame)
            alt = gl121_delta_wplus(bundle.nabla_ric, bundle.dS, mp, frame)
            scale = max(np.abs(dwp).max(), np.abs(bundle.riem_v).max(), 1.0)
            worst_dw = max(worst_dw, float(np.abs(dwp - alt).max() / scale))
    ok = worst <= 1.0 and worst_dw < 1e-7
    report(
        8,
        ok,
        f"differentiation integrity: jets-vs-Richardson worst {worst:.3f} of tolerance, "
        f"divergence routes agree to {worst_dw:.2e}",
    )
    assert worst <= 1.0
    assert worst_dw < 1e-7


def test_criterion_9_determinism_and_cli_contract(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["check", "fubini_study_cp2", "--points", "10", "--seed", "7", "--out"]
    code1 = cli_main(args + [str(out1)])
    code2 = cli_main(args + [str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()

    violated = cli_main(
        ["check", "kodaira_thurston", "--identities", "EQ01", "--points", "5",
         "--out", str(tmp_path / "kt.json")]
    )
    usage = cli_main(["check", "not_a_manifold"])
    capsys.readouterr()

    payload = json.loads(out1.read_text())
    ok = (
        code1 == 0 and code2 == 0 and identical
        and violated == 1 and usage == 2
        and payload["passed"] is True
    )
    report(
        9,
        ok,
        f"CLI contract: pass={code1}, repeat identical={identical}, "
        f"violated run={violated}, usage error={usage}",
    )
    assert code1 == 0 and code2 == 0
    assert identical
    assert violated == 1
    assert usage == 2
