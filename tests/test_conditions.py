import collections
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from weyl4.catalog import builtin_manifolds, get_manifold, load_manifold_config
from weyl4.conditions import (
    CONSTANCY_TOL,
    GATE,
    INTEGRAND_KEYS,
    REGISTRY,
    ConditionsError,
    QuadratureError,
    QuadratureSpec,
    check_integral_formulas,
    classify_structure,
    evaluate_identity,
    evaluate_integrand,
    integrate_density,
    point_context,
    run_suite,
    stack_rows,
)
from weyl4 import conditions
from weyl4.conditions import (
    FRAME_SEED,
    NODE_CHUNK,
    Rows,
    _chunk_points,
    _classify,
    _gate_masks,
    _gauss_grid,
    _leafwise,
    _node_values,
    _residual,
    _tag_report,
    _verdict,
)
from weyl4.curvature import curvature_bundle
from weyl4.hermitian import AcsPoint, nabla_j_data, projections_p1p2, q_j_integrand, star_ricci_family
from weyl4.pointgeom import build_j_frame
from weyl4.selfdual import delta_wpm, lambda2_split, nabla_w_sd_matrices, wplus_matrix

from conftest import SIN2_TORUS, TWISTED_J_TORUS, perfbench_module
from paper_oracles import frame_reference, prop21_equivalence, unpack

SPEC_REGISTRY_IDS = {
    "EQ01", "EQ02", "EQ03", "EQ04", "EQ05", "EQ06",
    "EQ42", "EQ46", "EQ48", "EQ54", "EQ63", "EQ65", "EQ69", "EQ70", "EQ71",
    "EQ72", "EQ73", "EQ75", "EQ77", "EQ80",
    "EQ82", "EQ83", "EQ84", "EQ85", "EQ86", "EQ87", "EQ88",
    "EQ104", "EQ112", "EQ114", "EQ116", "EQ121", "EQ126", "EQ128",
    "EQ131", "EQ133", "EQ117",
}


class TestRegistry:
    def test_complete(self):
        assert set(REGISTRY) == SPEC_REGISTRY_IDS

    def test_every_record_has_anchor(self):
        for rec in REGISTRY.values():
            assert rec.anchor.startswith("gl-")

    def test_unknown_identity(self):
        with pytest.raises(ConditionsError):
            evaluate_identity("EQ999", get_manifold("flat_torus"), [0, 0, 0, 0])

    def test_integral_identity_not_pointwise(self):
        with pytest.raises(ConditionsError):
            evaluate_identity("EQ117", get_manifold("flat_torus"), [0, 0, 0, 0])

    def test_point_built_at_the_records_jet_order(self):
        # EQ133 reads the Laplacian of |W+|^2, which needs metric jet order 4
        res = evaluate_identity("EQ133", get_manifold("fubini_study_cp2"), [0.1, 0.1, 0.1, 0.1])
        assert res.applicable and res.rel_residual < 1e-8


class TestEvaluateIdentity:
    def test_eq42_random_catalog(self, catalog):
        rng = np.random.default_rng(0)
        for spec in catalog.values():
            pt = spec.sample_points(1, rng)[0]
            res = evaluate_identity("EQ42", spec, pt)
            assert res.applicable
            assert res.rel_residual < 1e-9

    def test_eq82_flat_torus(self):
        spec = get_manifold("flat_torus")
        res = evaluate_identity("EQ82", spec, [1.0, 2.0, 3.0, 4.0])
        assert res.applicable
        assert res.lhs == res.rhs == 0.0
        assert res.rel_residual == 0.0

    def test_eq116_kodaira_thurston(self):
        spec = get_manifold("kodaira_thurston")
        rng = np.random.default_rng(1)
        for pt in spec.sample_points(5, rng):
            res = evaluate_identity("EQ116", spec, pt)
            assert res.applicable
            assert res.rel_residual < 1e-7
            assert res.lhs == pytest.approx(5.0 / 8.0, abs=1e-10)

    def test_eq01_kodaira_thurston_definitive_violation(self):
        spec = get_manifold("kodaira_thurston")
        res = evaluate_identity("EQ01", spec, [0.3, 0.6, 0.2, 0.8])
        assert res.applicable
        assert res.lhs - res.rhs > 0.0          # strictly positive gap
        assert res.lhs - res.rhs == pytest.approx(0.625, abs=1e-10)
        assert res.rel_residual > 1e-4           # beyond tau_fail: not noise

    @pytest.mark.parametrize("rid", ["EQ01", "EQ42", "EQ116", "EQ121"])
    def test_scale_normalizes_the_residual(self, catalog, rid):
        # rel = abs / max(scale, floor), and the scale is never below the point's curvature scale
        rng = np.random.default_rng(3)
        applied = 0
        for spec in catalog.values():
            pt = spec.sample_points(1, rng)[0]
            res = evaluate_identity(rid, spec, pt)
            if res.applicable:
                applied += 1
                assert res.rel_residual == res.abs_residual / max(res.scale, conditions.RESIDUAL_FLOOR)
                assert res.scale >= curvature_scale(spec, pt, REGISTRY[rid].min_order)
        assert applied >= 3

    def test_eq131_signed_margin(self, catalog):
        rng = np.random.default_rng(2)
        for spec in catalog.values():
            pt = spec.sample_points(1, rng)[0]
            res = evaluate_identity("EQ131", spec, pt)
            assert res.signed_margin is not None
            assert res.signed_margin >= -1e-9

    def test_applicability_gates(self):
        # perturbed_j is not almost Kahler: EQ01/EQ116 not applicable
        spec = get_manifold("perturbed_j")
        pt = [0.4, 0.2, -0.3, 0.6]
        for rid in ("EQ01", "EQ116", "EQ126", "EQ128"):
            assert not evaluate_identity(rid, spec, pt).applicable
        # round_conformal is not Kahler: EQ82 gated out, but it satisfies the
        # two-eigenvalue condition trivially (W+ = 0), so EQ80 applies
        spec = get_manifold("round_conformal")
        assert not evaluate_identity("EQ82", spec, pt).applicable
        res = evaluate_identity("EQ80", spec, pt)
        assert res.applicable and res.rel_residual < 1e-9


class TestRunSuite:
    def test_flat_torus_everything_passes(self):
        rep = run_suite(get_manifold("flat_torus"), 100, seed=3)
        assert rep.passed
        for row in rep.identities:
            if row["applicable_points"]:
                assert row["max_rel_residual"] < 1e-9, row

    def test_fubini_kahler_identities(self):
        rep = run_suite(get_manifold("fubini_study_cp2"), 20, seed=4)
        assert rep.passed
        by_id = {r["id"]: r for r in rep.identities}
        for rid in ("EQ82", "EQ83", "EQ84", "EQ85", "EQ86", "EQ87", "EQ88", "EQ114"):
            assert by_id[rid]["applicable_points"] == 20
            assert by_id[rid]["max_rel_residual"] < 1e-7

    def test_kodaira_thurston_violation_signaled(self):
        rep = run_suite(get_manifold("kodaira_thurston"), 10, seed=5)
        assert not rep.passed
        by_id = {r["id"]: r for r in rep.identities}
        assert by_id["EQ01"]["verdict"] == "violated (expected: strictly almost Kahler)"
        assert by_id["EQ01"]["max_rel_residual"] > 1e-4
        # the structural identities still hold there
        for rid in ("EQ42", "EQ46", "EQ116", "EQ121", "EQ128", "EQ126"):
            assert by_id[rid]["verdict"] == "pass"
        assert rep.tags["almost-kahler"]["confirmed"]
        assert rep.tags["constant-s"]["confirmed"]

    def test_m_plus_gating_on_flat(self):
        rep = run_suite(get_manifold("flat_torus"), 5, seed=6)
        by_id = {r["id"]: r for r in rep.identities}
        for rid in ("EQ04", "EQ05", "EQ88", "EQ112"):
            assert by_id[rid]["applicable_points"] == 0
            assert by_id[rid]["verdict"] == "not applicable"

    def test_identity_filter_and_errors(self):
        spec = get_manifold("flat_torus")
        rep = run_suite(spec, 3, identities=["EQ42", "EQ131"])
        assert {r["id"] for r in rep.identities} == {"EQ42", "EQ131"}
        with pytest.raises(ConditionsError):
            run_suite(spec, 3, identities=["EQ9999"])
        with pytest.raises(ConditionsError):
            run_suite(spec, 0)

    def test_determinism_bit_identical(self):
        spec = get_manifold("kahler_potential_generic")
        a = run_suite(spec, 6, seed=11, rotations=2).to_json()
        b = run_suite(spec, 6, seed=11, rotations=2).to_json()
        assert a == b
        c = run_suite(spec, 6, seed=12, rotations=2).to_json()
        assert a != c

    def test_rotations_keep_identities_passing(self):
        rep = run_suite(
            get_manifold("complex_hyperbolic_ch2"), 4, seed=7, rotations=3,
            identities=["EQ42", "EQ54", "EQ72", "EQ75", "EQ121", "EQ131"],
        )
        assert rep.passed
        for row in rep.identities:
            assert row["applicable_points"] == 16  # 4 points x (1 + 3 rotations)

    def test_monotone_tolerance_behavior(self):
        # more points never flips pass -> fail on Kahler entries
        for name in ("fubini_study_cp2", "kahler_potential_generic"):
            spec = get_manifold(name)
            assert run_suite(spec, 10, seed=8).passed
            assert run_suite(spec, 30, seed=8).passed

    def test_report_serializations(self):
        rep = run_suite(get_manifold("flat_torus"), 3, seed=9)
        payload = json.loads(rep.to_json())
        assert payload["schema_version"] == 1
        assert payload["manifold"] == "flat_torus"
        assert "conventions" in payload and "identities" in payload
        csv_text = rep.to_csv()
        assert len(csv_text.strip().splitlines()) == len(rep.identities) + 1
        assert "max_rel_residual" in csv_text.splitlines()[0]
        text = rep.to_text()
        assert "PASS" in text


@pytest.fixture(scope="module")
def batch_specs(tmp_path_factory):
    """Every catalog entry, and the non-homogeneous strictly almost-Kahler torus."""
    from test_frame_kernels import SAK_TORUS

    path = tmp_path_factory.mktemp("sak") / "sak_torus.cfg"
    path.write_text(SAK_TORUS)
    return {s.id: s for s in builtin_manifolds() + [load_manifold_config(str(path))]}


def one_row(x):
    """A single point's value, or each field of a dataclass of them, as a stack of one row."""
    if dataclasses.is_dataclass(x):
        return type(x)(**{f.name: np.asarray(getattr(x, f.name))[None] for f in dataclasses.fields(x)})
    return np.asarray(x)[None]


def rotated_row(spec, pt, order, alpha):
    """The row at ``pt`` with its supplement rotated by ``alpha``, its frame
    fields from ``frame_reference``: none of the repeating and per-row
    rotation of ``stack_rows`` is used.  The frame-free fields come from the
    one-row stack of the point itself."""
    ref = frame_reference(spec, pt, order, alpha)
    fields = dict(
        I=ref.frame.I, K=ref.frame.K, star=ref.star, nj=ref.nj, wplus=ref.wplus,
        proj=projections_p1p2(ref.star, ref.wplus.m),
    )
    if order >= 3:
        fields["nabla_sd"] = ref.nabla_sd
    rows = stack_rows(point_context(spec, pt, order))
    return dataclasses.replace(rows, **{k: one_row(v) for k, v in fields.items()})


def per_point_batches(spec, n_points, seed, rotations, ids):
    """(relative residual, signed margin) of every row run_suite builds (same
    points, same rotation angles) where the record applies, each row built
    on its own by ``rotated_row`` and sent through the same residual step."""
    order = max(REGISTRY[rid].min_order for rid in ids)
    if "constant-s" in spec.tags:
        order = max(order, 3)
    rng = np.random.default_rng(seed)
    pts = spec.sample_points(n_points, rng)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(n_points, rotations))
    out = {rid: [] for rid in ids}
    for pt, alphas in zip(pts, angles):
        if spec.has_j:
            one_point = [rotated_row(spec, pt, order, a) for a in (0.0, *alphas)]
        else:
            one_point = [stack_rows(point_context(spec, pt, order))]
        for rows in one_point:
            masks = _gate_masks(rows)
            for rid in ids:
                res = _residual(REGISTRY[rid], rows, masks)
                if res is not None:
                    out[rid] += list(zip(res[4], res[4] if res[5] is None else res[5]))
    return out


def assert_rows_match_per_point_batches(spec, ids=None):
    rep = run_suite(spec, 12, seed=3, rotations=1, identities=ids)
    ids = [row["id"] for row in rep.identities]
    single = per_point_batches(spec, 12, 3, 1, ids)
    close = dict(rel=1e-15, abs=1e-15)
    for row in rep.identities:
        applied = single[row["id"]]
        assert row["applicable_points"] == len(applied), row
        rels = [rel for rel, _ in applied]
        assert row["max_rel_residual"] == pytest.approx(max(rels, default=0.0), **close), row
        assert row["mean_rel_residual"] == pytest.approx(float(np.mean(rels)) if rels else 0.0, **close), row
        if REGISTRY[row["id"]].signed and applied:
            assert row["min_signed_margin"] == pytest.approx(min(m for _, m in applied), **close)


def jet_rows(spec, points):
    """The stacked order-4 rows at ``points`` before the frame stage has run."""
    return Rows(**point_context(spec, points, 4), curvature_scale=None)


def stacked(*columns):
    """The columns of single points, as the columns of their stack."""
    return {k: np.stack([c[k] for c in columns]) for k in columns[0]}


def frame_stage(rows):
    """The arrays each frame function gives on ``rows`` (order-4 rows with a J), by function."""
    acs = AcsPoint.from_jets(rows.j_jets, rows)
    frame = build_j_frame(rows, acs, FRAME_SEED)
    basis = lambda2_split(frame)
    star = star_ricci_family(rows, acs, frame)
    wplus = wplus_matrix(rows, basis)
    out = {
        "AcsPoint.from_jets": (acs.J, acs.omega),
        "build_j_frame": (frame.E, frame.I, frame.K),
        "lambda2_split": (basis,),
        "star_ricci_family": star,
        "nabla_j_data": nabla_j_data(acs, rows, frame),
        "wplus_matrix": wplus,
        "projections_p1p2": projections_p1p2(star, wplus.m),
        "delta_wpm": (delta_wpm(rows, basis),),
        "nabla_w_sd_matrices": (nabla_w_sd_matrices(rows, basis),),
        "q_j_integrand": (q_j_integrand(rows, acs.J),),
    }
    return {k: [getattr(v, f.name) for f in dataclasses.fields(v)] if dataclasses.is_dataclass(v) else list(v)
            for k, v in out.items()}


FRAME_FUNCTIONS = ("build_j_frame", "star_ricci_family", "nabla_j_data", "lambda2_split", "wplus_matrix",
                   "projections_p1p2", "delta_wpm", "nabla_w_sd_matrices", "q_j_integrand")


@pytest.fixture
def stage_calls(monkeypatch):
    """Calls of each frame function and of the per-chunk |W+|^2 and lambda jets, counted."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in FRAME_FUNCTIONS + ("wplus_norm2_jet", "lambda_jet"):
        monkeypatch.setattr(conditions, name, counted(name, getattr(conditions, name)))
    monkeypatch.setattr(AcsPoint, "from_jets", staticmethod(counted("AcsPoint.from_jets", AcsPoint.from_jets)))
    return calls


class TestBatchedRows:
    @pytest.mark.parametrize("name", [s.id for s in builtin_manifolds()] + ["sak_torus_test"])
    def test_frame_functions_match_one_row_stacks(self, batch_specs, name):
        spec = batch_specs[name]
        rows = jet_rows(spec, spec.sample_points(8, np.random.default_rng(5)))
        stacked = frame_stage(rows)
        for k in range(8):
            one = frame_stage(_leafwise(lambda v: v[k:k + 1], rows))
            for fn, arrays in stacked.items():
                for a, b in zip(arrays, one[fn]):
                    np.testing.assert_allclose(b[0], a[k], rtol=1e-15, atol=1e-15, err_msg=f"{fn}, row {k}")

    @pytest.mark.parametrize("name", [s.id for s in builtin_manifolds() if s.has_j] + ["sak_torus_test"])
    def test_rotated_rows_match_single_context_rotations(self, batch_specs, name):
        spec = batch_specs[name]
        rng = np.random.default_rng(4)
        pts, angles = spec.sample_points(5, rng), rng.uniform(0.0, 2.0 * np.pi, size=(5, 2))
        rows = stack_rows(point_context(spec, pts, 4), angles)
        for k, (pt, alphas) in enumerate(zip(pts, angles)):
            for j, alpha in enumerate((0.0, *alphas)):
                ref, i = rotated_row(spec, pt, 4, alpha), 3 * k + j
                got = _leafwise(lambda v: v[i:i + 1], rows)
                for field in ("I", "K", "star", "nj", "wplus", "nabla_sd", "dwp", "w2_grad", "lam_grad"):
                    a, b = getattr(got, field), getattr(ref, field)
                    pairs = zip(dataclasses.astuple(a), dataclasses.astuple(b)) if dataclasses.is_dataclass(a) else [(a, b)]
                    for u, v in pairs:
                        np.testing.assert_allclose(u, v, rtol=1e-15, atol=1e-15, err_msg=f"{field}, row {i}")
                masks, ref_masks = _gate_masks(got), _gate_masks(ref)
                for rid, record in REGISTRY.items():
                    if record.evaluator is not None:
                        res, ref_res = _residual(record, got, masks), _residual(record, ref, ref_masks)
                        assert (res is None) == (ref_res is None), (rid, i)
                        if res is not None:
                            np.testing.assert_allclose(res[4], ref_res[4], rtol=1e-15, atol=1e-15, err_msg=f"{rid}, row {i}")

    @pytest.mark.parametrize("order", [2, 4])
    def test_frame_stage_inputs_are_dropped(self, order):
        spec = get_manifold("kodaira_thurston")
        pts = spec.sample_points(3, np.random.default_rng(2))
        for angles in (None, np.full((3, 2), 0.4)):
            rows = stack_rows(point_context(spec, pts, order), angles)
            assert rows.nj is not None
            assert [rows.j_jets, rows.gamma_v, rows.dg_v, rows.nabla_weyl] == [None] * 4

    def test_frame_functions_run_once_per_stack(self, stage_calls, batch_specs):
        once = dict.fromkeys(FRAME_FUNCTIONS[:-1] + ("AcsPoint.from_jets",), 1)

        def chunks(n, order):  # the jet stage runs the |W+|^2 and lambda jets once per chunk (in one variable here)
            return -(-n // _chunk_points(order, 1))

        # rotated rows repeat the frame-free jets and delta W+ of their point; the self-dual
        # triple is split once for delta W+ on the points and once on the rotated rows
        run_suite(get_manifold("kodaira_thurston"), 25, seed=7, rotations=2)
        assert stage_calls == {**once, "lambda2_split": 2, "wplus_norm2_jet": chunks(25, 4), "lambda_jet": chunks(25, 4)}
        stage_calls.clear()
        classify_structure(get_manifold("perturbed_j"), 25, seed=7)
        order2 = {k: v for k, v in once.items() if k not in ("delta_wpm", "nabla_w_sd_matrices")}
        assert stage_calls == {**order2, "wplus_norm2_jet": chunks(25, 2)}
        stage_calls.clear()
        spec = batch_specs["sak_torus_test"]
        evaluate_integrand(spec, spec.sample_points(16, np.random.default_rng(1)))
        assert stage_calls == {**once, "q_j_integrand": 1, "wplus_norm2_jet": chunks(16, 4), "lambda_jet": chunks(16, 4)}

    def test_stacked_density_matches_per_node_loop(self, batch_specs):
        spec = batch_specs["sak_torus_test"]
        nodes = _gauss_grid(spec, 3, range(4))[0]  # 81 nodes: several chunks of the quadrature feed
        stacked = evaluate_integrand(spec, nodes)
        for k, node in enumerate(nodes):
            for key, value in evaluate_integrand(spec, node).items():
                assert value == pytest.approx(stacked[key][k], rel=1e-15, abs=1e-15), (key, k)
        quad = QuadratureSpec(n=2, n_refine=3)
        batched = integrate_density(spec, lambda p: evaluate_integrand(spec, p)["q_j"], quad)
        looped = integrate_density(spec, lambda p: np.array([evaluate_integrand(spec, x)["q_j"] for x in p]), quad)
        assert batched.used_constancy_shortcut is False and looped.used_constancy_shortcut is False
        assert batched.value == pytest.approx(looped.value, rel=1e-14)

    @pytest.mark.parametrize("name", [s.id for s in builtin_manifolds()] + ["sak_torus_test"])
    def test_result_does_not_depend_on_batch_size(self, batch_specs, name):
        assert_rows_match_per_point_batches(batch_specs[name])

    def test_identity_subset_does_not_depend_on_batch_size(self, batch_specs):
        assert_rows_match_per_point_batches(batch_specs["kahler_potential_generic"], ["EQ05", "EQ42", "EQ104", "EQ131"])

    def test_each_evaluator_runs_at_most_once_per_run(self, monkeypatch):
        calls = {}
        for rid, record in list(REGISTRY.items()):
            if record.evaluator is not None:
                def counted(rows, record=record):
                    calls[record.id] = calls.get(record.id, 0) + 1
                    return record.evaluator(rows)

                monkeypatch.setitem(REGISTRY, rid, dataclasses.replace(record, evaluator=counted))
        for name in ("kodaira_thurston", "kahler_potential_generic", "perturbed_j", "flat_torus"):
            calls.clear()
            run_suite(get_manifold(name), 6, seed=2, rotations=2)
            assert calls and max(calls.values()) == 1, (name, calls)


class TestClassify:
    @pytest.mark.parametrize(
        "name,verdict",
        [
            ("fubini_study_cp2", "Kähler"),
            ("kodaira_thurston", "almost-Kähler non-Kähler"),
            ("round_conformal", "Hermitian non-Kähler"),
            ("perturbed_j", "generic almost-Hermitian"),
        ],
    )
    def test_verdicts(self, name, verdict):
        got, residuals = classify_structure(get_manifold(name), 10, seed=10)
        assert got == verdict

    def test_requires_structure(self):
        from dataclasses import replace

        spec = replace(get_manifold("euclidean_flat"), j_exprs=None)
        with pytest.raises(ConditionsError):
            classify_structure(spec, 3)


class TestProp21:
    def test_kahler_coherently_small(self):
        for name in ("fubini_study_cp2", "complex_hyperbolic_ch2"):
            rep = prop21_equivalence(get_manifold(name), 8, seed=11)
            assert rep["max_residual"] < 1e-8
            assert rep["all_coherent"]

    def test_kodaira_thurston_coherently_large(self):
        rep = prop21_equivalence(get_manifold("kodaira_thurston"), 8, seed=12)
        assert rep["min_residual"] > 1e-4
        assert rep["all_coherent"]

    def test_gap_factor(self):
        small = prop21_equivalence(get_manifold("fubini_study_cp2"), 6, seed=13)
        large = prop21_equivalence(get_manifold("kodaira_thurston"), 6, seed=13)
        assert large["min_residual"] / max(small["max_residual"], 1e-300) > 1e3


class TestQuadrature:
    def test_constant_on_torus(self):
        spec = get_manifold("flat_torus")
        res = integrate_density(spec, lambda p: np.ones(len(p)))
        expect = (2.0 * np.pi) ** 4
        assert abs(res.value - expect) < 1e-10 * expect
        assert res.used_constancy_shortcut

    def test_qj_on_torus(self):
        spec = get_manifold("flat_torus")
        res = integrate_density(spec, lambda p: evaluate_integrand(spec, p)["q_j"])
        assert abs(res.value) < 1e-10

    def test_qj_kodaira_thurston_constancy(self):
        spec = get_manifold("kodaira_thurston")
        res = integrate_density(spec, lambda p: evaluate_integrand(spec, p)["q_j"])
        assert res.used_constancy_shortcut
        # left invariance: integral = volume x point value
        point_value = evaluate_integrand(spec, np.array([0.2, 0.4, 0.6, 0.8]))["q_j"]
        assert res.value == pytest.approx(res.volume * point_value, rel=1e-8)
        assert res.value == pytest.approx(-0.75, abs=1e-9)

    def test_full_quadrature_path(self):
        spec = get_manifold("flat_torus")
        res = integrate_density(
            spec, lambda p: np.sin(p[:, 0]) ** 2, QuadratureSpec(n=8, n_refine=12)
        )
        expect = (2.0 * np.pi) ** 3 * np.pi
        assert not res.used_constancy_shortcut
        assert abs(res.value - expect) < 1e-9 * expect
        # the reported estimate (coarse-vs-fine difference) is conservative
        assert res.error < 1e-4 * expect

    def test_non_compact_rejected(self):
        with pytest.raises(ConditionsError):
            integrate_density(get_manifold("fubini_study_cp2"), lambda p: np.ones(len(p)))

    @pytest.mark.parametrize("config, ladder", [
        ("sak", (1, 2)), ("sak", (2, 3)), ("kodaira_thurston", (16, 24)), ("sin2", (2, 3)), ("twisted_j", (2, 3)),
    ])
    def test_read_axes_grid_matches_full_grid(self, tmp_path, config, ladder):
        # along an axis neither tape reads, the one-node rule is exact: the grid on the read
        # axes gives the 4-D grid's values and errors, up to summation order
        text = {"sak": perfbench_module("workloads").sak_config(0.37), "sin2": SIN2_TORUS,
                "twisted_j": TWISTED_J_TORUS}.get(config)
        if text is None:
            spec = get_manifold(config)
        else:
            path = tmp_path / f"{config}.cfg"
            path.write_text(text)
            spec = load_manifold_config(str(path))
        quad = QuadratureSpec(n=ladder[0], n_refine=ladder[1])

        def densities(p):
            d = evaluate_integrand(spec, p)
            return [d[k] for k in INTEGRAND_KEYS]

        reduced = integrate_density(spec, densities, quad, spec.read_axes())
        full = integrate_density(spec, densities, quad)
        assert reduced.used_constancy_shortcut == full.used_constancy_shortcut == (config == "kodaira_thurston")
        assert reduced.volume == pytest.approx(full.volume, rel=1e-12)
        assert reduced.value == pytest.approx(full.value, rel=1e-12, abs=1e-15)
        assert reduced.error == pytest.approx(full.error, rel=1e-12, abs=1e-15)

    def test_volume_not_shared_between_specs_with_one_id(self, tmp_path):
        # same id and domain, different metrics: volumes 1 and 2*2 = 4
        volumes = []
        for name, g11 in (("flat", "1"), ("stretched", "4")):
            path = tmp_path / f"{name}.cfg"
            path.write_text(
                "[manifold]\nid = box\ncoords = x, y, z, t\ncompact = true\n"
                "domain = 0..1, 0..1, 0..1, 0..1\n"
                f"[metric]\ng_11 = {g11}\ng_22 = {g11}\ng_33 = 1\ng_44 = 1\n"
            )
            spec = load_manifold_config(str(path))
            volumes.append(integrate_density(spec, lambda p: np.ones(len(p))).volume)
        assert volumes == [pytest.approx(1.0, rel=1e-12), pytest.approx(4.0, rel=1e-12)]

    def test_non_convergent_refinement(self):
        spec = get_manifold("flat_torus")
        with pytest.raises(QuadratureError):
            integrate_density(
                spec,
                lambda p: 1.0 / (1.001 - np.sin(8.0 * p[:, 0])),
                QuadratureSpec(n=4, n_refine=6),
            )

    @pytest.mark.parametrize("name", ["flat_torus", "kodaira_thurston"])
    def test_vector_density_matches_scalar_integrals_on_shortcut(self, name):
        spec = get_manifold(name)
        keys = ("q_j", "s", "wplus2")

        def vec(p):
            d = evaluate_integrand(spec, p)
            return [d[k] for k in keys]

        res = integrate_density(spec, vec)
        assert res.used_constancy_shortcut
        for k, value, error in zip(keys, res.value, res.error):
            one = integrate_density(spec, lambda p, k=k: evaluate_integrand(spec, p)[k])
            assert (value, error) == (one.value, one.error)

    def test_vector_density_matches_scalar_integrals_on_ladder(self):
        spec = get_manifold("flat_torus")
        quad = QuadratureSpec(n=8, n_refine=12)
        funcs = (lambda p: np.sin(p[:, 0]) ** 2, lambda p: np.cos(p[:, 1]) ** 2)
        res = integrate_density(spec, lambda p: [f(p) for f in funcs], quad)
        assert not res.used_constancy_shortcut
        assert res.value.shape == res.error.shape == (2,)
        for f, value, error in zip(funcs, res.value, res.error):
            one = integrate_density(spec, f, quad)
            assert value == pytest.approx(one.value, rel=1e-14)
            assert error == pytest.approx(one.error, rel=1e-6, abs=1e-12 * abs(one.value))

    def test_one_diverging_component_raises(self):
        spec = get_manifold("flat_torus")
        with pytest.raises(QuadratureError):
            integrate_density(
                spec,
                lambda p: [np.sin(p[:, 0]) ** 2, 1.0 / (1.001 - np.sin(8.0 * p[:, 0]))],
                QuadratureSpec(n=4, n_refine=6),
            )


    def test_non_finite_node_value_raises(self):
        spec = get_manifold("flat_torus")
        with pytest.raises(QuadratureError, match="not finite at point"):
            integrate_density(
                spec, lambda p: [np.ones(len(p)), np.where(p[:, 0] > np.pi, np.inf, 0.0)], QuadratureSpec(n=4, n_refine=6)
            )


class TestIntegralFormulas:
    def test_flat_torus_exact(self):
        rep = check_integral_formulas(get_manifold("flat_torus"))
        assert rep["i117"] == 0.0
        assert rep["i118"] == 0.0
        assert rep["eq116_integrated"] == 0.0

    def test_kodaira_thurston(self):
        rep = check_integral_formulas(get_manifold("kodaira_thurston"))
        vol = rep["volume"]
        assert vol == pytest.approx(1.0, rel=1e-10)
        assert abs(rep["i117"]) < 1e-6 * vol
        assert abs(rep["i118"]) < 1e-6 * vol
        assert abs(rep["eq116_integrated"]) < 1e-6 * vol
        assert rep["Q"] == pytest.approx(-0.75, abs=1e-9)
        assert rep["used_constancy_shortcut"]

    def test_requires_compact(self):
        with pytest.raises(ConditionsError):
            check_integral_formulas(get_manifold("round_conformal"))

    @pytest.mark.parametrize("quad, calls", [(QuadratureSpec(n=1, n_refine=2, constancy_samples=8), 2), (QuadratureSpec(), 5)])
    def test_one_pass_over_the_ladder(self, tmp_path, monkeypatch, quad, calls):
        # the constancy samples take their own pass, then the nodes of every level go through the
        # density as one stack; each level's weighted sum keeps the bits of its grid run alone
        path = tmp_path / "sak.cfg"
        path.write_text(perfbench_module("workloads").sak_config(0.37))
        spec = load_manifold_config(str(path))
        levels = sorted({max(2, quad.n // 2), quad.n, quad.n_refine})
        grids = [_gauss_grid(spec, n, spec.read_axes()) for n in levels]

        def densities(p):
            d = evaluate_integrand(spec, p)
            return [d[k] for k in INTEGRAND_KEYS] + [d["s"] * d["nabla_j2"]]

        sums = [_node_values(spec, densities, p) @ (w * spec.volume_density(p)) for p, w in grids]
        sizes = []
        evaluate = conditions.evaluate_integrand
        monkeypatch.setattr(conditions, "evaluate_integrand", lambda s, p: sizes.append(len(p)) or evaluate(s, p))
        rep = check_integral_formulas(spec, quad)
        ladder = sum(len(p) for p, _ in grids)
        assert len(sizes) == -(-quad.constancy_samples // NODE_CHUNK) + -(-ladder // NODE_CHUNK) == calls
        assert not rep["used_constancy_shortcut"]
        assert rep["volume"] == (grids[-1][1] * spec.volume_density(grids[-1][0])).sum()
        assert rep["Q"] == sums[-1][0]
        assert list(rep["errors"].values()) == abs(sums[-1] - sums[-2]).tolist()


class TestGates:
    def test_gate_thresholds(self):
        assert GATE == 1e-8
        defaults = QuadratureSpec()
        assert defaults.n == 16 and defaults.n_refine == 24
        assert defaults.constancy_samples == 20

    def test_constancy_tolerance_is_a_module_constant(self):
        assert CONSTANCY_TOL == 1e-8
        names = [f.name for f in dataclasses.fields(QuadratureSpec)]
        assert names == ["n", "n_refine", "constancy_samples", "seed"]


def nan_in_row_1(record):
    """The record with its evaluator returning NaN in row 1 (the second
    point) of the rows it is called on, and the true values elsewhere."""

    def evaluator(rows):
        lhs, rhs, abs_res, scale = (np.array(v, dtype=float) for v in record.evaluator(rows))
        lhs[1] = abs_res[1] = math.nan
        return lhs, rhs, abs_res, scale

    return dataclasses.replace(record, evaluator=evaluator)


def reject_constant(name):
    raise ValueError(f"report contains {name}")


def curvature_scale(spec, pt, order):
    """max(1, max |Riem|, |S|) at one point, from its own curvature bundle."""
    b = curvature_bundle(spec.metric_point(pt, order))
    return max(1.0, float(np.abs(b.riem_v).max()), abs(b.S_v))


@pytest.fixture(scope="module")
def sak_specs(tmp_path_factory):
    """Every catalog entry, and the benchmark's strictly almost-Kahler torus at phase 0.37."""
    path = tmp_path_factory.mktemp("sak") / "sak_torus.cfg"
    path.write_text(perfbench_module("workloads").sak_config(0.37))
    return {s.id: s for s in builtin_manifolds() + [load_manifold_config(str(path))]}


def four_index_max(x):
    """max |x| per row over the 4-index values of (rows, ..., 6, 6) pair matrices."""
    return np.abs(unpack(x)).reshape(len(x), -1).max(axis=1)


class TestCurvatureScale:
    @pytest.mark.parametrize("name", [s.id for s in builtin_manifolds()] + ["sak_torus"])
    def test_pair_maxima_are_the_four_index_maxima(self, sak_specs, name):
        # the scale, the flat and conformally-flat tag residuals and max |nabla W| are maxima over the
        # pair entries: the same bits as over the 256 (1,024) values, a row with NaN entries included
        spec = sak_specs[name]
        cols = point_context(spec, spec.sample_points(5, np.random.default_rng(9)), 4)
        nan_row = {k: v[:1].copy() for k, v in cols.items()}
        nan_row["riem_v"][0, 1, 4] = nan_row["nabla_weyl"][0, 2, 3, 3] = np.nan  # a NaN W+ has no spectrum
        cols = {k: np.concatenate([v, nan_row[k]]) for k, v in cols.items()}
        rows = stack_rows(cols)
        riem, weyl, S = four_index_max(cols["riem_v"]), four_index_max(cols["weyl_v"]), np.abs(cols["S_v"])
        assert np.array_equal(rows.curvature_scale, np.fmax(np.fmax(1.0, riem), S))
        assert np.array_equal(rows.nabla_weyl_max, four_index_max(cols["nabla_weyl"]), equal_nan=True)
        tags = _tag_report(frozenset({"flat", "conformally-flat"}), rows, 1e-8)
        g_max = np.abs(cols["g"]).reshape(len(S), -1).max(axis=1)
        for tag, v in (("flat", riem / np.fmax(1.0, g_max**2)), ("conformally-flat", weyl / np.fmax(np.fmax(1.0, riem), S))):
            finite = np.isfinite(v)
            assert np.array_equal(tags[tag]["residual"], v[finite].max(initial=0.0))
            assert tags[tag].get("non_finite_points", 0) == np.count_nonzero(~finite)

    @pytest.mark.parametrize("name", ["fubini_study_cp2", "kodaira_thurston", "round_conformal"])
    def test_value_is_the_largest_curvature_magnitude(self, name):
        spec = get_manifold(name)
        pts = spec.sample_points(3, np.random.default_rng(4))
        rows = stack_rows(point_context(spec, pts, 3))
        assert rows.curvature_scale.tolist() == [curvature_scale(spec, p, 3) for p in pts]
        row = point_context(spec, pts[0], 3)
        scaled = stack_rows({**row, "riem_v": 3.0 * row["riem_v"]})
        assert scaled.curvature_scale[0] == max(1.0, 3.0 * float(np.abs(row["riem_v"]).max()), abs(row["S_v"]))

    def test_nan_terms_are_passed_over_like_max(self):
        # as max(1.0, nan, |S|) gives max(1, |S|): a NaN term never becomes the scale
        row = point_context(get_manifold("fubini_study_cp2"), [0.3, 0.4, 0.5, 0.6], 3)  # S = 12 > max |Riem|
        nan_riem = np.full_like(row["riem_v"], np.nan)
        one_nan = row["riem_v"].copy()
        one_nan[2, 3] = np.nan  # one pair entry, so that the 4-index values hold two NaN among finite ones
        rows = stack_rows(stacked(
            {**row, "riem_v": nan_riem},
            {**row, "riem_v": nan_riem, "S_v": 0.5},
            {**row, "S_v": np.nan},
            {**row, "riem_v": one_nan},
        ))
        S, riem_max = abs(row["S_v"]), float(np.abs(row["riem_v"]).max())
        assert rows.curvature_scale.tolist() == [max(1.0, math.nan, S), max(1.0, math.nan, 0.5), max(1.0, riem_max, math.nan),
                                                 max(1.0, float(np.abs(unpack(one_nan)).max()), S)]
        assert rows.curvature_scale.tolist() == [S, 1.0, max(1.0, riem_max), S]

    def test_rotated_rows_carry_their_points_scale(self):
        spec = get_manifold("kahler_potential_generic")  # S varies from point to point
        pts = spec.sample_points(4, np.random.default_rng(2))
        rows = stack_rows(point_context(spec, pts, 3), np.full((4, 2), 0.7))
        assert rows.curvature_scale.tolist() == [curvature_scale(spec, p, 3) for p in pts for _ in range(3)]
        assert len(set(rows.curvature_scale.tolist())) > 1  # so rows taken in another order would not match


class TestNonFinite:
    def test_nan_after_a_finite_residual_is_non_finite(self):
        none = frozenset()
        assert _verdict(REGISTRY["EQ42"], [1e-12, math.nan], [], 1e-8, 1e-4, none) == "non-finite"
        assert _verdict(REGISTRY["EQ42"], [math.nan, 1e-12], [], 1e-8, 1e-4, none) == "non-finite"
        assert _verdict(REGISTRY["EQ42"], [1e-12, math.inf], [], 1e-8, 1e-4, none) == "non-finite"
        assert _verdict(REGISTRY["EQ131"], [0.0, 0.0], [0.0, math.nan], 1e-8, 1e-4, none) == "non-finite"
        assert _verdict(REGISTRY["EQ42"], [1e-12, 1e-13], [], 1e-8, 1e-4, none) == "pass"

    @pytest.mark.parametrize("rid", ["EQ42", "EQ131"])
    def test_run_suite_row_with_nan_at_second_point(self, monkeypatch, rid):
        monkeypatch.setitem(REGISTRY, rid, nan_in_row_1(REGISTRY[rid]))
        rep = run_suite(get_manifold("flat_torus"), 3, seed=1, identities=[rid])
        (row,) = rep.identities
        assert row["verdict"] == "non-finite"
        assert row["non_finite_points"] == 1
        assert row["applicable_points"] == 3
        assert math.isfinite(row["max_rel_residual"]) and math.isfinite(row["mean_rel_residual"])
        assert not rep.passed
        json.loads(rep.to_json(), parse_constant=reject_constant)
        for text in (rep.to_csv(), rep.to_text()):
            assert not re.search(r"\b(nan|inf|infinity)\b", text, re.IGNORECASE), text

    def test_non_finite_tag_residual_is_unconfirmed(self):
        spec = get_manifold("flat_torus")
        row = point_context(spec, [0.3, 0.4, 0.5, 0.6], 3)
        assert _tag_report(spec.tags, stack_rows(row), 1e-8)["flat"]["confirmed"]
        rows = stack_rows(stacked(row, {**row, "riem_v": np.full_like(row["riem_v"], np.nan)}))
        flat = _tag_report(spec.tags, rows, 1e-8)["flat"]
        assert not flat["confirmed"] and flat["non_finite_points"] == 1
        assert math.isfinite(flat["residual"])

    def test_non_finite_classify_residual_is_indeterminate(self):
        spec = get_manifold("kodaira_thurston")
        row = point_context(spec, [0.3, 0.4, 0.5, 0.6], 2)
        assert _classify(stack_rows(row).nj, 1e-8, 1e-4)[0] == "almost-Kähler non-Kähler"
        nj = stack_rows(stacked(row, row)).nj
        nan_nj = dataclasses.replace(nj, nijenhuis=np.stack([nj.nijenhuis[0], np.full_like(nj.nijenhuis[1], np.nan)]))
        verdict, residuals = _classify(nan_nj, 1e-8, 1e-4)
        assert verdict == "indeterminate"
        assert all(math.isfinite(r) for r in residuals.values())
