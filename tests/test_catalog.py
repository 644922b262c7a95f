from dataclasses import replace

import numpy as np
import pytest

from weyl4 import exprjet
from weyl4.catalog import (
    MANIFOLDS,
    CatalogError,
    EntryError,
    ManifoldSpec,
    _index_key,
    builtin_manifolds,
    conformally_rescaled,
    get_manifold,
    load_manifold_config,
    normalize_tag,
    spec_to_config,
    validate_spec,
)
from weyl4.conditions import point_context, run_suite, stack_rows
from weyl4.curvature import curvature_bundle
from weyl4.exprjet import parse_expression
from weyl4.hermitian import AcsPoint
from weyl4.pointgeom import PointError

from conftest import TWISTED_J_TORUS

CATALOG_ORDER = (
    "euclidean_flat",
    "flat_torus",
    "fubini_study_cp2",
    "complex_hyperbolic_ch2",
    "kahler_potential_generic",
    "kodaira_thurston",
    "round_conformal",
    "perturbed_j",
)
EXPECTED_IDS = set(CATALOG_ORDER)


class TestBuiltins:
    def test_ids_and_required_entries(self):
        specs = {s.id: s for s in builtin_manifolds()}
        assert set(specs) == EXPECTED_IDS
        assert specs["flat_torus"].compact
        assert specs["kodaira_thurston"].compact
        assert specs["flat_torus"].domain == ((0.0, 2.0 * np.pi),) * 4
        assert {"flat", "kahler"} <= set(specs["flat_torus"].tags)
        assert {"einstein", "kahler", "constant-s"} <= set(specs["fubini_study_cp2"].tags)
        assert {"almost-kahler", "constant-s"} <= set(specs["kodaira_thurston"].tags)

    def test_all_specs_validate(self):
        for spec in builtin_manifolds():
            assert validate_spec(spec) == []

    def test_fubini_einstein_engine_verified(self):
        spec = get_manifold("fubini_study_cp2")
        rng = np.random.default_rng(0)
        for pt in spec.sample_points(5, rng):
            b = curvature_bundle(spec.metric_point(pt, 2))
            assert np.abs(b.ric_v - (b.S_v / 4.0) * np.eye(4)).max() < 1e-8 * abs(b.S_v)

    def test_kahler_entries_parallel_j(self, catalog):
        # end-to-end pipeline validation: potential-derived metrics have
        # nabla J = 0 with the standard constant J
        rng = np.random.default_rng(1)
        for name in (
            "euclidean_flat", "flat_torus", "fubini_study_cp2",
            "complex_hyperbolic_ch2", "kahler_potential_generic",
        ):
            spec = catalog[name]
            rows = stack_rows(point_context(spec, spec.sample_points(50, rng), 2))
            assert np.abs(rows.nj.nabla_j).max() < 1e-9, name

    def test_kodaira_thurston_strictly_almost_kahler(self):
        spec = get_manifold("kodaira_thurston")
        nj = stack_rows(point_context(spec, [0.01, 0.02, 0.03, 0.04], 2)).nj
        assert np.abs(nj.d_omega).max() < 1e-10
        assert np.abs(nj.nijenhuis).max() > 0.5

    def test_perturbed_j_generic(self):
        spec = get_manifold("perturbed_j")
        nj = stack_rows(point_context(spec, [0.5, 0.1, -0.4, 0.2], 2)).nj
        assert np.abs(nj.d_omega).max() > 1e-4
        assert np.abs(nj.nijenhuis).max() > 1e-4

    def test_builtins_pass_their_tags(self, catalog):
        for spec in catalog.values():
            rep = run_suite(spec, 4, seed=2, identities=["EQ42"])
            assert all(v["confirmed"] for v in rep.tags.values()), spec.id

    def test_unknown_manifold(self):
        with pytest.raises(CatalogError):
            get_manifold("nope")

    def test_read_axes(self, catalog):
        every = (0, 1, 2, 3)
        assert [catalog[sid].read_axes() for sid in CATALOG_ORDER] == [
            (), (), every, every, (0, 1), (0,), every, (0,)
        ]

    def test_read_axes_include_an_axis_only_j_reads(self, tmp_path):
        # a quadrature that dropped t here would integrate |nabla J|^2 at t = 1/2 only
        path = tmp_path / "twist.cfg"
        path.write_text(TWISTED_J_TORUS)
        spec = load_manifold_config(str(path))
        assert replace(spec, j_exprs=None).read_axes() == ()
        assert spec.read_axes() == (3,)


class TestPackagedCatalog:
    def test_every_file_loads_with_full_validation(self):
        paths = sorted(MANIFOLDS.glob("*.cfg"))
        specs = [load_manifold_config(str(p)) for p in paths]
        assert tuple(s.id for s in specs) == CATALOG_ORDER
        for n, (path, spec) in enumerate(zip(paths, specs), start=1):
            assert path.name == f"{n:02d}_{spec.id}.cfg"
            assert validate_spec(spec) == []
            assert not spec.notes.startswith("loaded from")
        assert specs == builtin_manifolds()

    def test_round_trip_keeps_every_field(self, tmp_path):
        for spec in builtin_manifolds():
            path = tmp_path / f"{spec.id}.cfg"
            path.write_text(spec_to_config(spec))
            assert load_manifold_config(str(path)) == spec

    def test_notes_default_to_the_path(self, tmp_path):
        text = spec_to_config(get_manifold("euclidean_flat"))
        path = tmp_path / "plain.cfg"
        path.write_text("".join(line for line in text.splitlines(True) if not line.startswith("notes")))
        assert load_manifold_config(str(path)).notes == f"loaded from {path}"

    def test_percent_is_plain_text(self, tmp_path):
        text = spec_to_config(get_manifold("euclidean_flat")).replace("notes = flat", "notes = 100% flat")
        path = tmp_path / "pct.cfg"
        path.write_text(text)
        assert load_manifold_config(str(path)).notes.startswith("100% flat")
        path.write_text(text.replace("g_11 = 1.0", "g_11 = 1 + x % 2"))
        with pytest.raises(CatalogError, match=r"\[metric\] g_11"):
            load_manifold_config(str(path))


class TestConformalRescale:
    def test_rescaled_metric_values(self):
        spec = get_manifold("euclidean_flat")
        scaled = conformally_rescaled(spec, "0.2*x")
        pt = [0.5, 0.1, 0.2, 0.3]
        g = scaled.metric_point(pt, 0).g
        assert np.abs(g - np.exp(0.1) * np.eye(4)).max() < 1e-14


class TestConfigFiles:
    def test_round_trip_euclidean(self, tmp_path, catalog):
        spec = catalog["euclidean_flat"]
        path = tmp_path / "euclid.cfg"
        path.write_text(spec_to_config(spec))
        loaded = load_manifold_config(str(path))
        assert loaded.id == spec.id
        assert loaded.coords == spec.coords
        assert loaded.metric_exprs == spec.metric_exprs
        assert loaded.j_exprs == spec.j_exprs
        assert loaded.tags == spec.tags
        assert loaded.domain == spec.domain
        # same residuals through the engine
        rep_a = run_suite(spec, 3, seed=3, identities=["EQ42", "EQ82"])
        rep_b = run_suite(loaded, 3, seed=3, identities=["EQ42", "EQ82"])
        assert [r["max_rel_residual"] for r in rep_a.identities] == [
            r["max_rel_residual"] for r in rep_b.identities
        ]

    def test_parse_error_with_offset(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "[manifold]\nid = bad\ncoords = x, y, z, t\n"
            "domain = -1..1, -1..1, -1..1, -1..1\n"
            "[metric]\ng_11 = x +\ng_22 = 1\ng_33 = 1\ng_44 = 1\n"
        )
        with pytest.raises(CatalogError, match="offset 3"):
            load_manifold_config(str(path))

    def test_j_square_violation_lists_worst_point(self, tmp_path):
        path = tmp_path / "badj.cfg"
        path.write_text(
            "[manifold]\nid = badj\ncoords = x, y, z, t\n"
            "domain = -1..1, -1..1, -1..1, -1..1\n"
            "[metric]\ng_11 = 1\ng_22 = 1\ng_33 = 1\ng_44 = 1\n"
            "[structure]\nJ_1_2 = -2\nJ_2_1 = 2\nJ_3_4 = -1\nJ_4_3 = 1\n"
        )
        with pytest.raises(CatalogError) as exc:
            load_manifold_config(str(path))
        msg = str(exc.value)
        assert "not a compatible almost complex structure (J^2 residual 3.00e+00" in msg
        assert "in the structure stage at point [" in msg

    def test_wrong_dimension(self, tmp_path):
        path = tmp_path / "dim.cfg"
        path.write_text(
            "[manifold]\nid = dim\ncoords = x, y, z\n"
            "domain = -1..1, -1..1, -1..1\n[metric]\ng_11 = 1\n"
        )
        with pytest.raises(CatalogError, match="4 coordinates"):
            load_manifold_config(str(path))

    def test_missing_diagonal(self, tmp_path):
        path = tmp_path / "md.cfg"
        path.write_text(
            "[manifold]\nid = md\ncoords = x, y, z, t\n"
            "domain = -1..1, -1..1, -1..1, -1..1\n[metric]\ng_11 = 1\ng_22 = 1\ng_33 = 1\n"
        )
        with pytest.raises(CatalogError, match="g_44"):
            load_manifold_config(str(path))

    def test_bad_domain(self, tmp_path):
        path = tmp_path / "dom.cfg"
        path.write_text(
            "[manifold]\nid = dom\ncoords = x, y, z, t\ndomain = 1..-1, -1..1, -1..1, -1..1\n"
            "[metric]\ng_11 = 1\ng_22 = 1\ng_33 = 1\ng_44 = 1\n"
        )
        with pytest.raises(CatalogError, match="empty domain"):
            load_manifold_config(str(path))

    @pytest.mark.parametrize("interval", ["0..inf", "-inf..0", "-1e308..1e308", "nan..1"])
    def test_non_finite_domain(self, tmp_path, interval):
        path = tmp_path / "dom.cfg"
        path.write_text(
            f"[manifold]\nid = dom\ncoords = x, y, z, t\ndomain = -1..1, {interval}, -1..1, -1..1\n"
            "[metric]\ng_11 = 1\ng_22 = 1\ng_33 = 1\ng_44 = 1\n"
        )
        with pytest.raises(CatalogError, match=rf"^domain interval '{interval}' is not finite$"):
            load_manifold_config(str(path))

    @pytest.mark.parametrize("sections, message", [
        ("[metric]\ng_11 = 1\ng_1_1 = 4\ng_22 = 1\ng_33 = 1\ng_44 = 1\n",
         "[metric] keys 'g_11' and 'g_1_1' set the same entry"),
        ("[metric]\ng_11 = 1\ng_22 = 1\ng_33 = 1\ng_44 = 1\n"
         "[structure]\nJ_1_2 = -1\nJ_2_1 = 1\nj_2_1 = 1\nJ_3_4 = -1\nJ_4_3 = 1\n",
         "[structure] keys 'J_2_1' and 'j_2_1' set the same entry"),
    ], ids=["metric", "structure"])
    def test_one_entry_set_twice_rejected(self, tmp_path, sections, message):
        # two spellings of one entry: before, the last one won silently
        path = tmp_path / "twice.cfg"
        path.write_text("[manifold]\nid = twice\ncoords = x, y, z, t\ndomain = -1..1, -1..1, -1..1, -1..1\n" + sections)
        with pytest.raises(CatalogError) as exc:
            load_manifold_config(str(path))
        assert str(exc.value) == message

    def test_unknown_tag(self, tmp_path):
        path = tmp_path / "tag.cfg"
        path.write_text(
            "[manifold]\nid = t\ncoords = x, y, z, t\ndomain = -1..1, -1..1, -1..1, -1..1\n"
            "[metric]\ng_11 = 1\ng_22 = 1\ng_33 = 1\ng_44 = 1\n[tags]\ntags = shiny\n"
        )
        with pytest.raises(CatalogError, match="shiny"):
            load_manifold_config(str(path))

    def test_symmetric_entries_textually_different_numerically_equal(self, tmp_path):
        path = tmp_path / "sym.cfg"
        path.write_text(
            "[manifold]\nid = s\ncoords = x, y, z, t\ndomain = -1..1, -1..1, -1..1, -1..1\n"
            "[metric]\ng_11 = 1\ng_22 = 1\ng_33 = 1\ng_44 = 1\ng_12 = x*y\ng_21 = y*x\n"
        )
        spec = load_manifold_config(str(path))
        assert spec.id == "s"
        # both entries are evaluated as given, so both round-trip through a file
        assert spec.metric_exprs[1][0] != spec.metric_exprs[0][1]
        path.write_text(spec_to_config(spec))
        assert load_manifold_config(str(path)) == spec

    def test_symmetric_conflict_rejected(self, tmp_path):
        path = tmp_path / "conflict.cfg"
        path.write_text(
            "[manifold]\nid = c\ncoords = x, y, z, t\ndomain = -1..1, -1..1, -1..1, -1..1\n"
            "[metric]\ng_11 = 4\ng_22 = 4\ng_33 = 4\ng_44 = 4\ng_12 = 0.5*x\ng_21 = 0.5*y\n"
        )
        with pytest.raises(CatalogError) as exc:
            load_manifold_config(str(path))
        # the one symmetry rule, the run-time metric check, names the pair at the first sample
        pts = direct_spec(UNIT).sample_points(20, np.random.default_rng(0))
        assert pts[0, 0] != pts[0, 1]
        assert str(exc.value) == (
            "manifold 'c' failed validation:\n"
            f"  - metric not symmetric (g_12 vs g_21: residual {abs(0.5 * pts[0, 0] - 0.5 * pts[0, 1]):.3e}, "
            f"scale 4.000e+00) in the metric stage at point {pts[0].tolist()}"
        )

    def test_pair_differing_by_less_than_the_old_pair_tolerance_rejected(self, tmp_path):
        # 1e-9 is within 1e-10 of the pair's largest value over the samples (up to 0.1*e^8),
        # but not within 1e-12 of the metric's scale max(1, e^(10x)) where x < 0.69
        path = tmp_path / "pair.cfg"
        path.write_text(
            "[manifold]\nid = pair\ncoords = x, y, z, t\ndomain = -1..1, -1..1, -1..1, -1..1\n"
            "[metric]\ng_11 = exp(10*x)\ng_22 = exp(10*x)\ng_33 = 1\ng_44 = 1\n"
            "g_12 = 0.1*exp(10*x)\ng_21 = 0.1*exp(10*x) + 1e-9\n"
        )
        with pytest.raises(CatalogError) as exc:
            load_manifold_config(str(path))
        pts = direct_spec(UNIT).sample_points(20, np.random.default_rng(0))
        first_bad = int(np.argmax(1e-9 > 1e-12 * np.maximum(np.exp(10 * pts[:, 0]), 1.0)))
        head, point = str(exc.value).split(" in the metric stage at point ")
        assert head.startswith("manifold 'pair' failed validation:\n  - metric not symmetric (g_12 vs g_21: residual ")
        assert float(head.split("residual ")[1].split(",")[0]) == pytest.approx(1e-9, rel=1e-3)
        assert point == str(pts[first_bad].tolist())

    def test_symmetric_entry_failing_at_a_sample_names_it(self, tmp_path):
        path = tmp_path / "conflict_log.cfg"
        path.write_text(
            "[manifold]\nid = c\ncoords = x, y, z, t\ndomain = 0..10, 0..1, 0..1, 0..1\n"
            "[metric]\ng_11 = 4\ng_22 = 4\ng_33 = 4\ng_44 = 4\ng_12 = 0.1*x\ng_21 = log(x - 5)\n"
        )
        pts = direct_spec(UNIT, domain=((0.0, 10.0),) + ((0.0, 1.0),) * 3).sample_points(20, np.random.default_rng(0))
        first_bad = int(np.argmax(pts[:, 0] <= 5.0))
        with pytest.raises(CatalogError) as exc:
            load_manifold_config(str(path))
        assert str(exc.value) == (
            "manifold 'c' failed validation:\n"
            f"  - g_21 evaluation failed at {pts[first_bad].tolist()}: log of non-positive value {float(pts[first_bad, 0] - 5.0)!r}"
        )

    def test_metric_failing_at_a_sample_names_it(self, tmp_path):
        path = tmp_path / "log.cfg"
        path.write_text(
            "[manifold]\nid = log\ncoords = x, y, z, t\ndomain = -1..1, -1..1, -1..1, -1..1\n"
            "[metric]\ng_11 = log(0.5 - x)\ng_22 = 1\ng_33 = 1\ng_44 = 1\n"
        )
        # validate_spec draws 20 samples with seed 0 from the same box as euclidean_flat
        pts = get_manifold("euclidean_flat").sample_points(20, np.random.default_rng(0))
        first_bad = int(np.argmax(pts[:, 0] >= 0.5))
        assert first_bad > 0 and pts[first_bad, 0] >= 0.5
        with pytest.raises(CatalogError) as exc:
            load_manifold_config(str(path))
        assert f"g_11 evaluation failed at {pts[first_bad].tolist()}: log of non-positive value" in str(exc.value)

    def test_exponent_varying_over_the_samples_rejected(self, tmp_path):
        # each sample alone sees a constant exponent; only the stacked samples show it varies
        path = tmp_path / "pow.cfg"
        path.write_text(
            "[manifold]\nid = pow\ncoords = x, y, z, t\ndomain = -1..1, -1..1, -1..1, -1..1\n"
            "[metric]\ng_11 = 2^x\ng_22 = 1\ng_33 = 1\ng_44 = 1\n"
        )
        with pytest.raises(CatalogError, match="g_11 evaluation failed: exponents must be constant"):
            load_manifold_config(str(path))

    def test_non_spd_rejected(self, tmp_path):
        path = tmp_path / "spd.cfg"
        path.write_text(
            "[manifold]\nid = spd\ncoords = x, y, z, t\ndomain = -1..1, -1..1, -1..1, -1..1\n"
            "[metric]\ng_11 = -1\ng_22 = 1\ng_33 = 1\ng_44 = 1\n"
        )
        with pytest.raises(CatalogError, match="positive definite"):
            load_manifold_config(str(path))


UNIT = {(i, i): "1" for i in range(4)}
J_STD_TEXT = {(0, 1): "-1", (1, 0): "1", (2, 3): "-1", (3, 2): "1"}


def direct_spec(metric: dict, structure=None, domain=((-1.0, 1.0),) * 4) -> ManifoldSpec:
    """A spec built without validation from expression texts: ``metric`` at
    (i, j) with i <= j, ``structure`` at every (i, j) it sets; the rest 0."""
    coords = ("x", "y", "z", "t")
    grid = lambda text_at: tuple(tuple(parse_expression(text_at(i, j), coords) for j in range(4)) for i in range(4))
    return ManifoldSpec(
        id="direct", coords=coords,
        metric_exprs=grid(lambda i, j: metric.get((min(i, j), max(i, j)), "0")),
        j_exprs=None if structure is None else grid(lambda i, j: structure.get((i, j), "0")),
        domain=domain, compact=False, tags=frozenset(),
    )


class TestValidationRunsTheRunTimeChecks:
    @pytest.mark.parametrize("metric, structure, domain", [
        ({**UNIT, (0, 0): "x"}, None, ((-1.0, 1.0),) * 4),  # not positive definite where x <= 0
        ({**UNIT, (0, 0): "exp(1000*x) - exp(1000*x) + 1"}, None, ((0.0, 1.0),) * 4),  # NaN where exp overflows
        (UNIT, {**J_STD_TEXT, (1, 0): "1 - x + sqrt(x^2)"}, ((-1.0, 1.0),) * 4),  # J^2 != -1 where x < 0
    ], ids=["not_positive_definite", "not_finite", "j_square"])
    def test_message_is_the_point_error_of_the_first_failing_sample(self, tmp_path, metric, structure, domain):
        spec = direct_spec(metric, structure, domain)
        pts = spec.sample_points(20, np.random.default_rng(0))
        failures = []
        with np.errstate(over="ignore", invalid="ignore"):
            for p in pts:
                try:
                    mp = spec.metric_point(p, 0)
                    if spec.has_j:
                        AcsPoint.from_jets(spec.j_jets(p, 0), mp)
                except PointError as exc:
                    failures.append(str(exc))
                else:
                    failures.append(None)
            assert failures[0] is None and any(failures)  # the first sample passes, so the rule picks the row
            expected = next(f for f in failures if f is not None)
            assert validate_spec(spec) == [expected]
            path = tmp_path / "direct.cfg"
            path.write_text(spec_to_config(spec))
            with pytest.raises(CatalogError) as exc:
                load_manifold_config(str(path))
        assert str(exc.value) == f"manifold 'direct' failed validation:\n  - {expected}"


class TestOneGuard:
    """``metric_point`` and ``j_jets`` name the manifold, the entry and the
    first point at which an entry fails, wherever they are called."""

    DIP = "log(1 - 1.1*exp(-200000*(x - 0.4)^2))"  # fails only where |x - 0.4| < 7e-4

    @pytest.mark.parametrize("order", [0, 2, 4])
    def test_metric_entry_names_the_first_failing_point(self, order):
        spec = direct_spec({**UNIT, (0, 0): f"9 + {self.DIP}"}, domain=((0.0, 1.0),) * 4)
        pts = np.array([[0.1, 0.2, 0.3, 0.4], [0.4002, 0.5, 0.5, 0.5], [0.3999, 0.1, 0.1, 0.1]])
        with pytest.raises(EntryError) as exc:
            spec.metric_point(pts, order)
        assert exc.value.line.startswith(f"g_11 evaluation failed at {pts[1].tolist()}: log of non-positive value")
        assert str(exc.value) == f"manifold 'direct': {exc.value.line}"
        spec.metric_point(pts[0], order)

    def test_structure_entry_names_the_first_failing_point(self):
        spec = direct_spec(UNIT, {**J_STD_TEXT, (1, 0): f"1 + 0*{self.DIP}"}, domain=((0.0, 1.0),) * 4)
        pts = np.array([[0.1, 0.2, 0.3, 0.4], [0.4, 0.5, 0.5, 0.5]])
        with pytest.raises(EntryError, match=rf"^manifold 'direct': J_2_1 evaluation failed at \[0\.4, 0\.5"):
            spec.j_jets(pts, 2)

    @pytest.mark.parametrize("order", [0, 2])
    def test_bisection_names_the_first_failing_point_in_few_evaluations(self, order, monkeypatch):
        # a slab |x - 0.4| < 0.007 holds about 60 of 4,096 points: the guard takes one run of the
        # whole stack, one per bisection step (12) and at most 16 entry runs at the point it finds
        spec = direct_spec({**UNIT, (0, 0): "9 + log(1 - 1.1*exp(-2000*(x - 0.4)^2))"}, domain=((0.0, 1.0),) * 4)
        pts = np.random.default_rng(3).uniform(size=(4096, 4))

        def fails_alone(point) -> bool:
            try:
                exprjet.eval_jet(spec.metric_tape, point, order)
            except exprjet.ExpressionError:
                return True
            return False

        first = next(p for p in pts if fails_alone(p))
        real, calls = exprjet.eval_jet, []
        monkeypatch.setattr(exprjet, "eval_jet", lambda *args: calls.append(args) or real(*args))
        with pytest.raises(EntryError) as exc:
            spec.metric_point(pts, order)
        assert exc.value.line.startswith(f"g_11 evaluation failed at {first.tolist()}: log of non-positive value")
        assert len(calls) <= 1 + 12 + 16

    def test_a_lower_entry_is_evaluated_as_given(self):
        coords = ("x", "y", "z", "t")
        grid = [[parse_expression("1" if i == j else "0", coords) for j in range(4)] for i in range(4)]
        grid[1][0] = parse_expression("log(x - 5)", coords)
        spec = replace(direct_spec(UNIT), metric_exprs=tuple(map(tuple, grid)))
        with pytest.raises(EntryError, match=r"^manifold 'direct': g_21 evaluation failed at \[0\.5"):
            spec.metric_point([0.5, 0.5, 0.5, 0.5], 1)


class TestTags:
    def test_normalize(self):
        assert normalize_tag("Kähler") == "kahler"
        assert normalize_tag(" almost-Kähler ") == "almost-kahler"
        assert normalize_tag("constant-S") == "constant-s"


class TestCatalogParsedOnce:
    def test_fresh_list_of_shared_specs(self):
        first, second = builtin_manifolds(), builtin_manifolds()
        assert first is not second
        assert all(a is b for a, b in zip(first, second))
        first.clear()
        assert {s.id for s in builtin_manifolds()} == EXPECTED_IDS
        assert get_manifold("flat_torus") is second[1]


@pytest.mark.parametrize(
    "key, prefixes, expected",
    [
        ("g_11", ("g_",), (0, 0)),
        ("g_1_1", ("g_",), (0, 0)),
        (" g_34 ", ("g_",), (2, 3)),
        ("J_1_2", ("J_", "j_"), (0, 1)),
        ("j_12", ("J_", "j_"), (0, 1)),
        ("g_15", ("g_",), None),
        ("g_05", ("g_",), None),
        ("g_1", ("g_",), None),
        ("g_111", ("g_",), None),
        ("h_11", ("g_",), None),
        ("G_11", ("g_",), None),
        ("J_12", ("g_",), None),
        ("g_12", ("J_", "j_"), None),
    ],
)
def test_index_key_spellings(key, prefixes, expected):
    assert _index_key(key, prefixes) == expected
