import json
import warnings

import numpy as np
import pytest

from weyl4.catalog import load_manifold_config
from weyl4.cli import main
from weyl4.conditions import _chunk_points, point_context
from weyl4.pointgeom import MetricError
from weyl4 import conditions

from conftest import SIN2_TORUS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_table_includes_kodaira_thurston(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        assert "kodaira_thurston" in out
        assert "fubini_study_cp2" in out

    def test_tag_filter_with_diacritics(self, capsys):
        code, out, _ = run(capsys, "list", "--tags", "kähler")
        assert code == 0
        assert "fubini_study_cp2" in out
        assert "kodaira_thurston" not in out
        assert "round_conformal" not in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "list", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert any(r["id"] == "kodaira_thurston" and r["compact"] for r in rows)


class TestCheck:
    def test_fubini_passes_json_report(self, capsys):
        code, out, _ = run(
            capsys, "check", "fubini_study_cp2", "--points", "8", "--seed", "7"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["passed"] is True
        eq82 = next(r for r in payload["identities"] if r["id"] == "EQ82")
        assert eq82["max_rel_residual"] < 1e-7

    def test_kodaira_thurston_eq01_violated(self, capsys):
        code, out, _ = run(
            capsys, "check", "kodaira_thurston", "--identities", "EQ01", "--points", "5"
        )
        assert code == 1
        payload = json.loads(out)
        row = payload["identities"][0]
        assert row["id"] == "EQ01"
        assert row["verdict"] == "violated (expected: strictly almost Kahler)"

    def test_flat_torus_fast_pass(self, capsys):
        import time

        t0 = time.perf_counter()
        code, out, _ = run(capsys, "check", "flat_torus", "--points", "25")
        assert code == 0
        assert time.perf_counter() - t0 < 10.0

    def test_byte_identical_reports(self, capsys):
        args = ("check", "kahler_potential_generic", "--points", "5", "--seed", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1.encode() == out2.encode()

    def test_csv_and_text_formats(self, capsys):
        code, out, _ = run(capsys, "check", "flat_torus", "--points", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0].startswith("manifold,id,anchor")
        code, out, _ = run(capsys, "check", "flat_torus", "--points", "3", "--format", "text")
        assert code == 0
        assert "PASS" in out

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "check", "flat_torus", "--points", "3", "--out", str(path)
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["manifold"] == "flat_torus"

    @pytest.mark.parametrize("flag", [["--rotations", "-1"], ["--points", "0"]])
    def test_negative_rotations_and_no_points_exit_2(self, capsys, flag):
        code, out, err = run(capsys, "check", "kodaira_thurston", *flag)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_manifold_exit_2(self, capsys):
        code, _, err = run(capsys, "check", "atlantis")
        assert code == 2
        assert "unknown manifold" in err

    def test_config_file(self, capsys, tmp_path):
        from weyl4.catalog import get_manifold, spec_to_config

        path = tmp_path / "m.cfg"
        path.write_text(spec_to_config(get_manifold("euclidean_flat")))
        code, out, _ = run(capsys, "check", "--config", str(path), "--points", "3")
        assert code == 0
        assert json.loads(out)["manifold"] == "euclidean_flat"

    def test_bad_config_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[manifold]\nid = b\ncoords = x\n")
        code, _, err = run(capsys, "check", "--config", str(path))
        assert code == 2

    @pytest.mark.parametrize("power", ["0^-1", "10^400"])
    def test_constant_power_that_is_not_finite_exit_2(self, capsys, tmp_path, power):
        path = tmp_path / "pow.cfg"
        path.write_text(
            "[manifold]\nid = pow\ncoords = x, y, z, t\ndomain = 0..1, 0..1, 0..1, 0..1\n"
            f"[metric]\ng_11 = 1 + {power}*x\ng_22 = 1\ng_33 = 1\ng_44 = 1\n"
        )
        code, out, err = run(capsys, "check", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "g_11" in err and "constant power" in err

    @pytest.mark.parametrize("g11", ["1e400", "1 + 1e400*x"])
    def test_number_literal_that_is_not_finite_exit_2(self, capsys, tmp_path, g11):
        path = tmp_path / "big.cfg"
        path.write_text(
            "[manifold]\nid = big\ncoords = x, y, z, t\ndomain = 0..1, 0..1, 0..1, 0..1\n"
            f"[metric]\ng_11 = {g11}\ng_22 = 1\ng_33 = 1\ng_44 = 1\n"
        )
        code, out, err = run(capsys, "check", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "g_11" in err and "1e400" in err and "not finite" in err

    def test_metric_that_overflows_fails_validation_exit_2(self, capsys, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "[manifold]\nid = exp\ncoords = x, y, z, t\ndomain = 0..1, 0..1, 0..1, 0..1\n"
            "[metric]\ng_11 = exp(1000*x)\ng_22 = 1\ng_33 = 1\ng_44 = 1\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # exp overflows to inf on purpose
            code, out, err = run(capsys, "check", "--config", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: manifold 'exp' failed validation")
        # named at the first failing sample, where g_11 is still finite but over 1e12 times the other
        # eigenvalues: positive definite, but too ill-conditioned to check
        assert "\n  - metric too ill-conditioned in this chart (λ_min/λ_max = " in err and "in the metric stage at point" in err
        point = json.loads(err.rsplit("at point ", 1)[1])
        assert 0.0 < point[0] < np.log(np.finfo(float).max) / 1000.0

    def test_metric_in_a_dilated_chart_named_ill_conditioned_exit_2(self, capsys, tmp_path):
        # the flat metric in a chart dilated by 1e-6 and 1e6: positive definite, but its eigenvalue
        # ratio 1e-24 is past the check's 1e-12, and the message says which
        path = tmp_path / "dilated.cfg"
        path.write_text(
            "[manifold]\nid = dilated\ncoords = x, y, z, t\ndomain = 0..1, 0..1, 0..1, 0..1\n"
            "[metric]\ng_11 = 1e-12\ng_22 = 1e-12\ng_33 = 1e12\ng_44 = 1e12\n"
        )
        code, out, err = run(capsys, "check", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: manifold 'dilated' failed validation:\n  - metric too ill-conditioned "
                              "in this chart (λ_min/λ_max = 1.000e-24) in the metric stage at point [")
        assert "positive definite" not in err

    def test_structure_entry_failing_at_a_sample_exit_2(self, capsys, tmp_path):
        path = tmp_path / "jlog.cfg"
        path.write_text(
            "[manifold]\nid = jlog\ncoords = x, y, z, t\ndomain = 0..10, 0..1, 0..1, 0..1\n"
            "[metric]\ng_11 = 1\ng_22 = 1\ng_33 = 1\ng_44 = 1\n"
            "[structure]\nJ_1_2 = -1\nJ_2_1 = 1\nJ_3_4 = -1\nJ_4_3 = log(x - 5)\n"
        )
        code, out, err = run(capsys, "classify", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: manifold 'jlog' failed validation:\n  - J_4_3 evaluation failed at [")
        assert err.count("\n") == 2
        point = json.loads(err.split("failed at ", 1)[1].split("]", 1)[0] + "]")
        assert point[0] <= 5.0 and "log of non-positive value" in err

    def test_tolerance_flags(self, capsys):
        # a huge tol-pass turns the Kodaira-Thurston violation into a pass
        code, out, _ = run(
            capsys, "check", "kodaira_thurston", "--identities", "EQ01",
            "--points", "3", "--tol-pass", "10", "--tol-fail", "100",
        )
        assert code == 0


    @pytest.mark.parametrize("tols", [
        ["--tol-pass", "1", "--tol-fail", "1e-6"],  # reversed: would confirm Kähler on a strictly almost-Kähler torus
        ["--tol-pass", "1e-4"],                      # empty band: equal to the default tol-fail
        ["--tol-pass", "0"],
        ["--tol-pass=-1e-8"],
        ["--tol-pass", "nan"],
        ["--tol-fail", "inf"],
    ])
    def test_tolerance_band_refused_exit_2(self, capsys, tols):
        code, out, err = run(capsys, "check", "kodaira_thurston", "--points", "3", *tols)
        assert code == 2 and out == ""
        assert err.startswith("error: tolerances need 0 < tol_pass < tol_fail < inf") and err.count("\n") == 1


class TestRescaledMetric:
    """A constant rescaling of g is the same manifold: its frame is built with thresholds in the
    metric's own scale, so neither a huge nor a tiny g is refused or ends in a traceback."""

    CONFIGS = {
        "kodaira_thurston": ("g_11 = 1e30\ng_22 = 1e30*(1 + x^2)\ng_33 = 1e30\ng_44 = 1e30\ng_23 = -1e30*x\n"
                             "[structure]\nJ_1_2 = x\nJ_1_3 = -1\nJ_2_4 = -1\nJ_3_1 = 1\nJ_3_4 = -x\nJ_4_2 = 1\n",
                             "almost-Kähler non-Kähler"),
        "flat_torus": ("g_11 = 1e-14\ng_22 = 1e-14\ng_33 = 1e-14\ng_44 = 1e-14\n"
                       "[structure]\nJ_1_2 = -1\nJ_2_1 = 1\nJ_3_4 = -1\nJ_4_3 = 1\n", "Kähler"),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_check_and_classify_run(self, capsys, tmp_path, name):
        metric, verdict = self.CONFIGS[name]
        path = tmp_path / f"{name}.cfg"
        path.write_text(f"[manifold]\nid = scaled_{name}\ncoords = x, y, z, t\ndomain = 0..1, 0..1, 0..1, 0..1\n"
                        f"[metric]\n{metric}")
        code, out, err = run(capsys, "check", "--config", str(path), "--points", "5", "--format", "json")
        assert code in (0, 1) and err == "" and json.loads(out)["identities"]  # a report, not a refusal
        code, out, err = run(capsys, "classify", "--config", str(path), "--points", "5", "--format", "json")
        assert code == 0 and err == ""
        assert json.loads(out)["verdict"] == verdict


class TestClassify:
    @pytest.mark.parametrize("tols", [["--tol-pass", "nan"], ["--tol-pass", "1", "--tol-fail", "1e-6"], ["--tol-fail", "0"]])
    def test_tolerance_band_refused_exit_2(self, capsys, tols):
        code, out, err = run(capsys, "classify", "kodaira_thurston", "--points", "3", *tols)
        assert code == 2 and out == ""
        assert err.startswith("error: tolerances need 0 < tol_pass < tol_fail < inf") and err.count("\n") == 1

    def test_kodaira_thurston(self, capsys):
        code, out, _ = run(capsys, "classify", "kodaira_thurston", "--points", "8")
        assert code == 0
        assert "almost-Kähler non-Kähler" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "classify", "round_conformal", "--points", "6", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "Hermitian non-Kähler"


class TestIntegrate:
    def test_qj_flat_torus(self, capsys):
        code, out, _ = run(capsys, "integrate", "flat_torus", "--density", "qJ")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"]) < 1e-10
        assert payload["error"] < 1e-9 * payload["volume"]

    def test_formula_kodaira_thurston(self, capsys):
        code, out, _ = run(capsys, "integrate", "kodaira_thurston", "--formula", "eq117")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["formula"]["eq117"]) < 1e-6 * payload["volume"]

    def test_formula_both(self, capsys):
        code, out, _ = run(capsys, "integrate", "kodaira_thurston", "--formula", "both")
        payload = json.loads(out)
        assert set(payload["formula"]) == {"eq117", "eq118", "eq116_integrated"}

    def test_nodes_only_on_the_axes_the_metric_reads(self, capsys, tmp_path, monkeypatch):
        # the metric reads x only: 20 constancy samples and 8 + 16 + 24 nodes on x reach the
        # jet stage, where the 4-D ladder took 8^4 + 16^4 + 24^4 order-4 nodes
        path = tmp_path / "sin2.cfg"
        path.write_text(SIN2_TORUS)
        bound = 20 + 8 + 16 + 24
        points = []

        def counted(spec, pts, order):
            points.append(int(np.prod(np.shape(pts)[:-1])))
            if sum(points) > bound:
                raise RuntimeError(f"{sum(points)} points reached the jet stage")
            return point_context(spec, pts, order)

        monkeypatch.setattr(conditions, "point_context", counted)
        code, out, err = run(capsys, "integrate", "--config", str(path), "--formula", "both")
        assert (code, err) == (0, "")
        assert json.loads(out)["volume"] == pytest.approx(2.5, rel=1e-12)

    def test_non_compact_exit_2(self, capsys):
        code, _, err = run(capsys, "integrate", "fubini_study_cp2", "--density", "qJ")
        assert code == 2
        assert "not compact" in err

    def test_unknown_density(self, capsys):
        code, _, err = run(capsys, "integrate", "flat_torus", "--density", "bogus")
        assert code == 2

    def test_needs_density_or_formula(self, capsys):
        code, _, err = run(capsys, "integrate", "flat_torus")
        assert code == 2

    def test_sampling_flags_rejected(self, capsys):
        # integrate samples only its own quadrature nodes
        code, out, err = run(capsys, "integrate", "flat_torus", "--density", "qJ", "--points", "5")
        assert code == 2 and out == ""

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_density_and_formula_refused(self, capsys, fmt):
        # one payload has one error estimate, so a density and a formula are not combined
        code, out, err = run(
            capsys, "integrate", "kodaira_thurston", "--density", "qJ", "--formula", "both", "--format", fmt
        )
        assert code == 2 and out == ""
        assert err.startswith("error: give either --density or --formula")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("what", [("--density", "qJ"), ("--formula", "both")])
    def test_text_output_prints_plain_numbers(self, capsys, what):
        code, out, _ = run(capsys, "integrate", "kodaira_thurston", *what, "--format", "text")
        assert code == 0 and "np." not in out
        payload = json.loads(run(capsys, "integrate", "kodaira_thurston", *what)[1])
        assert out.startswith(f"kodaira_thurston: volume = {payload['volume']!r}\n")
        if "value" in payload:
            assert f"qJ integral = {payload['value']!r} +/- {payload['error']:.3e}" in out


class TestPointFailures:
    DIP = (
        "[manifold]\nid = dip\ncoords = x, y, z, t\ndomain = 0..1, 0..1, 0..1, 0..1\n"
        "[metric]\ng_11 = 1 - 1.1*exp(-2000*(x - 0.4)^2)\ng_22 = 1\ng_33 = 1\ng_44 = 1\n"
    )

    def test_metric_failing_at_a_sampled_point_exit_2(self, capsys, tmp_path):
        # g_11 < 0 only in a slab |x - 0.4| < 0.007 that the 20-point config
        # validation and a 25-point check both miss; 200 points land in it
        path = tmp_path / "dip.cfg"
        path.write_text(self.DIP)
        assert run(capsys, "check", "--config", str(path), "--points", "25")[0] == 0
        code, out, err = run(capsys, "check", "--config", str(path), "--points", "200")
        assert code == 2
        assert out == ""
        assert err.startswith("error: metric not positive definite")
        assert "in the metric stage at point" in err
        assert err.count("\n") == 1
        point = json.loads(err.rsplit("at point ", 1)[1])
        assert abs(point[0] - 0.4) < 0.007

    def test_stacked_metric_check_names_its_row(self, capsys, tmp_path):
        # the 200 points run as stacks of at most _chunk_points(4, 1) rows (the metric reads x alone);
        # the first that fails is named with the message its point alone gives, and every point before it passes
        path = tmp_path / "dip.cfg"
        path.write_text(self.DIP)
        code, out, err = run(capsys, "check", "--config", str(path), "--points", "200", "--seed", "2")
        assert (code, out) == (2, "")
        spec = load_manifold_config(str(path))
        pts = spec.sample_points(200, np.random.default_rng(2))
        k = [p.tolist() for p in pts].index(json.loads(err.rsplit("at point ", 1)[1]))
        firsts = np.cumsum([0] + [len(c) for c in np.array_split(pts, -(-200 // _chunk_points(4, 1)))])
        assert k not in firsts  # not the first row of its stack
        with pytest.raises(MetricError) as alone:
            point_context(spec, pts[k], 4)
        assert err == f"error: {alone.value}\n"
        point_context(spec, pts[:k], 4)

    BEND = (
        "[manifold]\nid = bend\ncoords = x, y, z, t\ndomain = 0..1, 0..1, 0..1, 0..1\n"
        "[metric]\ng_11 = 1\ng_22 = 1\ng_33 = 1\ng_44 = 1\n"
        "[structure]\nJ_1_2 = -1\nJ_2_1 = 1\nJ_3_4 = -1 - 1000*exp(-2000000*(x - 0.4)^2)\nJ_4_3 = 1\n"
    )

    @pytest.mark.parametrize("command", [["check"], ["check", "--rotations", "2"], ["classify"]])
    def test_structure_failing_at_a_sampled_point_exit_2(self, capsys, tmp_path, command):
        # J^2 != -1 only in a slab |x - 0.4| < 0.004 that the config validation
        # and seed 0 miss; the stacked check names the row that seed 1 puts there
        path = tmp_path / "bend.cfg"
        path.write_text(self.BEND)
        assert run(capsys, *command, "--config", str(path), "--points", "25", "--seed", "0")[0] == 0
        code, out, err = run(capsys, *command, "--config", str(path), "--points", "25", "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: not a compatible almost complex structure")
        assert "in the structure stage at point" in err
        assert err.count("\n") == 1
        point = json.loads(err.rsplit("at point ", 1)[1])
        assert abs(point[0] - 0.4) < 0.004

    LOG = "log(1 - 1.1*exp(-200000*(x - 0.4)^2))"  # fails only where |x - 0.4| < 7e-4

    @pytest.mark.parametrize("command", ["check", "classify"])
    @pytest.mark.parametrize("entry, metric, structure", [
        ("g_11", f"g_11 = 9 + {LOG}", f"J_1_2 = -1/sqrt(9 + {LOG})\nJ_2_1 = sqrt(9 + {LOG})"),
        ("J_2_1", "g_11 = 1", f"J_1_2 = -1\nJ_2_1 = 1 + 0*{LOG}"),
    ], ids=["metric", "structure"])
    def test_entry_failing_at_a_sampled_point_names_it_exit_2(self, capsys, tmp_path, command, entry, metric, structure):
        # the config loads, as its 20 samples miss the slab; the run-time guard names the
        # manifold, the entry and the first of 400 points (seed 1) that lands in it
        path = tmp_path / "logdip.cfg"
        path.write_text(
            "[manifold]\nid = logdip\ncoords = x, y, z, t\ndomain = 0..1, 0..1, 0..1, 0..1\n"
            f"[metric]\n{metric}\ng_22 = 1\ng_33 = 1\ng_44 = 1\n[structure]\n{structure}\nJ_3_4 = -1\nJ_4_3 = 1\n"
        )
        pts = load_manifold_config(str(path)).sample_points(400, np.random.default_rng(1))
        first = next(p for p in pts if 1.1 * np.exp(-200000 * (p[0] - 0.4) ** 2) >= 1.0)
        code, out, err = run(capsys, command, "--config", str(path), "--points", "400", "--seed", "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: manifold 'logdip': {entry} evaluation failed at {first.tolist()}: "
                              "log of non-positive value ")
        assert err.count("\n") == 1

    def test_pair_differing_off_the_samples_named_at_run_time_exit_2(self, capsys, tmp_path):
        # g_12 and g_21 differ only where |x - 0.4| < 0.011, which the 20 samples miss
        path = tmp_path / "pair.cfg"
        path.write_text(
            "[manifold]\nid = pair\ncoords = x, y, z, t\ndomain = -1..1, -1..1, -1..1, -1..1\n"
            "[metric]\ng_11 = 1\ng_22 = 1\ng_33 = 1\ng_44 = 1\n"
            "g_12 = 0.1*x\ng_21 = 0.1*x + 0.01*exp(-200000*(x - 0.4)^2)\n"
        )
        pts = load_manifold_config(str(path)).sample_points(400, np.random.default_rng(1))
        first = next(p for p in pts if 0.01 * np.exp(-200000 * (p[0] - 0.4) ** 2) > 1e-12)
        code, out, err = run(capsys, "check", "--config", str(path), "--points", "400", "--seed", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: metric not symmetric (g_12 vs g_21: residual ")
        assert err.endswith(f", scale 1.000e+00) in the metric stage at point {first.tolist()}\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("what", [("--density", "S"), ("--formula", "both")])
    def test_volume_density_failing_at_a_node_exit_2(self, capsys, tmp_path, what):
        # each config loads and the 20 constancy samples miss the slab |x - 0.4| < 0.007; the
        # volume density checks the metric at the 24-per-axis nodes, and x = 0.4044 lies in it
        slab = "1.1*exp(-2000*(x - 0.4)^2)"
        for name, g_11, message in [
            ("dip", f"1 - {slab}", "metric not positive definite (eigenvalues "),
            ("logslab", f"9 + log(1 - {slab})", "manifold 'logslab': g_11 evaluation failed at "),
        ]:
            path = tmp_path / f"{name}.cfg"
            path.write_text(
                f"[manifold]\nid = {name}\ncoords = x, y, z, t\ncompact = true\ndomain = 0..1, 0..1, 0..1, 0..1\n"
                f"[metric]\ng_11 = {g_11}\ng_22 = 1\ng_33 = 1\ng_44 = 1\n"
                f"[structure]\nJ_1_2 = -1/sqrt({g_11})\nJ_2_1 = sqrt({g_11})\nJ_3_4 = -1\nJ_4_3 = 1\n"
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, "integrate", "--config", str(path), *what, "--seed", "1")
            assert (code, out) == (2, ""), name
            assert err.startswith(f"error: {message}")
            assert err.count("\n") == 1
            if name == "dip":
                assert ") in the metric stage at point " in err
                node = json.loads(err.rsplit("at point ", 1)[1])
            else:
                assert "]: log of non-positive value " in err
                node = json.loads(err.split(" failed at ", 1)[1].split("]", 1)[0] + "]")
            assert abs(node[0] - 0.4) < 0.007 and node[1:] == [0.5, 0.5, 0.5]

    @pytest.mark.parametrize("scale, density", [("1e100", "inf"), ("1e-100", "0.0")])
    def test_volume_density_outside_the_float_range_exit_2(self, capsys, tmp_path, scale, density):
        # g = scale * identity is finite and positive definite, but det g over- or underflows
        path = tmp_path / "scaled.cfg"
        path.write_text(
            "[manifold]\nid = scaled\ncoords = x, y, z, t\ncompact = true\ndomain = 0..1, 0..1, 0..1, 0..1\n"
            f"[metric]\ng_11 = {scale}\ng_22 = {scale}\ng_33 = {scale}\ng_44 = {scale}\n"
            "[structure]\nJ_1_2 = -1\nJ_2_1 = 1\nJ_3_4 = -1\nJ_4_3 = 1\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "integrate", "--config", str(path), "--density", "S")
        assert (code, out) == (2, "")
        assert err == (f"error: volume density {density} outside the float range "
                       "in the metric stage at point [0.5, 0.5, 0.5, 0.5]\n")


class TestUsage:
    def test_bad_flag_exit_2(self, capsys):
        assert main(["check", "flat_torus", "--badflag"]) == 2

    @pytest.mark.parametrize("command", [["check", "flat_torus"], ["classify", "flat_torus"],
                                         ["integrate", "flat_torus", "--formula", "both"]])
    def test_negative_seed_exit_2(self, capsys, command):
        code, out, err = run(capsys, *command, "--seed", "-1")
        assert (code, out) == (2, "")
        assert err.endswith("error: argument --seed: must be a non-negative integer, got -1\n")

    def test_no_command_exit_2(self, capsys):
        assert main([]) == 2


class TestInternalError:
    def test_any_other_exception_exits_3_with_its_traceback(self, capsys, monkeypatch):
        import weyl4.cli

        def crash(args):
            raise RuntimeError("a defect, not an input problem")

        monkeypatch.setattr(weyl4.cli, "cmd_list", crash)
        code, out, err = run(capsys, "list")
        assert (code, out) == (3, "")
        assert err.startswith("Traceback (most recent call last):\n")
        assert err.endswith("RuntimeError: a defect, not an input problem\n")


class TestNonFiniteReport:
    def test_nan_residual_exits_1_without_nan_tokens(self, capsys, monkeypatch):
        import dataclasses
        import math

        from weyl4.conditions import REGISTRY

        record = REGISTRY["EQ42"]

        def evaluator(rows):  # NaN in row 1 of the batch, the second of the three points
            lhs, rhs, abs_res, scale = (np.array(v, dtype=float) for v in record.evaluator(rows))
            lhs[1] = abs_res[1] = math.nan
            return lhs, rhs, abs_res, scale

        monkeypatch.setitem(REGISTRY, "EQ42", dataclasses.replace(record, evaluator=evaluator))
        code, out, _ = run(capsys, "check", "flat_torus", "--identities", "EQ42", "--points", "3")
        assert code == 1
        report = json.loads(out, parse_constant=lambda name: pytest.fail(f"report contains {name}"))
        assert report["identities"][0]["verdict"] == "non-finite"
        assert not report["passed"]
