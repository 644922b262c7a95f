import json
import warnings

import numpy as np
import pytest

from weyl4.cli import main


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
        assert "metric not finite at" in err

    def test_tolerance_flags(self, capsys):
        # a huge tol-pass turns the Kodaira-Thurston violation into a pass
        code, out, _ = run(
            capsys, "check", "kodaira_thurston", "--identities", "EQ01",
            "--points", "3", "--tol-pass", "10", "--tol-fail", "100",
        )
        assert code == 0


class TestClassify:
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

    @pytest.mark.parametrize("what", [("--density", "S"), ("--formula", "both")])
    def test_volume_density_failing_at_a_node_exit_2(self, capsys, tmp_path, what):
        # the 20 constancy samples miss the slab; the 24-per-axis node at
        # x = 0.4044 lies in it, where det g < 0
        path = tmp_path / "dip.cfg"
        path.write_text(
            self.DIP.replace("domain", "compact = true\ndomain")
            + "[structure]\nJ_1_2 = -1/sqrt(1 - 1.1*exp(-2000*(x - 0.4)^2))\n"
            "J_2_1 = sqrt(1 - 1.1*exp(-2000*(x - 0.4)^2))\nJ_3_4 = -1\nJ_4_3 = 1\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "integrate", "--config", str(path), *what, "--seed", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: volume density")
        assert err.count("\n") == 1
        node = json.loads(err.rsplit("at node ", 1)[1])
        assert abs(node[0] - 0.4) < 0.007


class TestUsage:
    def test_bad_flag_exit_2(self, capsys):
        assert main(["check", "flat_torus", "--badflag"]) == 2

    def test_no_command_exit_2(self, capsys):
        assert main([]) == 2


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
