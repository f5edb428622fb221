"""Exit codes, determinism and report shape of the command-line driver."""

import json
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from reductive_lab import cli
from reductive_lab.algebra import RESIDUAL_TOL, Polynomial
from reductive_lab.catalog import entries, entry
from reductive_lab.jacobi import CONSTANCY_TOL, VANISH_TOL
from reductive_lab.vcp import SPECTRUM_TOL

OSCILLATOR = {
    "name": "oscillator:n=1,c=1",
    "dim": 4,
    "labels": ["p", "q", "v", "a"],
    "brackets": [[0, 1, 2, 1.0], [0, 3, 1, -1.0], [1, 3, 0, 1.0]],
    "forms": {"b": [[1, 0, 0, 0], [0, 1, 0, 0],
                    [0, 0, 0, 1], [0, 0, 1, -1]]},
    "form": "b",
    "isotropy": [[0, 0, 0, 1]],
    "m": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1]],
    "expected": [1.0],
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTokens:
    def test_rational_spellings(self):
        assert cli._token(1.25, 1.0) == "1.25"
        assert cli._token(1.0 / 36.0, 1.0) == "1/36"
        assert cli._token(30.000000000000007, 1.0) == "30"
        assert cli._token(-0.625, 1.0) == "-0.625"
        assert cli._token(0.0, 1.0) == "0"
        assert cli._token(8.0 / 3.0, 1.0) == "8/3"

    def test_float_passthrough(self):
        assert cli._token(0.123456789123, 1.0) == 0.123456789123

    @pytest.mark.parametrize("c", [1e30, 1e100])
    def test_huge_values_print_as_numbers(self, capsys, c):
        # c^2 is past 2^53: the float carries 16 digits, not those of the integer it equals
        _, out, _ = run(capsys, "minpoly", "heisenberg:n=2,c=%r" % c, "--json")
        report = json.loads(out)
        coefficient, scal = report["ljr"]["coefficients"][2], report["scalar_curvature"]
        assert type(coefficient) is float and type(scal) is float
        assert abs(coefficient - c * c) <= 1e-12 * c * c
        assert abs(scal + c * c) <= 1e-12 * c * c

    def test_snapping_is_relative_to_the_unit(self):
        # within 1e-9 of 0, but not within 1e-9 of its own unit
        assert cli._token(1e-16, 1.0) == "0"
        assert cli._token(1e-16, 1e-16) == 1e-16

    @pytest.mark.parametrize("c", [1e-8, 1e-5, 1.0, 1e5])
    def test_heisenberg_reports_its_true_coefficients(self, capsys, c):
        # relation lambda^3 + c^2 lambda and scalar curvature -c^2 at n = 2
        code, out, _ = run(capsys, "minpoly", "heisenberg:n=2,c=%r" % c, "--json")
        assert code == 0
        report = json.loads(out)
        tokens = report["ljr"]["coefficients"]
        assert [tokens[0], tokens[1], tokens[3]] == ["1", "0", "0"]
        assert abs(float(Fraction(tokens[2])) - c * c) <= 1e-12 * c * c
        assert abs(float(Fraction(report["scalar_curvature"])) + c * c) <= 1e-12 * c * c


class TestMinpoly:
    def test_json_report_shape(self, capsys):
        code, out, _ = run(capsys, "minpoly", "nk:flag", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == "reductive-lab/1"
        assert report["wall_time"] is None
        assert report["space"] == {"id": "nk:flag", "dimension": 6}
        assert report["torsion_class"] == "SU3Type6"
        assert report["scalar_curvature"] == "30"
        assert report["ljr"]["coefficients"] == ["1", "0", "1.25", "0", "0.25", "0"]
        assert report["ljr"]["order"] == 4
        assert report["ljr"]["max_residual"] < 1e-8
        assert report["residuals"]["coefficient_max"] < 1e-7
        assert report["seed"] == 0
        assert report["tolerances"]["residual"] == 1e-8

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run(capsys, "minpoly", "np:v3", "--json", "--seed", "42")
        _, second, _ = run(capsys, "minpoly", "np:v3", "--json", "--seed", "42")
        assert first == second

    def test_seed_sources(self, capsys):
        _, out, _ = run(capsys, "minpoly", "nk:s6", "--json")
        assert json.loads(out)["seed"] == 0
        _, out, _ = run(capsys, "minpoly", "nk:s6", "--json", "--seed", "3")
        assert json.loads(out)["seed"] == 3

    def test_no_relation_exits_one(self, capsys):
        code, out, _ = run(capsys, "minpoly", "neg:sp2-sp1", "--json")
        assert code == 1
        report = json.loads(out)
        assert report["ljr"]["exists"] is False
        assert report["ljr"]["eigen_structure"]["failures"]

    @pytest.mark.parametrize("fmt", [[], ["--markdown"]], ids=["text", "markdown"])
    def test_no_relation_report(self, capsys, fmt):
        code, out, err = run(capsys, "minpoly", "neg:sp2-sp1", *fmt)
        assert code == 1
        assert "Traceback" not in err
        assert re.search(r"^relation +none", out, re.M)
        assert "residual[" not in out


class TestVerify:
    def test_pass(self, capsys):
        code, _, _ = run(capsys, "verify", "nk:flag", "--poly", "1.25,0.25")
        assert code == 0

    def test_fraction_tokens(self, capsys):
        code, _, _ = run(capsys, "verify", "np:squashed-s7", "--poly", "1/36")
        assert code == 0

    def test_wrong_coefficient_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "nk:flag", "--json",
                           "--poly", "1.3,0.25")
        assert code == 1
        assert json.loads(out)["residuals"]["given"] > 1e-8

    def test_empty_poly_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "nk:flag", "--poly", ",")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValueError"


class TestGvcp:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "gvcp", "np:v3")
        assert code == 0
        assert out == "G2Type7\n"

    def test_json_output(self, capsys):
        _, out, _ = run(capsys, "gvcp", "heisenberg:n=2,c=1", "--json")
        assert json.loads(out)["torsion_class"] == "NotGVCP"


class TestCatalogListing:
    def test_lists_all_entries(self, capsys):
        from reductive_lab.catalog import entries
        code, out, _ = run(capsys, "catalog", "--json")
        assert code == 0
        rows = json.loads(out)["entries"]
        assert [r["id"] for r in rows] == [e.name for e in entries()]
        flag = next(r for r in rows if r["id"] == "nk:flag")
        assert flag["dimension"] == 6
        assert flag["expected"] == ["1", "0", "1.25", "0", "0.25", "0"]


class TestAppendix:
    def test_sweep_table(self, capsys):
        code, out, _ = run(capsys, "appendix", "--s-grid", "0.25:2.0:8",
                           "--json")
        assert code == 0
        rows = json.loads(out)["sweep"]
        assert [r["s"] for r in rows] == [0.25, 0.5, 0.75, 1.0,
                                          1.25, 1.5, 1.75, 2.0]
        fitted = {r["s"]: r["fitted_c_squared"] for r in rows}
        assert fitted[1.5] == "2.5"
        assert all(v is None for s, v in fitted.items() if s != 1.5)
        half = next(r for r in rows if r["s"] == 0.5)
        assert half["residuals"]["vcp1"] < 1e-10
        assert half["residuals"]["vcp2"] < 1e-10
        assert half["residuals"]["vcp3"] > 0.1
        assert half["candidate_c_squared"] == "1.5"

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "appendix", "--s-grid", "1:2")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValueError"


class TestTwistor:
    def test_pass_and_fail(self, capsys):
        code, _, _ = run(capsys, "twistor", "np:v1", "--d", "2")
        assert code == 0
        code, out, _ = run(capsys, "twistor", "neg:sp2-sp1", "--d", "2",
                           "--json")
        assert code == 1
        assert json.loads(out)["relative_trace_free_norm"] > 1e-3


class TestCustom:
    def test_full_pipeline(self, capsys, tmp_path):
        path = tmp_path / "oscillator.json"
        path.write_text(json.dumps(OSCILLATOR))
        code, out, _ = run(capsys, "custom", str(path), "--json")
        assert code == 0
        report = json.loads(out)
        assert report["space"] == {"id": "oscillator:n=1,c=1", "dimension": 3}
        assert report["torsion_class"] == "VolumeType3"
        assert report["scalar_curvature"] == "-0.5"
        assert report["ljr"]["coefficients"] == ["1", "0", "1", "0"]
        assert report["residuals"]["coefficient_max"] < 1e-9

    def test_markdown_table(self, capsys, tmp_path):
        path = tmp_path / "oscillator.json"
        path.write_text(json.dumps(OSCILLATOR))
        code, out, _ = run(capsys, "custom", str(path), "--markdown")
        assert code == 0
        assert "| coefficient | expected | computed | abs diff |" in out
        assert "| lambda^3 | 1 | 1 |" in out

    def test_missing_keys(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 3}))
        code, _, err = run(capsys, "custom", str(path))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValueError"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "custom", str(tmp_path / "nope.json"))
        assert code == 2
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"

    def test_wrong_expected_fails(self, capsys, tmp_path):
        spec = dict(OSCILLATOR, expected=[2.0])
        path = tmp_path / "oscillator.json"
        path.write_text(json.dumps(spec))
        code, _, _ = run(capsys, "custom", str(path))
        assert code == 1


class TestCoefficientRule:
    """Only a report compared against an expected polynomial gates on, and
    echoes, the coefficient tolerance."""

    def test_expected_polynomial_gates_coefficients(self):
        model = entry("nk:flag").build()
        want = entry("nk:flag").expected
        report, code = cli.build_report("nk:flag", model, want, 64, 0, RESIDUAL_TOL)
        assert code == 0 and report["tolerances"]["coefficient"] == cli.COEFF_TOL
        off = Polynomial(want.coefficients + np.array([0.0, 2e-7, 0.0, 0.0, 0.0, 0.0]))
        report, code = cli.build_report("nk:flag", model, off, 64, 0, RESIDUAL_TOL)
        assert code == 1
        assert report["residuals"]["coefficient_max"] > cli.COEFF_TOL
        assert report["ljr"]["max_residual"] < RESIDUAL_TOL

    def test_without_expectation_neither_gates_nor_echoes(self, capsys):
        code, out, _ = run(capsys, "minpoly", "neg:su4-su3", "--json")
        assert code == 0
        assert "coefficient" not in json.loads(out)["tolerances"]

    @pytest.mark.parametrize("ident, poly", [("nk:s6", "5/4,1/4"), ("np:spin7-g2", "1/36")])
    def test_verify_neither_gates_nor_echoes(self, capsys, ident, poly):
        code, out, _ = run(capsys, "verify", ident, "--poly", poly, "--json")
        report = json.loads(out)
        assert code == 0
        assert report["residuals"]["coefficient_max"] >= 1.0
        assert "coefficient" not in report["tolerances"]


class TestMarkdown:
    @pytest.mark.parametrize("argv, result", [
        (["gvcp", "np:v3"], r"^torsion class G2Type7$"),
        (["twistor", "np:v1", "--d", "1"], r"^R_2 trace-free part: \S+ \(tol 1e-07\)$"),
        (["appendix", "--s-grid", "1:2:2"], r"^\| 2 \| - \| 3 \| \S+ \| \S+ \| \S+ \| \S+ \|$"),
        (["catalog"], r"^\| nk:flag \| 6 \| 30 \| 1 0 1.25 0 0.25 0 \| order-4 "),
    ], ids=["gvcp", "twistor", "appendix", "catalog"])
    def test_result_rendered(self, capsys, argv, result):
        code, out, _ = run(capsys, *argv, "--markdown")
        assert code in (0, 1)
        assert re.search(result, out, re.M), out


FIXED_IDS = [e.name for e in entries()]
RELATION_TOLERANCES = {"constancy": CONSTANCY_TOL, "vanish": VANISH_TOL,
                       "coefficient": cli.COEFF_TOL, "residual": RESIDUAL_TOL}
FORMATS = {"text": [], "json": ["--json"], "markdown": ["--markdown"]}


class TestFlagSurface:
    @pytest.mark.parametrize("argv", [
        ["gvcp", "np:v3", "--samples", "8"],
        ["gvcp", "np:v3", "--tol", "1e-3"],
        ["appendix", "--s-grid", "1:2:2", "--samples", "8"],
        ["appendix", "--s-grid", "1:2:2", "--tol", "1e-3"],
        ["catalog", "--samples", "8"],
        ["catalog", "--tol", "1e-3"],
        ["twistor", "np:v1", "--d", "1", "--samples", "8"],
    ], ids=lambda argv: argv[0] + argv[-2])
    def test_unread_flags_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["verify", "nk:flag", "--poly", "1"],
        ["minpoly", "nk:flag"],
        ["twistor", "np:v1", "--d", "1"],
    ], ids=lambda argv: argv[0])
    def test_tol_must_be_finite_and_positive(self, capsys, argv, tol):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--tol", tol, "--json"])
        assert exc.value.code == 2
        assert "--tol: must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["catalog", "minpoly", "verify", "gvcp", "appendix",
                                         "twistor", "custom"])
    def test_json_and_markdown_exclude_each_other(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--json", "--markdown"])
        assert exc.value.code == 2
        assert "not allowed with argument --json" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gvcp", "np:v3"],
        ["appendix", "--s-grid", "1:2:2"],
        ["catalog"],
        ["twistor", "np:v1", "--d", "1"],
    ], ids=["gvcp", "appendix", "catalog", "twistor"])
    def test_json_echoes_only_own_flags(self, capsys, argv):
        _, out, _ = run(capsys, *argv, "--json", "--seed", "5")
        report = json.loads(out)
        assert report["seed"] == 5
        assert "samples" not in report
        assert ("residual" in report["tolerances"]) == (argv[0] == "twistor")

    @pytest.mark.parametrize("argv, tolerances", [
        (["minpoly", "nk:s6"], RELATION_TOLERANCES),
        (["verify", "nk:flag", "--poly", "5/4,1/4"],
         {key: v for key, v in RELATION_TOLERANCES.items() if key != "coefficient"}),
        (["custom", "OSCILLATOR"], RELATION_TOLERANCES),
        (["gvcp", "np:v3"], {"spectrum": SPECTRUM_TOL}),
        (["appendix", "--s-grid", "1:2:2"], {"spectrum": SPECTRUM_TOL}),
        (["twistor", "np:v1", "--d", "1", "--tol", "1e-6"], {"residual": 1e-6}),
        (["catalog"], {}),
    ], ids=["minpoly", "verify", "custom", "gvcp", "appendix", "twistor", "catalog"])
    def test_json_echoes_applied_tolerances(self, capsys, tmp_path, argv, tolerances):
        if argv[-1] == "OSCILLATOR":
            path = tmp_path / "oscillator.json"
            path.write_text(json.dumps(OSCILLATOR))
            argv = argv[:-1] + [str(path)]
        _, out, _ = run(capsys, *argv, "--json")
        assert json.loads(out)["tolerances"] == tolerances

    def test_relation_commands_echo_samples_and_tol(self, capsys):
        _, out, _ = run(capsys, "minpoly", "nk:s6", "--json", "--samples", "16",
                        "--tol", "1e-6")
        report = json.loads(out)
        assert report["samples"] == 16
        assert report["tolerances"]["residual"] == 1e-6

    # every command on every catalog id; verify nk:flag keeps its true relation,
    # since a case is named by its first two arguments
    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    @pytest.mark.parametrize("argv", [
        ["catalog"],
        ["verify", "nk:flag", "--poly", "5/4,1/4"],
        ["appendix", "--s-grid", "1:2:2"],
        ["custom", "OSCILLATOR"],
    ] + [[command, ident, *flags] for command, *flags in
         (["minpoly"], ["verify", "--poly", "1"], ["twistor", "--d", "1"], ["gvcp"])
         for ident in FIXED_IDS if [command, ident] != ["verify", "nk:flag"]],
        ids=lambda argv: "-".join(argv[:2]))
    def test_every_command_renders(self, capsys, tmp_path, argv, fmt):
        if argv[-1] == "OSCILLATOR":
            path = tmp_path / "oscillator.json"
            path.write_text(json.dumps(OSCILLATOR))
            argv = argv[:-1] + [str(path)]
        code, out, err = run(capsys, *argv, *FORMATS[fmt])
        assert code in (0, 1)
        assert out.strip()
        assert "Traceback" not in err


class TestErrors:
    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "minpoly", "nk:bogus")
        assert code == 2
        payload = json.loads(err)
        assert payload["error"]["type"] == "KeyError"
        assert "nk:bogus" in payload["error"]["message"]

    # one id per malformed-parameter kind: kappa other than 1 or -1, a
    # repeated, an undeclared or an empty parameter, a non-finite value
    @pytest.mark.parametrize("ident", [
        "berger:n=2,s=-1.5,kappa=0", "berger:n=2,s=1,n=3", "heisenberg:n=2,c=1,kappa=-1",
        "berger:n=2,,s=1", "berger:n=2,s=nan"])
    def test_malformed_parameters(self, capsys, ident):
        code, _, err = run(capsys, "minpoly", ident, "--json")
        assert code == 2
        payload = json.loads(err)
        assert payload["error"]["type"] == "KeyError"
        assert ident in payload["error"]["message"]

    # B is negative on the fibre of su(2,1), so (1+s) B is negative there at s = 0 too
    def test_normal_hyperbolic_member_is_inadmissible(self, capsys):
        code, _, err = run(capsys, "minpoly", "berger:n=2,s=0,kappa=-1", "--json")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "InadmissibleS"

    # c^2 overflows the curvature: the relation check reads NaN, which fails
    def test_overflowing_check_fails(self, capsys):
        code, out, _ = run(capsys, "minpoly", "heisenberg:n=2,c=1e100", "--json")
        assert code == 1
        assert np.isnan(json.loads(out)["residuals"]["minimal"])

    def test_non_finite_model_is_invalid_input(self, capsys):
        code, _, err = run(capsys, "minpoly", "heisenberg:n=2,c=1e200", "--json")
        assert code == 2
        assert json.loads(err)["error"] == {"type": "ValueError",
                                            "message": "tau and rbar must be finite"}


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


class TestStderr:
    """In a fresh process, stderr carries the JSON error or nothing: overflow
    inside a command writes no numpy warning."""

    @pytest.mark.parametrize("argv, code", [
        (["minpoly", "heisenberg:n=2,c=1e200", "--json"], 2),
        (["minpoly", "heisenberg:n=2,c=1e100"], 1),
        (["twistor", "heisenberg:n=2,c=1e150", "--d", "1"], 1),
    ], ids=["non-finite model", "overflowing check", "overflowing twistor"])
    def test_stderr_is_json_or_empty(self, argv, code):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-m", "reductive_lab.cli", *argv],
                             capture_output=True, text=True, env=env, timeout=300)
        assert out.returncode == code
        if code == 2:
            assert json.loads(out.stderr)["error"]["type"] == "ValueError"
        else:
            assert out.stderr == ""
            assert "nan" in out.stdout


def test_console_script():
    out = subprocess.run(["reductive-lab", "gvcp", "np:v3"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout == "G2Type7\n"
