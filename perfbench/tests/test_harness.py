"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Run from the repository root.  Only the last test starts reductive_lab.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from child import TRACE_MARK  # noqa: E402


# ---------------------------------------------------------------------------
# seeded inputs

def _mask_id(ident):
    return re.sub(r"\b([sc])=[^,]+", r"\1=#", ident)


def _shape(op):
    """An op with its seeded parameter values masked out."""
    if "argv" in op:
        argv = list(op["argv"])
        for flag in ("--seed", "--poly"):
            if flag in argv and not (flag == "--poly" and argv[1] in oracle.FIXED):
                argv[argv.index(flag) + 1] = "#"
        return [_mask_id(a) for a in argv]
    shape = dict(op, id=_mask_id(op["id"]))
    shape.pop("seed", None)
    if "x" in shape:
        shape["x"] = len(shape["x"])
    return shape


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_change_only_parameter_values(workload):
    first, second = workloads.build(workload, 1), workloads.build(workload, 2)
    assert [_shape(op) for op in first] == [_shape(op) for op in second]
    assert first != second
    assert workloads.build(workload, 1) == first


def test_seeded_parameters_stay_admissible():
    for seed in range(50):
        for op in workloads.build("library-detect", seed) + [
                {"id": o["argv"][1]} for o in workloads.build("cli-build-large", seed)]:
            if op["id"] in oracle.FIXED:
                continue
            kind, p = oracle.params(op["id"])
            if kind == "berger":
                assert (p["s"] > -1.0) if p["kappa"] > 0 else (p["s"] < -1.0)
                assert abs(p["s"] + (p["n"] - 1) / (2 * p["n"])) > 0.1  # off the round member
            if kind == "aw":
                assert abs(p["s"] - 1.5) >= 0.1


# ---------------------------------------------------------------------------
# the oracle

NK_FLAG_JSON = {
    "command": "minpoly", "space": {"id": "nk:flag", "dimension": 6},
    "torsion_class": "SU3Type6", "scalar_curvature": "30",
    "ljr": {"exists": True, "coefficients": ["1", "0", "1.25", "0", "0.25", "0"],
            "max_residual": 2.7e-16},
}
NK_FLAG_ARGV = ["minpoly", "nk:flag", "--json", "--seed", "3"]


def _check(report, code=0, err="", argv=NK_FLAG_ARGV):
    return oracle.check_cli(argv, code, json.dumps(report), err)


def test_oracle_accepts_the_reference_report():
    assert _check(NK_FLAG_JSON).status == "pass"


def test_oracle_rejects_a_flipped_coefficient_token():
    report = json.loads(json.dumps(NK_FLAG_JSON))
    report["ljr"]["coefficients"][2] = "1.5"
    outcome = _check(report)
    assert outcome.status == "fail" and "tokens" in outcome.detail


def test_oracle_rejects_a_traceback_on_stderr():
    err = 'Traceback (most recent call last):\n  File "x", line 1\nValueError: boom\n'
    assert _check(NK_FLAG_JSON, err=err).status == "fail"


def test_oracle_rejects_a_wrong_exit_code():
    assert _check(NK_FLAG_JSON, code=1).status == "fail"
    assert _check(NK_FLAG_JSON, code=2).status == "fail"


def test_oracle_rejects_a_wrong_verdict():
    report = dict(NK_FLAG_JSON, torsion_class="G2Type7")
    assert _check(report).status == "fail"
    berger = ["minpoly", "berger:n=5,s=0.5,kappa=1", "--json"]
    c2 = 2 * 6 / (5 * 1.5)
    good = {"space": {"id": berger[1], "dimension": 11}, "torsion_class": "NotGVCP",
            "scalar_curvature": "1", "ljr": {"exists": True, "max_residual": 1e-15,
                                              "coefficients": ["1", "0", repr(c2), "0"]}}
    assert _check(good, argv=berger).status == "pass"
    good["ljr"]["coefficients"][2] = repr(c2 * (1 + 1e-6))
    assert _check(good, argv=berger).status == "fail"


def test_oracle_names_known_defects():
    crash = 'Traceback (most recent call last):\n ...\nTypeError: must be real number\n'
    outcome = oracle.check_cli(["minpoly", "neg:sp2-sp1"], 1, "", crash)
    assert (outcome.status, outcome.defect) == ("defect", "cli.defects_text_no_relation")
    # the same crash anywhere else is a failure
    assert oracle.check_cli(["minpoly", "nk:flag"], 1, "", crash).status == "fail"

    result = {"error": "AssertionError", "message": "universal relation residual 6.1e-07",
              "where": "jacobi.universal_jr"}
    outcome = oracle.check_library({"fn": "universal_jr", "id": "heisenberg:n=6,c=1.3"}, result)
    assert outcome.defect == "jacobi.defects_universal_jr_residual"
    result = {"error": "AssertionError", "message": _allclose_message(),
              "where": oracle.SKEW_SPLIT}
    outcome = oracle.check_library(MINIMAL_LJR, result)
    assert outcome.defect == "algebra.defects_skew_reconstruct"
    assert _minpoly_exit_2(_allclose_message()).defect == "algebra.defects_skew_reconstruct"
    assert set(oracle.KNOWN_DEFECTS) == {
        "cli.defects_text_no_relation", "jacobi.defects_universal_jr_residual",
        "algebra.defects_skew_reconstruct"}


MINIMAL_LJR = {"fn": "minimal_ljr", "id": "heisenberg:n=3,c=1"}


def _allclose_message(err_msg=""):
    """The message of a failing np.testing.assert_allclose."""
    try:
        np.testing.assert_allclose(np.ones(2), np.zeros(2), atol=1e-8, err_msg=err_msg)
    except AssertionError as exc:
        return str(exc)
    raise RuntimeError("assert_allclose passed")


def _minpoly_exit_2(message):
    err = json.dumps({"schema": 1, "error": {"type": "AssertionError", "message": message}})
    return oracle.check_cli(["minpoly", "berger:n=6,s=0.5,kappa=1", "--json"], 2, "", err)


def test_construction_checks_are_failures_not_the_skew_defect():
    # reductive.py's postconditions pass an err_msg; they are not the known defect
    construction = _allclose_message("horizontal torsion changed")
    assert _minpoly_exit_2(construction).status == "fail"
    result = {"error": "AssertionError", "message": construction,
              "where": "reductive._verify_extension"}
    assert oracle.check_library(MINIMAL_LJR, result).status == "fail"
    # a library call must have raised it in skew_spectral_decomposition itself
    result = {"error": "AssertionError", "message": _allclose_message(),
              "where": "algebra.SkewSpectrum.check"}
    assert oracle.check_library(MINIMAL_LJR, result).status == "fail"


def test_known_defects_excuse_at_most_half_the_ops():
    ok, defect = oracle.Outcome("pass"), oracle.Outcome("defect", defect="d")
    assert oracle.count_failed([defect] * 4 + [ok] * 5) == 0
    assert oracle.count_failed([defect] * 5 + [ok] * 4) == 5
    assert oracle.count_failed([oracle.Outcome("fail"), defect, ok, ok]) == 1


def test_oracle_checks_text_and_markdown_reports():
    text = ("nk:flag  dim 6\nscalar curvature  30\ntorsion class     SU3Type6\n"
            "relation          order 4, coefficients 1 0 1.25 0 0.25 0\n"
            "max residual      2.700e-16\nresidual[minimal]  2.700e-16\n"
            "seed 3, samples 64, residual tol 1e-08\nwall time 0.123s\n")
    argv = ["minpoly", "nk:flag"]
    assert oracle.check_cli(argv, 0, text, "").status == "pass"
    assert oracle.check_cli(argv, 0, text.replace("0.25", "0.5"), "").status == "fail"
    rows = [("lambda^5", "1"), ("lambda^4", "0"), ("lambda^3", "1.25"),
            ("lambda^2", "0"), ("lambda", "0.25"), ("1", "0")]
    md = "## nk:cp3\n\n| coefficient | expected | computed | abs diff |\n|---|---|---|---|\n"
    md += "".join("| %s | %s | %s | 0.000e+00 |\n" % (label, t, t) for label, t in rows)
    md += "\nmax residual 2.000e-16, seed 3, wall time 0.100s\n"
    argv = ["minpoly", "nk:cp3", "--markdown"]
    assert oracle.check_cli(argv, 0, md, "").status == "pass"
    assert oracle.check_cli(argv, 0, md.replace("| 1.25 | 1.25 |", "| 1.25 | 1.5 |"),
                            "").status == "fail"


def test_twistor_verdicts_follow_the_relation_order():
    ok = oracle.check_library({"fn": "verify_twistor", "id": "np:v1", "d": 2}, {"rel": 1e-14})
    assert ok.status == "pass"
    below = {"fn": "verify_twistor", "id": "nk:flag", "d": 3}
    assert oracle.check_library(below, {"rel": 0.4}).status == "pass"
    assert oracle.check_library(below, {"rel": 1e-14}).status == "fail"
    out = "R_2 trace-free part: 9.190e-01 (tol 1e-07)\n"
    assert oracle.check_cli(["twistor", "np:v1", "--d", "1"], 1, out, "").status == "pass"
    assert oracle.check_cli(["twistor", "np:v1", "--d", "1"], 0, out, "").status == "fail"


# ---------------------------------------------------------------------------
# spans and metrics

def _span(module, name, start, end, parent):
    return [module, "%s.%s" % (module, name), start, end, parent, None]


def test_self_time_of_nested_spans():
    spans = [
        _span("cli", "main", 0.0, 10.0, -1),            # 0
        _span("jacobi", "minimal_ljr", 1.0, 7.0, 0),    # 1
        _span("algebra", "split", 2.0, 3.0, 1),         # 2
        _span("jacobi", "minimal_ljr", 3.5, 5.0, 1),    # 3: nested in 1
        _span("algebra", "split", 4.0, 4.5, 3),         # 4
        _span("vcp", "classify", 8.0, 9.5, 0),          # 5
    ]
    got = tracer.self_times(spans)
    assert got == pytest.approx({"cli": 10.0 - 6.0 - 1.5,
                                 "jacobi": (6.0 - 1.0 - 1.5) + (1.5 - 0.5),
                                 "algebra": 1.0 + 0.5, "vcp": 1.5})
    assert sum(got.values()) == pytest.approx(10.0)
    assert tracer.inclusive_time(spans, "jacobi.minimal_ljr") == pytest.approx(6.0)
    assert tracer.inclusive_time(spans, "algebra.split") == pytest.approx(1.5)


def test_cycles_stop_before_the_run_would_overrun():
    assert run.another_cycle_fits(10.0, 1, 30)         # a second cycle ends at 20 s
    assert not run.another_cycle_fits(16.0, 1, 30)     # ... at 32 s
    assert not run.another_cycle_fits(25.0, 1, 30)     # one cycle always runs whole
    assert not run.another_cycle_fits(100.0, 2, 600)   # MAX_RUN_S caps the run


def test_tail_keeps_ten_values_above_it():
    values = list(range(1, 101))
    assert run.tail(values) == (90, 90.0)
    assert run.tail(list(range(25))) == (14, 60.0)
    assert run.tail(list(range(9))) == (4, 50.0)  # too few ops for a tail


# ---------------------------------------------------------------------------
# end to end, against the checkout's src/

def test_traced_and_untraced_json_reports_are_byte_identical():
    env = run.child_env(ROOT)
    argv = ["minpoly", "nk:flag", "--json", "--seed", "7"]
    plain = run.run_process([sys.executable, "-m", "reductive_lab.cli"] + argv, env)
    traced = run.run_process([sys.executable, os.path.join(BENCH, "child.py"), "cli"] + argv,
                             env)
    assert plain.code == traced.code == 0
    assert plain.out == traced.out
    err, summary = run.split_trace(traced.err)
    assert err == plain.err == ""
    assert summary["inclusive_s"]["jacobi.minimal_ljr"] > 0
    assert summary["calls"]["cli.build_report"] == 1
    assert summary["samples_used"] == json.loads(plain.out)["ljr"]["eigen_structure"][
        "samples_used"]
    assert TRACE_MARK not in err


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-catalog",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
