"""Behaviour lock: `--json` reports of every command against golden reports.

The goldens in tests/golden/reports.json come from
tests/golden/make_goldens.py.  Verdicts, exit codes, coefficient tokens,
torsion classes, block counts, sample counts and every other non-float
value must match exactly.  A float (a residual, relnorm, factor or
eigenvalue statistic) may move by at most FLOAT_SLACK, and a residual under
its tolerance in the golden report must stay under it.
"""

import json
import pathlib

import pytest

from golden.make_goldens import run

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "reports.json").read_text())
FLOAT_SLACK = 1e-12


def _mismatches(want, got, path="report"):
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(want) != sorted(got):
            return ["%s: keys %s != %s" % (path, sorted(want), sorted(got))]
        return [m for key in want for m in _mismatches(want[key], got[key], "%s.%s" % (path, key))]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return ["%s: length %d != %d" % (path, len(want), len(got))]
        return [m for i, (a, b) in enumerate(zip(want, got))
                for m in _mismatches(a, b, "%s[%d]" % (path, i))]
    if isinstance(want, float) and type(got) is float:
        return [] if abs(want - got) <= FLOAT_SLACK else ["%s: %r != %r" % (path, want, got)]
    if type(want) is not type(got) or want != got:
        return ["%s: %r != %r" % (path, want, got)]
    return []


def _residuals(report):
    """(name, value) of each residual the report gates on."""
    out = [("ljr.max_residual", report["ljr"]["max_residual"])] if "ljr" in report else []
    out += [("residuals.%s" % key, value) for key, value in report.get("residuals", {}).items()
            if key != "coefficient_max"]
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden(name):
    golden = GOLDEN[name]
    code, report = run(golden["argv"])
    assert code == golden["code"]
    assert _mismatches(golden["report"], report) == []
    for (key, want), (_, got) in zip(_residuals(golden["report"]), _residuals(report)):
        tol = golden["report"]["tolerances"]["residual"]
        if want is not None and want < tol:
            assert got < tol, key


def test_comparison_sees_each_kind_of_change():
    base = {"a": 1, "b": [0.5, "1/36"], "c": {"d": True}}
    assert _mismatches(base, json.loads(json.dumps(base))) == []
    assert _mismatches(base, {"a": 1, "b": [0.5 + 1e-13, "1/36"], "c": {"d": True}}) == []
    assert len(_mismatches(base, {"a": 1, "b": [0.5 + 1e-11, "1/36"], "c": {"d": True}})) == 1
    assert len(_mismatches(base, {"a": 1.0, "b": [0.5, "1/36"], "c": {"d": True}})) == 1
    assert len(_mismatches(base, {"a": 1, "b": [0.5, "1/37"], "c": {"d": True}})) == 1
    assert len(_mismatches(base, {"a": 1, "b": [0.5, "1/36"], "c": {"d": False}})) == 1
    assert len(_mismatches(base, {"a": 1, "b": [0.5], "c": {"d": True}})) == 1
    assert len(_mismatches(base, {"a": 1, "b": [0.5, "1/36"], "c": {}})) == 1
