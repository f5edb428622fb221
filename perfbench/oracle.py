"""Reference table and output checks for the benchmark.

The table is written down here, not computed by reductive_lab: coefficient
tokens and torsion classes of the fixed catalog ids, the closed forms for
the parametric families, and the twistor and appendix verdicts of the
paper's acceptance criteria.  Every op outcome is one of

  pass    the output matches the table;
  defect  the output reproduces a known defect listed in KNOWN_DEFECTS,
          kept visible on purpose: each has a per-layer count of its own,
          so that a fix shows as a drop to zero;
  fail    anything else: a traceback, unparseable output, a wrong verdict
          or an unexpected exit code.
"""

import json
import math
import re
from fractions import Fraction

RESIDUAL_TOL = 1e-8     # relation residual, as the CLI's default --tol
COEFF_TOL = 1e-7        # coefficient agreement, relative to max(1, |c|)
TWISTOR_TOL = 1e-7      # trace-free norm that certifies a twistor relation
UNIVERSAL_TOL = 1e-7    # check_ljr residual of a universal relation
NONZERO = 1e-3          # a verdict "does not vanish" needs at least this

SU3, G2, NOT_GVCP = "SU3Type6", "G2Type7", "NotGVCP"

# Fixed catalog ids: dimension, scalar-curvature token, torsion class and
# the minimal relation as coefficient tokens, highest degree first (None:
# no relation).  Sources: nk a2 = scal/24, a4 = scal^2/3600 at scal 30;
# np and aw:n11,s=1.5 a2 = 2 scal/189; Berger c^2 = 2(n+1)/(n|1+s|);
# Heisenberg c^2.  The neg:su4-su3 coefficient 8/3 and the scalar
# curvatures other than nk 30 and np 21/8 are recorded values; for
# neg:su4-su3 the paper's claim is only that a2 != 2 scal/189.
FIXED = {
    "berger:n=2,s=1": (5, "22.5", NOT_GVCP, ["1", "0", "1.5", "0"]),
    "heisenberg:n=2,c=1": (5, "-1", NOT_GVCP, ["1", "0", "1", "0"]),
    "aw:n11,s=1.5": (7, "37.8", G2, ["1", "0", "0.4", "0"]),
    "nk:flag": (6, "30", SU3, ["1", "0", "1.25", "0", "0.25", "0"]),
    "nk:s3xs3": (6, "30", SU3, ["1", "0", "1.25", "0", "0.25", "0"]),
    "nk:cp3": (6, "30", SU3, ["1", "0", "1.25", "0", "0.25", "0"]),
    "nk:s6": (6, "30", SU3, ["1", "0"]),
    "np:spin7-g2": (7, "2.625", G2, ["1", "0"]),
    "np:squashed-s7": (7, "2.625", G2, ["1", "0", "1/36", "0"]),
    "np:v1": (7, "94.5", G2, ["1", "0", "1", "0"]),
    "np:v3": (7, "37.8", G2, ["1", "0", "0.4", "0"]),
    "neg:su4-su3": (7, "44", NOT_GVCP, ["1", "0", "8/3", "0"]),
    "neg:sp2-sp1": (7, "1.875", NOT_GVCP, None),
}

# Ids whose relation is off the nearly parallel family line a2 = 2 scal/189.
OFF_FAMILY_LINE = ("neg:su4-su3",)

# The appendix sweep fits a cross-product multiple only at s = 3/2, c^2 = 5/2.
APPENDIX_FIT = (1.5, 2.5)

KNOWN_DEFECTS = {
    "cli.defects_text_no_relation":
        "text-mode minpoly on an id without a relation raises TypeError in "
        "render_text and exits 1, the exit code of a genuine 'no relation'",
    "jacobi.defects_universal_jr_residual":
        "universal_jr fails its own residual check (AssertionError "
        "'universal relation residual') on larger or rescaled models",
    "algebra.defects_skew_reconstruct":
        "at some sample seeds skew_spectral_decomposition's reconstruction "
        "check raises AssertionError instead of DegenerateSpectrum, so "
        "minimal_ljr aborts and the CLI exits 2 as if the input were invalid",
}
# Where the skew-split defect is raised.  A library call must have raised it
# in this function; a CLI report carries only the message (see _bare_allclose).
SKEW_SPLIT = "algebra.skew_spectral_decomposition"
ALLCLOSE = "Not equal to tolerance"  # first line of an assert_allclose message

# Known defects excuse at most this share of a run's ops.  Beyond it they
# count as failed, so that a change which makes a known defect common does
# not pass as correct.  Today's share is at most 2 of the 9 cli-build-large ops.
DEFECT_CEILING = 0.5

TRACEBACK = "Traceback (most recent call last)"


class Outcome:
    def __init__(self, status, detail="", defect=None):
        self.status = status
        self.detail = detail
        self.defect = defect


def _bare_allclose(message):
    """True for an np.testing.assert_allclose message without an err_msg line.

    Every assert_allclose of reductive.py (the construction postconditions)
    passes an err_msg, which numpy prints on the line after the tolerance;
    the bare ones are the checks of algebra.py, all made inside
    skew_spectral_decomposition."""
    lines = message.lstrip("\n").split("\n")
    return lines[0].startswith(ALLCLOSE) and len(lines) > 1 and lines[1] == ""


class Mismatch(Exception):
    """The output disagrees with the table; the message says where."""


def _expect(condition, message):
    if not condition:
        raise Mismatch(message)


def _num(token):
    """A report token ("1/36", "1.25", 2.0e-3) as a float."""
    if isinstance(token, str):
        return float(Fraction(token))
    return float(token)


def params(ident):
    """Kind and parameters of a registry id, e.g. ('berger', {'n': 4, ...})."""
    kind, _, rest = ident.partition(":")
    kv = dict(p.split("=", 1) for p in rest.split(",") if "=" in p)
    if kind == "berger":
        return kind, {"n": int(kv["n"]), "s": float(kv["s"]),
                      "kappa": int(kv.get("kappa", "1"))}
    if kind == "heisenberg":
        return kind, {"n": int(kv["n"]), "c": float(kv["c"])}
    if kind == "aw":
        return kind, {"s": float(kv["s"])}
    return kind, {}


def berger_c2(n, s):
    return 2.0 * (n + 1) / (n * abs(1.0 + s))


def expected(ident):
    """(dimension, torsion class, relation as floats highest degree first or
    None, pinned tokens or None) for a fixed or parametric id."""
    if ident in FIXED:
        dim, _, cls, tokens = FIXED[ident]
        return dim, cls, None if tokens is None else [_num(t) for t in tokens], tokens
    kind, p = params(ident)
    if kind == "berger":
        return 2 * p["n"] + 1, NOT_GVCP, [1.0, 0.0, berger_c2(p["n"], p["s"]), 0.0], None
    if kind == "heisenberg":
        return 2 * p["n"] + 1, NOT_GVCP, [1.0, 0.0, p["c"] ** 2, 0.0], None
    if kind == "aw" and abs(p["s"] - APPENDIX_FIT[0]) > 1e-12:
        return 7, NOT_GVCP, None, None  # the splitting family off s = 3/2
    raise KeyError("no reference for %r" % ident)


def reference_ascending(ident):
    """The reference relation of an id, coefficients ascending."""
    return expected(ident)[2][::-1]


def _check_relation(ident, got):
    """got: coefficients highest degree first (floats or tokens), or None."""
    _, _, want, tokens = expected(ident)
    if want is None:
        _expect(got is None, "%s: relation %s where none exists" % (ident, got))
        return
    _expect(got is not None, "%s: no relation reported" % ident)
    if tokens is not None and all(isinstance(t, str) for t in got):
        _expect(list(got) == tokens, "%s: tokens %s, want %s" % (ident, got, tokens))
    values = [_num(t) for t in got]
    _expect(len(values) == len(want), "%s: degree %d, want %d"
            % (ident, len(values) - 1, len(want) - 1))
    for a, b in zip(values, want):
        _expect(abs(a - b) <= COEFF_TOL * max(1.0, abs(b)),
                "%s: coefficients %s, want %s" % (ident, values, want))
    if ident in OFF_FAMILY_LINE:
        a2 = values[2]
        line = 2.0 * _num(FIXED[ident][1]) / 189.0
        _expect(abs(a2 - line) > NONZERO, "%s: a2 %.6g on the family line" % (ident, a2))


def _check_small(value, tol, what):
    _expect(isinstance(value, (int, float)) and math.isfinite(value) and value < tol,
            "%s %r not below %g" % (what, value, tol))


# ---------------------------------------------------------------------------
# command-line reports


def _format(argv):
    if "--json" in argv:
        return "json"
    return "markdown" if "--markdown" in argv else "text"


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _text_fields(out):
    fields = {}
    for line in out.splitlines():
        m = re.match(r"(\S+)  dim (\d+)$", line)
        if m:
            fields["id"], fields["dim"] = m.group(1), int(m.group(2))
        for key, label in (("scal", "scalar curvature"), ("torsion", "torsion class"),
                           ("relation", "relation"), ("max_residual", "max residual")):
            if line.startswith(label + " ") and key not in fields:
                fields[key] = line[len(label):].strip()
        m = re.match(r"residual\[(\w+)\]\s+(\S+)$", line)
        if m:
            fields["residual_" + m.group(1)] = float(m.group(2))
    return fields


def _text_relation(field):
    if field == "none":
        return None
    m = re.match(r"order (\d+), coefficients (.+)$", field)
    _expect(m is not None, "unparseable relation line %r" % field)
    return m.group(2).split()


def _markdown_table(out):
    """Rows (label, expected, computed) of a Markdown coefficient table."""
    rows = []
    for line in out.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| lambda") or line.startswith("| 1 "):
            rows.append(cells[:3])
    return rows


def _markdown_residual(out):
    m = re.search(r"^max residual (\S+), seed \d+, wall time", out, re.M)
    _expect(m is not None, "no max residual line")
    return float(m.group(1))


def _check_minpoly(ident, fmt, out):
    dim, cls, want, tokens = expected(ident)
    scal = FIXED[ident][1] if ident in FIXED else None
    if fmt == "json":
        report = json.loads(out)
        _expect(report["space"] == {"id": ident, "dimension": dim}, "space %r" % report["space"])
        _expect(report["torsion_class"] == cls, "torsion class %r" % report["torsion_class"])
        _expect(scal is None or report["scalar_curvature"] == scal,
                "scal %r" % report["scalar_curvature"])
        ljr = report["ljr"]
        _expect(ljr["exists"] == (want is not None), "exists %r" % ljr["exists"])
        _check_relation(ident, ljr["coefficients"])
        if want is not None:
            _check_small(ljr["max_residual"], RESIDUAL_TOL, "max residual")
    elif fmt == "text":
        f = _text_fields(out)
        _expect((f.get("id"), f.get("dim")) == (ident, dim), "header %r" % out[:80])
        _expect(f.get("torsion") == cls, "torsion class %r" % f.get("torsion"))
        _expect(scal is None or f.get("scal") == scal, "scal %r" % f.get("scal"))
        _expect("relation" in f, "no relation line")
        _check_relation(ident, _text_relation(f["relation"]))
        if want is not None:
            _check_small(float(f["max_residual"]), RESIDUAL_TOL, "max residual")
    else:
        _expect(out.startswith("## %s\n" % ident), "header %r" % out[:80])
        rows = _markdown_table(out)
        if ident in FIXED and want is not None:
            _expect([r[2] for r in rows] == tokens, "computed column %s" % rows)
        _check_small(_markdown_residual(out), RESIDUAL_TOL, "max residual")


def _check_verify(ident, fmt, poly, out):
    given = [_num(t) for t in poly.split(",")]
    want = [1.0] + [v for a in given for v in (0.0, a)] + [0.0]
    _expect(want == expected(ident)[2], "verify %s with a poly off the table" % ident)
    if fmt == "json":
        report = json.loads(out)
        _expect(report["command"] == "verify", "command %r" % report["command"])
        _check_small(report["residuals"]["given"], RESIDUAL_TOL, "given residual")
        _check_relation(ident, report["ljr"]["coefficients"])
    elif fmt == "text":
        f = _text_fields(out)
        _expect(f.get("id") == ident, "header %r" % out[:80])
        _check_small(f.get("residual_given"), RESIDUAL_TOL, "given residual")
        _check_relation(ident, _text_relation(f["relation"]))
    else:
        rows = _markdown_table(out)
        _expect([_num(r[1]) for r in rows] == want, "expected column %s" % rows)
        _check_relation(ident, [r[2] for r in rows])


def _twistor_verdict(ident, d, rel):
    order = len(FIXED[ident][3]) - 2
    if d >= order:
        _check_small(rel, TWISTOR_TOL, "trace-free norm")
        return 0
    _expect(rel > NONZERO, "trace-free norm %r vanishes below the relation order" % rel)
    return 1


def _check_catalog(out):
    rows = [line.split() for line in out.splitlines() if line.strip()]
    got = {r[0]: (int(r[2]), r[4]) for r in rows}
    want = {ident: (v[0], v[1]) for ident, v in FIXED.items()}
    _expect(got == want, "catalog rows %s" % got)


def _check_appendix(out):
    fitted = []
    rows = out.splitlines()
    _expect(len(rows) == 8, "%d appendix rows" % len(rows))
    for line in rows:
        m = re.match(r"\s*(\S+)\s+c\^2 (\S+)\s+vcp1 ", line)
        _expect(m is not None, "unparseable appendix row %r" % line)
        if m.group(2) != "-":
            fitted.append((float(m.group(1)), _num(m.group(2))))
    s, c2 = APPENDIX_FIT
    _expect(len(fitted) == 1 and fitted[0][0] == s and abs(fitted[0][1] - c2) <= RESIDUAL_TOL,
            "fits at %s" % fitted)


def _expected_exit(argv):
    command = argv[0]
    if command == "minpoly":
        return 0 if expected(argv[1])[2] is not None else 1
    if command == "twistor":
        ident, d = argv[1], int(_flag(argv, "--d"))
        return 0 if d >= len(FIXED[ident][3]) - 2 else 1
    return 0


def check_cli(argv, code, out, err):
    """Outcome of one `reductive-lab <argv>` process."""
    command, fmt = argv[0], _format(argv)
    want_code = _expected_exit(argv)
    if command in ("minpoly", "verify") and code == 2 and not out:
        try:
            error = json.loads(err)["error"]
        except (ValueError, KeyError, TypeError):
            error = {}
        if (error.get("type") == "AssertionError"
                and _bare_allclose(str(error.get("message", "")))):
            return Outcome("defect", "AssertionError in skew_spectral_decomposition",
                           "algebra.defects_skew_reconstruct")
    if (command == "minpoly" and fmt == "text" and want_code == 1 and code == 1
            and not out and "TypeError" in err and TRACEBACK in err):
        return Outcome("defect", "TypeError in render_text",
                       "cli.defects_text_no_relation")
    if TRACEBACK in err:
        return Outcome("fail", "traceback: " + err.strip().splitlines()[-1])
    if code != want_code:
        return Outcome("fail", "exit %d, want %d: %s" % (code, want_code, err.strip()[-200:]))
    try:
        if command == "minpoly":
            _check_minpoly(argv[1], fmt, out)
        elif command == "verify":
            _check_verify(argv[1], fmt, _flag(argv, "--poly"), out)
        elif command == "gvcp":
            _expect(out == expected(argv[1])[1] + "\n", "class %r" % out)
        elif command == "twistor":
            rel = (json.loads(out)["relative_trace_free_norm"] if fmt == "json" else
                   float(re.match(r"R_\d+ trace-free part: (\S+) ", out).group(1)))
            _twistor_verdict(argv[1], int(_flag(argv, "--d")), rel)
        elif command == "catalog":
            _check_catalog(out)
        elif command == "appendix":
            _check_appendix(out)
        else:
            raise Mismatch("no reference for command %r" % command)
    except Mismatch as exc:
        return Outcome("fail", str(exc))
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        return Outcome("fail", "unparseable output: %s: %s" % (type(exc).__name__, exc))
    return Outcome("pass")


def count_failed(outcomes):
    """Failed ops of a run: every fail, and every known defect as well once
    the defects exceed DEFECT_CEILING of the ops."""
    failed = sum(o.status == "fail" for o in outcomes)
    defects = sum(o.status == "defect" for o in outcomes)
    return failed + (defects if defects > DEFECT_CEILING * len(outcomes) else 0)


# ---------------------------------------------------------------------------
# library calls


def check_library(op, result):
    """Outcome of one library call; result is the child's summary of it."""
    fn, ident = op["fn"], op["id"]
    if "error" in result:
        if result["error"] == "AssertionError":
            message = result["message"].strip()
            if (fn == "universal_jr" and result.get("where") == "jacobi.universal_jr"
                    and message.startswith("universal relation residual")):
                return Outcome("defect", message, "jacobi.defects_universal_jr_residual")
            if (fn == "minimal_ljr" and result.get("where") == SKEW_SPLIT
                    and _bare_allclose(result["message"])):
                return Outcome("defect", message.splitlines()[0],
                               "algebra.defects_skew_reconstruct")
        return Outcome("fail", "%s in %s: %s" % (result["error"], result.get("where"),
                                                 result["message"].strip()))
    try:
        if fn == "minimal_ljr":
            _expect(result["exists"] == (expected(ident)[2] is not None),
                    "%s: exists %r" % (ident, result["exists"]))
            got = result["coefficients"]
            _check_relation(ident, None if got is None else got[::-1])
            if got is not None:
                _check_small(result["max_residual"], RESIDUAL_TOL, "max residual")
        elif fn == "check_ljr":
            _expect(op["poly"] == reference_ascending(ident), "poly off the table")
            _check_small(result["residual"], RESIDUAL_TOL, "residual")
        elif fn == "universal_jr":
            dim = expected(ident)[0]
            _expect(result["degree"] == dim * (dim - 1) // 2, "degree %r" % result["degree"])
            _check_small(result["recheck"], UNIVERSAL_TOL, "check_ljr of the universal relation")
        elif fn == "verify_twistor":
            _twistor_verdict(ident, op["d"], result["rel"])
        else:
            raise Mismatch("no reference for %r" % fn)
    except Mismatch as exc:
        return Outcome("fail", str(exc))
    except (KeyError, TypeError) as exc:
        return Outcome("fail", "malformed result: %s: %s" % (type(exc).__name__, exc))
    return Outcome("pass")
