"""Command-line driver: deterministic JSON reports over the catalog.

Exit codes: 0 all checks pass, 1 numeric failure (residual above
tolerance or not finite, or no relation found), 2 invalid input (a model
that is not finite included).  Errors go to stderr as JSON, and nothing
else does.  Reports are canonical (sorted keys); the wall_time field is
null in JSON mode so identical runs stay byte-identical, the measured
time appears in the text and Markdown renderings only.
"""

import argparse
import json
import os
import sys
import time
from fractions import Fraction

import numpy as np

from .algebra import RESIDUAL_TOL, Polynomial
from .catalog import aloff_wallach_n11, entries, entry
from .jacobi import (
    CONSTANCY_TOL,
    VANISH_TOL,
    JacobiFamily,
    check_ljr,
    minimal_ljr,
    verify_twistor,
)
from .liealg import algebra_from_json
from .reductive import build_triple, scalar_curvature
from .vcp import (SPECTRUM_TOL, ThreeForm, appendix_component_checks, classify_gvcp,
                  fit_vcp_multiple)

SCHEMA = "reductive-lab/1"
COEFF_TOL = 1e-7

__all__ = ["main", "build_report", "render_text", "render_markdown"]


def _token(x, unit):
    """Exact string for a float within 1e-9 units of a small rational, else
    the float.  A float of magnitude 2^53 or more stays a float: it is an
    integer whose exact digits the float does not carry.

    The unit is the size the value has in its model: a power of the
    curvature scale, or 1 for a value without a model.  So a relation or a
    scalar curvature at small metric scale is not spelled as 0.  Terminating
    decimals are spelled as decimals ("1.25"), the rest as fractions
    ("1/36").  Keeps report tables legible without losing precision.
    """
    x = float(x)
    if not abs(x) < 2.0 ** 53:  # also inf and nan
        return x
    frac = Fraction(x).limit_denominator(3600)
    if abs(float(frac) - x) > 1e-9 * unit:
        return x
    if frac.denominator == 1:
        return str(frac.numerator)
    den = frac.denominator
    for p in (2, 5):
        while den % p == 0:
            den //= p
    if den == 1:
        return repr(float(frac)) if float(frac) == x else _decimal_string(frac)
    return "%d/%d" % (frac.numerator, frac.denominator)


def _decimal_string(frac):
    num, den, digits = abs(frac.numerator), frac.denominator, 0
    while num % den:
        num *= 10
        digits += 1
    s = str(num // den)
    if digits:
        s = s.zfill(digits + 1)
        s = s[:-digits] + "." + s[-digits:]
    return ("-" if frac < 0 else "") + s


def _dump(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=lambda v: v.tolist()) + "\n"


def _coefficient(p: Polynomial, power, scale):
    """(value, token) of the lambda^power coefficient of p, 0 above its
    degree; the token's unit is scale^((degree - power) / 2)."""
    if p is None or power > p.degree:
        return 0.0, "0"
    value = p.coefficients[power]
    return value, _token(value, scale ** ((p.degree - power) / 2))


def _poly_tokens(p: Polynomial, scale):
    """Coefficient tokens, highest degree first, for a model of curvature
    scale `scale`."""
    return [_coefficient(p, power, scale)[1] for power in range(p.degree, -1, -1)]


def _coefficient_table(expected, computed, scale):
    """Rows (label, expected, computed, |diff|) for the a2, a4, ... slots."""
    rows = []
    degree = max(p.degree for p in (expected, computed) if p is not None)
    for power in range(degree, -1, -1):
        label = "lambda^%d" % power if power > 1 else ("lambda" if power else "1")
        (want, want_token), (got, got_token) = (_coefficient(p, power, scale)
                                                for p in (expected, computed))
        rows.append([label, want_token, got_token, abs(float(want) - float(got))])
    return rows


def _envelope(command, seed, tolerances, samples=None):
    """Report header.  tolerances holds those the command applies, --tol
    among them; samples echoes --samples, and a command without that flag
    leaves the key out."""
    report = {
        "schema": SCHEMA,
        "command": command,
        "seed": seed,
        "tolerances": tolerances,
        "wall_time": None,
    }
    if samples is not None:
        report["samples"] = samples
    return report


def build_report(name, model, expected, samples, seed, tol, given=None):
    """Full-pipeline report: torsion class, LJR verdict, comparison table.
    Only a report compared against an expected polynomial, not a given one,
    gates on the coefficient tolerance and echoes it."""
    compared = given is None and expected is not None
    report = _envelope("minpoly" if given is None else "verify", seed,
                       {"constancy": CONSTANCY_TOL, "vanish": VANISH_TOL, "residual": tol,
                        **({"coefficient": COEFF_TOL} if compared else {})}, samples)
    verdict = minimal_ljr(JacobiFamily(model), samples=samples, seed=seed)
    report["space"] = {"id": name, "dimension": model.n}
    scale = model.curvature_scale
    report["scalar_curvature"] = _token(scalar_curvature(model), scale)
    report["torsion_class"] = classify_gvcp(ThreeForm(model.tau), seed=seed)
    report["ljr"] = {
        "exists": verdict.exists,
        "order": None if verdict.polynomial is None else verdict.polynomial.degree - 1,
        "coefficients": None if verdict.polynomial is None
        else _poly_tokens(verdict.polynomial, scale),
        "coefficient_layout": "highest-degree-first",
        "max_residual": verdict.max_residual,
        "eigen_structure": verdict.eigen_structure,
    }
    residuals = {"minimal": verdict.max_residual}
    failed = not verdict.exists or not verdict.max_residual <= tol
    reference = given if given is not None else expected
    if given is not None:
        given_residual = check_ljr(JacobiFamily(model), given,
                                   samples=samples, seed=seed)
        residuals["given"] = given_residual
        failed = not given_residual <= tol
    report["expected"] = None
    if reference is not None:
        table = _coefficient_table(reference, verdict.polynomial, scale)
        report["expected"] = {"coefficients": _poly_tokens(reference, scale), "table": table}
        if verdict.polynomial is not None:
            residuals["coefficient_max"] = max(row[3] for row in table)
            failed = failed or compared and not residuals["coefficient_max"] <= COEFF_TOL
    report["residuals"] = residuals
    return report, (1 if failed else 0)


def render_text(report, elapsed) -> str:
    lines = []
    space = report.get("space")
    if space:
        lines.append("%s  dim %d" % (space["id"], space["dimension"]))
    if "scalar_curvature" in report:
        lines.append("scalar curvature  %s" % report["scalar_curvature"])
    if "torsion_class" in report:
        lines.append("torsion class     %s" % report["torsion_class"])
    ljr = report.get("ljr")
    if ljr:
        if ljr["exists"]:
            lines.append("relation          order %d, coefficients %s"
                         % (ljr["order"],
                            " ".join(str(c) for c in ljr["coefficients"])))
        else:
            lines.append("relation          none")
            for f in ljr["eigen_structure"].get("failures", []):
                lines.append("  component %s: eigenvalue rel. std %.3g, "
                             "rel. norm %.3g" % (f["component"],
                                                 f["eigenvalue_rel_std"],
                                                 f["max_relnorm"]))
        if ljr["max_residual"] is not None:
            lines.append("max residual      %.3e" % ljr["max_residual"])
    for key, value in sorted(report.get("residuals", {}).items()):
        if value is not None:  # no relation: the relation line says why
            lines.append("residual[%s]  %.3e" % (key, value))
    lines.append("seed %d, samples %s, residual tol %g"
                 % (report["seed"], report["samples"],
                    report["tolerances"]["residual"]))
    lines.append("wall time %.3fs" % elapsed)
    return "\n".join(lines) + "\n"


def _markdown_table(header, rows):
    lines = ["| %s |" % " | ".join(header), "|" + "---|" * len(header)]
    lines += ["| %s |" % " | ".join("%s" % cell for cell in row) for row in rows]
    return lines + [""]


def render_markdown(report, elapsed) -> str:
    space = report.get("space", {})
    lines = ["## %s" % space.get("id", report["command"]), ""]
    if "torsion_class" in report:
        lines += ["torsion class %s" % report["torsion_class"], ""]
    if "relative_trace_free_norm" in report:
        lines += ["R_%d trace-free part: %.3e (tol %g)"
                  % (report["degree"] + 1, report["relative_trace_free_norm"],
                     report["tolerances"]["residual"]), ""]
    if "sweep" in report:
        lines += _markdown_table(
            ["s", "fitted c^2", "candidate c^2", "vcp1", "vcp2", "vcp3",
             "matrix identity"],
            [["%g" % r["s"], r["fitted_c_squared"] or "-", r["candidate_c_squared"]]
             + ["%.2e" % r["residuals"][key]
                for key in ("vcp1", "vcp2", "vcp3", "matrix_identity")]
             for r in report["sweep"]])
    if "entries" in report:
        lines += _markdown_table(
            ["id", "dim", "scal", "expected", "note"],
            [[r["id"], r["dimension"], r["scalar_curvature"],
              " ".join(r["expected"]) if r["expected"] else "-", r["note"]]
             for r in report["entries"]])
    expected = report.get("expected")
    if expected and expected.get("table"):
        lines += _markdown_table(
            ["coefficient", "expected", "computed", "abs diff"],
            [[label, want, got, "%.3e" % diff]
             for label, want, got, diff in expected["table"]])
    ljr = report.get("ljr")
    if ljr and not ljr["exists"]:
        lines.append("relation none: no linear Jacobi relation found")
    if ljr and ljr["max_residual"] is not None:
        lines.append("max residual %.3e, seed %d, wall time %.3fs"
                     % (ljr["max_residual"], report["seed"], elapsed))
    else:
        lines.append("seed %d, wall time %.3fs" % (report["seed"], elapsed))
    return "\n".join(lines) + "\n"


def _parse_poly(text) -> Polynomial:
    values = [float(Fraction(tok)) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError("--poly needs at least one coefficient")
    degree = 2 * len(values) + 1
    coeffs = np.zeros(degree + 1)
    coeffs[degree] = 1.0
    for j, a in enumerate(values, start=1):
        coeffs[degree - 2 * j] = a
    return Polynomial(coeffs)


def _tolerance(text) -> float:
    """argparse type of the --tol flags: a finite positive float."""
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError("must be finite and positive, got %r" % text)
    return value


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--s-grid expects lo:hi:count")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1:
        raise ValueError("--s-grid count must be positive")
    return np.linspace(lo, hi, count)


def _cmd_catalog(args):
    report = _envelope("catalog", args.seed, {})
    rows = []
    for e in entries():
        model = e.build()
        rows.append({
            "id": e.name,
            "dimension": model.n,
            "scalar_curvature": _token(scalar_curvature(model), model.curvature_scale),
            "expected": None if e.expected is None
            else _poly_tokens(e.expected, model.curvature_scale),
            "note": e.note,
        })
    report["entries"] = rows
    text = "\n".join("%-18s dim %d  scal %-8s %s"
                     % (r["id"], r["dimension"], r["scalar_curvature"], r["note"])
                     for r in rows) + "\n"
    return report, text, 0


def _cmd_verify(args):
    model = entry(args.id).build()
    report, code = build_report(args.id, model, None, args.samples,
                                args.seed, args.tol,
                                given=_parse_poly(args.poly))
    return report, None, code


def _cmd_minpoly(args):
    e = entry(args.id)
    report, code = build_report(args.id, e.build(), e.expected, args.samples,
                                args.seed, args.tol)
    return report, None, code


def _cmd_gvcp(args):
    model = entry(args.id).build()
    report = _envelope("gvcp", args.seed, {"spectrum": SPECTRUM_TOL})
    cls = classify_gvcp(ThreeForm(model.tau), seed=args.seed)
    report["space"] = {"id": args.id, "dimension": model.n}
    report["torsion_class"] = cls
    return report, cls + "\n", 0


def _cmd_appendix(args):
    report = _envelope("appendix", args.seed, {"spectrum": SPECTRUM_TOL})
    rows = []
    for s in _parse_grid(args.s_grid):
        tau = ThreeForm(aloff_wallach_n11(float(s)).tau)
        fit = fit_vcp_multiple(tau, seed=args.seed)
        checks = appendix_component_checks(float(s), seed=args.seed)
        rows.append({
            "s": float(s),
            "fitted_c_squared": None if fit is None else _token(fit ** 2, 1.0),
            "candidate_c_squared": _token(s + 1.0, 1.0),
            "residuals": checks,
        })
    report["sweep"] = rows
    width = max(len("%g" % r["s"]) for r in rows)
    text_rows = ["%*g  c^2 %-6s  vcp1 %.2e  vcp2 %.2e  vcp3 %.2e"
                 % (width, r["s"],
                    r["fitted_c_squared"] if r["fitted_c_squared"] else "-",
                    r["residuals"]["vcp1"], r["residuals"]["vcp2"],
                    r["residuals"]["vcp3"])
                 for r in rows]
    return report, "\n".join(text_rows) + "\n", 0


def _cmd_twistor(args):
    model = entry(args.id).build()
    report = _envelope("twistor", args.seed, {"residual": args.tol})
    rel = verify_twistor(JacobiFamily(model), args.d, seed=args.seed)
    report["space"] = {"id": args.id, "dimension": model.n}
    report["degree"] = args.d
    report["relative_trace_free_norm"] = rel
    report["residuals"] = {"trace_free": rel}
    text = "R_%d trace-free part: %.3e (tol %g)\n" % (args.d + 1, rel, args.tol)
    return report, text, 0 if rel <= args.tol else 1


def _cmd_custom(args):
    with open(args.file) as fh:
        data = json.load(fh)
    g, forms = algebra_from_json(data)
    if "isotropy" not in data or "form" not in data:
        raise ValueError("custom input needs 'isotropy' columns and a 'form' name")
    form = forms[data["form"]]
    h_basis = np.asarray(data["isotropy"], dtype=float).T
    m_basis = None
    if data.get("m") is not None:
        m_basis = np.asarray(data["m"], dtype=float).T
    triple = build_triple(g, h_basis, form, m_basis=m_basis)
    expected = None
    if data.get("expected") is not None:
        expected = _parse_poly(",".join(repr(float(v)) for v in data["expected"]))
    name = data.get("name", os.path.basename(args.file))
    report, code = build_report(name, triple.model, expected,
                                args.samples, args.seed, args.tol)
    return report, None, code


def _parser():
    parser = argparse.ArgumentParser(
        prog="reductive-lab",
        description="Jacobi relations and torsion classification for the "
                    "built-in catalog of naturally reductive spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", dest="as_json")
        fmt.add_argument("--markdown", action="store_true")

    def relation_flags(p):
        p.add_argument("--samples", type=int, default=64)
        p.add_argument("--tol", type=_tolerance, default=RESIDUAL_TOL)

    p = sub.add_parser("catalog", help="list registry entries")
    common(p)
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("verify", help="check a given relation polynomial")
    p.add_argument("id")
    p.add_argument("--poly", required=True,
                   help="comma-separated a2,a4,... of the monic odd polynomial")
    relation_flags(p)
    common(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("minpoly", help="compute the minimal relation")
    p.add_argument("id")
    relation_flags(p)
    common(p)
    p.set_defaults(fn=_cmd_minpoly)

    p = sub.add_parser("gvcp", help="classify the torsion form")
    p.add_argument("id")
    common(p)
    p.set_defaults(fn=_cmd_gvcp)

    p = sub.add_parser("appendix", help="sweep the 7-dim family parameter")
    p.add_argument("--s-grid", required=True, help="lo:hi:count")
    common(p)
    p.set_defaults(fn=_cmd_appendix)

    p = sub.add_parser("twistor", help="trace-free check above a relation")
    p.add_argument("id")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-7)
    common(p)
    p.set_defaults(fn=_cmd_twistor)

    p = sub.add_parser("custom", help="run the pipeline on a JSON triple")
    p.add_argument("file")
    relation_flags(p)
    common(p)
    p.set_defaults(fn=_cmd_custom)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        # numpy's floating-point warnings stay off stderr: a non-finite result
        # fails its gate and is reported in the JSON error or the report
        with np.errstate(all="ignore"):
            report, text, code = args.fn(args)
    except (KeyError, ValueError, AssertionError, OSError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        sys.stderr.write(_dump({
            "schema": SCHEMA,
            "error": {"type": type(exc).__name__, "message": message},
        }))
        return 2
    elapsed = time.perf_counter() - start
    if args.as_json:
        sys.stdout.write(_dump(report))
    elif args.markdown:
        sys.stdout.write(render_markdown(report, elapsed))
    elif text is not None:
        sys.stdout.write(text)
    else:
        sys.stdout.write(render_text(report, elapsed))
    return code


if __name__ == "__main__":
    sys.exit(main())
