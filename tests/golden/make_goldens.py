"""Regenerate the golden `--json` reports that tests/test_golden.py compares.

    PYTHONPATH=src python tests/golden/make_goldens.py

Each case runs `reductive-lab <argv>` in-process and stores its exit code
and parsed JSON report in reports.json next to this script.  Regenerate only
for a deliberate change of the reports, and say why in CHANGES.md.
"""

import contextlib
import io
import json
import pathlib
import sys
from fractions import Fraction

FIXED_VERIFY = {
    "berger:n=2,s=1": "3/2",
    "heisenberg:n=2,c=1": "1",
    "aw:n11,s=1.5": "2/5",
    "nk:flag": "5/4,1/4",
    "nk:s3xs3": "5/4,1/4",
    "nk:cp3": "5/4,1/4",
    "nk:s6": "5/4,1/4",
    "np:spin7-g2": "1/36",
    "np:squashed-s7": "1/36",
    "np:v1": "1",
    "np:v3": "2/5",
    "neg:su4-su3": "8/3",
    "neg:sp2-sp1": "1",
}
BERGER_S = {1: Fraction(1), -1: Fraction(-3, 2)}  # one admissible s per kappa
SEEDS = (0, 7)
TWISTOR = {"np:v1": range(0, 4), "nk:flag": range(2, 5), "neg:sp2-sp1": range(2, 3)}
PATH = pathlib.Path(__file__).with_name("reports.json")


def berger_verify(ns):
    """Berger n in ns for both kappa, with c^2 = 2(n+1)/(n|1+s|) as --poly."""
    out = {}
    for n in ns:
        for kappa, s in BERGER_S.items():
            ident = "berger:n=%d,s=%s,kappa=%d" % (n, float(s), kappa)
            out[ident] = str(Fraction(2 * (n + 1)) / (n * abs(1 + s)))
    return out


def cases():
    """(name, argv) of every golden report."""
    out = []
    runs = [(ident, poly, SEEDS) for ident, poly in FIXED_VERIFY.items()]
    runs += [(ident, poly, SEEDS) for ident, poly in berger_verify(range(4, 8)).items()]
    runs += [(ident, poly, (0,)) for ident, poly in berger_verify(range(8, 11)).items()]
    for ident, poly, seeds in runs:
        for seed in seeds:
            tail = ["--seed", str(seed), "--json"]
            out.append(("minpoly %s seed %d" % (ident, seed), ["minpoly", ident] + tail))
            out.append(("verify %s seed %d" % (ident, seed),
                        ["verify", ident, "--poly", poly] + tail))
    tail = ["--seed", "0", "--json"]
    for ident, degrees in TWISTOR.items():
        for d in degrees:
            out.append(("twistor %s d %d" % (ident, d), ["twistor", ident, "--d", str(d)] + tail))
    for ident in FIXED_VERIFY:
        out.append(("gvcp %s" % ident, ["gvcp", ident] + tail))
    out.append(("appendix", ["appendix", "--s-grid", "0.25:2.0:8"] + tail))
    out.append(("catalog", ["catalog"] + tail))
    return out


def run(argv):
    """Exit code and parsed stdout of one in-process CLI run."""
    from reductive_lab import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue())


def main():
    goldens = {}
    for name, argv in cases():
        code, report = run(argv)
        goldens[name] = {"argv": argv, "code": code, "report": report}
    PATH.write_text(json.dumps(goldens, sort_keys=True, indent=1) + "\n")
    print("wrote %d reports to %s" % (len(goldens), PATH), file=sys.stderr)


if __name__ == "__main__":
    main()
