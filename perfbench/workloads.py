"""Op lists of the three workloads.

The seed draws parameter values only: Berger s, Heisenberg c, Aloff-Wallach
s, the --seed each CLI process gets and the X of each universal_jr call.
Which ops run, in which order and at which sizes is fixed, so two seeds give
the same list apart from those values.
"""

import math
import random

import oracle

WORKLOADS = ("cli-catalog", "cli-build-large", "library-detect")

SAMPLES = 64  # passed to minpoly and verify only; the other commands ignore it

# Every fixed catalog id once, the three report formats rotated over them.
# neg:su4-su3 sits on JSON because only JSON and text show its coefficient;
# neg:sp2-sp1 sits on text, where the no-relation report crashes today.
MINPOLY_FORMATS = (
    ("berger:n=2,s=1", "text"),
    ("heisenberg:n=2,c=1", "json"),
    ("aw:n11,s=1.5", "json"),
    ("nk:flag", "text"),
    ("nk:s3xs3", "json"),
    ("nk:cp3", "markdown"),
    ("nk:s6", "text"),
    ("np:spin7-g2", "json"),
    ("np:squashed-s7", "markdown"),
    ("np:v1", "text"),
    ("np:v3", "markdown"),
    ("neg:su4-su3", "json"),
    ("neg:sp2-sp1", "text"),
)
GVCP_IDS = ("nk:flag", "np:v3", "berger:n=2,s=1")  # one per torsion class
VERIFY = (
    ("nk:flag", "5/4,1/4", "text"),
    ("np:v3", "2/5", "json"),
    ("berger:n=2,s=1", "3/2", "markdown"),
    ("heisenberg:n=2,c=1", "1", "text"),
)
TWISTOR = (("np:v1", 1), ("np:v1", 2), ("nk:flag", 4))
APPENDIX_GRID = "0.25:2.0:8"

BUILD_LARGE_N = (4, 5, 6, 7)
VERIFY_LARGE_N = 6
HEISENBERG_DETECT = range(3, 13)     # dims 7..25
HEISENBERG_UNIVERSAL = range(2, 9)   # dims 5..17
BERGER_DETECT = (1, 2, 3, 4)
TWISTOR_DEGREES = (("np:v1", (2, 3, 4)), ("nk:flag", (2, 3, 4)))

_FLAGS = {"text": [], "json": ["--json"], "markdown": ["--markdown"]}


def berger_id(n, s, kappa):
    return "berger:n=%d,s=%r,kappa=%d" % (n, s, kappa)


def draw_berger_s(rng, kappa):
    """Admissible s: kappa > 0 needs s > -1, kappa < 0 needs s < -1.  The
    kappa > 0 range stays clear of the round member s = -(n-1)/(2n) < 0."""
    lo, hi = (0.2, 2.0) if kappa > 0 else (-3.0, -1.2)
    return round(rng.uniform(lo, hi), 3)


def draw_aw_s(rng):
    """An Aloff-Wallach member off s = 3/2, where the family has no relation."""
    while True:
        s = round(rng.uniform(0.25, 3.0), 3)
        if abs(s - oracle.APPENDIX_FIT[0]) >= 0.1:
            return s


def _draw_c(rng):
    return round(rng.uniform(0.5, 2.0), 3)


def _cli_seed(rng):
    return ["--seed", str(rng.randrange(1 << 16))]


def cli_catalog(rng):
    ops = []
    for ident, fmt in MINPOLY_FORMATS:
        ops.append(["minpoly", ident, "--samples", str(SAMPLES)] + _FLAGS[fmt])
    for ident in GVCP_IDS:
        ops.append(["gvcp", ident])
    for ident, poly, fmt in VERIFY:
        ops.append(["verify", ident, "--poly", poly, "--samples", str(SAMPLES)] + _FLAGS[fmt])
    for ident, d in TWISTOR:
        ops.append(["twistor", ident, "--d", str(d)])
    ops.append(["catalog"])
    ops.append(["appendix", "--s-grid", APPENDIX_GRID])
    return [{"argv": argv + _cli_seed(rng)} for argv in ops]


def cli_build_large(rng):
    ops = []
    verify_id = None
    for n in BUILD_LARGE_N:
        for kappa in (1, -1):
            ident = berger_id(n, draw_berger_s(rng, kappa), kappa)
            ops.append(["minpoly", ident, "--samples", str(SAMPLES), "--json"])
            if n == VERIFY_LARGE_N and kappa > 0:
                verify_id = ident
    c2 = oracle.expected(verify_id)[2][2]
    ops.append(["verify", verify_id, "--poly", repr(c2), "--samples", str(SAMPLES), "--json"])
    return [{"argv": argv + _cli_seed(rng)} for argv in ops]


def _unit(rng, dim):
    x = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    norm = math.sqrt(sum(v * v for v in x))
    return [v / norm for v in x]


def library_detect(rng):
    heisenberg = {n: "heisenberg:n=%d,c=%r" % (n, _draw_c(rng))
                  for n in sorted(set(HEISENBERG_DETECT) | set(HEISENBERG_UNIVERSAL))}
    detect = [heisenberg[n] for n in HEISENBERG_DETECT]
    detect += list(oracle.FIXED)
    detect.append("aw:n11,s=%r" % draw_aw_s(rng))
    detect += [berger_id(n, draw_berger_s(rng, kappa), kappa)
               for n in BERGER_DETECT for kappa in (1, -1)]

    ops = [{"fn": "minimal_ljr", "id": ident, "samples": SAMPLES} for ident in detect]
    ops += [{"fn": "check_ljr", "id": ident, "poly": oracle.reference_ascending(ident),
             "samples": SAMPLES}
            for ident, row in oracle.FIXED.items() if row[3] is not None]
    ops += [{"fn": "universal_jr", "id": heisenberg[n], "x": _unit(rng, 2 * n + 1)}
            for n in HEISENBERG_UNIVERSAL]
    ops += [{"fn": "verify_twistor", "id": ident, "d": d}
            for ident, degrees in TWISTOR_DEGREES for d in degrees]
    # The sample-plan seed of a call is part of the fixed op mix, not a
    # drawn value: whether a call hits a seed-dependent defect then repeats
    # from run to run instead of adding noise to every metric.
    for index, op in enumerate(ops):
        if op["fn"] != "universal_jr":
            op["seed"] = index
    return ops


_OP_LISTS = {"cli-catalog": cli_catalog, "cli-build-large": cli_build_large,
             "library-detect": library_detect}


def build(workload, seed):
    """The op list of one workload at one seed."""
    return _OP_LISTS[workload](random.Random("%s/%d" % (workload, seed)))


def is_cli(workload):
    return workload.startswith("cli-")
