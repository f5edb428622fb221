"""Child interpreter of the benchmark: the only process that imports reductive_lab.

  child.py setup                      import reductive_lab.cli, report versions
  child.py cli ARGV...                run `reductive-lab ARGV` traced; the span
                                      summary goes to stderr on one line that
                                      starts with TRACE_MARK
  child.py library --workload W --seed N --trace T
                                      build the models, then call the library
                                      over one cycle of the op list; results
                                      go to stdout as one JSON object

Run with the checkout's src/ first on PYTHONPATH.  Exits 3 when reductive_lab
resolves to any other location.
"""

import json
import os
import sys
import time

TRACE_MARK = "@@perfbench-trace@@ "


def _check_source(package):
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    path = os.path.realpath(package.__file__)
    if os.path.commonpath([src, path]) != src:
        sys.stderr.write("reductive_lab resolves to %s, not under %s\n" % (path, src))
        sys.exit(3)


def _modules():
    import reductive_lab
    from reductive_lab import algebra, catalog, jacobi, liealg, reductive, vcp
    mods = {"algebra": algebra, "liealg": liealg, "reductive": reductive,
            "jacobi": jacobi, "vcp": vcp, "catalog": catalog}
    if "reductive_lab.cli" in sys.modules:
        mods["cli"] = sys.modules["reductive_lab.cli"]
    return reductive_lab, mods


def _versions():
    import numpy
    import scipy
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0]}


def setup():
    import reductive_lab.cli
    _check_source(reductive_lab)
    print(json.dumps(_versions()))


def traced_cli(argv):
    from tracer import ImportTimer, Tracer
    scipy_imports = ImportTimer("scipy")
    scipy_imports.install()
    before = len(sys.modules)
    start = time.perf_counter()
    import reductive_lab.cli as cli
    import_s = time.perf_counter() - start
    import_modules = len(sys.modules) - before
    package, modules = _modules()
    _check_source(package)
    tracer = Tracer()
    tracer.install(modules)
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        scipy_imports.uninstall()
        summary = tracer.summary()
        summary.update(import_s=import_s, import_scipy_s=scipy_imports.seconds,
                       import_modules=import_modules)
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARK + json.dumps(summary) + "\n")
    sys.exit(code)


# ---------------------------------------------------------------------------
# library calls


def _call(op, model, np, jacobi):
    """One public call on a fresh JacobiFamily; returns (latency, cpu, output)."""
    fn = op["fn"]
    x = np.array(op["x"]) if fn == "universal_jr" else None
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        family = jacobi.JacobiFamily(model)
        if fn == "minimal_ljr":
            out = jacobi.minimal_ljr(family, samples=op["samples"], seed=op["seed"])
        elif fn == "check_ljr":
            out = jacobi.check_ljr(family, jacobi.Polynomial(op["poly"]),
                                   samples=op["samples"], seed=op["seed"])
        elif fn == "universal_jr":
            out = jacobi.universal_jr(family, x)
        else:
            out = jacobi.verify_twistor(family, op["d"], seed=op["seed"])
    except Exception as exc:  # an op that raises is an outcome, not a harness error
        out = {"error": type(exc).__name__, "message": str(exc)[:300],
               "where": _raised_in(exc)}
    return time.perf_counter() - wall, time.process_time() - cpu, out


def _raised_in(exc):
    """`module.qualname` of the innermost reductive_lab frame that exc passed
    through, e.g. 'algebra.skew_spectral_decomposition'."""
    where = None
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("reductive_lab."):
            where = "%s.%s" % (module[len("reductive_lab."):], tb.tb_frame.f_code.co_qualname)
        tb = tb.tb_next
    return where


def _summarize(op, out, model, np, jacobi):
    """The JSON-able part of a call's output that the oracle checks."""
    fn = op["fn"]
    if isinstance(out, dict):
        return out
    if fn == "minimal_ljr":
        poly = out.polynomial
        return {"exists": bool(out.exists),
                "coefficients": None if poly is None else poly.coefficients.tolist(),
                "max_residual": out.max_residual}
    if fn == "universal_jr":
        x = np.array(op["x"])
        recheck = jacobi.check_ljr(jacobi.JacobiFamily(model), out, samples=x[None, :])
        return {"degree": out.degree, "recheck": recheck}
    return {"residual" if fn == "check_ljr" else "rel": float(out)}


def library(workload, seed, trace):
    import workloads
    from tracer import Tracer
    ops = workloads.build(workload, seed)
    start = time.perf_counter()
    import numpy as np
    package, modules = _modules()
    _check_source(package)
    from reductive_lab import catalog, jacobi
    models = {}
    for op in ops:
        if op["id"] not in models:
            models[op["id"]] = catalog.entry(op["id"]).build()
    result = {"setup_s": time.perf_counter() - start, "records": []}
    tracer = Tracer()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        # in a traced run each op runs untraced and traced, in alternating order
        for traced in ((False,) if not trace else (i % 2 == 1, i % 2 == 0)):
            if traced:
                tracer.install(modules)
            try:
                latency, cpu, out = _call(op, models[op["id"]], np, jacobi)
            finally:
                tracer.uninstall()
            record = {"op": i, "latency": latency, "cpu": cpu, "traced": traced,
                      "out": _summarize(op, out, models[op["id"]], np, jacobi)}
            if traced:
                record["trace"] = tracer.summary()
            result["records"].append(record)
    result["loop_s"] = time.perf_counter() - start
    print(json.dumps(result))


def main(argv):
    mode = argv[0] if argv else None
    if mode == "setup":
        setup()
    elif mode == "cli":
        traced_cli(argv[1:])
    elif mode == "library":
        import argparse
        parser = argparse.ArgumentParser(prog="child.py library")
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
        a = parser.parse_args(argv[1:])
        library(a.workload, a.seed, a.trace)
    else:
        sys.exit("usage: child.py setup | cli ARGV... | library ...")


if __name__ == "__main__":
    main(sys.argv[1:])
