"""reductive-lab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli-catalog --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; reductive_lab is imported from its
src/ only by child processes.  Load is a closed loop with one client: one
op at a time, at most one child process alive.  The op list runs in whole
cycles, so every run sees the same op mix; a cycle after the first starts
only if it is expected to end within --seconds.  A library-detect cycle runs
in an interpreter of its own, which first builds the models, so that a run
averages over several interpreters (see README.md).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
from a run in which every op runs once untraced and once traced.  Lines
before the last describe the run; the last line is the result as JSON.
Exits 2 without a result when the checkout holds no src/reductive_lab.
"""

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time

import oracle
import workloads
from child import TRACE_MARK

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SETUPS = 5               # CLI set-up is measured this many times; the median is reported
OP_TIMEOUT_S = 60.0      # one CLI process or one library cycle
MAX_RUN_S = 120.0        # no cycle starts that would end after this, whatever --seconds says
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TAIL_BEYOND = 10         # the tail percentile keeps at least this many ops above it


class Proc:
    """A finished child process: exit code, output and its own resource use."""

    def __init__(self, code, out, err, wall, cpu, maxrss_kb):
        self.code, self.out, self.err = code, out, err
        self.wall, self.cpu, self.maxrss_kb = wall, cpu, maxrss_kb


def run_process(argv, env, timeout=OP_TIMEOUT_S):
    """Run argv to completion, reading both pipes; rusage comes from wait4.
    A process still running after `timeout` seconds is killed."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = start + timeout
    killed = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0 and not killed:
                proc.kill()  # reaped by wait4 below; the pipes then reach EOF
                killed = True
            for key, _ in sel.select(timeout=max(remaining, 0.1)):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, b"".join(chunks[proc.stdout]).decode(),
                b"".join(chunks[proc.stderr]).decode(), wall,
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def another_cycle_fits(elapsed, cycles, seconds):
    """Whether one more cycle, as long as the mean so far, ends within the
    run's --seconds.  The first cycle always runs whole: a run measures whole
    cycles only, so every run sees the same op mix."""
    return elapsed * (cycles + 1) / cycles <= min(seconds, MAX_RUN_S)


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _json_child(proc, what):
    try:
        if proc.code == 0:
            return json.loads(proc.out.splitlines()[-1])
    except (ValueError, IndexError):
        pass
    raise HarnessError("%s exited %d: %s" % (what, proc.code, proc.err.strip()[-500:]))


# ---------------------------------------------------------------------------
# the two runners: fresh CLI processes, or one library interpreter


def split_trace(err):
    """(program stderr, trace summary or None) of a traced CLI child."""
    kept, trace = [], None
    for line in err.splitlines(keepends=True):
        if line.startswith(TRACE_MARK):
            trace = json.loads(line[len(TRACE_MARK):])
        else:
            kept.append(line)
    return "".join(kept), trace


def cli_setup(env):
    """Import reductive_lab.cli in a fresh interpreter; returns (seconds, versions)."""
    proc = run_process([sys.executable, CHILD, "setup"], env)
    return proc.wall, _json_child(proc, "setup")


def cli_run(ops, seconds, trace, env):
    records = []
    start = time.perf_counter()
    cycles = 0
    while True:
        for i, op in enumerate(ops):
            argv = op["argv"]
            plain = [sys.executable, "-m", "reductive_lab.cli"] + argv
            variants = ((False,) if not trace else (i % 2 == 1, i % 2 == 0))
            for traced in variants:
                proc = run_process([sys.executable, CHILD, "cli"] + argv if traced else plain, env)
                err, summary = split_trace(proc.err)
                if traced and summary is None:
                    raise HarnessError("traced op %s wrote no trace: %s" % (argv, err[-500:]))
                outcome = oracle.check_cli(argv, proc.code, proc.out, err)
                records.append({"op": i, "name": " ".join(argv), "latency": proc.wall,
                                "cpu": proc.cpu, "maxrss_kb": proc.maxrss_kb,
                                "outcome": outcome, "traced": traced, "trace": summary,
                                "output_bytes": len(proc.out.encode())})
        cycles += 1
        elapsed = time.perf_counter() - start
        if not another_cycle_fits(elapsed, cycles, seconds):
            return records, cycles, elapsed, max(r["maxrss_kb"] for r in records)


def library_run(workload, seed, seconds, trace, env):
    """Whole cycles, each in a fresh library child that builds the models
    first; the set-up time of every child is one set-up sample."""
    ops = workloads.build(workload, seed)
    argv = [sys.executable, CHILD, "library", "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    records, setups, loop_s, maxrss_kb = [], [], 0.0, 0
    while True:
        proc = run_process(argv, env)
        result = _json_child(proc, "library child")
        setups.append(result["setup_s"])
        loop_s += result["loop_s"]
        maxrss_kb = max(maxrss_kb, proc.maxrss_kb)
        for r in result["records"]:
            op = ops[r["op"]]
            name = "%s %s" % (op["fn"], op["id"]) + (" d=%d" % op["d"] if "d" in op else "")
            records.append({"op": r["op"], "name": name, "latency": r["latency"],
                            "cpu": r["cpu"], "outcome": oracle.check_library(op, r["out"]),
                            "traced": r["traced"], "trace": r.get("trace"),
                            "output_bytes": 0})
        if not another_cycle_fits(loop_s, len(setups), seconds):
            return records, len(setups), loop_s, maxrss_kb, setups


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """(value, percentile) of the highest order statistic with at least
    TAIL_BEYOND values above it.  With too few values for that to lie above
    the median, the median stands in: a maximum over a handful of long ops
    moves too much from run to run to bound."""
    n = len(values)
    if n - TAIL_BEYOND <= n / 2:
        return statistics.median(values), 50.0
    return sorted(values)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(records, loop_s, maxrss_kb, setup_s):
    latencies = [r["latency"] for r in records]
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_value, "s"),
        "ops_per_s": (len(records) / loop_s, "1/s"),
        "cpu_per_op_s": (statistics.fmean(r["cpu"] for r in records), "s"),
        "peak_rss_mb": (maxrss_kb / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, "p%.1f of %d ops" % (tail_pct, len(records))


LAYERS = ("cli", "catalog", "liealg", "reductive", "jacobi", "algebra", "vcp")


def per_layer(records, cycles):
    traced = [r for r in records if r["traced"]]
    n = len(traced)
    # records of one op in one cycle are adjacent; pair them by position
    traced_latency = {i // 2: r["latency"] for i, r in enumerate(records) if r["traced"]}
    plain_latency = {i // 2: r["latency"] for i, r in enumerate(records) if not r["traced"]}

    def mean(get):
        return sum(get(r["trace"]) for r in traced) / n

    def calls(key):
        return mean(lambda t: t["calls"].get(key, 0))

    offered = sum(r["trace"]["samples_offered"] for r in traced)
    used = sum(r["trace"]["samples_used"] for r in traced)
    metrics = {"%s.self_s" % m: (mean(lambda t, m=m: t["self_s"].get(m, 0.0)), "s")
               for m in LAYERS}
    metrics.update({
        "cli.import_s": (mean(lambda t: t.get("import_s", 0.0)), "s"),
        "cli.import_scipy_s": (mean(lambda t: t.get("import_scipy_s", 0.0)), "s"),
        "cli.import_modules": (mean(lambda t: t.get("import_modules", 0)), "count"),
        "cli.output_bytes": (sum(r["output_bytes"] for r in traced) / n, "bytes"),
        "liealg.bracket_calls": (calls("liealg.LieAlgebra.bracket"), "count"),
        "liealg.jacobi_tensor_mb": (max(r["trace"]["jacobi_tensor_mb"] for r in traced), "MB"),
        "reductive.to_model_calls": (calls("reductive.to_model"), "count"),
        "jacobi.minimal_ljr_s": (mean(lambda t: t["inclusive_s"]["jacobi.minimal_ljr"]), "s"),
        "jacobi.check_ljr_s": (mean(lambda t: t["inclusive_s"]["jacobi.check_ljr"]), "s"),
        "jacobi.universal_jr_s": (mean(lambda t: t["inclusive_s"]["jacobi.universal_jr"]), "s"),
        "jacobi.twistor_s": (mean(lambda t: t["inclusive_s"]["jacobi.verify_twistor"]), "s"),
        "jacobi.samples_offered": (offered / n, "count"),
        "jacobi.samples_used": (used / n, "count"),
        "jacobi.sample_yield": (used / offered if offered else 0.0, "ratio"),
        "algebra.skew_decomp_calls": (calls("algebra.skew_spectral_decomposition"), "count"),
        "trace.overhead_s": (statistics.median(traced_latency[key] - plain_latency[key]
                                               for key in traced_latency), "s"),
    })
    for defect in oracle.KNOWN_DEFECTS:
        count = sum(r["outcome"].defect == defect for r in traced)
        metrics[defect] = (count / cycles, "ops/cycle")
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "reductive_lab", "__init__.py")):
        sys.stderr.write("no src/reductive_lab under %s; run from a source checkout\n" % root)
        return 2
    env = child_env(root)
    try:
        # An untimed first set-up fills the file cache and, unless
        # PYTHONDONTWRITEBYTECODE is set, the bytecode caches of a new checkout.
        _, versions = cli_setup(env)
        if workloads.is_cli(args.workload):
            setup_samples = [cli_setup(env)[0] for _ in range(SETUPS)]
            ops = workloads.build(args.workload, args.seed)
            records, cycles, loop_s, maxrss_kb = cli_run(ops, args.seconds, args.trace, env)
        else:
            records, cycles, loop_s, maxrss_kb, setup_samples = library_run(
                args.workload, args.seed, args.seconds, args.trace, env)
    except HarnessError as exc:
        sys.stderr.write("benchmark harness error: %s\n" % exc)
        return 1

    environment = dict(versions, nproc=os.cpu_count(), cpu=cpu_model(),
                       affinity=len(os.sched_getaffinity(0)),
                       blas_env={k: os.environ.get(k) for k in BLAS_ENV})
    print("# environment %s" % json.dumps(environment, sort_keys=True))
    print("# %s seed %d: %d ops in %d cycles, %.2f s; set-up %s s"
          % (args.workload, args.seed, len(records), cycles, loop_s,
             " ".join("%.3f" % s for s in setup_samples)))
    by_op = {}
    for r in records:
        if not r["traced"]:
            by_op.setdefault(r["name"], []).append(r["latency"])
    for name, latencies in by_op.items():
        print("# op %.4f s  %s" % (statistics.median(latencies), name))
    not_passed = {}
    for r in records:
        outcome = r["outcome"]
        if outcome.status != "pass":
            key = (outcome.status, outcome.defect, r["name"], outcome.detail[:200])
            not_passed[key] = not_passed.get(key, 0) + 1
    for (status, defect, name, detail), count in not_passed.items():
        print("# %s%s x%d: %s [%s]" % (status, " (%s)" % defect if defect else "", count,
                                       name, detail))
    if args.trace:
        metrics = per_layer(records, cycles)
    else:
        metrics, tail_note = end_to_end(records, loop_s, maxrss_kb,
                                        statistics.median(setup_samples))
        print("# op_tail_s is the %s" % tail_note)
    failed = oracle.count_failed([r["outcome"] for r in records])
    if failed > sum(r["outcome"].status == "fail" for r in records):
        print("# known defects exceed %g of the ops and count as failed" % oracle.DEFECT_CEILING)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
