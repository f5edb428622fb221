"""Spans around the public functions of reductive_lab, recorded from outside.

Tracer.install wraps every function a module lists in __all__ and the
public methods (plus __init__ and __call__) of every class it lists.  A
wrapped function is rebound under every name that binds it in any of the
given modules, because modules import each other's functions by name
(`cli` binds `minimal_ljr` itself).  Spans stay in memory as
[module, name, start, end, parent index, probe value] and are summarised
once the traced call returns.
"""

import builtins
import functools
import inspect
import time

# Functions whose inclusive time is reported on its own.
INCLUSIVE = ("jacobi.minimal_ljr", "jacobi.check_ljr", "jacobi.universal_jr",
             "jacobi.verify_twistor")

# Values read off a call: computed Jacobi-identity tensor size, the rows of
# a sample plan, the samples a verdict used.
PROBES = {
    "liealg.LieAlgebra.jacobi_residual": lambda args, result: args[0].dim ** 4 * 8 / 1e6,
    "jacobi.sample_vectors": lambda args, result: len(result),
    "jacobi.minimal_ljr": lambda args, result: result.eigen_structure["samples_used"],
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, fn, key):
        module = key.partition(".")[0]
        probe = PROBES.get(key)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [module, key, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if probe is not None:
                span[5] = probe(args, result)
            return result
        return traced

    def _set(self, target, attr, value):
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self, modules):
        """Wrap the public API of each module; modules maps short names to modules."""
        for short, mod in modules.items():
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, "%s.%s" % (short, name))
                    for other in modules.values():
                        for attr, value in list(vars(other).items()):
                            if value is obj:
                                self._set(other, attr, wrapped)
                elif inspect.isclass(obj):
                    for attr, value in list(vars(obj).items()):
                        if inspect.isfunction(value) and (
                                not attr.startswith("_") or attr in ("__init__", "__call__")):
                            key = "%s.%s.%s" % (short, name, attr)
                            self._set(obj, attr, self._wrap(value, key))

    def uninstall(self):
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)

    def summary(self):
        """Per-call totals of the recorded spans; clears them."""
        spans = self.spans
        calls = {}
        for span in spans:
            calls[span[1]] = calls.get(span[1], 0) + 1
        out = {
            "self_s": self_times(spans),
            "inclusive_s": {key: inclusive_time(spans, key) for key in INCLUSIVE},
            "calls": calls,
            "jacobi_tensor_mb": max([s[5] or 0.0 for s in spans
                                     if s[1] == "liealg.LieAlgebra.jacobi_residual"],
                                    default=0.0),
            "samples_offered": sum(s[5] or 0 for s in spans if s[1] == "jacobi.sample_vectors"
                                   and s[4] >= 0 and spans[s[4]][1] == "jacobi.minimal_ljr"),
            "samples_used": sum(s[5] or 0 for s in spans if s[1] == "jacobi.minimal_ljr"),
        }
        spans.clear()
        return out


def self_times(spans):
    """Self time per module: each span's duration minus the part of it that
    its direct children cover.  Calls are single-threaded, so children of
    one span are disjoint and lie inside it."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            covered[span[4]] += span[3] - span[2]
    out = {}
    for span, child in zip(spans, covered):
        out[span[0]] = out.get(span[0], 0.0) + (span[3] - span[2]) - child
    return out


def inclusive_time(spans, key):
    """Total duration of calls to `key`, counting a call nested inside
    another call to `key` once."""
    total = 0.0
    for span in spans:
        if span[1] != key:
            continue
        parent = span[4]
        while parent >= 0 and spans[parent][1] != key:
            parent = spans[parent][4]
        if parent < 0:
            total += span[3] - span[2]
    return total


class ImportTimer:
    """Times the outermost import statements of one top-level package while
    installed, including imports made lazily inside functions."""

    def __init__(self, package):
        self.package = package
        self.seconds = 0.0
        self._depth = 0
        self._real = None

    def _timed(self, name, globals=None, locals=None, fromlist=(), level=0):
        if self._depth or level or name.partition(".")[0] != self.package:
            return self._real(name, globals, locals, fromlist, level)
        self._depth += 1
        start = time.perf_counter()
        try:
            return self._real(name, globals, locals, fromlist, level)
        finally:
            self.seconds += time.perf_counter() - start
            self._depth -= 1

    def install(self):
        self._real = builtins.__import__
        builtins.__import__ = self._timed

    def uninstall(self):
        builtins.__import__ = self._real
