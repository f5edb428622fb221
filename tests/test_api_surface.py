"""Static guards on the surface of src/.

Every defaulted parameter in src/ is set by some caller in src/, in the
benchmark or in the acceptance criteria.  A default that only unit tests
override is a constant spelled as an option; write the value in the body
instead.  Calls are matched to definitions by name (a class name reaches
its __init__).  A positional argument sets the parameter in its position,
a starred argument counts as one position, a keyword sets its parameter,
and `**kw` passed on from a function's own `**kw` carries the keywords
that the callers of that function pass; any other `**mapping` sets every
parameter.

Every name a module exports in __all__ is used by the library, by the
benchmark or by the acceptance criteria.  An export only unit tests call
is test code; move it into the tests that use it (the paper's checks are in
tests/paper_checks.py), or delete it.

No `assert` statement is left in src/: python -O strips them, so an
invariant raises AssertionError explicitly instead.

No module of src/ reads an environment variable: a command's inputs are
its arguments, and its report echoes them.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "reductive_lab"

# Set by the catalog registry through builder(**params), which the scan
# cannot match to the builder by name.
REGISTRY_PARAMETERS = {
    "catalog.berger_model(kappa)",
}
CALLERS = (sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])


class _Scan(ast.NodeVisitor):
    def __init__(self, module, in_src, defs, calls):
        self.module, self.in_src, self.defs, self.calls = module, in_src, defs, calls
        self.scope = []  # enclosing classes and functions, innermost last

    def visit_ClassDef(self, node):
        self.scope.append(node)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        a = node.args
        positional = [p.arg for p in a.posonlyargs + a.args]
        method = bool(self.scope) and isinstance(self.scope[-1], ast.ClassDef) \
            and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        self.defs.append({
            "key": ".".join([self.module] + [s.name for s in self.scope] + [node.name]),
            "src": self.in_src,
            "name": self.scope[-1].name if method and node.name == "__init__" else node.name,
            "positional": positional[1:] if method else positional,
            "named": set(positional) | {p.arg for p in a.kwonlyargs},
            "defaulted": positional[len(positional) - len(a.defaults):]
            + [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None],
            "kwarg": a.kwarg.arg if a.kwarg else None,
        })
        self.scope.append(node)
        self.generic_visit(node)
        self.scope.pop()

    def visit_Call(self, node):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name is not None:
            enclosing = next((s for s in reversed(self.scope)
                              if isinstance(s, ast.FunctionDef)), None)
            forwards, spread = [], False
            for kw in node.keywords:
                if kw.arg is not None:
                    continue
                if (enclosing is not None and enclosing.args.kwarg is not None
                        and getattr(kw.value, "id", None) == enclosing.args.kwarg.arg):
                    forwards.append(enclosing.name)
                else:
                    spread = True
            self.calls.append({
                "name": name, "positional": len(node.args),
                "keywords": {kw.arg for kw in node.keywords if kw.arg is not None},
                "forwards": forwards, "spread": spread,
            })
        self.generic_visit(node)


def audit():
    """(all defaulted parameters of src/, those that no caller in CALLERS sets)."""
    defs, calls = [], []
    for path in CALLERS:
        _Scan(path.stem, ROOT / "src" in path.parents, defs, calls).visit(
            ast.parse(path.read_text()))
    by_name = {}
    for d in defs:
        by_name.setdefault(d["name"], []).append(d)

    # keywords reaching each function's **kw, iterated to a fixed point
    incoming = {d["name"]: set() for d in defs if d["kwarg"]}
    changed = True
    while changed:
        changed = False
        for call in calls:
            if call["name"] not in incoming:
                continue
            got = set(call["keywords"])
            for source in call["forwards"]:
                got |= incoming.get(source, set())
            if call["spread"]:
                got.add("*")
            if not got <= incoming[call["name"]]:
                incoming[call["name"]] |= got
                changed = True

    everything = ["%s(%s)" % (d["key"], p) for d in defs if d["src"] for p in d["defaulted"]]
    set_somewhere = set()
    for call in calls:
        passed = set(call["keywords"])
        for source in call["forwards"]:
            passed |= incoming.get(source, set())
        for d in by_name.get(call["name"], []):
            reached = set(d["positional"][:call["positional"]]) | passed
            if call["spread"] or "*" in passed:
                reached |= d["named"]
            set_somewhere |= {"%s(%s)" % (d["key"], p) for p in reached}
    return everything, [p for p in everything if p not in set_somewhere]


def test_every_defaulted_parameter_is_set_by_a_caller():
    everything, never_set = audit()
    assert everything, "the scan found no defaulted parameter at all"
    assert sorted(set(never_set) - REGISTRY_PARAMETERS) == []


def test_registry_allowlist_names_real_parameters():
    everything, _ = audit()
    assert REGISTRY_PARAMETERS <= set(everything)


def exports():
    """{module: its __all__} for every module of the package."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                out[path.stem] = [e.value for e in node.value.elts]
    return out


def uses(path, modules):
    """(module, name) pairs that one file reads: names imported from a package
    module, attributes of a module bound to its short name, and every name
    that a package module loads in its own body."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rpartition(".")[2]
            if module in modules:
                found |= {(module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            found.add((node.value.id, node.attr))
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              and path.parent == PACKAGE):
            found.add((path.stem, node.id))
    return found


def unused_exports():
    """Exports that neither src/, perfbench/ nor the acceptance criteria read."""
    modules = exports()
    used = set().union(*(uses(path, modules) for path in CALLERS))
    return sorted("%s.%s" % (module, name) for module, names in modules.items()
                  for name in names if (module, name) not in used)


def test_every_export_is_used_outside_unit_tests():
    assert unused_exports() == []


def test_no_assert_statement_in_src():
    found = ["%s:%d" % (path.name, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_environment_variable_is_read_in_src():
    found = ["%s:%d" % (path.name, node.lineno) for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if (getattr(node, "attr", None) or getattr(node, "id", None))
             in ("environ", "getenv")]
    assert found == []
