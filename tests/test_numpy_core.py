"""The command path runs on numpy alone, and its invariant checks survive -O.

scipy is imported only inside the functions that need it (the twistor
projection, round_parameter and isotropy_invariance_check), and no library
module uses numpy.testing, whose import costs more than the checks it
would make.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from test_cli import OSCILLATOR

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=300)


def _offences(path):
    """Module-level scipy imports and any numpy.testing use in one file."""
    tree = ast.parse(path.read_text())
    in_function = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            in_function |= {id(inner) for inner in ast.walk(node) if inner is not node}
    found = []
    for node in ast.walk(tree):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + ["%s.%s" % (node.module, a.name) for a in node.names]
        if any(n.partition(".")[0] == "scipy" for n in names) and id(node) not in in_function:
            found.append((node.lineno, "module-level scipy import"))
        if any(n == "numpy.testing" or n.startswith("numpy.testing.") for n in names):
            found.append((node.lineno, "numpy.testing import"))
        if (isinstance(node, ast.Attribute) and node.attr == "testing"
                and getattr(node.value, "id", None) in ("np", "numpy")):
            found.append((node.lineno, "%s.testing" % node.value.id))
    return ["%s:%d %s" % (path.name, line, what) for line, what in sorted(found)]


def test_src_imports_scipy_lazily_and_never_numpy_testing():
    paths = sorted((SRC / "reductive_lab").rglob("*.py"))
    assert paths
    assert [line for path in paths for line in _offences(path)] == []


def test_guard_sees_each_offence(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import numpy as np\nfrom scipy.linalg import expm\n"
                    "import scipy.sparse\n"
                    "def f(a):\n    from scipy.optimize import minimize_scalar\n"
                    "    np.testing.assert_allclose(a, a)\n"
                    "from numpy import testing\n")
    assert [line.split(" ", 1)[0] for line in _offences(path)] == \
        ["mod.py:2", "mod.py:3", "mod.py:6", "mod.py:7"]


CHECK_MODULES = """
import sys
from reductive_lab import cli
code = cli.main(sys.argv[1:])
heavy = sorted(m for m in sys.modules
               if m.partition(".")[0] == "scipy" or m.startswith("numpy.testing"))
print("LOADED", code, *heavy)
"""


@pytest.mark.parametrize("argv", [
    ["minpoly", "nk:flag"],
    ["verify", "nk:flag", "--poly", "5/4,1/4"],
    ["gvcp", "np:v3"],
    ["catalog"],
    ["appendix", "--s-grid", "1:2:2"],
    ["custom", "OSCILLATOR"],
], ids=lambda argv: argv[0])
def test_command_loads_neither_scipy_nor_numpy_testing(tmp_path, argv):
    if argv[-1] == "OSCILLATOR":
        path = tmp_path / "oscillator.json"
        path.write_text(json.dumps(OSCILLATOR))
        argv = argv[:-1] + [str(path)]
    out = _python("-c", CHECK_MODULES, *argv, "--json")
    assert "Traceback" not in out.stderr, out.stderr
    assert out.stdout.splitlines()[-1] == "LOADED 0"


BROKEN_UNDER_O = """
import json
import numpy as np
from reductive_lab.algebra import SkewBlock, SkewSpectrum
from reductive_lab.liealg import BilinearForm, abelian
from reductive_lab.reductive import ReductiveTriple

if __debug__:
    raise SystemExit("run with python -O")
j = np.array([[0.0, -1.0], [1.0, 0.0]])
messages = []
for build in (
        # basis columns of length 1.1: the frame is not orthonormal
        lambda: SkewSpectrum(np.zeros((2, 0)), [SkewBlock(1.0, 1.1 * np.eye(2), j, np.eye(2))]),
        lambda: ReductiveTriple(abelian(2), np.zeros((2, 0)), BilinearForm(np.eye(2)),
                                1.1 * np.eye(2))):
    try:
        build()
        messages.append(None)
    except AssertionError as exc:
        messages.append(str(exc))
print(json.dumps(messages))
"""


def test_invariant_checks_run_under_optimize():
    out = _python("-O", "-c", BROKEN_UNDER_O)
    assert out.returncode == 0, out.stderr
    spectrum, triple = json.loads(out.stdout)
    assert spectrum.startswith("Not equal to tolerance rtol=1e-07, atol=1e-08")
    assert "m-basis not B-orthonormal" in triple


BROKEN_STACK_UNDER_O = """
import json
import numpy as np
from reductive_lab.algebra import skew_spectral_decomposition
from reductive_lab.jacobi import JacobiFamily, component_split, minimal_ljr, sample_vectors
from reductive_lab.reductive import InfinitesimalModel

if __debug__:
    raise SystemExit("run with python -O")
# skew in both index pairs but without pair symmetry: R_0(X) is not symmetric
rng = np.random.default_rng(0)
r = rng.normal(size=(4, 4, 4, 4))
r = r - r.transpose(1, 0, 2, 3)
r = r - r.transpose(0, 1, 3, 2)
model = InfinitesimalModel(np.zeros((4, 4, 4)), r)
a = np.zeros((3, 3))
a[0, 1], a[1, 0] = -1.0, 1.0
spectrum = skew_spectral_decomposition(a)
spectrum.blocks[0].projection = np.eye(3)  # the block now overlaps the kernel
messages = []
for call in (lambda: JacobiFamily(model).stack(sample_vectors(4, 4), 1),
             lambda: minimal_ljr(JacobiFamily(model)),
             lambda: component_split(spectrum, np.eye(3) + np.ones((3, 3)))):
    try:
        call()
        messages.append(None)
    except AssertionError as exc:
        messages.append(str(exc))
print(json.dumps(messages))
"""


def test_stacked_checks_run_under_optimize():
    out = _python("-O", "-c", BROKEN_STACK_UNDER_O)
    assert out.returncode == 0, out.stderr
    stack, detect, split = json.loads(out.stdout)
    assert stack == detect == "R_k(X) is not symmetric"
    assert split is not None and split.startswith("component ")
