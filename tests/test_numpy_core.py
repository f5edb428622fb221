"""The library runs on numpy alone, and its invariant checks survive -O.

No library module imports scipy, which serves the tests as an oracle only,
or uses numpy.testing, whose import costs more than the checks it would
make.  No command loads numpy.polynomial either: nine modules for what one
np.convolve does.
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
    """A child interpreter that imports the package from src/ and the paper
    checks from tests/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(ROOT / "tests"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=300)


def _offences(path):
    """scipy imports, function-local ones included, and any numpy.testing use
    in one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + ["%s.%s" % (node.module, a.name) for a in node.names]
        if any(n.partition(".")[0] == "scipy" for n in names):
            found.append((node.lineno, "scipy import"))
        if any(n == "numpy.testing" or n.startswith("numpy.testing.") for n in names):
            found.append((node.lineno, "numpy.testing import"))
        if (isinstance(node, ast.Attribute) and node.attr == "testing"
                and getattr(node.value, "id", None) in ("np", "numpy")):
            found.append((node.lineno, "%s.testing" % node.value.id))
    return ["%s:%d %s" % (path.name, line, what) for line, what in sorted(found)]


def test_src_imports_neither_scipy_nor_numpy_testing():
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
        ["mod.py:2", "mod.py:3", "mod.py:5", "mod.py:6", "mod.py:7"]


CHECK_MODULES = """
import sys
from reductive_lab import cli
code = cli.main(sys.argv[1:])
heavy = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"
               or m.startswith(("numpy.testing", "numpy.polynomial")))
print("LOADED", code, *heavy)
"""


@pytest.mark.parametrize("argv", [
    ["minpoly", "nk:flag"],
    ["verify", "nk:flag", "--poly", "5/4,1/4"],
    ["gvcp", "np:v3"],
    ["catalog"],
    ["appendix", "--s-grid", "1:2:2"],
    ["custom", "OSCILLATOR"],
    ["twistor", "np:v1", "--d", "2"],
], ids=lambda argv: argv[0])
def test_command_loads_neither_scipy_nor_numpy_testing(tmp_path, argv):
    if argv[-1] == "OSCILLATOR":
        path = tmp_path / "oscillator.json"
        path.write_text(json.dumps(OSCILLATOR))
        argv = argv[:-1] + [str(path)]
    out = _python("-c", CHECK_MODULES, *argv, "--json")
    assert "Traceback" not in out.stderr, out.stderr
    assert out.stdout.splitlines()[-1] == "LOADED 0"


WITHOUT_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from paper_checks import round_parameter
from reductive_lab import catalog, cli
from reductive_lab.jacobi import isotropy_invariance_check
path = sys.argv[1]
codes = {}
for argv in (["minpoly", "nk:flag"], ["verify", "nk:flag", "--poly", "5/4,1/4"],
             ["gvcp", "np:v3"], ["catalog"], ["appendix", "--s-grid", "1:2:2"],
             ["custom", path], ["twistor", "np:v1", "--d", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes[argv[0]] = cli.main(argv + ["--json"])
triple = catalog.berger_total_space(1, 1.0)
deviation = isotropy_invariance_check(triple, lambda x: float(x @ x), samples=4)
star = round_parameter(lambda s: catalog.berger_total_space(2, s), -0.9, 1.5)
print(json.dumps({"codes": codes, "deviation": deviation, "star": star}))
"""


def test_library_runs_with_scipy_blocked(tmp_path):
    path = tmp_path / "oscillator.json"
    path.write_text(json.dumps(OSCILLATOR))
    out = _python("-c", WITHOUT_SCIPY, str(path))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["codes"] == {"minpoly": 0, "verify": 0, "gvcp": 0, "catalog": 0,
                               "appendix": 0, "custom": 0, "twistor": 0}
    assert result["deviation"] < 1e-12
    assert abs(result["star"] + 0.25) < 1e-8


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_negative_twistor_degree_is_invalid_input(flags):
    out = _python(*flags, "-m", "reductive_lab.cli", "twistor", "np:v1", "--d", "-1")
    assert out.returncode == 2
    error = json.loads(out.stderr)["error"]
    assert error["type"] == "ValueError"
    assert "d = -1" in error["message"]


STALLED_UNDER_O = """
import json
from types import SimpleNamespace
import numpy as np
from reductive_lab import jacobi
from reductive_lab.catalog import entry

if __debug__:
    raise SystemExit("run with python -O")
jacobi.PROJECTION_STEPS = 0  # the projection takes no step, so it cannot converge
# a triple stand-in whose one isotropy generator acts on m as a shear
shear = np.array([[[0.0, 1.0], [0.0, 0.0]]])
sheared = SimpleNamespace(dim_m=2, h_basis=None, m_basis=None, m_component=lambda a: a,
                          g=SimpleNamespace(brackets=lambda h, m: shear))
messages = []
for call in (lambda: jacobi.verify_twistor(jacobi.JacobiFamily(entry("nk:flag").build()), 2),
             lambda: jacobi.isotropy_invariance_check(sheared, lambda x: float(x @ x))):
    try:
        call()
        messages.append(None)
    except AssertionError as exc:
        messages.append(str(exc))
print(json.dumps(messages))
"""


def test_projection_and_flow_checks_run_under_optimize():
    out = _python("-O", "-c", STALLED_UNDER_O)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == ["trace projection did not converge",
                                      "ad_h is not skew on m"]


BROKEN_UNDER_O = """
import json
import numpy as np
from reductive_lab.algebra import SkewBlock, SkewSpectrum
from reductive_lab.liealg import BilinearForm, LieAlgebra
from reductive_lab.reductive import ReductiveTriple
from reductive_lab.vcp import fit_vcp_multiple, su3_tau

if __debug__:
    raise SystemExit("run with python -O")
j = np.array([[0.0, -1.0], [1.0, 0.0]])
messages = []
for build in (
        # basis columns of length 1.1: the frame is not orthonormal
        lambda: SkewSpectrum(np.zeros((2, 0)), [SkewBlock(1.0, 1.1 * np.eye(2), j, np.eye(2))]),
        lambda: ReductiveTriple(LieAlgebra(2, {}), np.zeros((2, 0)), BilinearForm(np.eye(2)),
                                1.1 * np.eye(2)),
        # a six-dimensional form: vector cross products exist in dimension 3 and 7 only
        lambda: fit_vcp_multiple(su3_tau()),
        lambda: BilinearForm(np.triu(np.ones((2, 2))))):
    try:
        build()
        messages.append(None)
    except (AssertionError, ValueError) as exc:
        messages.append(str(exc))
print(json.dumps(messages))
"""


def test_invariant_checks_run_under_optimize():
    out = _python("-O", "-c", BROKEN_UNDER_O)
    assert out.returncode == 0, out.stderr
    spectrum, triple, cross, form = json.loads(out.stdout)
    assert spectrum.startswith("Not equal to tolerance rtol=1e-07, atol=1e-08")
    assert "m-basis not B-orthonormal" in triple
    assert cross == "vector cross products exist in dimension 3 and 7, not 6"
    assert form == "form must be symmetric"


BROKEN_STACK_UNDER_O = """
import json
import numpy as np
from reductive_lab import jacobi
from reductive_lab.algebra import skew_spectral_decomposition
from reductive_lab.catalog import heisenberg_model
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
spectrum.blocks[0].basis = spectrum.blocks[0].basis + spectrum.zero_space  # overlaps the kernel

real = jacobi.skew_spectra


def mixed(As):
    # rotates the kernel vector into the top block: the eigenbasis no longer
    # block-diagonalizes tau_X
    spectra = real(As)
    vecs = spectra.vecs.copy()
    c, s = np.cos(0.3), np.sin(0.3)
    vecs[:, :, 0] = c * spectra.vecs[:, :, 0] - s * spectra.vecs[:, :, -1]
    vecs[:, :, -1] = s * spectra.vecs[:, :, 0] + c * spectra.vecs[:, :, -1]
    return spectra._replace(vecs=vecs)


def scaled(As):
    # block values 10% too large: tau_X over them is no complex structure
    spectra = real(As)
    return spectra._replace(lams=1.1 * spectra.lams)


def detect_with(spectra):
    jacobi.skew_spectra = spectra
    try:
        return minimal_ljr(JacobiFamily(heisenberg_model(1, 1.0)))
    finally:
        jacobi.skew_spectra = real


messages = []
for call in (lambda: JacobiFamily(model).stack(sample_vectors(4, 4), 1),
             lambda: minimal_ljr(JacobiFamily(model)),
             lambda: component_split(spectrum, np.eye(3) + np.ones((3, 3))),
             lambda: detect_with(mixed),
             lambda: detect_with(scaled)):
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
    stack, detect, split, labels, lams = json.loads(out.stdout)
    assert stack == detect == "R_k(X) is not symmetric"
    assert split is not None and split.startswith("the components do not add up to S")
    assert labels is not None and labels.startswith(
        "the eigenbasis does not block-diagonalize tau_X")
    assert lams is not None and "tau_X over its block values is not a complex structure" in lams


JACOBI_CHECKS_UNDER_O = """
import json
import numpy as np
from reductive_lab.catalog import heisenberg_model
from reductive_lab.jacobi import JacobiFamily, sample_vectors, t_apply, universal_jr
from reductive_lab.reductive import InfinitesimalModel

if __debug__:
    raise SystemExit("run with python -O")
class Perturbed(JacobiFamily):
    # scales R_k(X) by 1 + k / 100, which no relation survives
    def blocks(self, xs, k, t=None):
        for j, ops, size in super().blocks(xs, k, t):
            yield j, ops * (1.0 + 0.01 * np.arange(j, j + ops.shape[1]))[:, None, None], size


model = heisenberg_model(4, 1.718)
tau = np.zeros((3, 3, 3))
tau[0, 1, 2] = 1.0  # not skew in any pair of slots
messages = []
for call in (
        lambda: universal_jr(Perturbed(model), sample_vectors(9, 1)[0]),
        lambda: InfinitesimalModel(tau, np.zeros((3, 3, 3, 3))),
        lambda: InfinitesimalModel(np.zeros((3, 3, 3)), np.zeros((3, 3, 3))),
        lambda: t_apply(model, np.eye(9)[0], np.triu(np.ones((9, 9)))),
        lambda: universal_jr(JacobiFamily(model), np.zeros(9))):
    try:
        call()
        messages.append(None)
    except (AssertionError, ValueError) as exc:
        messages.append([type(exc).__name__, str(exc)])
print(json.dumps(messages))
"""


def test_jacobi_and_model_checks_run_under_optimize():
    out = _python("-O", "-c", JACOBI_CHECKS_UNDER_O)
    assert out.returncode == 0, out.stderr
    residual, skew, shape, symmetric, zero = json.loads(out.stdout)
    assert residual[0] == "AssertionError"
    assert residual[1].startswith("universal relation residual")
    assert skew == ["AssertionError", "tau(x, y) is not skew"]
    assert shape[0] == "ValueError" and "shapes" in shape[1]
    assert symmetric[0] == "ValueError" and "not symmetric" in symmetric[1]
    assert zero == ["ValueError", "the universal relation needs a nonzero X"]


CONSTRUCTION_CHECKS_UNDER_O = """
import json
import numpy as np
from reductive_lab.catalog import _berger_base, entry, rescale_model
from reductive_lab.liealg import (BilinearForm, LieAlgebra, from_matrix_algebra, orthonormalize,
                                  so, su)
from reductive_lab.reductive import (InfinitesimalModel, ReductiveTriple, build_triple,
                                     extend_fibered, orthocomplement, to_model)

if __debug__:
    raise SystemExit("run with python -O")
flag = entry("nk:flag").build()
endo = np.array(flag.rbar)
endo[0, 1, 4, 5] += 1e-3
endo[1, 0, 4, 5] -= 1e-3  # still skew in (x, y)
pair = np.array(flag.rbar)
pair[0, 1, 4, 5] += 1e-3
pair[0, 1, 5, 4] -= 1e-3  # still skew as an endomorphism
su3 = su(3)
trace = BilinearForm(-0.25 * np.einsum("ipq,jqp->ij", np.array(su3.matrices),
                                       np.array(su3.matrices)))
h = np.zeros((8, 2))
h[0, 0] = h[2, 1] = 1.0  # brackets escape the span
escaping = object.__new__(ReductiveTriple)
escaping.g, escaping.h_basis, escaping.B, escaping.model = su3, h, trace, None
escaping.m_basis = orthonormalize(orthocomplement(su3, h, trace), trace)
escaping.dim_m = 6
base, normal = _berger_base(2, 1)
extend_fibered(base, normal, 0.5)
base.model = rescale_model(base.model, 2.0)
messages = []
for call in (
        lambda: LieAlgebra(3, [(0, 1, 5, 1.0)]),
        lambda: LieAlgebra(3, [(1, 1, 0, 2.0)]),
        lambda: LieAlgebra(3, [(0, 1, 2, 1.0), (0, 1, 2, 2.0)]),
        lambda: LieAlgebra(3, {(0, 1, 2): 1.0, (1, 0, 2): 1.0}),
        lambda: from_matrix_algebra(list(so(12).matrices) + [np.diag(np.arange(12.0))]),
        lambda: InfinitesimalModel(flag.tau, pair),
        lambda: InfinitesimalModel(flag.tau, endo),
        lambda: to_model(escaping),
        lambda: build_triple(su3, np.zeros((8, 0)), BilinearForm(np.diag(np.arange(8.0)))),
        lambda: build_triple(su3, np.zeros((8, 0)), BilinearForm(np.zeros((8, 8)))),
        lambda: build_triple(su3, np.zeros((8, 0)), trace.scaled(-1e-12)),
        lambda: orthonormalize(np.array([[1.0, 2.0], [0.0, 0.0]]), BilinearForm(np.eye(2))),
        lambda: extend_fibered(base, normal, 0.5)):
    try:
        call()
        messages.append(None)
    except Exception as exc:
        messages.append([type(exc).__name__, str(exc).split("\\n")[:2]])
print(json.dumps(messages))
"""


def test_construction_checks_run_under_optimize():
    out = _python("-O", "-c", CONSTRUCTION_CHECKS_UNDER_O)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [
        ["DimensionMismatch", ["bracket index out of range: (0, 1, 5)"]],
        ["ValueError", ["[e1, e1] must vanish"]],
        ["ValueError", ["conflicting entries for (0, 1, 2)"]],
        ["ValueError", ["antisymmetry violated at (0, 1, 2)"]],
        ["NotClosed", ["[m10, m66] leaves the span: residual 1.556e+01"]],
        ["AssertionError", ["rbar(x, y) is not skew"]],
        ["AssertionError", ["rbar(x, y) as an endomorphism is not skew"]],
        ["AssertionError", ["canonical curvature does not preserve tau: 3.464e+00"]],
        ["NonInvariantForm", ["B is not invariant: residual 1.200e+01"]],
        ["NonInvariantForm", ["B is degenerate on g"]],
        ["IndefiniteMetric", ["B restricted to m is not positive definite"]],
        ["DegenerateRestriction",
         ["vector has non-positive B-norm 0.000e+00 during Gram-Schmidt"]],
        ["AssertionError", ["Not equal to tolerance rtol=1e-07, atol=2e-09",
                            "horizontal curvature wrong"]],
    ]
