from functools import lru_cache

import numpy as np

from reductive_lab.catalog import _berger_base, berger_total_space
from reductive_lab.liealg import BilinearForm, LieAlgebra, su
from reductive_lab.reductive import InfinitesimalModel, build_triple, extend_fibered

SU3_X01, SU3_Y01, SU3_X02, SU3_Y02 = 0, 1, 2, 3
SU3_X12, SU3_Y12, SU3_H0, SU3_H1 = 4, 5, 6, 7


def upper_entries(g) -> tuple:
    """The nonzero c^k_ij of g with i < j as (i, j, k, value), sorted."""
    i, j, k, v = g._upper
    return tuple(zip(i.tolist(), j.tolist(), k.tolist(), v))


def trace_form(mats) -> np.ndarray:
    return np.array([[float(np.trace(a @ b)) for b in mats] for a in mats])


def minus_half_trace(g, realified=True) -> BilinearForm:
    """B = -1/2 tr(XY) of the defining complex representation.

    For algebras stored realified the real trace doubles the complex one.
    """
    factor = -0.25 if realified else -0.5
    return BilinearForm(factor * trace_form(g.matrices))


def unit_samples(n, count, seed=0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(count, n))
    return xs / np.linalg.norm(xs, axis=1)[:, None]


def reference_jacobi_operator(model, x) -> np.ndarray:
    """R_0(X) for one X, as one einsum over the 4-index rbar: the oracle
    for the library's product with the stored curvature matrix."""
    t = model.tau_matrix(x)
    return np.einsum("ujab,j,b->au", model.rbar, x, x) - 0.25 * (t @ t)


def reference_holonomy_residual(model) -> float:
    """Max |rbar(e_i, e_j) acting on tau as a derivation| over i < j, as three
    einsums per row i over the 4-index rbar: the oracle for the library's
    matrix products with the stored curvature."""
    t = model.tau
    worst = 0.0
    for i in range(model.n):
        a = model.rbar[i, i + 1:]
        dt = (np.einsum("jam,mbc->jabc", a, t, optimize=True)
              + np.einsum("jbm,amc->jabc", a, t, optimize=True)
              + np.einsum("jcm,abm->jabc", a, t, optimize=True))
        worst = max(worst, float(np.max(np.abs(dt), initial=0.0)))
    return worst


def standard_j(n) -> np.ndarray:
    """Complex structure pairing (e_1, e_2), (e_3, e_4), ... (interleaved)."""
    assert n % 2 == 0
    j = np.zeros((n, n))
    for k in range(n // 2):
        j[2 * k + 1, 2 * k] = 1.0
        j[2 * k, 2 * k + 1] = -1.0
    return j


def fubini_study_rbar(n, kappa, j):
    """Constant-holomorphic-curvature tensor, R(u,v)w indexed [u,v,a,b]."""
    eye = np.eye(n)
    return (kappa / 4.0) * (
        np.einsum("vb,ua->uvab", eye, eye)
        - np.einsum("ub,va->uvab", eye, eye)
        + np.einsum("bv,au->uvab", j, j)
        - np.einsum("bu,av->uvab", j, j)
        - 2.0 * np.einsum("vu,ab->uvab", j, j)
    )


def round_three_sphere():
    """su(2) with B = -tr/2 of the defining rep: the unit round S^3."""
    g = su(2)
    return build_triple(g, np.zeros((3, 0)), minus_half_trace(g))


def cp2_triple():
    """su(3) / u(2), normal metric: the Fubini-Study plane."""
    g = su(3)
    h = np.zeros((8, 4))
    h[SU3_X01, 0] = h[SU3_Y01, 1] = h[SU3_H0, 2] = 1.0
    h[SU3_H0, 3], h[SU3_H1, 3] = 1.0, 2.0  # center diag(i, i, -2i)
    return build_triple(g, h, minus_half_trace(g))


def heisenberg_transvection(n, c):
    """Heisenberg group H^(2n+1) with its transvection algebra.

    Basis: e_0..e_{2n-1} horizontal, v central, A the rotation generator
    acting as J on each horizontal pair.  The invariant form is indefinite:
    B(v, v) = 0, B(v, A) = 1/c, B(A, A) = -1/c^2.
    """
    dim = 2 * n + 2
    iv, ia = 2 * n, 2 * n + 1
    brackets = {}
    for k in range(n):
        brackets[(2 * k, 2 * k + 1, iv)] = c
        brackets[(2 * k, ia, 2 * k + 1)] = -1.0
        brackets[(2 * k + 1, ia, 2 * k)] = 1.0
    g = LieAlgebra(dim, brackets)
    bm = np.eye(dim)
    bm[iv, iv] = 0.0
    bm[iv, ia] = bm[ia, iv] = 1.0 / c
    bm[ia, ia] = -1.0 / c ** 2
    b = BilinearForm(bm)
    h = np.zeros((dim, 1))
    h[ia, 0] = 1.0
    m = np.zeros((dim, 2 * n + 1))
    m[: 2 * n, : 2 * n] = np.eye(2 * n)
    m[iv, 2 * n] = 1.0
    m[ia, 2 * n] = c  # w = v + cA spans the B-positive vertical direction
    return build_triple(g, h, b, m_basis=m)


def heisenberg_closed_form(n, c):
    """tau = c (omega ^ eta), rbar = c^2 omega x J, J extended by zero."""
    dim = 2 * n + 1
    j = np.zeros((dim, dim))
    j[: 2 * n, : 2 * n] = standard_j(2 * n)
    omega = -j  # omega[i, j] = <J e_i, e_j> = j[j, i]
    eta = np.zeros(dim)
    eta[2 * n] = 1.0
    tau = c * (
        np.einsum("ij,k->ijk", omega, eta)
        + np.einsum("jk,i->ijk", omega, eta)
        + np.einsum("ki,j->ijk", omega, eta)
    )
    rbar = c ** 2 * np.einsum("ij,ab->ijab", omega, j)
    return InfinitesimalModel(tau, rbar)


# the base does not depend on s; two entries hold both kappa of one n, the
# order in which the oracle cases run
@lru_cache(maxsize=2)
def _lie_base(n, kappa):
    return _berger_base(n, kappa)


def berger_lie_route(n, s, kappa):
    """The Berger space of berger_model(n, s, kappa) through the Lie route:
    the fibered extension of the normal triple on su(n+1)/u(n) or
    su(n,1)/u(n), that is berger_total_space(n, s) for kappa = 1, from a
    base built once per (n, kappa)."""
    if n < 1:
        return berger_total_space(n, s)  # raises its ValueError
    return extend_fibered(*_lie_base(n, kappa), s)


def hopf_lie_triple(ident):
    """The Lie route triple of a registry id that the catalog builds in
    closed form: a berger id, or neg:su4-su3 as berger:n=3,s=0; None for
    any other id."""
    if ident == "neg:su4-su3":
        ident = "berger:n=3,s=0"
    kind, _, rest = ident.partition(":")
    if kind != "berger":
        return None
    params = dict(part.split("=") for part in rest.split(","))
    return berger_lie_route(int(params["n"]), float(params["s"]), int(params.get("kappa", 1)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    rows = {}
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion" in nodeid:
                name = nodeid.split("::")[-1].split("[")[0]
                rows.setdefault(name, set()).add(outcome)
    if not rows:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(rows):
        label = name.replace("test_criterion_", "").replace("_", " ")
        status = "PASS" if rows[name] == {"passed"} else "FAIL"
        terminalreporter.write_line("%s  criterion %s" % (status, label))
