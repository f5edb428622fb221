"""The numpy replacements of the former scipy calls against references.

The fixed-width contraction rows against the Python-loop construction it replaced;
the conjugate-gradient trace projection against scipy's lsmr; the isotropy
flows against scipy's expm; the golden-section round member against
Brent's bounded search; the monomial coefficients of R_(d+1) against the
stencil polarization they replaced.  scipy serves only as the oracle here.
"""

import itertools
import tracemalloc
from math import comb, factorial

import numpy as np
import pytest

import paper_checks
from conftest import cp2_triple, heisenberg_transvection
from reductive_lab import catalog, jacobi
from reductive_lab.catalog import entries, entry
from reductive_lab.reductive import to_model

CLI_DIMS = (5, 6, 7)  # the dimensions of the fixed catalog ids


def _reference_contraction_matrix(n, k):
    """The loop construction of jacobi._contraction_matrix, as COO lists."""
    def msets(m):
        return list(itertools.combinations_with_replacement(range(n), m))

    def weight(a):
        mult = factorial(len(a))
        for c in np.bincount(a, minlength=n):
            mult //= factorial(int(c))
        return np.sqrt(float(mult))

    m = k + 2
    a_idx = {a: i for i, a in enumerate(msets(m))}
    b_idx = {b: i for i, b in enumerate(msets(2))}
    a_w = [weight(a) for a in msets(m)]
    b_w = [weight(b) for b in msets(2)]
    nb = len(b_idx)
    rows, cols, vals = [], [], []
    row = 0
    for gamma in msets(k):  # two base slots
        gw = weight(gamma)
        for bi in range(nb):
            for i in range(n):
                ai = a_idx[tuple(sorted(gamma + (i, i)))]
                rows.append(row)
                cols.append(ai * nb + bi)
                vals.append(gw / a_w[ai])
            row += 1
    for ai in range(len(a_idx)):  # the two endomorphism slots
        for i in range(n):
            rows.append(row)
            cols.append(ai * nb + b_idx[(i, i)])
            vals.append(1.0)
        row += 1
    for gamma in msets(k + 1):  # one base slot against one endomorphism slot
        gw = weight(gamma)
        for u in range(n):
            for i in range(n):
                ai = a_idx[tuple(sorted(gamma + (i,)))]
                bi = b_idx[(min(i, u), max(i, u))]
                rows.append(row)
                cols.append(ai * nb + bi)
                vals.append(gw / (a_w[ai] * b_w[bi]))
            row += 1
    return np.array(rows), np.array(cols), np.array(vals), row, len(a_idx) * nb


def test_cli_dims_cover_the_catalog():
    assert {e.build().n for e in entries()} == set(CLI_DIMS)


@pytest.mark.parametrize("n, k", sorted(
    {(n, k) for n in CLI_DIMS for k in range(1, 7)}          # twistor --d 0..5
    | {(n, k) for n in range(3, 6) for k in range(0, 5)}))  # trace_free_part too
def test_contraction_matrix_matches_loops(n, k):
    rows, cols, vals, count, width = _reference_contraction_matrix(n, k)
    got_cols, got_vals = jacobi._contraction_matrix(n, k)
    assert got_cols.shape == got_vals.shape == (count, n)
    assert np.max(got_cols) < width
    got_rows = np.repeat(np.arange(count), n)
    got_cols, got_vals = got_cols.ravel(), got_vals.ravel()

    def entries_of(r, c, v):
        order = np.argsort(r * width + c, kind="stable")
        return (r * width + c)[order], v[order]

    want_keys, want_vals = entries_of(rows, cols, vals)
    got_keys, got_vals = entries_of(got_rows, got_cols, got_vals)
    np.testing.assert_array_equal(got_keys, want_keys)
    np.testing.assert_array_equal(got_vals, want_vals)


@pytest.fixture(scope="module")
def families():
    return {ident: jacobi.JacobiFamily(entry(ident).build()) for ident in ("np:v1", "nk:flag")}


@pytest.mark.parametrize("ident, d", [("np:v1", d) for d in range(6)]
                         + [("nk:flag", d) for d in range(2, 5)])
def test_projection_matches_lsmr(families, ident, d):
    sparse = pytest.importorskip("scipy.sparse")
    linalg = pytest.importorskip("scipy.sparse.linalg")
    family = families[ident]
    vec = jacobi._compressed_tensor(family, d, 0)
    cols, vals = jacobi._contraction_matrix(family.n, d + 1)
    count = len(cols)
    rows = np.repeat(np.arange(count), family.n)
    mat = sparse.csr_matrix((vals.ravel(), (rows, cols.ravel())), shape=(count, len(vec)))
    sol = linalg.lsmr(mat.T, vec, atol=1e-14, btol=1e-14, maxiter=8 * count)[0]
    want = vec - mat.T @ sol
    got = jacobi._project_traces(family.n, d + 1, vec)
    norm = np.linalg.norm(vec)
    assert np.linalg.norm(got - want) < 1e-12 * norm
    assert np.linalg.norm(got) <= norm * (1.0 + 1e-12)
    if (ident, d) == ("np:v1", 0):  # C vec is at rounding level here
        assert np.linalg.norm(mat @ vec) < 1e-13 * norm


@pytest.mark.parametrize("triple", [cp2_triple, lambda: heisenberg_transvection(1, 1.0)],
                         ids=["cp2", "heisenberg"])
def test_isotropy_flows_match_expm(triple):
    linalg = pytest.importorskip("scipy.linalg")
    trip = triple()
    ads = trip.m_component(trip.g.brackets(trip.h_basis, trip.m_basis)).transpose(0, 2, 1)
    want = np.array([[linalg.expm(t * ad) for t in (0.5, 1.0, 2.0)] for ad in ads])
    got = jacobi._isotropy_flows(trip)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("build, lo, hi", [
    (lambda s: catalog.berger_total_space(2, s), -0.9, 1.5),
    (paper_checks.quaternionic_hopf, -0.9, 2.0),
], ids=["berger", "quaternionic-hopf"])
def test_round_parameter_matches_brent(build, lo, hi):
    optimize = pytest.importorskip("scipy.optimize")

    def spread(s):
        return paper_checks.curvature_spread(to_model(build(s)))[0]
    brent = optimize.minimize_scalar(spread, bounds=(lo, hi), method="bounded",
                                     options={"xatol": 1e-10})
    assert abs(paper_checks.round_parameter(build, lo, hi) - brent.x) < 1e-8


def _stencils(n, m):
    """Polarization stencils of Sym^m in n variables.

    The value of a multiset alpha is sum over the nonzero mu <= hist(alpha)
    of (-1)^(m - |mu|) prod_i C(hist_i, mu_i) f(mu), over m!.  Returns the
    distinct stencil vectors mu (S, n) and that sum as a coefficient matrix
    in COO form: rows (multiset index), columns (stencil index) and
    integer values.
    """
    alphas = jacobi._msets(n, m)
    hist = np.sum(alphas[:, :, None] == np.arange(n), axis=1)
    binom = np.array([[comb(c, u) for u in range(m + 1)] for c in range(m + 1)])
    rows = np.arange(len(alphas))
    key = np.zeros(len(alphas), dtype=np.int64)  # mu in base m + 1, mu_0 leading
    size = np.zeros(len(alphas), dtype=np.int64)
    coef = np.ones(len(alphas), dtype=np.int64)
    for i in range(n):  # expand coordinate i of every partial mu over 0..hist_i
        reps = hist[rows, i] + 1
        u = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        rows = np.repeat(rows, reps)
        key = np.repeat(key, reps) * (m + 1) + u
        size = np.repeat(size, reps) + u
        coef = np.repeat(coef, reps) * binom[hist[rows, i], u]
    keep = size > 0
    keys, cols = np.unique(key[keep], return_inverse=True)
    vectors = np.column_stack(np.unravel_index(keys, (m + 1,) * n))
    signs = np.where((m - size[keep]) % 2, -1, 1)
    return vectors.astype(float), rows[keep], cols, signs * coef[keep]


def _polarized_compressed(family, d):
    """Compressed coordinates of the full tensor of R_(d+1), recovered by
    polarizing over basis-vector sums: R_(d+1) at every stencil vector."""
    n, m = family.n, d + 3
    vectors, rows, cols, coef = _stencils(n, m)
    top = family.stack(vectors, d + 1)[:, -1].reshape(-1, n * n)
    count = len(jacobi._msets(n, m))
    values = np.array([np.bincount(rows, weights=coef * top[cols, e], minlength=count)
                       for e in range(n * n)]).T.reshape(-1, n, n) / factorial(m)
    i, j = jacobi._msets(n, 2).T
    return (values[:, i, j] * np.outer(jacobi._weights(n, m), jacobi._weights(n, 2))).reshape(-1)


POLARIZED = ([("np:v1", d) for d in range(6)] + [("nk:flag", d) for d in range(5)]
             + [("neg:sp2-sp1", 2)] + [("heisenberg:n=3,c=1.3", d) for d in range(4)]
             + [("berger:n=3,s=0.7", d) for d in (2, 3)])


@pytest.fixture(scope="module")
def polarized_families():
    return {ident: jacobi.JacobiFamily(entry(ident).build())
            for ident in sorted({ident for ident, _ in POLARIZED})}


@pytest.mark.parametrize("ident, d", POLARIZED)
def test_coefficients_match_polarization(polarized_families, ident, d):
    family = polarized_families[ident]
    want = _polarized_compressed(family, d)
    got = jacobi._compressed_tensor(family, d, 0)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("ident", ["nk:flag", "np:v1"])
@pytest.mark.parametrize("k", range(5))
def test_coefficients_reproduce_the_stack(families, ident, k):
    family = families[ident]
    xs = np.random.default_rng(k).normal(size=(8, family.n))
    xs /= np.linalg.norm(xs, axis=1)[:, None]
    monomials = np.prod(xs[:, jacobi._msets(family.n, k + 2)], axis=2)  # (8, N)
    got = np.einsum("xa,aij->xij", monomials, jacobi._coefficients(family.model, k))
    want = family.stack(xs, k)[:, k]
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


# the coefficients of every order are built from those of the order below,
# over chunks of rows: the traced peak stays within 4x the result
@pytest.mark.parametrize("ident, k", [("np:v1", 6), ("heisenberg:n=4,c=1", 5),
                                      ("berger:n=5,s=1", 4)])
def test_coefficients_peak_is_bounded_by_the_result(ident, k):
    model = entry(ident).build()
    tracemalloc.start()
    try:
        c = jacobi._coefficients(model, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * c.nbytes
