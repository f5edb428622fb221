"""Whole-tensor contractions of model construction against per-pair loops.

Each ref_* function below is the formula the library evaluated before its
constructions became contractions against the structure tensor: a loop over
pairs of single brackets, or for the Jacobi identity the whole cyclic sum
over all index triples.  They are kept as test-only references; the
contractions sum in another order, so results must agree to rounding.
"""

import re
import tracemalloc

import numpy as np
import pytest
from conftest import SU3_X01, SU3_X02, hopf_lie_triple, minus_half_trace, upper_entries

from reductive_lab import catalog, liealg
from reductive_lab.catalog import entries, entry
from reductive_lab.liealg import (
    BilinearForm,
    DimensionMismatch,
    LieAlgebra,
    NotClosed,
    _dense_jacobi_residual,
    direct_sum,
    from_matrix_algebra,
    orthocomplement,
    orthonormalize,
    so,
    sp,
    su,
)
from reductive_lab.reductive import InfinitesimalModel, NotReductive, ReductiveTriple

MODEL_IDS = [e.name for e in entries()] + [
    "berger:n=3,s=0.5,kappa=1", "berger:n=3,s=-2,kappa=-1"]


def ref_bracket(g, x, y):
    return np.einsum("ijk,i,j->k", g.tensor, x, y)


def ref_m_component(triple, v):
    return triple.m_basis.T @ (triple.B.matrix @ v)


def ref_tau_rbar(triple):
    g, m, n = triple.g, triple.m_basis, triple.dim_m
    tau = np.zeros((n, n, n))
    rbar = np.zeros((n, n, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            v = ref_bracket(g, m[:, i], m[:, j])
            tau_ij = -ref_m_component(triple, v)
            tau[i, j], tau[j, i] = tau_ij, -tau_ij
            h_part = v - m @ ref_m_component(triple, v)
            cols = np.column_stack([
                -ref_m_component(triple, ref_bracket(g, h_part, m[:, b]))
                for b in range(n)])
            rbar[i, j], rbar[j, i] = cols, -cols
    return tau, rbar


def ref_holonomy_residual(model):
    worst = 0.0
    for i in range(model.n):
        for j in range(i + 1, model.n):
            a = model.rbar[i, j]
            dt = (np.einsum("am,mbc->abc", a, model.tau)
                  + np.einsum("bm,amc->abc", a, model.tau)
                  + np.einsum("cm,abm->abc", a, model.tau))
            worst = max(worst, float(np.max(np.abs(dt))))
    return worst


def ref_jacobi_residual(g):
    """The cyclic Jacobi sum over all index triples, one first index at a time.

    J(i, j, k)^m = sum_l c_ij^l c_lk^m + c_jk^l c_li^m + c_ki^l c_lj^m."""
    c, d = g.tensor, g.dim
    flat = c.reshape(d, d * d)
    worst = 0.0
    for i in range(d):
        cyc = (c[i] @ flat).reshape(d, d, d) + c @ c[:, i] \
            + (c[:, i] @ flat).reshape(d, d, d).transpose(1, 0, 2)
        worst = max(worst, float(np.max(np.abs(cyc), initial=0.0)))
    return worst


def ref_invariance_residual(form, g):
    worst = 0.0
    for z in range(g.dim):
        a = g.tensor[z].T  # ad(e_z)
        worst = max(worst, float(np.max(np.abs(a.T @ form.matrix + form.matrix @ a))))
    return worst


def ref_structure_tensor(mats):
    """Structure constants from one pinv solve per commutator."""
    d = len(mats)
    span = np.column_stack([m.reshape(-1) for m in mats])
    pinv = np.linalg.pinv(span)
    c = np.zeros((d, d, d))
    for i in range(d):
        for j in range(i + 1, d):
            coords = pinv @ (mats[i] @ mats[j] - mats[j] @ mats[i]).reshape(-1)
            coords[np.abs(coords) <= 1e-12] = 0.0
            c[i, j], c[j, i] = coords, -coords
    return c


def without_jacobi_check(dim, brackets):
    """A LieAlgebra built with the Jacobi identity check switched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(liealg, "JACOBI_TOL", np.inf)
        return LieAlgebra(dim, brackets)


def perturbed_su3(seed=0):
    g = su(3)
    rng = np.random.default_rng(seed)
    noisy = [(i, j, k, v + 0.1 * rng.normal()) for i, j, k, v in upper_entries(g)]
    return without_jacobi_check(g.dim, noisy)


@pytest.fixture(scope="module")
def models():
    return {ident: entry(ident).build() for ident in MODEL_IDS}


class TestBrackets:
    def test_matches_pairwise_formula(self):
        g = su(3)
        rng = np.random.default_rng(1)
        for a_cols, b_cols in [(3, 4), (6, 2)]:  # xs narrower, then wider than ys
            xs, ys = rng.normal(size=(8, a_cols)), rng.normal(size=(8, b_cols))
            out = g.brackets(xs, ys)
            assert out.shape == (a_cols, b_cols, 8)
            for a in range(a_cols):
                for b in range(b_cols):
                    np.testing.assert_allclose(out[a, b], ref_bracket(g, xs[:, a], ys[:, b]),
                                               atol=1e-13)

    def test_bracket_is_the_one_column_case(self):
        g = sp(2)
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=g.dim), rng.normal(size=g.dim)
        np.testing.assert_allclose(g.bracket(x, y), ref_bracket(g, x, y), atol=1e-13)

    def test_rejects_wrong_shapes(self):
        g = su(2)
        with pytest.raises(DimensionMismatch):
            g.brackets(np.ones((2, 1)), np.ones((3, 1)))
        with pytest.raises(DimensionMismatch):
            g.brackets(np.ones(3), np.ones((3, 1)))

    def test_empty_stacks(self):
        assert su(2).brackets(np.zeros((3, 0)), np.eye(3)).shape == (0, 3, 3)

    def test_triples_in_sorted_order(self):
        g = perturbed_su3()
        c = g.tensor
        want = tuple(sorted(
            (i, j, k, c[i, j, k]) for i in range(g.dim) for j in range(i + 1, g.dim)
            for k in range(g.dim) if c[i, j, k] != 0.0))
        assert upper_entries(g) == want


class TestToModel:
    @pytest.mark.parametrize("ident", MODEL_IDS)
    def test_tau_and_rbar_match_pair_loops(self, models, ident):
        # the registry builds the Hopf series in closed form; its ids with a
        # Lie route are checked on that route's triple
        triple = models[ident].triple or hopf_lie_triple(ident)
        if triple is None:
            pytest.skip("built directly, not through to_model")
        model = triple.model
        tau, rbar = ref_tau_rbar(triple)
        np.testing.assert_allclose(model.tau, tau, rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.rbar, rbar, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ident", MODEL_IDS)
    def test_holonomy_residual_matches_pair_loop(self, models, ident):
        model = models[ident]
        assert model.holonomy_residual() == pytest.approx(
            ref_holonomy_residual(model), rel=1e-9, abs=1e-14)

    def test_holonomy_residual_of_a_broken_model(self, models):
        model = models["nk:flag"]
        noise = np.random.default_rng(3).normal(size=model.rbar.shape)
        noise -= noise.transpose(1, 0, 2, 3)
        noise -= noise.transpose(0, 1, 3, 2)
        broken = InfinitesimalModel(model.tau, model.rbar + 0.01 * noise)
        want = ref_holonomy_residual(broken)
        assert want > 1e-3
        assert broken.holonomy_residual() == pytest.approx(want, rel=1e-12)


def random_antisymmetric(dim, seed):
    """A LieAlgebra over random antisymmetric constants: not a Lie algebra."""
    c = np.random.default_rng(seed).normal(size=(dim, dim, dim))
    i, j = np.triu_indices(dim, 1)
    entries = [(a, b, k, c[a, b, k]) for a, b in zip(i, j) for k in range(dim)]
    return without_jacobi_check(dim, entries)


def rotated(g, seed):
    """g in a random orthonormal basis: every structure constant is nonzero."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(g.dim, g.dim)))
    c = np.einsum("ia,jb,ijk,kc->abc", q, q, g.tensor, q, optimize=True)
    i, j = np.triu_indices(g.dim, 1)
    entries = [(a, b, k, c[a, b, k]) for a, b in zip(i, j) for k in range(g.dim)]
    return LieAlgebra(g.dim, entries)


EXACT_ALGEBRAS = {
    **{"su%d" % n: (lambda n=n: su(n)) for n in range(3, 9)},
    "sp2": lambda: sp(2),
    "so7": lambda: so(7),
    "sp2+sp1": lambda: direct_sum(sp(2), sp(1)),
    "g2": lambda: catalog.s6_round().g,  # a generic basis: dense constants
    "su6 rotated": lambda: rotated(su(6), seed=6),
}


class TestJacobiResidual:
    @pytest.mark.parametrize("name", sorted(EXACT_ALGEBRAS))
    def test_matches_cyclic_sum(self, name):
        g = EXACT_ALGEBRAS[name]()
        want = ref_jacobi_residual(g)
        assert want < 1e-12
        assert g.jacobi_residual() == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("name", ["su3", "su8", "sp2+sp1", "perturbed su3"])
    def test_dense_loop_agrees_with_the_sparse_sum(self, name):
        g = perturbed_su3() if name == "perturbed su3" else EXACT_ALGEBRAS[name]()
        assert _dense_jacobi_residual(g.tensor) == pytest.approx(g.jacobi_residual(),
                                                                 rel=1e-12, abs=1e-14)

    def test_abelian_algebra_has_no_residual(self):
        assert LieAlgebra(5, []).jacobi_residual() == 0.0

    def test_matches_cyclic_sum_when_large(self):
        g = perturbed_su3()
        want = ref_jacobi_residual(g)
        assert want > 1e-2
        assert g.jacobi_residual() == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("dim", [6, 9, 14])
    def test_matches_cyclic_sum_on_random_constants(self, dim):
        g = random_antisymmetric(dim, seed=dim)
        want = ref_jacobi_residual(g)
        assert want > 1.0
        assert g.jacobi_residual() == pytest.approx(want, rel=1e-12)

    def test_rejects_broken_tensor(self):
        g = perturbed_su3()
        with pytest.raises(ValueError, match="Jacobi identity fails"):
            LieAlgebra(g.dim, upper_entries(g))

    def test_su8_peak_memory(self):
        tracemalloc.start()
        try:
            su(8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    @pytest.mark.parametrize("builder", [lambda: catalog.s6_round().g, lambda: su(11),
                                         lambda: rotated(su(8), seed=8)],
                             ids=["g2", "su11", "su8 rotated"])
    def test_residual_peak_memory(self, builder):
        g = builder()
        tracemalloc.start()
        try:
            g.jacobi_residual()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestInvarianceResidual:
    def test_matches_ad_loop_on_non_invariant_form(self):
        g = su(3)
        rng = np.random.default_rng(4)
        a = rng.normal(size=(g.dim, g.dim))
        form = BilinearForm(a + a.T)
        want = ref_invariance_residual(form, g)
        assert want > 1e-2
        assert form.invariance_residual(g) == pytest.approx(want, rel=1e-12)

    def test_invariant_form(self):
        g = sp(2)
        form = g.killing_form()
        assert form.invariance_residual(g) < 1e-12
        assert ref_invariance_residual(form, g) < 1e-12


class TestReductiveCheck:
    def test_bad_isotropy_raises(self):
        g = su(3)
        h = np.zeros((8, 2))
        h[SU3_X01, 0] = h[SU3_X02, 1] = 1.0  # brackets escape the span
        form = minus_half_trace(g)
        m = orthonormalize(orthocomplement(g, h, form), form)
        ref = ref_bracket(g, h[:, 0], h[:, 1])
        # read at B / max|B| (m times its root) and brackets / max|c^k_ij|
        scale = np.sqrt(np.max(np.abs(form.matrix))) * np.max(np.abs(g.tensor))
        want = float(np.max(np.abs(m.T @ form.matrix @ ref))) / scale
        assert want > 1e-3
        with pytest.raises(NotReductive,
                           match=re.escape("[h,h] leaves h: residual %.3e" % want)):
            ReductiveTriple(g, h, form, m)


class TestFromMatrixAlgebra:
    # su(6): its 595 pairs are expanded in two blocks
    @pytest.mark.parametrize("builder", [lambda: su(3), lambda: so(5), lambda: sp(2),
                                         lambda: su(6)])
    def test_structure_tensor_matches_pair_solves(self, builder):
        g = builder()
        np.testing.assert_allclose(g.tensor, ref_structure_tensor(g.matrices), atol=1e-13)

    def test_not_closed_names_worst_pair(self):
        def rotation(p, q, size=4, scale=1.0):
            e = np.zeros((size, size))
            e[p, q], e[q, p] = scale, -scale
            return e
        # [m0, m1] and [m0, m2] leave the span, [m0, m2] by twice as much
        mats = [rotation(0, 1), rotation(0, 2), rotation(1, 3, scale=2.0)]
        with pytest.raises(NotClosed, match=r"\[m0, m2\]"):
            from_matrix_algebra(mats)

    def test_trace_gram_matches_pair_traces(self):
        g = su(3)
        want = np.array([[np.trace(a @ b) for b in g.matrices] for a in g.matrices])
        np.testing.assert_allclose(catalog._matrix_gram(g), want, atol=1e-13)
