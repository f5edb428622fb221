"""Model construction from whole arrays, against the formulas it replaced.

The references here are the constructions as they were written before:
a structure tensor filled from a dict of entries, np.block realification,
kron quaternion blocks, the per-generator su(n) loop and (in conftest) the
per-row einsum holonomy residual.  Every check that moved keeps its
exception type and message, and construction gives the same model at any
metric scale.
"""

import re
import tracemalloc

import numpy as np
import paper_checks
import pytest
from conftest import minus_half_trace, reference_holonomy_residual, upper_entries

from reductive_lab import reductive
from reductive_lab.catalog import (_berger_base, entries, entry, flag_manifold, heisenberg_model,
                                   rescale_model)
from reductive_lab.liealg import (BilinearForm, DegenerateRestriction, DimensionMismatch,
                                  LieAlgebra, NotClosed, direct_sum, from_matrix_algebra,
                                  null_space, orthocomplement, orthonormalize,
                                  quaternion_to_complex, realify, so, su, su_generators)
from reductive_lab.reductive import (IndefiniteMetric, InfinitesimalModel, NonInvariantForm,
                                     ReductiveTriple, build_triple, extend_fibered, to_model)

FIXED_IDS = [e.name for e in entries()]
HOLONOMY_IDS = FIXED_IDS + [
    "berger:n=%d,s=%s,kappa=%d" % (n, s, kappa)
    for n in range(1, 8) for s, kappa in (("0.7", 1), ("-2.5", -1))
] + ["heisenberg:n=%d,c=1.3" % n for n in range(2, 13)]


def skew_noise(n, seed):
    """Random rbar-shaped noise, skew in both slot pairs."""
    r = np.random.default_rng(seed).normal(size=(n,) * 4)
    r -= r.transpose(1, 0, 2, 3)
    return r - r.transpose(0, 1, 3, 2)


class TestHolonomyResidual:
    @pytest.mark.parametrize("ident", HOLONOMY_IDS)
    def test_matches_the_einsum_reference(self, ident):
        # on a valid model both are rounding noise, so the bound is taken
        # relative to the size of the products they sum
        model = entry(ident).build()
        want = reference_holonomy_residual(model)
        scale = np.max(np.abs(model.tau)) * np.max(np.abs(model.rbar))
        assert abs(model.holonomy_residual() - want) <= 1e-12 * max(want, scale)

    @pytest.mark.parametrize("ident", ["nk:flag", "berger:n=3,s=0.7,kappa=1",
                                       "heisenberg:n=12,c=1.3"])
    def test_matches_on_broken_models(self, ident):
        model = entry(ident).build()
        broken = InfinitesimalModel(model.tau, model.rbar + 0.01 * skew_noise(model.n, 3))
        want = reference_holonomy_residual(broken)
        assert want > 1e-3
        assert broken.holonomy_residual() == pytest.approx(want, rel=1e-12)

    def test_reads_the_last_pair(self):
        model = entry("heisenberg:n=4,c=1.3").build()
        n = model.n
        rbar = np.array(model.rbar)
        bump = np.zeros((n, n))
        bump[0, 2], bump[2, 0] = 0.5, -0.5  # mixes two J-planes, so omega moves
        rbar[n - 2, n - 1] += bump
        rbar[n - 1, n - 2] -= bump
        broken = InfinitesimalModel(model.tau, rbar)
        want = reference_holonomy_residual(broken)
        assert want > 0.1
        assert broken.holonomy_residual() == pytest.approx(want, rel=1e-12)


def non_reductive_su3():
    """A triple stand-in on su(3) whose isotropy brackets escape its span,
    assembled without ReductiveTriple's own check."""
    g = su(3)
    h = np.zeros((8, 2))
    h[0, 0] = h[2, 1] = 1.0
    form = minus_half_trace(g)
    triple = object.__new__(ReductiveTriple)
    triple.g, triple.h_basis, triple.B = g, h, form
    triple.m_basis = orthonormalize(orthocomplement(g, h, form), form)
    triple.dim_m = triple.m_basis.shape[1]
    return triple


class TestModelChecks:
    def test_holonomy_gate_message(self):
        with pytest.raises(AssertionError, match=re.escape(
                "canonical curvature does not preserve tau: 3.464e+00")):
            to_model(non_reductive_su3())

    @pytest.mark.parametrize("ident", ["nk:flag", "heisenberg:n=12,c=1.3"])
    @pytest.mark.parametrize("kind", ["pair", "endomorphism"])
    def test_curvature_checks_read_the_last_slabs(self, ident, kind):
        # rbar[u, j, a, b] is stored at row (j, b), column (a, u), and the
        # checks read it in slabs of consecutive b; both breaks sit at b = n - 1
        model = entry(ident).build()
        n = model.n
        rbar = np.array(model.rbar)
        delta = 1e-6 * np.max(np.abs(rbar))
        if kind == "pair":  # still skew as an endomorphism
            rbar[0, 1, n - 2, n - 1] += delta
            rbar[0, 1, n - 1, n - 2] -= delta
            message = "rbar(x, y) is not skew"
        else:  # still skew in (x, y)
            rbar[0, 1, n - 2, n - 1] += delta
            rbar[1, 0, n - 2, n - 1] -= delta
            message = "rbar(x, y) as an endomorphism is not skew"
        with pytest.raises(AssertionError, match=re.escape(message) + "$"):
            InfinitesimalModel(model.tau, rbar)

    def test_torsion_messages(self):
        t = np.zeros((3, 3, 3))
        t[0, 1, 2], t[1, 0, 2] = 1.0, -1.0  # skew in (x, y) only
        with pytest.raises(AssertionError, match=r"^tau\(x, \., \.\) is not skew$"):
            InfinitesimalModel(t, np.zeros((3,) * 4))
        with pytest.raises(AssertionError, match=r"^tau\(x, y\) is not skew$"):
            InfinitesimalModel(np.ones((3, 3, 3)), np.zeros((3,) * 4))

    def test_heisenberg_model_stores_one_curvature_array(self):
        n = 25
        tracemalloc.start()
        try:
            model = heisenberg_model(12, 1.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.n == n
        # the stored array and the one |rbar| temporary of the skew check
        assert peak <= 2.25 * 8 * n ** 4

    def test_extension_reuses_and_checks_the_base_model(self):
        base, h = _berger_base(2, 1)
        first = extend_fibered(base, h, 0.5)
        assert base.model is not None
        model = base.model
        extend_fibered(base, h, 1.5)
        assert base.model is model
        assert np.array_equal(first.model.tau, extend_fibered(base, h, 0.5).model.tau)
        base.model = rescale_model(model, 2.0)  # a wrong model is caught
        with pytest.raises(AssertionError, match="horizontal curvature wrong"):
            extend_fibered(base, h, 0.5)


def reference_structure_tensor(dim, brackets):
    """The structure tensor as a loop over a dict of the entries."""
    if isinstance(brackets, dict):
        brackets = [(i, j, k, v) for (i, j, k), v in brackets.items()]
    seen = {}
    for i, j, k, v in brackets:
        i, j, k, v = int(i), int(j), int(k), float(v)
        if i != j:
            seen[(i, j, k)] = v
    tensor = np.zeros((dim,) * 3)
    for (i, j, k), v in seen.items():
        tensor[i, j, k] = v
        if (j, i, k) not in seen:
            tensor[j, i, k] = -v
    return tensor


class TestLieAlgebraEntries:
    @pytest.mark.parametrize("builder", [
        lambda: list(upper_entries(su(3))),
        lambda: {(i, j, k): v for i, j, k, v in upper_entries(so(5))},
        lambda: [(j, i, k, -v) for i, j, k, v in upper_entries(su(3))]
        + list(upper_entries(su(3))),
        lambda: [(1, 1, 0, 0.0)] + list(upper_entries(su(2))) + list(upper_entries(su(2))),
    ], ids=["su3 list", "so5 dict", "both orders", "repeats and a zero diagonal"])
    def test_tensor_matches_the_dict_loop(self, builder):
        brackets = builder()
        dim = 1 + max(max(key[:3]) for key in brackets)
        g = LieAlgebra(dim, brackets)
        assert np.array_equal(g.tensor, reference_structure_tensor(dim, brackets))

    @pytest.mark.parametrize("dim, brackets, error, message", [
        (3, [(0, 1, 5, 1.0)], DimensionMismatch, "bracket index out of range: (0, 1, 5)"),
        (3, {(0, -1, 2): 1.0}, DimensionMismatch, "bracket index out of range: (0, -1, 2)"),
        (3, [(1, 1, 0, 2.0)], ValueError, "[e1, e1] must vanish"),
        (3, [(0, 1, 2, 1.0), (0, 1, 2, 2.0)], ValueError, "conflicting entries for (0, 1, 2)"),
        (3, [(0, 1, 2, 1.0), (0, 1, 2, 1.0), (0, 1, 2, 3.0)], ValueError,
         "conflicting entries for (0, 1, 2)"),
        (3, [(0, 1, 2, 1.0), (0, 1, 2, 2.0), (0, 9, 0, 1.0)], ValueError,
         "conflicting entries for (0, 1, 2)"),
        (3, [(0, 9, 0, 1.0), (0, 1, 2, 1.0), (0, 1, 2, 2.0)], DimensionMismatch,
         "bracket index out of range: (0, 9, 0)"),
        (3, [(0, 1, 2, 1.0), (2, 2, 1, 1.0), (0, 1, 2, 2.0)], ValueError, "[e2, e2] must vanish"),
        (3, {(0, 1, 2): 1.0, (1, 0, 2): 1.0}, ValueError, "antisymmetry violated at (0, 1, 2)"),
        (4, [(2, 3, 0, 1.0), (0, 1, 2, 1.0), (1, 0, 2, 1.0), (3, 2, 0, 1.0)], ValueError,
         "antisymmetry violated at (2, 3, 0)"),
        (3, [(0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 2.0), (0, 2, 0, 1.0)], ValueError,
         "Jacobi identity fails: residual 1.000e+00"),
    ], ids=["range", "negative", "diagonal", "conflict", "late conflict", "conflict first",
            "range first", "diagonal first", "antisymmetry", "first antisymmetry", "jacobi"])
    def test_first_fault_in_entry_order(self, dim, brackets, error, message):
        with pytest.raises(error, match=re.escape(message) + "$"):
            LieAlgebra(dim, brackets)

    def test_indices_truncate_and_generators_are_read(self):
        cyclic = [(i, (i + 1) % 3, (i + 2) % 3, 1.0) for i in range(3)]
        g = LieAlgebra(3, (row for row in cyclic))
        truncated = LieAlgebra(3, [(0.7, 1.2, 2.9, 1.0)] + cyclic[1:])
        assert upper_entries(truncated) == upper_entries(g)
        assert upper_entries(LieAlgebra(3, {})) == ()

    def test_rows_of_four(self):
        with pytest.raises(ValueError, match="brackets must be"):
            LieAlgebra(3, [(0, 1, 2)] * 4)


class TestMatrixAlgebras:
    def test_not_closed_in_a_later_block(self):
        # the pairs are expanded in blocks of 455 here; [m10, m66] is pair 670
        mats = list(so(12).matrices) + [np.diag(np.arange(12.0))]
        with pytest.raises(NotClosed, match=re.escape(
                "[m10, m66] leaves the span: residual 1.556e+01")):
            from_matrix_algebra(mats)

    def test_dependent_generators(self):
        gens = su_generators(3, 3)
        with pytest.raises(ValueError, match="^generators are linearly dependent$"):
            from_matrix_algebra(gens + [gens[0] + gens[5]])

    def test_su11_peak_memory(self):
        tracemalloc.start()
        try:
            g = su(11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * g.tensor.nbytes

    def test_realify_matches_the_block_layout(self):
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(4, 3, 5)) + 1j * rng.normal(size=(4, 3, 5))
        for m, got in zip(stack, realify(stack)):
            want = np.block([[m.real, -m.imag], [m.imag, m.real]])
            assert np.array_equal(realify(m), want)
            assert np.array_equal(got, want)

    def test_quaternion_blocks_match_kron(self):
        a, b, c, d = np.random.default_rng(6).normal(size=(4, 3, 3))
        one, qi = np.eye(2, dtype=complex), np.array([[1j, 0], [0, -1j]])
        qj, qk = np.array([[0, 1], [-1, 0]], dtype=complex), np.array([[0, 1j], [1j, 0]])
        want = np.kron(a, one) + np.kron(b, qi) + np.kron(c, qj) + np.kron(d, qk)
        assert np.array_equal(quaternion_to_complex(a, b, c, d), want)

    @pytest.mark.parametrize("n, size", [(2, 2), (3, 4), (5, 5)])
    def test_su_generators_match_the_loop(self, n, size):
        want = []
        for p in range(n):
            for q in range(p + 1, n):
                e = np.zeros((size, size), dtype=complex)
                e[p, q], e[q, p] = 1.0, -1.0
                want.append(e)
                e = np.zeros((size, size), dtype=complex)
                e[p, q] = e[q, p] = 1j
                want.append(e)
        for p in range(n - 1):
            e = np.zeros((size, size), dtype=complex)
            e[p, p], e[p + 1, p + 1] = 1j, -1j
            want.append(e)
        got = su_generators(n, size)
        assert len(got) == len(want)
        assert all(np.array_equal(g, realify(w)) for g, w in zip(got, want))

    @pytest.mark.parametrize("shape", [(7, 4), (9, 5), (3, 6)])
    def test_null_space_spans_the_full_svd_kernel(self, shape):
        rng = np.random.default_rng(shape[0])
        a = rng.normal(size=(shape[0], 2)) @ rng.normal(size=(2, shape[1]))
        _, _, vh = np.linalg.svd(a, full_matrices=True)
        want = vh[2:].T
        got = null_space(a)
        assert got.shape == want.shape
        assert np.max(np.abs(got @ got.T - want @ want.T)) < 1e-12


SCALES = [10.0 ** e for e in range(-12, 13)]


@pytest.fixture(scope="module")
def unit_scale_models():
    return {"flag": flag_manifold().model, "berger": berger_at_scale(1.0)}


def berger_at_scale(t):
    """berger:n=3,s=0.7 with the trace form of its base scaled by t."""
    base, h = _berger_base(3, 1)
    return extend_fibered(build_triple(base.g, base.h_basis, base.B.scaled(t)), h, 0.7).model


def relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestScaleFreeConstruction:
    @pytest.mark.parametrize("t", SCALES)
    def test_scaled_form_gives_the_rescaled_model(self, unit_scale_models, t):
        for name, model in (("flag", flag_manifold(-t / 12.0).model),
                            ("berger", berger_at_scale(t))):
            want = rescale_model(unit_scale_models[name], t)
            assert relative_error(model.tau, want.tau) <= 1e-12, name
            assert relative_error(model.rbar, want.rbar) <= 1e-12, name

    @pytest.mark.parametrize("t", [1e-12, 1.0, 1e10])
    def test_bad_forms_fail_at_any_scale(self, t):
        g = su(2)
        bad = BilinearForm(t * np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(NonInvariantForm, match=re.escape(
                "B is not invariant: residual %.3e" % bad.invariance_residual(g))):
            build_triple(g, np.zeros((3, 0)), bad)
        with pytest.raises(IndefiniteMetric, match="^B restricted to m is not positive definite$"):
            build_triple(g, np.zeros((3, 0)), minus_half_trace(g).scaled(-t))
        with pytest.raises(IndefiniteMetric, match="^B restricted to m is not positive definite$"):
            build_triple(g, np.zeros((3, 0)), minus_half_trace(g).scaled(t),
                         m_basis=np.diag([1.0, 1.0, 0.0]) / np.sqrt(t))
        pair = direct_sum(su(2), su(2))
        half = np.zeros((6, 6))
        half[:3, :3] = t * minus_half_trace(su(2)).matrix
        with pytest.raises(NonInvariantForm, match="^B is degenerate on g$"):
            build_triple(pair, np.zeros((6, 0)), BilinearForm(half))
        with pytest.raises(DegenerateRestriction,
                           match="^vector has non-positive B-norm .* during Gram-Schmidt$"):
            orthonormalize(np.array([[1.0, 2.0], [0.0, 0.0]]), BilinearForm(t * np.eye(2)))
        with pytest.raises(DegenerateRestriction,
                           match="^B restricts degenerately to the subspace$"):
            orthocomplement(so(3), np.eye(3)[:, :1], BilinearForm(t * np.diag([0.0, 1.0, 1.0])))

    def test_forms_of_mixed_scale_are_not_degenerate(self):
        # su(2) + su(2) with the second factor's form 1e-12 times the first:
        # each row has its own scale, and neither is degenerate
        pair = direct_sum(su(2), su(2))
        form = np.zeros((6, 6))
        form[:3, :3] = minus_half_trace(su(2)).matrix
        form[3:, 3:] = 1e-12 * minus_half_trace(su(2)).matrix
        h = np.zeros((6, 3))
        h[:3, :], h[3:, :] = np.eye(3), np.eye(3)
        model = to_model(build_triple(pair, h, BilinearForm(form)))
        assert model.n == 3 and np.all(np.isfinite(model.tau))

    def test_small_forms_orthonormalize(self):
        q = orthonormalize(np.eye(3)[:, :2] + 0.5, BilinearForm(1e-12 * np.eye(3)))
        np.testing.assert_allclose(1e-12 * q.T @ q, np.eye(2), atol=1e-14)
        comp = orthocomplement(so(3), np.eye(3)[:, :1], BilinearForm(1e-12 * np.eye(3)))
        assert comp.shape == (3, 2)


def test_catalog_models_are_built_once_per_triple(monkeypatch):
    # the two extensions and their base, each model kept on its triple
    built = []
    real = reductive.to_model

    def counting(triple):
        built.append(triple)
        return real(triple)

    monkeypatch.setattr(reductive, "to_model", counting)
    paper_checks.berger_consistency(2, 0.5)
    assert len(built) == len({id(triple) for triple in built}) == 3
