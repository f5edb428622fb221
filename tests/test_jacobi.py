"""Derivation calculus, linear Jacobi relations, trace-free projections.

Independent expected values: the Heisenberg models (curvature pinned to
classical values in test_reductive) carry the relation lambda^3 + c^2 lambda;
symmetric pairs carry lambda; the 6-dim torsion with unit spectral value has
derivation minimal polynomial lambda (lambda^2 + 1/4)(lambda^2 + 1).
"""

import itertools

import numpy as np
import pytest
from conftest import (cp2_triple, heisenberg_closed_form,
                      heisenberg_transvection, reference_jacobi_operator,
                      round_three_sphere, unit_samples)
from hypothesis import given, settings
from hypothesis import strategies as st
from paper_checks import trace_free_part

from reductive_lab import catalog, jacobi
from reductive_lab.algebra import (RESIDUAL_TOL, Polynomial, operator_on_symmetric,
                                   skew_spectral_decomposition)
from reductive_lab.catalog import entries, entry
from reductive_lab.jacobi import (InsufficientSamples, JacobiFamily,
                                  PolarizationRankDeficient, check_ljr,
                                  component_split, isotropy_invariance_check,
                                  minimal_ljr, sample_vectors, t_apply,
                                  universal_jr, verify_twistor)
from reductive_lab.reductive import (InfinitesimalModel, jacobi_operator,
                                     ricci, scalar_curvature, to_model)


def nk_type_tau():
    """The 6-dim torsion form with components 135, -146, -236, -245.

    For every unit X the operator -tau_X^2 has eigenvalues {0,0,1,1,1,1}.
    """
    tau = np.zeros((6, 6, 6))
    for i, j, k, s in [(0, 2, 4, 1.0), (0, 3, 5, -1.0),
                       (1, 2, 5, -1.0), (1, 3, 4, -1.0)]:
        for (a, b, c), sign in zip(
                itertools.permutations((i, j, k)),
                [1.0, -1.0, -1.0, 1.0, 1.0, -1.0]):
            tau[a, b, c] = s * sign
    return tau


def nk_tau_model():
    return InfinitesimalModel(nk_type_tau(), np.zeros((6, 6, 6, 6)))


def heis_family(n=1, c=1.0):
    return JacobiFamily(heisenberg_closed_form(n, c))


def polarized_jacobi_tensor(model):
    """Full Sym^2 x Sym^2 tensor of the quadratic map X -> R_0(X)."""
    n = model.n
    t = np.zeros((n, n, n, n))
    singles = [jacobi_operator(model, e) for e in np.eye(n)]
    for a in range(n):
        t[a, a] = singles[a]
        for b in range(a + 1, n):
            x = np.zeros(n)
            x[a] = x[b] = 1.0
            mixed = 0.5 * (jacobi_operator(model, x) - singles[a] - singles[b])
            t[a, b] = t[b, a] = mixed
    return t


class TestTApply:
    def test_identity_and_commuting_give_zero(self):
        model = heisenberg_closed_form(1, 1.0)
        x = np.array([0.6, 0.0, 0.8])
        np.testing.assert_allclose(t_apply(model, x, np.eye(3)),
                                   np.zeros((3, 3)), atol=1e-14)
        t = model.tau_matrix(x)
        np.testing.assert_allclose(t_apply(model, x, -t @ t),
                                   np.zeros((3, 3)), atol=1e-14)

    def test_linear_in_s_and_x(self):
        model = heisenberg_closed_form(2, 1.5)
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=5), rng.normal(size=5)
        s1 = rng.normal(size=(5, 5))
        s1 = s1 + s1.T
        s2 = rng.normal(size=(5, 5))
        s2 = s2 + s2.T
        np.testing.assert_allclose(
            t_apply(model, x, 2.0 * s1 - s2),
            2.0 * t_apply(model, x, s1) - t_apply(model, x, s2), atol=1e-12)
        np.testing.assert_allclose(
            t_apply(model, x + y, s1),
            t_apply(model, x, s1) + t_apply(model, y, s1), atol=1e-12)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_trace_free(self, seed):
        model = heisenberg_closed_form(1, 2.0)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=3)
        s = rng.normal(size=(3, 3))
        s = s + s.T
        assert abs(np.trace(t_apply(model, x, s))) < 1e-12 * max(
            1.0, float(np.abs(s).max()))

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_derivation_minimal_polynomial_on_nk_torsion(self, seed):
        # unit spectral value: blocks 1/2 (dim 8) and 1 (dim 6), kernel dim 7
        model = nk_tau_model()
        if seed is None:
            x = np.eye(6)[0]
        else:
            x = unit_samples(6, 1, seed=seed)[0]
        mat = operator_on_symmetric(lambda s: t_apply(model, x, s), 6)
        spec = skew_spectral_decomposition(mat)
        np.testing.assert_allclose([b.lam for b in spec.blocks], [0.5, 1.0],
                                   atol=1e-9)
        assert [b.basis.shape[1] for b in spec.blocks] == [8, 6]
        assert spec.zero_space.shape[1] == 7
        minimal = Polynomial([0.0, 1.0])
        for b in spec.blocks:
            minimal = minimal * Polynomial([b.lam ** 2, 0.0, 1.0])
        np.testing.assert_allclose(minimal.coefficients,
                                   [0.0, 0.25, 0.0, 1.25, 0.0, 1.0],
                                   atol=1e-9)


class TestScd:
    def test_k_zero_is_jacobi_operator(self):
        fam = heis_family(2, 1.0)
        x = unit_samples(5, 1, seed=9)[0]
        np.testing.assert_allclose(fam.operators(x, 0)[0],
                                   reference_jacobi_operator(fam.model, x), atol=1e-14)

    def test_symmetric_pair_has_flat_derivative(self):
        fam = JacobiFamily(to_model(cp2_triple()))
        for x in unit_samples(4, 6, seed=2):
            np.testing.assert_allclose(fam.operators(x, 1)[1], np.zeros((4, 4)),
                                       atol=1e-12)

    @pytest.mark.parametrize("c", [2.0, -1.0, 0.5])
    def test_degree_homogeneity(self, c):
        fam = heis_family(2, 1.3)
        x = unit_samples(5, 1, seed=4)[0]
        for k in range(4):
            base = fam.operators(x, k)[k]
            scaled = fam.operators(c * x, k)[k]
            np.testing.assert_allclose(scaled, c ** (k + 2) * base,
                                       rtol=1e-10, atol=1e-10)

    def test_derivatives_are_trace_free(self):
        fam = heis_family(1, 1.0)
        x = unit_samples(3, 1, seed=5)[0]
        for k in range(1, 5):
            assert abs(np.trace(fam.operators(x, k)[k])) < 1e-12


class TestCheckLjr:
    def test_heisenberg_relation(self):
        for c in [1.0, 2.0]:
            fam = heis_family(1, c)
            p = Polynomial([0.0, c ** 2, 0.0, 1.0])
            assert check_ljr(fam, p, samples=32) < 1e-10

    def test_wrong_coefficient_is_rejected(self):
        fam = heis_family(1, 1.0)
        assert check_ljr(fam, Polynomial([0.0, 2.0, 0.0, 1.0]),
                         samples=32) > 0.1

    def test_symmetric_pair_first_derivative(self):
        fam = JacobiFamily(to_model(cp2_triple()))
        assert check_ljr(fam, Polynomial([0.0, 1.0]), samples=16) < 1e-12

    def test_requires_monic(self):
        fam = heis_family(1, 1.0)
        with pytest.raises(ValueError):
            check_ljr(fam, Polynomial([0.0, 1.0, 0.0, 2.0]), samples=8)


class TestComponentSplit:
    def test_identity_splits_into_diagonal_parts(self):
        model = heisenberg_closed_form(1, 1.0)
        spec = skew_spectral_decomposition(model.tau_matrix(np.eye(3)[0]))
        parts = component_split(spec, np.eye(3))
        assert np.linalg.norm(parts["0,1"]) < 1e-12
        assert np.linalg.norm(parts["1,1:(2,0)+(0,2)"]) < 1e-12
        np.testing.assert_allclose(parts["0,0"] + parts["1,1:(1,1)"],
                                   np.eye(3), atol=1e-12)

    def test_heisenberg_jacobi_components(self):
        c = 1.5
        model = heisenberg_closed_form(1, c)
        x = np.eye(3)[0]
        spec = skew_spectral_decomposition(model.tau_matrix(x))
        assert [b.lam for b in spec.blocks] == pytest.approx([c])
        parts = component_split(spec, jacobi_operator(model, x))
        # R_0(X) kills X, so the cross part with the kernel vanishes
        assert np.linalg.norm(parts["0,1"]) < 1e-12
        assert np.linalg.norm(parts["1,1:(1,1)"]) > 0.1
        assert np.linalg.norm(parts["1,1:(2,0)+(0,2)"]) > 0.1

    def test_derivation_eigenvalue_quartering(self):
        # nonzero eigenvalues of -T_X^2 are quarter those of -(tau_X star)^2
        for model, x in [(heisenberg_closed_form(1, 2.0), np.eye(3)[0]),
                         (nk_tau_model(), unit_samples(6, 1, seed=8)[0])]:
            spec = skew_spectral_decomposition(model.tau_matrix(x))
            lams = [b.lam for b in spec.blocks]
            expected = set()
            for lam in lams:
                expected.add(lam ** 2 / 4.0)
            for lk, ll in itertools.combinations_with_replacement(lams, 2):
                expected.add((ll - lk) ** 2 / 4.0)
                expected.add((ll + lk) ** 2 / 4.0)
            mat = operator_on_symmetric(lambda s: t_apply(model, x, s),
                                        model.n)
            eigs = np.linalg.eigvalsh(-(mat @ mat))
            nonzero = sorted(set(np.round(e, 8) for e in eigs if e > 1e-8))
            allowed = sorted(v for v in expected if v > 1e-8)
            for e in nonzero:
                assert min(abs(e - v) for v in allowed) < 1e-8


class TestMinimalLjr:
    def test_round_sphere_is_symmetric_verdict(self):
        verdict = minimal_ljr(JacobiFamily(to_model(round_three_sphere())))
        assert verdict.exists
        np.testing.assert_allclose(verdict.polynomial.coefficients, [0.0, 1.0],
                                   atol=1e-12)
        assert verdict.max_residual < 1e-10

    def test_symmetric_pair_verdict(self):
        verdict = minimal_ljr(JacobiFamily(to_model(cp2_triple())))
        assert verdict.exists
        assert verdict.polynomial.degree == 1
        assert verdict.eigen_structure["block_count"] == 0

    @pytest.mark.parametrize("n,c", [(1, 1.0), (1, 2.0), (2, 1.0)])
    def test_heisenberg_minimal_polynomial(self, n, c):
        fam = heis_family(n, c)
        verdict = minimal_ljr(fam)
        assert verdict.exists
        np.testing.assert_allclose(verdict.polynomial.coefficients,
                                   [0.0, c ** 2, 0.0, 1.0], rtol=1e-8)
        assert verdict.max_residual < 1e-10
        # mixed directions for n=2 add a sample-dependent block whose
        # components all vanish; the constant block sits at c * |X|
        assert verdict.eigen_structure["lambda_mean"][-1] == pytest.approx(c)
        assert verdict.eigen_structure["factors"] == pytest.approx([c ** 2])
        # minimality: the quadratic factor cannot be dropped
        assert check_ljr(fam, Polynomial([0.0, 1.0]), samples=16) > 0.1

    def test_structural_invariants(self):
        fam = heis_family(1, 1.0)
        verdict = minimal_ljr(fam)
        coeffs = verdict.polynomial.coefficients
        assert coeffs[0] == 0.0
        even = coeffs[1::2]
        assert all(a > 0 for a in even)
        odd = coeffs[2::2]
        assert all(abs(a) < 1e-12 for a in odd)
        assert scalar_curvature(fam.model) != pytest.approx(0.0)
        assert (verdict.polynomial.degree - 1) % 2 == 0

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            minimal_ljr(heis_family(1, 1.0), samples=unit_samples(3, 4))

    def test_resamples_when_a_tiny_block_is_lost(self):
        # one sample splits off a block with mu < gap_tol, which merges into
        # the kernel; the split must resample instead of aborting
        fam = JacobiFamily(entry("heisenberg:n=8,c=0.604").build())
        verdict = minimal_ljr(fam, samples=64, seed=5)
        assert verdict.exists
        np.testing.assert_allclose(verdict.polynomial.coefficients,
                                   [0.0, 0.604 ** 2, 0.0, 1.0], atol=1e-9)


class TestUniversalJr:
    def test_volume_torsion_degree_three(self):
        fam = JacobiFamily(to_model(round_three_sphere()))
        p = universal_jr(fam, np.eye(3)[0])
        np.testing.assert_allclose(p.coefficients, [0.0, 4.0, 0.0, 1.0], atol=1e-9)

    def test_symmetric_pair_power(self):
        fam = JacobiFamily(to_model(cp2_triple()))
        p = universal_jr(fam, unit_samples(4, 1, seed=6)[0])
        assert p.degree == 6
        np.testing.assert_allclose(p.coefficients[:6], np.zeros(6), atol=1e-12)

    def test_odd_coefficients_vanish(self):
        fam = heis_family(2, 1.0)
        for x in unit_samples(5, 4, seed=7):
            p = universal_jr(fam, x)
            assert p.degree == 10
            assert max(abs(a) for a in p.coefficients[1::2]) < 1e-10

    @pytest.mark.parametrize("ident, scale", [
        *(("heisenberg:n=%d,c=%s" % (n, c), 1.0) for n in (6, 7, 8) for c in ("1", "1.3")),
        ("berger:n=7,s=1", 1.0), ("heisenberg:n=12,c=1", 1.0),
        *((ident, s) for ident in ("heisenberg:n=4,c=1.3", "nk:flag") for s in (1e-6, 1e6)),
    ])
    def test_matches_determinant_oracle(self, ident, scale):
        # p(t) = det(tI - L), L the matrix of T_X on Sym^2 of the complement
        # of X; tI - L is normal with singular values >= t, so slogdet is
        # accurate at every degree (up to C(25, 2) = 300 here)
        model = catalog.rescale_model(entry(ident).build(), scale)
        fam = JacobiFamily(model)
        for x in unit_samples(model.n, 2, seed=11):
            p = universal_jr(fam, x)
            q = np.linalg.svd(x[None, :])[2][1:].T
            tau = q.T @ model.tau_matrix(x) @ q
            l = operator_on_symmetric(lambda s: 0.5 * (s @ tau - tau @ s), model.n - 1)
            for t in np.array([0.3, 1.0, 2.0]) / np.sqrt(scale):
                sign, logdet = np.linalg.slogdet(t * np.eye(len(l)) - l)
                value = np.polynomial.polynomial.polyval(t, p.coefficients)
                assert abs(value / (sign * np.exp(logdet)) - 1) <= 1e-10


class TestIsotropyInvariance:
    def test_norm_is_invariant(self):
        trip = cp2_triple()
        assert isotropy_invariance_check(
            trip, lambda x: float(x @ x), samples=8) < 1e-12

    def test_coordinate_function_is_not(self):
        trip = cp2_triple()
        assert isotropy_invariance_check(
            trip, lambda x: float(x[0]), samples=8) > 0.1

    def test_universal_coefficients_are_invariant(self):
        trip = heisenberg_transvection(1, 1.0)
        fam = JacobiFamily(to_model(trip))
        for index in [1, 3]:
            deviation = isotropy_invariance_check(
                trip, lambda x: float(universal_jr(fam, x).coefficients[index]),
                samples=6)
            assert deviation < 1e-8


class TestTraceFreePart:
    def test_pure_metric_terms_project_to_zero(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=(3, 3))
        s = s + s.T
        t = np.einsum("ab,uv->abuv", np.eye(3), s)
        out = trace_free_part(t, 0)
        assert np.linalg.norm(out) < 1e-10 * np.linalg.norm(t)
        mixed = np.einsum("au,bv->abuv", np.eye(3), s)
        mixed = mixed + mixed.transpose(1, 0, 2, 3)
        mixed = 0.5 * (mixed + mixed.transpose(0, 1, 3, 2))
        out = trace_free_part(mixed, 0)
        assert np.linalg.norm(out) < 1e-10 * np.linalg.norm(mixed)

    def test_idempotent_and_recontraction_free(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=(4, 4, 4, 4))
        t = t + t.transpose(1, 0, 2, 3)
        t = t + t.transpose(0, 1, 3, 2)
        out = trace_free_part(t, 0)
        np.testing.assert_allclose(trace_free_part(out, 0), out, atol=1e-9)
        assert np.abs(np.einsum("aauv->uv", out)).max() < 1e-8
        assert np.abs(np.einsum("abuu->ab", out)).max() < 1e-8
        assert np.abs(np.einsum("abav->bv", out)).max() < 1e-8

    def test_constant_curvature_is_pure_metric(self):
        t = polarized_jacobi_tensor(to_model(round_three_sphere()))
        assert np.linalg.norm(trace_free_part(t, 0)) < 1e-9 * np.linalg.norm(t)

    def test_einstein_space_reconstruction(self):
        model = to_model(cp2_triple())
        t = polarized_jacobi_tensor(model)
        out = trace_free_part(t, 0)
        assert np.linalg.norm(out) > 0.1
        # removed part carries all the trace data of the original
        removed = t - out
        np.testing.assert_allclose(np.einsum("aauv->uv", removed),
                                   np.einsum("aauv->uv", t), atol=1e-9)
        np.testing.assert_allclose(np.einsum("abuu->ab", removed),
                                   np.einsum("abuu->ab", t), atol=1e-9)


def random_curvature_model(n, seed):
    """Generic torsion plus a tensor with the usual curvature symmetries.

    Gives a valid operator family (symmetric, kills the direction) with no
    extra structure, so its trace-free parts must not vanish.
    """
    rng = np.random.default_rng(seed)
    r = rng.normal(size=(n, n, n, n))
    r = r - r.transpose(1, 0, 2, 3)
    r = r - r.transpose(0, 1, 3, 2)
    r = r + r.transpose(2, 3, 0, 1)
    raw = rng.normal(size=(n, n, n))
    tau = np.zeros_like(raw)
    for perm in itertools.permutations(range(3)):
        sgn = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sgn = -sgn
        tau += sgn * raw.transpose(perm)
    return InfinitesimalModel(tau, r.transpose(1, 0, 3, 2))


class TestVerifyTwistor:
    def test_symmetric_pair_vanishes(self):
        fam = JacobiFamily(to_model(cp2_triple()))
        assert verify_twistor(fam, 0) == 0.0

    def test_round_sphere_vanishes(self):
        fam = JacobiFamily(to_model(round_three_sphere()))
        assert verify_twistor(fam, 0) == 0.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_relation_implies_twistor_vanishing(self, n):
        assert verify_twistor(heis_family(n, 1.0), 2) < 1e-7

    def test_generic_model_does_not_vanish(self):
        fam = JacobiFamily(random_curvature_model(4, 0))
        assert verify_twistor(fam, 0) > 0.1
        assert verify_twistor(fam, 1) > 0.1

    @pytest.mark.parametrize("ident", ["neg:sp2-sp1", "np:v1"])
    def test_scale_free(self, ident):
        # the zero test follows the model's curvature scale, so the negative
        # control is not certified trace-free at a large metric scale
        model = entry(ident).build()
        want = [verify_twistor(JacobiFamily(model), d) for d in range(3)]
        for t in (1e-12, 1e-6, 1e4, 1e6, 1e12):
            family = JacobiFamily(catalog.rescale_model(model, t))
            got = [verify_twistor(family, d) for d in range(3)]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg="t = %g" % t)

    def test_unsupported_order(self):
        fam = heis_family(1, 1.0)
        with pytest.raises(ValueError):
            verify_twistor(fam, 6)

    def test_polarization_rank_check(self):
        class Broken(JacobiFamily):
            def stack(self, xs, k, t=None):
                xs = np.asarray(xs, dtype=float).reshape(-1, self.n)
                shrink = 1.0 + np.sum(xs * xs, axis=1)
                return super().stack(xs, k, t) / shrink[:, None, None, None]

        fam = Broken(heisenberg_closed_form(1, 1.0))
        with pytest.raises(PolarizationRankDeficient):
            verify_twistor(fam, 1)


class TestSamplePlan:
    def test_deterministic_and_unit(self):
        a = sample_vectors(5, count=16, seed=3)
        b = sample_vectors(5, count=16, seed=3)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(np.linalg.norm(a, axis=1),
                                   np.ones(len(a)), atol=1e-12)
        assert len(a) == 16 + 5 + 10

    def test_curvature_term_is_rbar_part(self):
        model = heisenberg_closed_form(1, 1.0)
        x = unit_samples(3, 1, seed=11)[0]
        t = model.tau_matrix(x)
        np.testing.assert_allclose(
            model.curvature_term(x) - 0.25 * (t @ t),
            reference_jacobi_operator(model, x), atol=1e-12)


def random_orthogonal(n, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def rotated(model, q):
    """The model in the orthonormal frame e'_i = sum_k q[k, i] e_k, where
    a vector x has coordinates q^T x."""
    tau = np.einsum("abc,ai,bj,ck->ijk", model.tau, q, q, q)
    rbar = np.einsum("abcd,ai,bj,ck,dl->ijkl", model.rbar, q, q, q, q)
    return InfinitesimalModel(tau, rbar)


@pytest.fixture(scope="module")
def fixed_models():
    return {e.name: e.build() for e in entries()}


class TestFrameIndependence:
    """R_0 and the detected relation do not depend on the orthonormal frame."""

    @pytest.mark.parametrize("name", [e.name for e in entries()])
    def test_jacobi_operator_is_equivariant(self, fixed_models, name):
        model = fixed_models[name]
        q = random_orthogonal(model.n, 0)
        turned = rotated(model, q)
        xs = sample_vectors(model.n, count=8, seed=5)
        got = jacobi_operator(turned, xs @ q)
        want = q.T @ jacobi_operator(model, xs) @ q
        err = np.linalg.norm(got - want, axis=(1, 2))
        assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=(1, 2)))
        assert np.shares_memory(model.rbar, model._curvature)
        assert np.shares_memory(turned.rbar, turned._curvature)

    @pytest.mark.parametrize("name", ["nk:flag", "np:v3", "berger:n=2,s=1"])
    def test_relation_is_frame_independent(self, fixed_models, name):
        model = fixed_models[name]
        base = minimal_ljr(JacobiFamily(model))
        turned = minimal_ljr(JacobiFamily(rotated(model, random_orthogonal(model.n, 1))))
        assert turned.exists and base.exists
        assert turned.eigen_structure["block_count"] == base.eigen_structure["block_count"]
        assert turned.polynomial.degree == base.polynomial.degree
        diff = turned.polynomial.coefficients - base.polynomial.coefficients
        assert np.max(np.abs(diff)) < 1e-7
        assert turned.max_residual < 1e-8


class TestScaleFreeResidual:
    """The relation residual |sum a_k R_k| / sum |a_k| s_k does not depend on
    the metric scale or the orthonormal frame, and it resolves a 1e-6
    coefficient error."""

    @pytest.mark.parametrize("name", [e.name for e in entries()])
    def test_verdict_survives_rescaling_and_rotation(self, fixed_models, name):
        model = fixed_models[name]
        base = minimal_ljr(JacobiFamily(model))
        turned = rotated(model, random_orthogonal(model.n, 2))
        for t in np.logspace(-4, 4, 9):
            for frame in (model, turned):
                got = minimal_ljr(JacobiFamily(catalog.rescale_model(frame, t)))
                self.assert_scaled(base, got, t)

    @pytest.mark.parametrize("name", ["nk:flag", "nk:cp3"])
    def test_factor_merge_is_relative(self, fixed_models, name):
        # at t = 1e6 the quintic's factors are 2.5e-7 and 1e-6: a merge bound
        # absolute below 1 joined them into a wrong cubic
        model = fixed_models[name]
        got = minimal_ljr(JacobiFamily(catalog.rescale_model(model, 1e6)))
        self.assert_scaled(minimal_ljr(JacobiFamily(model)), got, 1e6)

    @staticmethod
    def assert_scaled(base, got, t):
        """got is the verdict of base at metric scale t."""
        assert got.exists == base.exists, t
        if not base.exists:
            return
        deg = base.polynomial.degree
        assert got.polynomial.degree == deg
        assert got.max_residual < 1e-13
        scaled = got.polynomial.coefficients * t ** ((deg - np.arange(deg + 1)) / 2)
        diff = scaled - base.polynomial.coefficients
        assert np.max(np.abs(diff)) < 1e-7 * max(1.0, np.max(np.abs(scaled))), t

    def test_lowest_coefficient_error_fails_the_gate(self, fixed_models):
        checked = []
        for name, model in fixed_models.items():
            family = JacobiFamily(model)
            verdict = minimal_ljr(family)
            if not verdict.exists or verdict.polynomial.degree < 3:
                continue
            coefficients = np.array(verdict.polynomial.coefficients)
            coefficients[np.flatnonzero(coefficients)[0]] *= 1.0 + 1e-6
            assert check_ljr(family, Polynomial(coefficients)) > RESIDUAL_TOL, name
            checked.append(name)
        assert len(checked) == 10  # all but nk:s6, np:spin7-g2 and neg:sp2-sp1

    @pytest.mark.parametrize("n, c", [(4, 1.718), (6, 1.679), (8, 1.267), (8, 2.0)])
    def test_universal_relation_of_strong_heisenberg_torsion(self, n, c):
        family = JacobiFamily(catalog.heisenberg_model(n, c))
        x = sample_vectors(2 * n + 1, 1)[0]
        p = universal_jr(family, x)
        assert p.degree == (2 * n + 1) * n
        assert check_ljr(family, p, samples=x[None, :]) < 1e-12

    @pytest.mark.parametrize("t", [1e-10, 1e-12, 1e-14])
    def test_universal_relation_at_small_scale_does_not_overflow(self, t):
        # the terms and sizes of degree 36 reach 1e200 and more: their
        # squares overflowed in the norm, and the residual read inf
        model = catalog.rescale_model(entry("heisenberg:n=4,c=1.3").build(), t)
        assert universal_jr(JacobiFamily(model), sample_vectors(9, 1)[0]).degree == 36

    @pytest.mark.parametrize("name, turn", [("nk:flag", False), ("np:v3", False), ("np:v1", True)])
    def test_small_scale_models_build_and_stack(self, fixed_models, name, turn):
        model = fixed_models[name]
        if turn:
            model = rotated(model, random_orthogonal(model.n, 3))
        small = catalog.rescale_model(model, 1e-4)
        ops = JacobiFamily(small).stack(sample_vectors(small.n, count=8), 6)
        assert np.all(np.isfinite(ops))

    def test_omega_bounds_the_spectral_norm_of_tau(self, fixed_models):
        model = fixed_models["np:v3"]
        xs = sample_vectors(model.n, count=16)
        t = model.tau_matrix(xs)
        size = jacobi._sizes(jacobi_operator(model, xs), t, 1)
        spectral = np.linalg.norm(t, ord=2, axis=(1, 2))
        omega = size[:, 1] / size[:, 0]
        assert np.all(omega >= spectral * (1 - 1e-12))
        assert np.all(omega <= spectral * model.n ** (1 / 16) * (1 + 1e-12))
