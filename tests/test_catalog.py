"""Catalog entries against their pinned normalizations and family laws."""

import tracemalloc

import numpy as np
import pytest
import paper_checks
from conftest import berger_lie_route, cp2_triple, heisenberg_closed_form, heisenberg_transvection

from reductive_lab import catalog, vcp
from reductive_lab.algebra import Polynomial
from reductive_lab.jacobi import JacobiFamily, check_ljr, minimal_ljr
from reductive_lab.liealg import LieAlgebra, su
from reductive_lab.reductive import (
    InadmissibleS,
    IndefiniteMetric,
    build_triple,
    extend_fibered,
    ricci,
    scalar_curvature,
    to_model,
)

COEFF_TOL = 1e-7
RESIDUAL_TOL = 1e-8


def model_of(built) -> "InfinitesimalModel":
    return to_model(built) if not hasattr(built, "tau") else built


def verdict_of(model, **kw):
    return minimal_ljr(JacobiFamily(model), **kw)


@pytest.fixture(scope="module")
def registry():
    return {e.name: e for e in catalog.entries()}


@pytest.fixture(scope="module")
def built(registry):
    return {name: e.build() for name, e in registry.items()}


@pytest.fixture(scope="module")
def verdicts(built):
    return {name: verdict_of(m) for name, m in built.items()}


def poly_coeffs(verdict):
    assert verdict.exists
    return verdict.polynomial.coefficients


class TestNormalizationLemma:
    def test_nearly_kaehler_scal_is_thirty(self, built):
        for name in ("nk:flag", "nk:s3xs3", "nk:cp3", "nk:s6"):
            assert abs(scalar_curvature(built[name]) - 30.0) < 1e-9, name

    def test_nearly_parallel_scal_at_six_fifths(self):
        for build in (catalog.spin7_sphere, catalog.squashed_s7):
            m = to_model(build())
            assert abs(scalar_curvature(m) - 21.0 / 8.0) < 1e-9
        # np:v1 is at -1/30 Killing; -6/5 Killing scales the metric by 36
        m = catalog.rescale_model(to_model(catalog.v1_space()), 36.0)
        assert abs(scalar_curvature(m) - 21.0 / 8.0) < 1e-9
        # np:v3 is aw:n11,s=1.5 at -1/12 Killing; -6/5 Killing scales the metric by 72/5
        m = catalog.rescale_model(catalog.aloff_wallach_n11(1.5), 72.0 / 5.0)
        assert abs(scalar_curvature(m) - 21.0 / 8.0) < 1e-9

    def test_standard_np_forms_are_killing_multiples_of_the_preset(self, built):
        # -1/30 K = (1/36)(-6/5 K), so scal multiplies by 36; -1/12 K by 72/5
        assert abs(scalar_curvature(built["np:v1"]) - 36 * 21.0 / 8.0) < 1e-8
        assert abs(scalar_curvature(built["np:v3"]) - (72.0 / 5.0) * 21.0 / 8.0) < 1e-8

    def test_killing_form_of_su3_is_six_complex_traces(self):
        g = su(3)
        gram = catalog._matrix_gram(g)  # realified: twice the complex trace
        assert np.max(np.abs(g.killing_form().matrix - 3.0 * gram)) < 1e-9


class TestNearlyKaehler:
    def test_flag_at_one_sixth(self):
        v = verdict_of(to_model(catalog.flag_manifold(-1.0 / 6.0)))
        np.testing.assert_allclose(
            poly_coeffs(v), [0, 1.0 / 16, 0, 10.0 / 16, 0, 1], atol=COEFF_TOL)
        assert v.max_residual < RESIDUAL_TOL

    def test_flag_at_one_twelfth(self, verdicts):
        np.testing.assert_allclose(
            poly_coeffs(verdicts["nk:flag"]), [0, 0.25, 0, 1.25, 0, 1],
            atol=COEFF_TOL)

    def test_diagonal_s3xs3_reproduces_the_order4_polynomial(self, verdicts):
        # validates the diagonal-embedding choice for the triple product
        v = verdicts["nk:s3xs3"]
        np.testing.assert_allclose(poly_coeffs(v), [0, 0.25, 0, 1.25, 0, 1],
                                   atol=COEFF_TOL)
        assert v.max_residual < RESIDUAL_TOL

    def test_so5_quotient_coefficients(self, verdicts):
        np.testing.assert_allclose(
            poly_coeffs(verdicts["nk:cp3"]), [0, 0.25, 0, 1.25, 0, 1],
            atol=COEFF_TOL)

    def test_scal_parametrized_coefficients(self, built):
        # a2 = scal/24 and a4 = scal^2/3600 at any normalization
        models = [built["nk:flag"], built["nk:s3xs3"], built["nk:cp3"],
                  to_model(catalog.flag_manifold(-1.0 / 6.0))]
        for m in models:
            s = scalar_curvature(m)
            v = verdict_of(m)
            c = poly_coeffs(v)
            assert abs(c[3] - s / 24.0) < COEFF_TOL
            assert abs(c[1] - s ** 2 / 3600.0) < COEFF_TOL

    def test_s6_has_constant_curvature_and_degenerate_relation(self, built, verdicts):
        spread, _ = paper_checks.curvature_spread(built["nk:s6"])
        assert spread < 1e-9
        assert poly_coeffs(verdicts["nk:s6"]).tolist() == [0.0, 1.0]

    def test_rescaling_transforms_coefficients(self, built):
        # metric scaled by t: a_{2k} -> a_{2k} / t^k, both rescale routes agree
        direct = verdict_of(to_model(catalog.flag_manifold(-1.0 / 6.0)))
        scaled = verdict_of(catalog.rescale_model(built["nk:flag"], 2.0))
        np.testing.assert_allclose(poly_coeffs(scaled), poly_coeffs(direct),
                                   atol=COEFF_TOL)
        base = poly_coeffs(verdict_of(built["nk:flag"]))
        assert abs(scaled.polynomial.coefficients[3] - base[3] / 2.0) < COEFF_TOL
        assert abs(scaled.polynomial.coefficients[1] - base[1] / 4.0) < COEFF_TOL


class TestNearlyParallel:
    def test_v1_polynomial(self, verdicts):
        v = verdicts["np:v1"]
        np.testing.assert_allclose(poly_coeffs(v), [0, 1, 0, 1], atol=COEFF_TOL)
        assert v.max_residual < RESIDUAL_TOL

    def test_v3_coefficient(self, verdicts):
        np.testing.assert_allclose(poly_coeffs(verdicts["np:v3"]),
                                   [0, 0.4, 0, 1], atol=COEFF_TOL)

    def test_squashed_sphere_coefficient(self, verdicts):
        np.testing.assert_allclose(poly_coeffs(verdicts["np:squashed-s7"]),
                                   [0, 1.0 / 36.0, 0, 1], atol=COEFF_TOL)

    def test_spin7_is_round_but_satisfies_the_family_relation(self, built, verdicts):
        assert poly_coeffs(verdicts["np:spin7-g2"]).tolist() == [0.0, 1.0]
        family = JacobiFamily(built["np:spin7-g2"])
        p = Polynomial([0.0, 1.0 / 36.0, 0.0, 1.0])
        assert check_ljr(family, p) < RESIDUAL_TOL

    def test_family_law_from_scalar_curvature(self, built, verdicts):
        for name in ("np:squashed-s7", "np:v1", "np:v3"):
            s = scalar_curvature(built[name])
            assert abs(poly_coeffs(verdicts[name])[1] - 2.0 * s / 189.0) < COEFF_TOL

    def test_rescaled_to_target_scalar(self, built):
        for name in ("np:v1", "np:v3"):
            m = catalog.rescaled_to_scalar(built[name], 21.0 / 8.0)
            assert abs(scalar_curvature(m) - 21.0 / 8.0) < 1e-9
            v = verdict_of(m)
            np.testing.assert_allclose(poly_coeffs(v), [0, 1.0 / 36.0, 0, 1],
                                       atol=COEFF_TOL)

    def test_v1_isotropy_is_the_irreducible_so3(self):
        triple = catalog.v1_space()
        assert triple.h_basis.shape[1] == 3
        # ad(h) on m; its commutant is the kernel of M -> [ad h_i, M]
        ads = triple.m_component(triple.g.brackets(triple.h_basis, triple.m_basis))
        eye = np.eye(triple.dim_m)
        system = np.vstack([np.kron(a, eye) - np.kron(eye, a.T) for a in ads])
        sv = np.linalg.svd(system, compute_uv=False)
        assert int(np.sum(sv < 1e-9 * sv[0])) == 1

    def test_torsions_classify_as_the_seven_dim_type(self, built):
        for name in ("np:spin7-g2", "np:squashed-s7", "np:v1", "np:v3"):
            form = vcp.ThreeForm(built[name].tau)
            assert vcp.classify_gvcp(form) == vcp.G2_TYPE7, name


class TestNegativeCases:
    def test_sp2_sp1_has_no_relation(self, verdicts):
        v = verdicts["neg:sp2-sp1"]
        assert not v.exists
        assert v.polynomial is None
        fails = v.eigen_structure["failures"]
        assert fails
        for f in fails:
            assert f["eigenvalue_rel_std"] > 1e-3
            assert f["max_relnorm"] > 1e-6

    def test_su4_su3_relation_is_off_family(self, built, verdicts):
        v = verdicts["neg:su4-su3"]
        assert v.exists and v.polynomial.degree == 3
        a2 = poly_coeffs(v)[1]
        assert abs(a2 - 2.0 * scalar_curvature(built["neg:su4-su3"]) / 189.0) > 0.1

    def test_su4_su3_equals_the_unextended_family_member(self, verdicts):
        # same space as the positive-curvature family at n = 3, s = 0
        v = verdict_of(to_model(catalog.berger_total_space(3, 0.0)))
        np.testing.assert_allclose(poly_coeffs(v),
                                   poly_coeffs(verdicts["neg:su4-su3"]),
                                   atol=COEFF_TOL)
        np.testing.assert_allclose(poly_coeffs(v), [0, 8.0 / 3.0, 0, 1],
                                   atol=COEFF_TOL)

    def test_fixed_ids_are_built_as_their_family_members(self):
        for fixed, member, built in (
                ("neg:su4-su3", "berger:n=3,s=0", catalog.berger_model(3, 0.0)),
                ("np:v3", "aw:n11,s=1.5", catalog.aloff_wallach_n11(1.5))):
            got = catalog.entry(fixed).build()
            for want in (catalog.entry(member).build(), built):
                assert np.array_equal(got.tau, want.tau) and np.array_equal(got.rbar, want.rbar)
        # c^2 = 2(n+1)/(n|1+s|) at n = 3, s = 0
        c2 = catalog.torsion_block_eigenvalue(catalog.entry("neg:su4-su3").build())
        assert abs(c2 - 8.0 / 3.0) <= 1e-12 * c2


class TestBergerFamily:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_relation_and_torsion_constant(self, n, s):
        m = to_model(catalog.berger_total_space(n, s))
        assert m.n == 2 * n + 1
        c2 = catalog.torsion_block_eigenvalue(m)
        assert abs(c2 - 2.0 * (n + 1) / (n * (1.0 + s))) < 1e-9 * c2
        v = verdict_of(m)
        np.testing.assert_allclose(poly_coeffs(v), [0, c2, 0, 1],
                                   atol=COEFF_TOL * max(1.0, c2))
        assert v.max_residual < RESIDUAL_TOL

    @pytest.mark.parametrize("n", [2, 3])
    def test_round_parameter_degenerates(self, n):
        star = -0.5 * (n - 1) / n
        v = verdict_of(to_model(catalog.berger_total_space(n, star)))
        assert poly_coeffs(v).tolist() == [0.0, 1.0]

    def test_round_parameter_found_by_scan(self):
        found = paper_checks.round_parameter(
            lambda s: catalog.berger_total_space(2, s), -0.9, 1.5)
        assert abs(found - (-0.25)) < 1e-5

    @pytest.mark.parametrize("n,s", [(1, 1.0), (2, 1.0), (2, 0.5), (3, 2.0)])
    def test_circle_length_consistency(self, n, s):
        d = paper_checks.berger_consistency(n, s)
        assert abs(d["lhs"] - d["rhs"]) < 1e-10 * d["lhs"]

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_circle_length_consistency_up_to_dimension_21(self, n):
        d = paper_checks.berger_consistency(n, 1.0)
        assert abs(d["c2"] - 2.0 * (n + 1) / (n * 2.0)) < 1e-9 * d["c2"]
        assert abs(d["lhs"] - d["rhs"]) < 1e-10 * d["lhs"]

    @pytest.mark.parametrize("n,s,want", [
        # the values of the version that rebuilt each extended model
        (1, 1.0, {"c2": 1.9999999999999996, "r2": 0.5, "kappa": 4.0,
                  "lhs": 7.999999999999998, "rhs": 8.0}),
        (2, 1.0, {"c2": 1.5, "r2": 0.375, "kappa": 4.000000000000001,
                  "lhs": 6.0, "rhs": 6.000000000000003}),
        (3, 2.0, {"c2": 0.8888888888888893, "r2": 0.2222222222222222,
                  "kappa": 3.9999999999999933, "lhs": 3.555555555555557,
                  "rhs": 3.5555555555555434}),
    ])
    def test_consistency_builds_each_extended_model_once(self, monkeypatch, n, s, want):
        from reductive_lab import reductive
        dims = []

        def counted(triple):
            dims.append(triple.dim_m)
            return to_model(triple)
        monkeypatch.setattr(reductive, "to_model", counted)
        got = paper_checks.berger_consistency(n, s)
        # one model each for the member at s and the round member
        assert dims.count(2 * n + 1) == 2
        assert sorted(got) == sorted(want)
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-12 * abs(value), key

    def test_round_three_sphere_torsion_is_a_volume_multiple(self):
        m = to_model(catalog.berger_total_space(1, 0.0))
        tau = vcp.ThreeForm(m.tau)
        c = vcp.fit_vcp_multiple(tau)
        assert c is not None
        unit = m.tau / np.linalg.norm(m.tau)
        vol = vcp.volume_3form().values
        vol = vol / np.linalg.norm(vol)
        assert min(np.max(np.abs(unit - vol)), np.max(np.abs(unit + vol))) < 1e-12

    @pytest.mark.parametrize("s", [-1.5, -3.0])
    def test_hyperbolic_base_relation(self, s):
        m = berger_lie_route(2, s, -1).model
        c2 = catalog.torsion_block_eigenvalue(m)
        assert abs(c2 - abs(2.0 * 3 / (2 * (1.0 + s)))) < 1e-9 * c2
        v = verdict_of(m)
        np.testing.assert_allclose(poly_coeffs(v), [0, c2, 0, 1],
                                   atol=COEFF_TOL * max(1.0, c2))

    # at s = 0 the frame is the base m, then the fibre, as at every other s
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_normal_member_has_the_fibre_last(self, n):
        c2 = catalog.torsion_block_eigenvalue(catalog.berger_total_space(n, 0.0).model)
        assert abs(c2 - 2.0 * (n + 1) / n) <= 1e-12 * c2

    def test_admissibility_windows(self):
        with pytest.raises(InadmissibleS):
            catalog.berger_total_space(2, -2.0)
        with pytest.raises(InadmissibleS):
            berger_lie_route(2, 1.0, -1)
        with pytest.raises(InadmissibleS):
            catalog.berger_total_space(2, -1.0)


# (kappa, s) of the closed form against the Lie route, for every n = 1..10
ORACLE_CASES = [(1, 0.0), (1, 1.0), (1, 3.7), (1, -0.9), (-1, -1.1), (-1, -1.5), (-1, -7.0)]


class TestClosedFormBerger:
    """berger_model against the Lie route, on what does not depend on the
    orthonormal frame."""

    @pytest.mark.parametrize("kappa,s", ORACLE_CASES)
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_the_lie_route(self, n, kappa, s):
        closed, lie = catalog.berger_model(n, s, kappa), berger_lie_route(n, s, kappa).model
        scale = lie.curvature_scale
        assert abs(closed.curvature_scale - scale) <= 1e-12 * scale

        def spectrum(m):  # rbar as a symmetric operator on pairs
            return np.linalg.eigvalsh(m.rbar.reshape(m.n ** 2, m.n ** 2))
        assert np.max(np.abs(spectrum(closed) - spectrum(lie))) <= 1e-12 * scale
        norm = np.linalg.norm(lie.tau)
        assert abs(np.linalg.norm(closed.tau) - norm) <= 1e-12 * norm
        assert abs(scalar_curvature(closed) - scalar_curvature(lie)) <= 1e-12 * scale * n * n
        c2 = catalog.torsion_block_eigenvalue(lie)
        assert abs(catalog.torsion_block_eigenvalue(closed) - c2) <= 1e-12 * c2
        got, want = verdict_of(closed), verdict_of(lie)
        assert got.exists == want.exists
        np.testing.assert_allclose(poly_coeffs(got), poly_coeffs(want), rtol=0, atol=1e-9 * c2)

    @pytest.mark.parametrize("n,s,kappa", [(2, -2.0, 1), (2, 1.0, -1), (2, -1.0, 1),
                                           (0, 1.0, 1), (2, float("nan"), 1),
                                           (2, float("nan"), -1)])
    def test_rejects_what_the_lie_route_rejects(self, n, s, kappa):
        with pytest.raises(ValueError) as lie:
            berger_lie_route(n, s, kappa)
        with pytest.raises(ValueError) as closed:
            catalog.berger_model(n, s, kappa)
        assert (type(closed.value), str(closed.value)) == (type(lie.value), str(lie.value))

    @pytest.mark.parametrize("kappa", [2, 0, -2])
    def test_rejects_kappa_other_than_one_or_minus_one(self, kappa):
        with pytest.raises(ValueError, match="kappa must be 1 or -1, got %d" % kappa):
            catalog.berger_model(2, 1.0, kappa)

    def test_rejects_an_undefined_s(self):
        with pytest.raises(InadmissibleS, match="s = nan is outside the admissible range"):
            catalog.berger_model(2, float("nan"))

    def test_registry_builds_no_lie_algebra(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Lie algebra was built")
        monkeypatch.setattr(LieAlgebra, "__init__", refuse)
        for name in ("berger:n=2,s=1", "berger:n=3,s=-1.5,kappa=-1", "neg:su4-su3"):
            assert catalog.entry(name).build().triple is None, name
        with pytest.raises(AssertionError, match="a Lie algebra was built"):
            catalog.entry("nk:flag").build()

    def test_traced_peak_is_a_few_curvature_arrays(self):
        build = catalog.entry("berger:n=10,s=1").build
        tracemalloc.start()
        try:
            model = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * model.rbar.nbytes


class TestHeisenberg:
    @pytest.mark.parametrize("n,c", [(1, 1.0), (2, 1.0), (3, 2.0)])
    def test_matches_both_oracle_routes(self, n, c):
        m = catalog.heisenberg_model(n, c)
        closed = heisenberg_closed_form(n, c)
        np.testing.assert_allclose(m.tau, closed.tau, atol=1e-12)
        np.testing.assert_allclose(m.rbar, closed.rbar, atol=1e-12)
        group = to_model(heisenberg_transvection(n, c))
        sgn = np.ones(group.n)
        sgn[-1] = -1.0  # transvection basis orients the fiber oppositely
        tau = group.tau * sgn[:, None, None] * sgn[None, :, None] * sgn[None, None, :]
        rbar = (group.rbar * sgn[:, None, None, None] * sgn[None, :, None, None]
                * sgn[None, None, :, None] * sgn[None, None, None, :])
        np.testing.assert_allclose(m.tau, tau, atol=1e-10)
        np.testing.assert_allclose(m.rbar, rbar, atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_exact_polynomial(self, n, c):
        v = verdict_of(catalog.heisenberg_model(n, c))
        np.testing.assert_allclose(poly_coeffs(v), [0, c ** 2, 0, 1],
                                   atol=1e-10 * max(1.0, c ** 2))
        assert v.max_residual < 1e-10

    def test_central_ricci_positive(self):
        for n, c in [(1, 1.0), (2, 1.0), (3, 2.0)]:
            m = catalog.heisenberg_model(n, c)
            e = np.eye(m.n)[-1]
            assert abs(ricci(m, e) - n * c ** 2 / 2.0) < 1e-12

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            catalog.heisenberg_model(0, 1.0)
        with pytest.raises(ValueError):
            catalog.heisenberg_model(2, 0.0)

    def test_rescale_guards_scalar_sign(self):
        m = catalog.heisenberg_model(2, 1.0)
        assert scalar_curvature(m) < 0
        with pytest.raises(AssertionError):
            catalog.rescaled_to_scalar(m, 21.0 / 8.0)


class TestAloffWallach:
    def test_dimension_for_all_s(self):
        for s in (0.5, 1.5, 3.0, -0.5):
            assert catalog.aloff_wallach_n11(s).n == 7

    def test_cross_product_multiple_only_at_three_halves(self):
        for s in (0.5, 1.0, 2.0):
            tau = vcp.ThreeForm(catalog.aloff_wallach_n11(s).tau)
            assert vcp.fit_vcp_multiple(tau) is None
            assert vcp.classify_gvcp(tau) == vcp.NOT_GVCP
        tau = vcp.ThreeForm(catalog.aloff_wallach_n11(1.5).tau)
        c = vcp.fit_vcp_multiple(tau)
        assert c is not None and abs(c ** 2 - 2.5) < 1e-9

    def test_matches_the_killing_preset_at_three_halves(self, built, verdicts):
        m = catalog.aloff_wallach_n11(1.5)
        assert abs(scalar_curvature(m)
                   - scalar_curvature(built["np:v3"])) < 1e-9
        v = verdict_of(m)
        np.testing.assert_allclose(poly_coeffs(v),
                                   poly_coeffs(verdicts["np:v3"]),
                                   atol=COEFF_TOL)
        assert abs(np.linalg.norm(m.tau)
                   - np.linalg.norm(built["np:v3"].tau)) < 1e-9

    def test_invalid_parameters(self):
        with pytest.raises(vcp.InvalidS):
            catalog.aloff_wallach_n11(0.0)
        with pytest.raises(vcp.InvalidS):
            catalog.aloff_wallach_n11(-1.0)
        with pytest.raises(IndefiniteMetric):
            catalog.aloff_wallach_n11(-2.0)


class TestQuaternionicHopf:
    def test_three_dimensional_fiber_builds(self):
        g = catalog.sp(2)
        form = catalog.trace_multiple(g, -0.25)
        base = build_triple(g, np.eye(10)[:, :6], form)
        ext = extend_fibered(base, np.eye(10)[:, 3:6], 1.0)
        assert ext.dim_m == 7
        assert ext.g.dim == 13

    def test_round_member_and_window_prediction(self):
        star = paper_checks.round_parameter(paper_checks.quaternionic_hopf, -0.9, 2.0)
        assert abs(star + 0.5) < 1e-5
        m = to_model(paper_checks.quaternionic_hopf(star))
        spread, values = paper_checks.curvature_spread(m)
        assert spread < 1e-6
        r2_round = 1.0 / float(values.mean())

        g = catalog.sp(2)
        base = build_triple(g, np.eye(10)[:, :6],
                            catalog.trace_multiple(g, -0.25))
        spread_b, values_b = paper_checks.curvature_spread(to_model(base))
        assert spread_b < 1e-10
        kappa = float(values_b.mean())
        # fiber radius over base-fitting radius passes 4/3 at the boundary
        s_bound = 3.0 * kappa * r2_round * (1.0 + star) / 16.0 - 1.0
        assert abs(s_bound + 0.625) < 1e-4

    def test_positivity_scan_matches_the_boundary(self):
        rng = np.random.default_rng(7)
        pairs = []
        for _ in range(300):
            x = rng.normal(size=7)
            x /= np.linalg.norm(x)
            y = rng.normal(size=7)
            y -= (y @ x) * x
            y /= np.linalg.norm(y)
            pairs.append((x, y))

        def sampled_min(s):
            m = to_model(paper_checks.quaternionic_hopf(s))
            return min(paper_checks.sectional_curvature(m, x, y) for x, y in pairs)

        for s in (-0.55, 0.0, 1.0, 3.0):
            assert sampled_min(s) > 0, s
        for s in (-0.8, -0.66):
            assert sampled_min(s) < 0, s
        lo, hi = -0.66, -0.55
        for _ in range(8):
            mid = 0.5 * (lo + hi)
            if sampled_min(mid) < 0:
                lo = mid
            else:
                hi = mid
        # sampling can miss shallow negative directions, so the located
        # crossing sits at or below the true boundary -5/8
        assert -0.655 < lo < -0.6245


class TestTorsionBlock:
    def test_heisenberg_constant(self):
        m = catalog.heisenberg_model(2, 2.0)
        assert abs(catalog.torsion_block_eigenvalue(m) - 4.0) < 1e-12

    def test_rejects_vanishing_torsion(self):
        with pytest.raises(AssertionError):
            catalog.torsion_block_eigenvalue(to_model(cp2_triple()))

    @pytest.mark.parametrize("c", [1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6])
    def test_heisenberg_at_any_torsion_scale(self, c):
        got = catalog.torsion_block_eigenvalue(catalog.heisenberg_model(2, c))
        assert abs(got - c * c) <= 1e-12 * c * c

    @pytest.mark.parametrize("t", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12])
    def test_rescaled_berger_at_any_metric_scale(self, t):
        model = catalog.berger_total_space(2, 1.0).model
        want = catalog.torsion_block_eigenvalue(model) / t
        got = catalog.torsion_block_eigenvalue(catalog.rescale_model(model, t))
        assert abs(got - want) <= 1e-12 * want


class TestRegistry:
    def test_names_are_unique(self, registry):
        assert len(registry) == 13

    def test_expected_polynomials_reproduced(self, registry, verdicts):
        for name, e in registry.items():
            if e.expected is None:
                continue
            v = verdicts[name]
            assert v.exists, name
            got, want = (q.coefficients / q.coefficients[-1] for q in (v.polynomial, e.expected))
            assert got.shape == want.shape and np.max(np.abs(got - want)) < COEFF_TOL, name
            assert v.max_residual < RESIDUAL_TOL, name

    def test_every_model_is_validated_on_build(self, built):
        for name, m in built.items():
            assert m.n in (5, 6, 7), name

    def test_root_structure_across_catalog(self, built, verdicts):
        for name, v in verdicts.items():
            assert abs(scalar_curvature(built[name])) > 1e-6, name
            if not v.exists:
                continue
            c = v.polynomial.coefficients
            assert c[0] == 0.0, name
            odd = np.abs(np.asarray(c[2::2]))
            assert odd.size == 0 or odd.max() < 1e-10, name
            assert all(val > 1e-12 for val in c[1::2]), name
            assert (v.polynomial.degree - 1) % 2 == 0, name
            factors = v.eigen_structure.get("factors", [])
            assert all(b - a > 1e-8 for a, b in zip(factors, factors[1:])), name

    @pytest.mark.parametrize("name,dim", [
        ("berger:n=3,s=0.5", 7),
        ("heisenberg:n=3,c=2", 7),
        ("aw:n11,s=0.5", 7),
    ])
    def test_parametric_resolution(self, name, dim):
        assert catalog.entry(name).build().n == dim

    @pytest.mark.parametrize("name", [
        "bogus", "aw:n21,s=1", "berger:n=2", "heisenberg:n=2", "nk:missing",
        # kappa other than 1 or -1, a repeated, an undeclared or an empty
        # parameter, a non-finite value
        "berger:n=2,s=-1.5,kappa=0", "berger:n=2,s=1,kappa=7", "berger:n=2,s=1,n=3",
        "aw:n11,s=1.5,s=2", "heisenberg:n=2,c=1,kappa=-1", "aw:n11,s=1.5,c=9",
        "berger:n=2,,s=1", "berger:n=2,s=nan", "aw:n11,s=nan", "heisenberg:n=2,c=nan",
        "heisenberg:n=2,c=inf"])
    def test_unknown_identifiers(self, name):
        with pytest.raises(KeyError, match="unknown catalog entry"):
            catalog.entry(name)

    # the id shapes of the benchmark workloads and the golden reports
    @pytest.mark.parametrize("spelling,build,args", [
        ("berger:n=%d,s=%r,kappa=%d", catalog.berger_model, (2, 0.6180339887498949, 1)),
        ("berger:n=%d,s=%r,kappa=%d", catalog.berger_model, (3, -1.5, -1)),
        ("heisenberg:n=%d,c=%r", catalog.heisenberg_model, (3, 0.6039)),
        ("aw:n11,s=%r", catalog.aloff_wallach_n11, (0.7320508075688772,)),
    ])
    def test_ids_build_the_builders_model_bit_for_bit(self, spelling, build, args):
        got, want = catalog.entry(spelling % args).build(), model_of(build(*args))
        assert np.array_equal(got.tau, want.tau) and np.array_equal(got.rbar, want.rbar)
