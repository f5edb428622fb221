"""Curvature of naturally reductive triples.

The sign convention of the whole curvature stack is anchored here twice,
against spaces whose curvature is classical: the round 3-sphere (constant
curvature +1) and the Heisenberg group (sectional curvatures -3c^2/4, c^2/4,
0), the latter through a transvection triple whose ambient form is indefinite.
"""

import numpy as np
import pytest
from conftest import (SU3_H0, SU3_H1, SU3_X01, SU3_X02, SU3_Y01, cp2_triple,
                      fubini_study_rbar, heisenberg_closed_form,
                      heisenberg_transvection, minus_half_trace,
                      round_three_sphere, standard_j, unit_samples)
from hypothesis import given, settings
from hypothesis import strategies as st
from paper_checks import (DegeneratePlane, NotComplexStructure, check_chsc_equivalences,
                          holomorphic_sectional, sectional_curvature)

from reductive_lab.liealg import BilinearForm, su
from reductive_lab.reductive import (
    IndefiniteMetric,
    InfinitesimalModel,
    InadmissibleS,
    NonInvariantForm,
    NotNormalSubalgebra,
    NotReductive,
    ReductiveTriple,
    build_triple,
    extend_fibered,
    jacobi_operator,
    ricci,
    scalar_curvature,
    to_model,
)


def normal_sectional_cross_check(triple, x, y):
    """Oracle: R(x,y,y,x) for normal triples, B([x,y]_h, [x,y]_h) +
    (1/4)|tau(x,y)|^2, straight from the bracket of g.

    x, y are m-coordinates; the value is unnormalized (not divided by the
    plane's Gram determinant).
    """
    v = triple.g.bracket(triple.m_basis @ np.asarray(x, float),
                         triple.m_basis @ np.asarray(y, float))
    h_part = triple.h_component(v)
    tau_xy = triple.m_component(v)  # = -tau(x,y), sign squares away
    return float(triple.B(h_part, h_part) + 0.25 * (tau_xy @ tau_xy))


class TestRoundSphereOracle:
    """Constant curvature +1 pins the sign of R(U,X,X) := R_(U,X)X."""

    def test_torsion_is_minus_two_volume(self):
        model = to_model(round_three_sphere())
        eps = np.zeros((3, 3, 3))
        for i, j, k, s in [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1),
                           (1, 0, 2, -1), (2, 1, 0, -1), (0, 2, 1, -1)]:
            eps[i, j, k] = s
        np.testing.assert_allclose(model.tau, -2.0 * eps, atol=1e-12)

    def test_jacobi_operator_is_projection(self):
        model = to_model(round_three_sphere())
        for x in unit_samples(3, 8, seed=1):
            expected = np.eye(3) - np.outer(x, x)
            np.testing.assert_allclose(jacobi_operator(model, x), expected,
                                       atol=1e-12)
        y = np.array([0.3, -1.1, 0.4])
        np.testing.assert_allclose(jacobi_operator(model, y),
                                   (y @ y) * np.eye(3) - np.outer(y, y),
                                   atol=1e-12)

    def test_curvature_values(self):
        model = to_model(round_three_sphere())
        assert sectional_curvature(model, np.eye(3)[0], np.eye(3)[1]) == pytest.approx(1.0)
        x, y = np.array([1.0, 2.0, 0.5]), np.array([-0.3, 0.2, 1.0])
        assert sectional_curvature(model, x, y) == pytest.approx(1.0)
        assert ricci(model, np.eye(3)[2]) == pytest.approx(2.0)
        assert scalar_curvature(model) == pytest.approx(6.0)

    def test_cross_check_route_agrees(self):
        trip = round_three_sphere()
        model = to_model(trip)
        x, y = np.eye(3)[0], np.eye(3)[1]
        assert normal_sectional_cross_check(trip, x, y) == pytest.approx(1.0)
        for _ in range(4):
            rng = np.random.default_rng(7)
            x, y = rng.normal(size=3), rng.normal(size=3)
            gram = (x @ x) * (y @ y) - (x @ y) ** 2
            assert normal_sectional_cross_check(trip, x, y) == pytest.approx(
                sectional_curvature(model, x, y) * gram)


class TestHeisenbergOracle:
    """Indefinite ambient form; curvature against the classical values."""

    @pytest.mark.parametrize("n,c", [(1, 1.0), (1, 2.0), (2, 1.0), (3, 0.5)])
    def test_triple_matches_closed_form(self, n, c):
        model = to_model(heisenberg_transvection(n, c))
        # same J-orientation as the closed form corresponds to c -> -c
        expected = heisenberg_closed_form(n, -c)
        np.testing.assert_allclose(model.tau, expected.tau, atol=1e-12)
        np.testing.assert_allclose(model.rbar, expected.rbar, atol=1e-12)

    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_classical_sectional_curvatures(self, c):
        model = heisenberg_closed_form(2, c)
        e = np.eye(5)
        x, jx, y, w = e[0], e[1], e[2], e[4]
        op = jacobi_operator(model, x)
        np.testing.assert_allclose(op @ jx, -0.75 * c ** 2 * jx, atol=1e-12)
        np.testing.assert_allclose(op @ w, 0.25 * c ** 2 * w, atol=1e-12)
        np.testing.assert_allclose(op @ y, np.zeros(5), atol=1e-12)
        assert sectional_curvature(model, x, jx) == pytest.approx(-0.75 * c ** 2)
        assert sectional_curvature(model, x, w) == pytest.approx(0.25 * c ** 2)
        assert sectional_curvature(model, x, y) == pytest.approx(0.0, abs=1e-12)

    def test_cross_check_with_indefinite_form(self):
        c = 1.5
        trip = heisenberg_transvection(1, c)
        model = to_model(trip)
        e = np.eye(3)
        val = normal_sectional_cross_check(trip, e[0], e[1])
        assert val == pytest.approx(-0.75 * c ** 2)
        assert val == pytest.approx(sectional_curvature(model, e[0], e[1]))


class TestBuildTriple:
    def test_not_reductive(self):
        g = su(3)
        h = np.zeros((8, 2))
        h[SU3_X01, 0] = h[SU3_X02, 1] = 1.0  # brackets escape the span
        with pytest.raises(NotReductive):
            build_triple(g, h, minus_half_trace(g))

    def test_non_invariant_form(self):
        g = su(2)
        with pytest.raises(NonInvariantForm):
            build_triple(g, np.zeros((3, 0)), BilinearForm(np.diag([1.0, 2.0, 3.0])))

    def test_degenerate_form(self):
        with pytest.raises(NonInvariantForm):
            build_triple(su(2), np.zeros((3, 0)), BilinearForm(np.zeros((3, 3))))

    def test_indefinite_metric_on_m(self):
        g = su(2)
        b = minus_half_trace(g).scaled(-1.0)  # invariant but negative definite
        with pytest.raises(IndefiniteMetric):
            build_triple(g, np.zeros((3, 0)), b)

    def test_bad_explicit_m_basis(self):
        g = su(2)
        with pytest.raises(NotReductive, match="m-basis not B-orthonormal"):
            ReductiveTriple(g, np.zeros((3, 0)), minus_half_trace(g),
                            2.0 * np.eye(3))

    def test_model_shape_checks(self):
        tau = np.zeros((3, 3, 3))
        tau[0, 1, 2] = 1.0  # not antisymmetrized
        with pytest.raises(AssertionError):
            InfinitesimalModel(tau, np.zeros((3, 3, 3, 3)))


class TestFubiniStudy:
    def test_symmetric_pair_has_no_torsion(self):
        model = to_model(cp2_triple())
        np.testing.assert_allclose(model.tau, np.zeros((4, 4, 4)), atol=1e-12)

    def test_curvature_is_constant_holomorphic(self):
        trip = cp2_triple()
        model = to_model(trip)
        z = np.zeros(8)
        z[SU3_H0], z[SU3_H1] = 1.0, 2.0
        jm = np.column_stack([
            trip.m_component(trip.g.bracket(z, trip.m_basis[:, b]))
            for b in range(4)]) / 3.0
        np.testing.assert_allclose(jm @ jm, -np.eye(4), atol=1e-10)
        np.testing.assert_allclose(model.rbar, fubini_study_rbar(4, 4.0, jm),
                                   atol=1e-10)
        for x in unit_samples(4, 16, seed=3):
            assert holomorphic_sectional(model, jm, x) == pytest.approx(4.0)
        assert scalar_curvature(model) == pytest.approx(24.0)
        for b in range(4):
            assert ricci(model, np.eye(4)[b]) == pytest.approx(6.0)

    def test_sectional_pinching(self):
        model = to_model(cp2_triple())
        rng = np.random.default_rng(5)
        vals = []
        for _ in range(200):
            x, y = rng.normal(size=4), rng.normal(size=4)
            vals.append(sectional_curvature(model, x, y))
        assert min(vals) > 1.0 - 1e-9
        assert max(vals) < 4.0 + 1e-9

    def test_cross_check_route_agrees(self):
        trip = cp2_triple()
        model = to_model(trip)
        rng = np.random.default_rng(11)
        for _ in range(8):
            x, y = rng.normal(size=4), rng.normal(size=4)
            gram = (x @ x) * (y @ y) - (x @ y) ** 2
            assert normal_sectional_cross_check(trip, x, y) == pytest.approx(
                sectional_curvature(model, x, y) * gram)

    def test_chsc_conditions_split_for_kaehler(self):
        # constant H but pinched K: conditions (2), (3) hold, (1), (4) fail,
        # so the report flags disagreement
        model = InfinitesimalModel(np.zeros((4, 4, 4)),
                                   fubini_study_rbar(4, 2.0, standard_j(4)))
        report = check_chsc_equivalences(model, standard_j(4))
        assert report["constant_holomorphic"] is True
        assert report["jacobi_preserves_j_line"] is True
        assert report["constant_sectional"] is False
        assert report["torsion_twist_identity"] is False
        assert report["all_agree"] is False
        assert report["residuals"]["constant_sectional"] > 0.1

    def test_rejects_non_complex_structure(self):
        model = to_model(cp2_triple())
        with pytest.raises(NotComplexStructure):
            holomorphic_sectional(model, np.eye(4), np.eye(4)[0])
        with pytest.raises(NotComplexStructure):
            check_chsc_equivalences(model, 2.0 * standard_j(4))

    def test_rejects_zero_x(self):
        model = to_model(cp2_triple())
        with pytest.raises(ValueError, match="nonzero X"):
            holomorphic_sectional(model, standard_j(4), np.zeros(4))


class TestJacobiOperatorProperties:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_and_kills_base_point(self, seed):
        model = to_model(cp2_triple())
        x = np.random.default_rng(seed).normal(size=4)
        op = jacobi_operator(model, x)
        np.testing.assert_allclose(op, op.T, atol=1e-10)
        np.testing.assert_allclose(op @ x, np.zeros(4), atol=1e-10)

    def test_degenerate_plane_rejected(self):
        model = to_model(round_three_sphere())
        x = np.array([1.0, 0.0, 0.0])
        with pytest.raises(DegeneratePlane):
            sectional_curvature(model, x, 2.0 * x)

class TestExtendFibered:
    def hopf_base(self):
        g = su(2)
        h = np.zeros((3, 1))
        h[2, 0] = 1.0  # diag(i, -i)
        return build_triple(g, h, minus_half_trace(g))

    def berger_base(self):
        trip = cp2_triple()
        h = np.zeros((8, 3))
        h[SU3_X01, 0] = h[SU3_Y01, 1] = h[SU3_H0, 2] = 1.0
        return trip, h

    def test_dimensions_and_postconditions(self):
        ext = extend_fibered(self.hopf_base(), np.zeros((3, 0)), 1.0)
        assert ext.g.dim == 4
        assert ext.dim_m == 3
        trip, h = self.berger_base()
        for s in [-0.5, 0.5, 1.0, 2.0]:
            ext = extend_fibered(trip, h, s)
            assert ext.g.dim == 9
            assert ext.dim_m == 5

    def test_s_zero_returns_normal_triple(self):
        ext = extend_fibered(self.hopf_base(), np.zeros((3, 0)), 0.0)
        assert ext.g.dim == 3
        assert ext.dim_m == 3
        np.testing.assert_allclose(to_model(ext).tau,
                                   to_model(round_three_sphere()).tau,
                                   atol=1e-12)

    def test_small_s_approaches_normal_metric(self):
        ext = extend_fibered(self.hopf_base(), np.zeros((3, 0)), 1e-6)
        model = to_model(ext)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x, y = rng.normal(size=3), rng.normal(size=3)
            assert abs(sectional_curvature(model, x, y) - 1.0) < 1e-4

    def test_vertical_torsion_scales_as_oneill_invariant(self):
        trip, h = self.berger_base()
        parts = {}
        for s in [0.5, 2.0]:
            model = to_model(extend_fibered(trip, h, s))
            parts[s] = model.tau[:4, :4, 4] * np.sqrt(1.0 + s)
        np.testing.assert_allclose(parts[0.5], parts[2.0], atol=1e-10)
        assert np.max(np.abs(parts[0.5])) > 0.1

    def test_higher_fiber_builds(self):
        trip = cp2_triple()
        center = np.zeros((8, 1))
        center[SU3_H0, 0], center[SU3_H1, 0] = 1.0, 2.0
        ext = extend_fibered(trip, center, 1.0)
        assert ext.dim_m == 7
        assert ext.g.dim == 11

    def test_inadmissible_s(self):
        trip, h = self.berger_base()
        with pytest.raises(InadmissibleS):
            extend_fibered(trip, h, -1.0)
        with pytest.raises(InadmissibleS):
            extend_fibered(trip, h, -2.0)

    def test_h_must_be_normal_in_isotropy(self):
        trip, _ = self.berger_base()
        bad = np.zeros((8, 1))
        bad[SU3_X01, 0] = 1.0  # inside u(2) but not an ideal of it
        with pytest.raises(NotNormalSubalgebra):
            extend_fibered(trip, bad, 1.0)
        outside = np.zeros((8, 1))
        outside[SU3_X02, 0] = 1.0
        with pytest.raises(NotNormalSubalgebra):
            extend_fibered(trip, outside, 1.0)
