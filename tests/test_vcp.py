"""Cross product detection and the one-parameter splitting family.

The 3-form builders are pinned entry by entry; the torsion of the
splitting family is rebuilt here from Pauli matrices, independently of
the module's internal model, before being fed to the fitting routines.
"""

import itertools

import numpy as np
import pytest

from reductive_lab.algebra import orthonormal_pairs
from reductive_lab.liealg import so, stabilizer_subalgebra
from reductive_lab.vcp import (G2_TYPE7, NOT_GVCP, SU3_TYPE6, VOLUME_TYPE3,
                               InvalidS, ThreeForm,
                               appendix_component_checks,
                               classify_gvcp, fit_vcp_multiple, g2_sigma,
                               is_gvcp, is_vcp, su3_tau, volume_3form)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)


def splitting_torsion(s):
    """3-form of the residual bracket on su(2) (+) C^2, orthonormal frame.

    Built directly from the printed bracket; requires s > -1 for the
    metric to be definite.
    """
    assert s > -1.0 and s != 0.0
    su2_part = [1j * p / np.sqrt(s + 1.0) for p in (SIGMA1, SIGMA2, SIGMA3)]
    c2_part = [np.array(v, dtype=complex)
               for v in [(1, 0), (1j, 0), (0, 1), (0, 1j)]]
    basis = [(m, np.zeros(2, dtype=complex)) for m in su2_part]
    basis += [(np.zeros((2, 2), dtype=complex), a) for a in c2_part]

    def star(a, b):
        m = np.outer(a, b.conj()) - np.outer(b, a.conj())
        return m + 1j * float(np.imag(np.vdot(a, b))) * np.eye(2)

    def bracket(x, y):
        (A, a), (B, b) = x, y
        return ((1.0 - s) * (A @ B - B @ A) - star(a, b) / (s + 1.0),
                A @ b - B @ a)

    def pairing(x, y):
        (A, a), (B, b) = x, y
        return ((s + 1.0) * float(np.real(-0.5 * np.trace(A @ B)))
                + float(np.real(np.vdot(a, b))))

    vals = np.zeros((7, 7, 7))
    for i, j, k in itertools.product(range(7), repeat=3):
        vals[i, j, k] = pairing(bracket(basis[i], basis[j]), basis[k])
    return ThreeForm(vals)


def random_three_form(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n, n))
    vals = np.zeros_like(raw)
    for perm in itertools.permutations(range(3)):
        sgn = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sgn = -sgn
        vals += sgn * raw.transpose(perm)
    return ThreeForm(scale * vals)


class TestThreeForm:
    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError):
            ThreeForm(np.ones((3, 3, 3)))

    def test_component_builder_antisymmetrizes(self):
        f = ThreeForm.from_components(4, {(1, 2, 4): 2.0})
        assert f.values[0, 1, 3] == 2.0
        assert f.values[1, 0, 3] == -2.0
        assert f.values[3, 0, 1] == 2.0

    def test_matrix_is_skew_and_matches_apply(self):
        f = random_three_form(5, seed=1)
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=5), rng.normal(size=5)
        m = f.matrix(x)
        np.testing.assert_allclose(m, -m.T, atol=1e-12)
        np.testing.assert_allclose(m @ y, f.apply(x, y), atol=1e-12)

    def test_stacks_match_per_pair_loops(self):
        f = random_three_form(7, seed=3)
        xs, ys = orthonormal_pairs(7, 16, 4)
        rng = np.random.default_rng(4)  # the pair stream, one pair at a time
        for x, y, mat, vec in zip(xs, ys, f.matrix(xs), f.apply(xs, ys)):
            want_x = rng.normal(size=7)
            want_x /= np.linalg.norm(want_x)
            want_y = rng.normal(size=7)
            want_y -= (want_y @ want_x) * want_x
            want_y /= np.linalg.norm(want_y)
            assert np.max(np.abs(x - want_x)) < 1e-14
            assert np.max(np.abs(y - want_y)) < 1e-14
            want_m = np.einsum("i,ijk->kj", x, f.values)
            assert np.max(np.abs(mat - want_m)) < 1e-14
            assert np.max(np.abs(vec - want_m @ y)) < 1e-14
        assert f.matrix(xs[0]).shape == (7, 7) and f.apply(xs[0], ys[0]).shape == (7,)

    def test_volume_form_components(self):
        f = volume_3form()
        assert f(np.eye(3)[0], np.eye(3)[1], np.eye(3)[2]) == 1.0
        assert np.count_nonzero(f.values) == 6

    def test_su3_components_exact(self):
        f = su3_tau()
        expected = {(0, 2, 4): 1.0, (0, 3, 5): -1.0,
                    (1, 2, 5): -1.0, (1, 3, 4): -1.0}
        for (i, j, k), coeff in expected.items():
            assert f.values[i, j, k] == coeff
        assert np.count_nonzero(f.values) == 24

    def test_g2_contains_su3_block(self):
        f = g2_sigma()
        np.testing.assert_array_equal(f.values[:6, :6, :6], su3_tau().values)
        assert f.values[0, 1, 6] == 1.0
        assert f.values[2, 3, 6] == 1.0
        assert f.values[4, 5, 6] == 1.0


class TestIsVcp:
    def test_g2_form_is_vcp(self):
        ok, dev = is_vcp(g2_sigma())
        assert ok and dev < 1e-12

    def test_volume_form_is_vcp(self):
        ok, dev = is_vcp(volume_3form())
        assert ok and dev < 1e-12

    def test_g2_squares_to_minus_id_off_axis(self):
        f = g2_sigma()
        for seed in range(4):
            x = np.random.default_rng(seed).normal(size=7)
            x /= np.linalg.norm(x)
            m = f.matrix(x)
            np.testing.assert_allclose(m @ m, -(np.eye(7) - np.outer(x, x)),
                                       atol=1e-12)

    def test_su3_form_is_not_vcp(self):
        ok, dev = is_vcp(su3_tau())
        assert not ok and dev > 0.5

    def test_zero_form_fails(self):
        ok, _ = is_vcp(ThreeForm(np.zeros((3, 3, 3))))
        assert not ok


class TestIsGvcp:
    def test_su3_spectrum(self):
        spec = is_gvcp(su3_tau())
        np.testing.assert_allclose(spec, [0, 0, 1, 1, 1, 1], atol=1e-9)

    def test_g2_spectrum(self):
        spec = is_gvcp(g2_sigma())
        np.testing.assert_allclose(spec, [0] + [1] * 6, atol=1e-9)

    def test_random_form_varies(self):
        f = random_three_form(6, seed=3)
        # oracle: the spectrum moves visibly between two directions
        m0, m1 = f.matrix(np.eye(6)[0]), f.matrix(np.eye(6)[1])
        s0 = np.sort(np.linalg.eigvalsh(-(m0 @ m0)))
        s1 = np.sort(np.linalg.eigvalsh(-(m1 @ m1)))
        assert np.abs(s0 - s1).max() > 1e-2 * max(s0.max(), s1.max())
        assert is_gvcp(f) is None

    def test_zero_form_is_none(self):
        assert is_gvcp(ThreeForm(np.zeros((6, 6, 6)))) is None


class TestClassify:
    def test_model_forms(self):
        assert classify_gvcp(volume_3form()) == VOLUME_TYPE3
        assert classify_gvcp(g2_sigma()) == G2_TYPE7
        assert classify_gvcp(su3_tau()) == SU3_TYPE6

    @pytest.mark.parametrize("c", [0.3, -2.0, 7.5])
    def test_scale_invariance(self, c):
        for f, verdict in [(volume_3form(), VOLUME_TYPE3),
                           (g2_sigma(), G2_TYPE7),
                           (su3_tau(), SU3_TYPE6)]:
            assert classify_gvcp(f.scaled(c)) == verdict

    def test_dim_five_is_never_gvcp(self):
        for seed in range(3):
            assert classify_gvcp(random_three_form(5, seed)) == NOT_GVCP

    def test_zero_and_generic_rejected(self):
        assert classify_gvcp(ThreeForm(np.zeros((7, 7, 7)))) == NOT_GVCP
        assert classify_gvcp(random_three_form(6, seed=8)) == NOT_GVCP


class TestStabilizers:
    def test_g2_stabilizer_dimension(self):
        g = so(7)
        stab = stabilizer_subalgebra(g, g.matrices, g2_sigma().values)
        assert stab.shape[1] == 14

    def test_volume_stabilizer_dimension(self):
        g = so(3)
        stab = stabilizer_subalgebra(g, g.matrices, volume_3form().values)
        assert stab.shape[1] == 3

    def test_su3_stabilizer_dimension(self):
        kaehler = np.zeros((6, 6))
        for k in range(3):
            kaehler[2 * k, 2 * k + 1] = 1.0
            kaehler[2 * k + 1, 2 * k] = -1.0
        g = so(6)
        stab = stabilizer_subalgebra(g, g.matrices,
                                     [su3_tau().values, kaehler])
        assert stab.shape[1] == 8


class TestFitMultiple:
    def test_recovers_known_scale(self):
        # tau = sigma / 2.5, so the multiple is 2.5
        tau = g2_sigma().scaled(1.0 / 2.5)
        c = fit_vcp_multiple(tau)
        assert c == pytest.approx(2.5, rel=1e-9)

    def test_volume_scale(self):
        c = fit_vcp_multiple(volume_3form().scaled(4.0))
        assert c == pytest.approx(0.25, rel=1e-9)

    def test_perturbed_form_rejected(self):
        vals = g2_sigma().values + 0.3 * random_three_form(7, seed=4).values
        assert fit_vcp_multiple(ThreeForm(vals)) is None

    def test_zero_rejected(self):
        assert fit_vcp_multiple(ThreeForm(np.zeros((7, 7, 7)))) is None


class TestSplittingFamily:
    def test_torsion_is_alternating(self):
        splitting_torsion(1.5)  # ThreeForm validates antisymmetry

    def test_special_value_is_vcp_multiple(self):
        c = fit_vcp_multiple(splitting_torsion(1.5))
        assert c is not None
        assert c ** 2 == pytest.approx(2.5, rel=1e-9)
        assert classify_gvcp(splitting_torsion(1.5)) == G2_TYPE7

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_other_values_fail(self, s):
        assert fit_vcp_multiple(splitting_torsion(s)) is None
        assert classify_gvcp(splitting_torsion(s)) == NOT_GVCP


class TestAppendixChecks:
    def test_matrix_identity_always_holds(self):
        for s in [0.5, 1.0, 1.5, -0.5, 3.0]:
            res = appendix_component_checks(s)
            assert res["matrix_identity"] < 1e-12

    def test_special_value_passes_all(self):
        res = appendix_component_checks(1.5)
        assert res["vcp1"] < 1e-10
        assert res["vcp2"] < 1e-10
        assert res["vcp3"] < 1e-10

    def test_half_passes_quadratic_fails_mixed(self):
        res = appendix_component_checks(0.5)
        assert res["vcp1"] < 1e-10
        assert res["vcp2"] < 1e-10
        assert res["vcp3"] > 0.1

    def test_generic_value_fails_first(self):
        res = appendix_component_checks(1.0)
        assert res["vcp1"] > 0.01

    @pytest.mark.parametrize("s", [0.0, -1.0])
    def test_degenerate_values_raise(self, s):
        with pytest.raises(InvalidS):
            appendix_component_checks(s)
