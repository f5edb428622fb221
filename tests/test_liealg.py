import itertools

import numpy as np
import pytest
from conftest import upper_entries

from reductive_lab import liealg
from reductive_lab.liealg import (
    BilinearForm,
    DegenerateRestriction,
    DimensionMismatch,
    LieAlgebra,
    NotClosed,
    algebra_from_json,
    direct_sum,
    from_matrix_algebra,
    orthocomplement,
    orthonormalize,
    realify,
    so,
    sp,
    stabilizer_subalgebra,
    su,
)


def u(n):
    return from_matrix_algebra(list(su(n).matrices) + [realify(1j * np.eye(n))])


def volume_form(n):
    t = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        sign = 1.0
        p = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if p[i] > p[j]:
                    sign = -sign
        t[perm] = sign
    return t


def trace_form(mats):
    return np.array([[np.sum(a * b.T).item() for b in mats] for a in mats])


class TestLieAlgebraConstruction:
    def test_so3_structure(self):
        g = LieAlgebra(3, {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0})
        np.testing.assert_allclose(g.bracket([1, 0, 0], [0, 1, 0]), [0, 0, 1])
        np.testing.assert_allclose(g.bracket([0, 1, 0], [1, 0, 0]), [0, 0, -1])

    def test_jacobi_violation_rejected(self):
        with pytest.raises(ValueError, match="Jacobi"):
            LieAlgebra(3, {(0, 1, 1): 1.0, (0, 2, 2): 1.0, (1, 2, 0): 1.0})

    def test_antisymmetry_conflict_rejected(self):
        with pytest.raises(ValueError, match="antisymmetry"):
            LieAlgebra(3, [(0, 1, 2, 1.0), (1, 0, 2, 1.0)])

    def test_bracket_of_vector_with_itself_vanishes(self):
        g = su(3)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.normal(size=g.dim)
            np.testing.assert_allclose(g.bracket(x, x), np.zeros(g.dim), atol=1e-12)

    def test_dimension_mismatch(self):
        g = so(3)
        with pytest.raises(DimensionMismatch):
            g.bracket(np.ones(4), np.ones(3))


class TestFromMatrixAlgebra:
    @pytest.mark.parametrize("builder,dim", [
        (lambda: su(2), 3),
        (lambda: su(3), 8),
        (lambda: so(7), 21),
        (lambda: sp(2), 10),
        (lambda: u(2), 4),
    ])
    def test_classical_dimensions(self, builder, dim):
        assert builder().dim == dim

    def test_structure_constants_match_matrix_commutators(self):
        g = su(2)
        m0, m1 = g.matrices[0], g.matrices[1]
        comm = m0 @ m1 - m1 @ m0
        span = np.column_stack([m.reshape(-1) for m in g.matrices])
        coords, *_ = np.linalg.lstsq(span, comm.reshape(-1), rcond=None)
        e0, e1 = np.eye(g.dim)[0], np.eye(g.dim)[1]
        np.testing.assert_allclose(g.bracket(e0, e1), coords, atol=1e-12)

    def test_not_closed(self):
        a = np.zeros((3, 3))
        a[0, 1], a[1, 0] = 1.0, -1.0
        b = np.zeros((3, 3))
        b[0, 2], b[2, 0] = 1.0, -1.0
        with pytest.raises(NotClosed):
            from_matrix_algebra([a, b])

    @pytest.mark.parametrize("builder", [
        lambda: su(2), lambda: su(4), lambda: so(5), lambda: sp(1), lambda: sp(2)])
    def test_jacobi_residual_small(self, builder):
        assert builder().jacobi_residual() < 1e-10


class TestDirectSum:
    def test_cross_factor_brackets_vanish(self):
        g = direct_sum(su(2), su(2))
        assert g.dim == 6
        x = np.zeros(6)
        x[0] = 1.0
        y = np.zeros(6)
        y[4] = 1.0
        np.testing.assert_allclose(g.bracket(x, y), np.zeros(6), atol=1e-14)

    def test_factor_brackets_preserved(self):
        a = su(2)
        g = direct_sum(a, LieAlgebra(1, {}))
        e0, e1 = np.eye(4)[0], np.eye(4)[1]
        np.testing.assert_allclose(g.bracket(e0, e1)[:3],
                                   a.bracket(np.eye(3)[0], np.eye(3)[1]), atol=1e-14)

    def test_matrices_are_block_diagonal(self):
        a, b = su(2), so(3)
        g = direct_sum(a, b)
        assert len(g.matrices) == a.dim + b.dim
        for k, m in enumerate(g.matrices):
            want = np.zeros((7, 7))
            if k < a.dim:
                want[:4, :4] = a.matrices[k]
            else:
                want[4:, 4:] = b.matrices[k - a.dim]
            assert np.array_equal(m, want)


class TestKillingForm:
    def test_su2_is_four_times_complex_trace_form(self):
        # realified trace doubles the complex one, so 4 tr_C = 2 tr_R
        g = su(2)
        t_real = np.array([[np.trace(a @ b) for b in g.matrices] for a in g.matrices])
        np.testing.assert_allclose(g.killing_form().matrix, 2.0 * t_real, atol=1e-9)

    def test_su3_is_six_times_complex_trace_form(self):
        g = su(3)
        t_real = np.array([[np.trace(a @ b) for b in g.matrices] for a in g.matrices])
        np.testing.assert_allclose(g.killing_form().matrix, 3.0 * t_real, atol=1e-9)

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_so_n_killing_multiple(self, n):
        g = so(n)
        t_real = np.array([[np.trace(a @ b) for b in g.matrices] for a in g.matrices])
        np.testing.assert_allclose(g.killing_form().matrix, (n - 2.0) * t_real, atol=1e-9)

    def test_abelian_killing_vanishes(self):
        np.testing.assert_allclose(LieAlgebra(4, {}).killing_form().matrix, np.zeros((4, 4)))

    @pytest.mark.parametrize("builder", [lambda: su(3), lambda: so(7), lambda: sp(2)])
    def test_killing_invariance(self, builder):
        g = builder()
        assert g.killing_form().invariance_residual(g) < 1e-9


class TestStabilizer:
    def test_so3_stabilizes_volume(self):
        g = so(3)
        basis = stabilizer_subalgebra(g, g.matrices, volume_form(3))
        assert basis.shape == (3, 3)


class TestOrthocomplement:
    def test_whole_algebra_gives_empty(self):
        g = su(2)
        b = BilinearForm(-0.5 * trace_form(g.matrices))
        comp = orthocomplement(g, np.eye(3), b)
        assert comp.shape == (3, 0)

    def test_su_n_inside_u_n(self):
        g = u(2)
        b = BilinearForm(-trace_form(g.matrices))
        comp = orthocomplement(g, np.eye(4)[:, :3], b)
        assert comp.shape == (4, 1)
        # complement is the center i*id, which is the last basis vector
        np.testing.assert_allclose(np.abs(comp[:, 0]), [0, 0, 0, 1], atol=1e-12)

    def test_u2_inside_su3_dimension(self):
        g = su(3)
        b = BilinearForm(-0.5 * trace_form(g.matrices))
        u2 = _u2_in_su3(g)
        comp = orthocomplement(g, u2, b)
        assert comp.shape == (8, 4)

    def test_degenerate_restriction(self):
        g = LieAlgebra(2, {})
        b = BilinearForm(np.diag([0.0, 1.0]))
        with pytest.raises(DegenerateRestriction):
            orthocomplement(g, np.eye(2)[:, :1], b)


def _u2_in_su3(g):
    """Coordinates of the block-diagonal u(2) inside realified su(3)."""
    span = np.column_stack([m.reshape(-1) for m in g.matrices])
    mats = []
    for m in (np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]], dtype=complex),
              np.array([[0, 1j, 0], [1j, 0, 0], [0, 0, 0]]),
              np.diag([1j, -1j, 0]),
              np.diag([1j, 1j, -2j])):
        coords, *_ = np.linalg.lstsq(span, realify(m).reshape(-1), rcond=None)
        mats.append(coords)
    return np.column_stack(mats)


_RNG = np.random.default_rng(11)
NULL_SPACE_CASES = {
    "real": _RNG.normal(size=(3, 5)),
    "rank-deficient": _RNG.normal(size=(6, 2)) @ _RNG.normal(size=(2, 5)),
    "complex": _RNG.normal(size=(3, 4)) + 1j * _RNG.normal(size=(3, 4)),
    "complex-rank-deficient": (_RNG.normal(size=(5, 2)) + 1j * _RNG.normal(size=(5, 2)))
    @ (_RNG.normal(size=(2, 4)) + 1j * _RNG.normal(size=(2, 4))),
    "full-rank": _RNG.normal(size=(6, 4)),
    "zero": np.zeros((2, 3)),
    "no-rows": np.zeros((0, 3)),
    "no-columns": np.zeros((3, 0)),
    "empty": np.zeros((0, 0)),
}


class TestNullSpace:
    """liealg.null_space against scipy.linalg.null_space at the same rcond;
    scipy serves only as the oracle here."""

    @pytest.mark.parametrize("name", sorted(NULL_SPACE_CASES))
    def test_matches_scipy(self, name):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        a = NULL_SPACE_CASES[name]
        want = scipy_linalg.null_space(a, rcond=1e-10)
        got = liealg.null_space(a)
        assert got.shape == want.shape
        # kernel bases are unique only up to a unitary change of basis
        diff = got @ got.conj().T - want @ want.conj().T
        assert np.max(np.abs(diff), initial=0.0) < 1e-12

    def test_expected_kernel_dimensions(self):
        dims = {name: liealg.null_space(a).shape for name, a in NULL_SPACE_CASES.items()}
        assert dims == {"real": (5, 2), "rank-deficient": (5, 3), "complex": (4, 1),
                        "complex-rank-deficient": (4, 2), "full-rank": (4, 0),
                        "zero": (3, 3), "no-rows": (3, 3), "no-columns": (0, 0),
                        "empty": (0, 0)}


class TestOrthonormalize:
    def test_output_is_b_orthonormal(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(5, 5))
        b = BilinearForm(m @ m.T + 5 * np.eye(5))
        v = rng.normal(size=(5, 3))
        q = orthonormalize(v, b)
        np.testing.assert_allclose(q.T @ b.matrix @ q, np.eye(3), atol=1e-12)

    def test_degenerate_input_raises(self):
        b = BilinearForm(np.eye(3))
        v = np.column_stack([np.ones(3), np.ones(3)])
        with pytest.raises(DegenerateRestriction):
            orthonormalize(v, b)


class TestJson:
    def test_round_trip(self):
        g = su(2)
        data = {"dim": g.dim,
                "brackets": [[i, j, k, v] for i, j, k, v in upper_entries(g)],
                "forms": {"killing": g.killing_form().matrix.tolist()}}
        g2, forms = algebra_from_json(data)
        assert g2.dim == g.dim
        assert upper_entries(g2) == upper_entries(g)
        np.testing.assert_allclose(forms["killing"].matrix, g.killing_form().matrix)

    def test_antisymmetric_completion(self):
        g, _ = algebra_from_json({"dim": 3, "brackets": [[0, 1, 2, 1.0]]})
        np.testing.assert_allclose(g.bracket([0, 1, 0], [1, 0, 0]), [0, 0, -1.0])
