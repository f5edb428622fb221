"""Kernel module tests.

The minimal polynomial of a skew operator relative to a vector, read off the
blocks of its skew spectral decomposition, is checked against a Krylov-rank
oracle and an eigenvalue oracle, both of which use routes independent of the
implementation.
"""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reductive_lab.algebra import (
    GAP_TOL,
    DegenerateSpectrum,
    NotSkew,
    Polynomial,
    ZERO_TOL,
    operator_on_symmetric,
    skew_spectra,
    skew_spectral_decomposition,
)


def rotation_block(c):
    return np.array([[0.0, -c], [c, 0.0]])


def random_skew(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    return m - m.T


def rational_skew(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(-4, 5, size=(n, n)).astype(float) / 4.0
    return m - m.T


def evaluate_polynomial_at_operator(P, L):
    """Horner evaluation of P at the square matrix L."""
    n = L.shape[0]
    if P.is_zero:
        return np.zeros((n, n))
    out = P.coefficients[-1] * np.eye(n)
    for c in P.coefficients[-2::-1]:
        out = out @ L + c * np.eye(n)
    return out


def minimal_polynomial_wrt(A, x):
    """Monic minimal polynomial of the skew operator A relative to x, from
    its skew spectral decomposition: the product of t^2 + lam^2 over the
    blocks that x meets, times t when x meets the kernel."""
    spectrum = skew_spectral_decomposition(A)
    xnorm = np.linalg.norm(x)
    p = Polynomial([1.0])
    if np.linalg.norm(spectrum.zero_projection @ x) > ZERO_TOL * xnorm:
        p = p * Polynomial([0.0, 1.0])
    for block in spectrum.blocks:
        if np.linalg.norm(block.projection @ x) > ZERO_TOL * xnorm:
            p = p * Polynomial([block.lam ** 2, 0.0, 1.0])
    return p


def divides(p, q, tol):
    """True when the remainder of monic q by monic p vanishes within tol."""
    _, rem = npoly.polydiv(q.coefficients / q.coefficients[-1],
                           p.coefficients / p.coefficients[-1])
    return bool(np.max(np.abs(rem)) < tol)


def krylov_degree(A, x, tol=1e-6):
    """Oracle: minimal polynomial degree equals the rank of [x, Ax, A^2 x, ...]."""
    cols = [np.asarray(x, float)]
    for _ in range(x.size):
        cols.append(A @ cols[-1])
    k = np.column_stack([c / max(np.linalg.norm(c), 1.0) for c in cols])
    return np.linalg.matrix_rank(k, tol=tol)


def full_minimal_polynomial(A, tol=1e-6):
    """Oracle: minimal polynomial of skew A from its complex eigenvalues."""
    imag = np.abs(np.linalg.eigvals(A).imag)
    p = Polynomial([1.0])
    if np.any(imag < tol):
        p = p * Polynomial([0.0, 1.0])
    done = []
    for b in sorted(imag[imag >= tol]):
        if done and abs(b - done[-1]) < tol:
            continue
        done.append(b)
        p = p * Polynomial([b ** 2, 0.0, 1.0])
    return p


def reference_reason(mu):
    """The per-row loop that skew_spectra's degeneracy reasons replaced:
    the first smeared or odd cluster of the eigenvalues mu of -A^2 (the
    cluster at 0 being the kernel), or None."""
    padded = np.concatenate([[0.0], mu])
    labels = np.concatenate([[0], np.cumsum(np.diff(padded) > GAP_TOL)])
    for k in range(labels[-1] + 1):
        vals = padded[labels == k]
        if vals.max() - vals.min() > GAP_TOL / 10.0:
            return ("eigenvalue cluster of -A^2 spans [%.3e, %.3e] at gap_tol %.1e"
                    % (vals.min(), vals.max(), GAP_TOL))
        if k and vals.size % 2:
            return ("eigenspace of -A^2 at %.6g has odd dimension %d"
                    % (float(np.mean(vals)), vals.size))
    return None


class TestSkewSpectralDecomposition:
    def test_zero_operator_is_kernel_only(self):
        s = skew_spectral_decomposition(np.zeros((5, 5)))
        assert s.zero_space.shape == (5, 5)
        assert s.blocks == []

    def test_rotation_generator_single_block(self):
        s = skew_spectral_decomposition(rotation_block(0.7))
        assert s.zero_space.shape == (2, 0)
        assert len(s.blocks) == 1
        assert s.blocks[0].lam == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [3, 4, 6, 7])
    def test_blocks_reconstruct_and_square_to_minus_id(self, n, seed):
        a = random_skew(n, seed)
        s = skew_spectral_decomposition(a)
        np.testing.assert_allclose(s.reconstruct(), a, atol=1e-10 * max(1, np.linalg.norm(a)))
        for b in s.blocks:
            np.testing.assert_allclose(b.j @ b.j, -b.projection, atol=1e-10)

    def test_not_skew_rejected(self):
        with pytest.raises(NotSkew):
            skew_spectral_decomposition(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_smeared_cluster_raises(self):
        lam2 = np.sqrt(1.0 + 5e-7)
        a = np.zeros((4, 4))
        a[:2, :2] = rotation_block(1.0)
        a[2:, 2:] = rotation_block(lam2)
        with pytest.raises(DegenerateSpectrum):
            skew_spectral_decomposition(a)

    def test_block_below_gap_raises(self):
        # mu = 1e-8 joins the kernel cluster, so the blocks miss A
        a = np.zeros((4, 4))
        a[:2, :2] = rotation_block(1.0)
        a[2:, 2:] = rotation_block(1e-4)
        with pytest.raises(DegenerateSpectrum, match="reconstruct"):
            skew_spectral_decomposition(a)

    def test_degenerate_reasons_match_the_per_row_loop(self, monkeypatch):
        # rows of eigenvalues of -A^2 with smeared clusters, odd ones, both
        # or neither; the operators are zero, so only the cluster rule speaks
        values = [0.0, 1e-7, 5e-7, 2e-6, 1.0, 1.0 + 5e-8, 1.0 + 3e-7, 1.0 + 2e-6, 4.0]
        mu = np.sort(np.random.default_rng(2).choice(values, size=(500, 6)), axis=1)
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (mu, np.broadcast_to(np.eye(6), m.shape)))
        got = skew_spectra(np.zeros((500, 6, 6))).reasons
        want = [reference_reason(row) for row in mu]
        assert got == want
        assert None in want
        assert any("spans" in r for r in want if r) and any("odd dim" in r for r in want if r)

    @given(st.integers(0, 10 ** 6), st.sampled_from([3, 4, 5, 6]))
    @settings(deadline=None)
    def test_roundtrip_on_rational_entries(self, seed, n):
        a = rational_skew(n, seed)
        try:
            s = skew_spectral_decomposition(a)
        except DegenerateSpectrum:
            assume(False)
        assert np.linalg.norm(s.reconstruct() - a) < 1e-10


class TestMinimalPolynomialWrt:
    def test_kernel_vector(self):
        a = np.zeros((5, 5))
        a[:2, :2] = rotation_block(1.3)
        p = minimal_polynomial_wrt(a, np.array([0, 0, 1.0, 0, 0]))
        np.testing.assert_allclose(p.coefficients, [0.0, 1.0], atol=1e-14)

    def test_single_block_vector(self):
        a = np.zeros((4, 4))
        a[:2, :2] = rotation_block(1.0)
        a[2:, 2:] = rotation_block(2.0)
        p = minimal_polynomial_wrt(a, np.array([1.0, 0, 0, 0]))
        np.testing.assert_allclose(p.coefficients, [1.0, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_generic_vector_matches_krylov_rank(self, n, seed):
        a = random_skew(n, seed)
        rng = np.random.default_rng(1000 + seed)
        x = rng.normal(size=n)
        p = minimal_polynomial_wrt(a, x)
        assert p.degree == krylov_degree(a, x)
        residual = evaluate_polynomial_at_operator(p, a) @ x
        assert np.linalg.norm(residual) < 1e-8 * np.linalg.norm(x) * max(
            1.0, np.linalg.norm(a) ** p.degree)

    @given(st.integers(0, 10 ** 6), st.sampled_from([3, 4, 5, 6, 7]))
    @settings(deadline=None)
    def test_divides_full_minimal_polynomial(self, seed, n):
        a = rational_skew(n, seed)
        rng = np.random.default_rng(seed + 1)
        x = rng.normal(size=n)
        try:
            p = minimal_polynomial_wrt(a, x)
        except DegenerateSpectrum:
            assume(False)
        assert divides(p, full_minimal_polynomial(a), tol=1e-6)


class TestEvaluateAtOperator:
    def test_linear_polynomial_returns_operator(self):
        l = np.diag([1.0, 2.0])
        np.testing.assert_allclose(
            evaluate_polynomial_at_operator(Polynomial([0.0, 1.0]), l), l)

    def test_complex_structure_annihilated(self):
        j = rotation_block(1.0)
        out = evaluate_polynomial_at_operator(Polynomial([1.0, 0.0, 1.0]), j)
        np.testing.assert_allclose(out, np.zeros((2, 2)), atol=1e-14)


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        p = Polynomial([1.0, 2.0, 1e-14])
        assert p.degree == 1


def test_operator_on_symmetric_of_identity_is_identity():
    np.testing.assert_array_equal(operator_on_symmetric(lambda s: s, 4), np.eye(10))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_operator_on_symmetric_of_conjugation_is_orthogonal(n):
    # S -> Q S Q^T preserves tr(ST), so its matrix in orthonormal coordinates is orthogonal
    q, _ = np.linalg.qr(np.random.default_rng(n).normal(size=(n, n)))
    mat = operator_on_symmetric(lambda s: q @ s @ q.T, n)
    assert mat.shape == (n * (n + 1) // 2,) * 2
    np.testing.assert_allclose(mat.T @ mat, np.eye(len(mat)), atol=1e-12)
