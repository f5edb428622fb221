"""Numeric kernels shared by the geometric modules.

Polynomials with tolerance-based comparison, the canonical splitting of a
skew-symmetric operator into its kernel and invariant 2m-planes, and
minimal/characteristic polynomials of small dense operators.  All arithmetic
is double precision; exact rational input is converted once on entry.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = [
    "RESIDUAL_TOL",
    "GAP_TOL",
    "ZERO_TOL",
    "NotSkew",
    "DegenerateSpectrum",
    "Polynomial",
    "SkewBlock",
    "SkewSpectrum",
    "skew_spectral_decomposition",
    "minimal_polynomial_wrt",
    "characteristic_polynomial",
    "evaluate_polynomial_at_operator",
    "symmetric_basis",
    "operator_on_symmetric",
]

RESIDUAL_TOL = 1e-8
GAP_TOL = 1e-6
ZERO_TOL = 1e-10


def check_close(actual, desired, atol: float, err_msg: str = "") -> None:
    """Raise AssertionError unless |actual - desired| <= atol + 1e-7 |desired|
    entry-wise: the bound and message layout of numpy's assert_allclose,
    without importing numpy.testing, and kept under python -O."""
    diff = np.abs(np.asarray(actual) - desired)
    if not np.all(diff <= atol + 1e-7 * np.abs(desired)):
        raise AssertionError("Not equal to tolerance rtol=1e-07, atol=%g\n%s\n"
                             "Max absolute difference: %.3g"
                             % (atol, err_msg, float(np.max(diff))))


class NotSkew(ValueError):
    """Raised when an operator expected to be skew-symmetric is not."""


class DegenerateSpectrum(ValueError):
    """Eigenvalue clusters of -A^2 cannot be separated at the requested gap
    tolerance.  The caller should resample rather than trust the splitting."""


class Polynomial:
    """Real polynomial in one variable, coefficients ascending.

    Trailing coefficients smaller than ``zero_tol`` are stripped, so the
    leading coefficient is nonzero unless the polynomial is zero.
    """

    def __init__(self, coefficients, zero_tol: float = ZERO_TOL):
        coeffs = list(np.atleast_1d(np.asarray(coefficients, dtype=float)))
        while coeffs and abs(coeffs[-1]) <= zero_tol:
            coeffs.pop()
        self.coefficients = np.asarray(coeffs, dtype=float)

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coefficients.size == 0

    def __call__(self, x):
        if self.is_zero:
            return np.zeros_like(np.asarray(x, dtype=float))
        return npoly.polyval(x, self.coefficients)

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return Polynomial(self.coefficients / self.coefficients[-1])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial([])
        return Polynomial(npoly.polymul(self.coefficients, other.coefficients))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(npoly.polyadd(
            self.coefficients if not self.is_zero else [0.0],
            other.coefficients if not other.is_zero else [0.0]))

    def __divmod__(self, other: "Polynomial"):
        assert not other.is_zero
        if self.is_zero:
            return Polynomial([]), Polynomial([])
        quo, rem = npoly.polydiv(self.coefficients, other.coefficients)
        return Polynomial(quo), Polynomial(rem)

    def almost_equal(self, other: "Polynomial", tol: float = RESIDUAL_TOL) -> bool:
        """Coefficient-wise comparison after normalizing both sides to monic."""
        if self.is_zero or other.is_zero:
            return self.is_zero and other.is_zero
        a, b = self.monic().coefficients, other.monic().coefficients
        if a.size != b.size:
            return False
        return bool(np.max(np.abs(a - b)) < tol)

    def divides(self, other: "Polynomial", tol: float = RESIDUAL_TOL) -> bool:
        """True when the division remainder of other by self vanishes within tol."""
        if self.is_zero:
            return other.is_zero
        _, rem = divmod(other.monic(), self.monic())
        return rem.is_zero or bool(np.max(np.abs(rem.coefficients)) < tol)

    def __repr__(self):
        return "Polynomial(%s)" % (list(self.coefficients),)


class SkewBlock:
    """One invariant eigenblock of a skew-symmetric operator.

    lam is the positive singular value, basis an orthonormal (n, 2m) matrix
    spanning the block, j the induced complex structure supported on the block
    and projection the orthogonal projector onto it.
    """

    def __init__(self, lam: float, basis, j, projection):
        self.lam = float(lam)
        self.basis = basis
        self.j = j
        self.projection = projection


class SkewSpectrum:
    """Canonical decomposition A = sum_ell lam_ell J_ell pi_ell of a skew map."""

    def __init__(self, zero_space, blocks):
        self.zero_space = np.asarray(zero_space, dtype=float)
        self.blocks = list(blocks)
        self.dim = self.zero_space.shape[0]
        self.check()

    @property
    def lams(self) -> np.ndarray:
        return np.array([b.lam for b in self.blocks])

    @property
    def projections(self):
        return [b.projection for b in self.blocks]

    @property
    def zero_projection(self) -> np.ndarray:
        return self.zero_space @ self.zero_space.T

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        for b in self.blocks:
            out += b.lam * (b.j @ b.projection)
        return out

    def check(self) -> None:
        lams = self.lams
        assert np.all(lams > 0)
        assert np.all(np.diff(lams) > 0), "block eigenvalues must increase strictly"
        frames = [self.zero_space] + [b.basis for b in self.blocks]
        q = np.hstack([f for f in frames if f.shape[1] > 0])
        assert q.shape == (self.dim, self.dim), "blocks and kernel must span"
        check_close(q.T @ q, np.eye(self.dim), RESIDUAL_TOL)
        for b in self.blocks:
            assert b.basis.shape[1] % 2 == 0
            check_close(b.j @ b.j, -b.projection, RESIDUAL_TOL)
            check_close(b.j @ b.projection, b.j, RESIDUAL_TOL)


def _cluster_breaks(values: np.ndarray, gap_tol: float):
    """Split a sorted array into clusters separated by more than gap_tol."""
    clusters = []
    start = 0
    for i in range(1, values.size):
        if values[i] - values[i - 1] > gap_tol:
            clusters.append((start, i))
            start = i
    clusters.append((start, values.size))
    return clusters


def skew_spectral_decomposition(A, gap_tol: float = GAP_TOL) -> SkewSpectrum:
    """Decompose a skew-symmetric A via the symmetric PSD operator -A^2.

    Eigenvalues of -A^2 are clustered with gap_tol; the cluster at zero is the
    kernel, each positive cluster mu = lam^2 carries the complex structure
    J = A/lam.  Raises DegenerateSpectrum when clusters are smeared or an
    eigenspace cannot carry a complex structure (odd multiplicity).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    scale = max(1.0, float(np.linalg.norm(A)))
    if np.linalg.norm(A + A.T) > RESIDUAL_TOL * scale:
        raise NotSkew("operator is not skew-symmetric: ||A + A^T|| = %.3e"
                      % np.linalg.norm(A + A.T))

    m = -(A @ A)
    m = 0.5 * (m + m.T)
    mu, vecs = np.linalg.eigh(m)
    mu = np.maximum(mu, 0.0)

    # Virtual eigenvalue 0 is prepended so the kernel cluster is detected by
    # the same gap rule even when A is invertible.
    padded = np.concatenate([[0.0], mu])
    order = np.argsort(padded)
    clusters = _cluster_breaks(padded[order], gap_tol)

    zero_space = np.zeros((n, 0))
    blocks = []
    for start, end in clusters:
        idx = [order[i] - 1 for i in range(start, end) if order[i] > 0]
        vals = padded[order[start:end]]
        if vals.max() - vals.min() > gap_tol / 10.0:
            raise DegenerateSpectrum(
                "eigenvalue cluster of -A^2 spans [%.3e, %.3e] at gap_tol %.1e"
                % (vals.min(), vals.max(), gap_tol))
        contains_zero = any(order[i] == 0 for i in range(start, end))
        if contains_zero:
            zero_space = vecs[:, idx]
            continue
        if len(idx) % 2 != 0:
            raise DegenerateSpectrum(
                "eigenspace of -A^2 at %.6g has odd dimension %d"
                % (float(np.mean(vals)), len(idx)))
        lam = float(np.sqrt(np.mean(vals)))
        basis = vecs[:, idx]
        projection = basis @ basis.T
        j = (A @ projection) / lam
        blocks.append(SkewBlock(lam, basis, j, projection))

    blocks.sort(key=lambda b: b.lam)
    spectrum = SkewSpectrum(zero_space, blocks)
    # a block with mu below gap_tol merges into the kernel and is lost here;
    # the bound is that of check_close(atol=RESIDUAL_TOL * scale)
    residual = np.abs(spectrum.reconstruct() - A)
    if np.any(residual > RESIDUAL_TOL * scale + 1e-7 * np.abs(A)):
        raise DegenerateSpectrum("blocks do not reconstruct the operator: residual %.3e"
                                 % float(np.max(residual)))
    return spectrum


def minimal_polynomial_wrt(A, x) -> Polynomial:
    """Monic minimal polynomial of the skew operator A relative to the vector x.

    Product of (t^2 + lam_ell^2) over blocks meeting x, times t when the
    kernel component of x is nonzero.
    """
    spectrum = skew_spectral_decomposition(A)
    x = np.asarray(x, dtype=float)
    xnorm = np.linalg.norm(x)
    if xnorm == 0.0:
        return Polynomial([1.0])
    p = Polynomial([1.0])
    if np.linalg.norm(spectrum.zero_projection @ x) > ZERO_TOL * xnorm:
        p = p * Polynomial([0.0, 1.0])
    for block in spectrum.blocks:
        if np.linalg.norm(block.projection @ x) > ZERO_TOL * xnorm:
            p = p * Polynomial([block.lam ** 2, 0.0, 1.0])
    return p


def characteristic_polynomial(L) -> Polynomial:
    """Monic characteristic polynomial det(tI - L) via Faddeev-LeVerrier.

    The operator is normalized by its Frobenius norm first; dimensions here
    stay small enough (<= a few dozen) for the recursion to be stable.
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    assert L.shape == (n, n)
    scale = float(np.linalg.norm(L))
    if scale == 0.0:
        return Polynomial([0.0] * n + [1.0])
    ls = L / scale
    eye = np.eye(n)
    m = eye.copy()
    descending = [1.0]
    for k in range(1, n + 1):
        m = ls @ m
        c = -np.trace(m) / k
        descending.append(c)
        m += c * eye
    ascending = descending[::-1]
    coeffs = [c * scale ** (n - i) for i, c in enumerate(ascending)]
    return Polynomial(coeffs, zero_tol=0.0)


def evaluate_polynomial_at_operator(P: Polynomial, L) -> np.ndarray:
    """Horner evaluation of P at the square matrix L."""
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    if P.is_zero:
        return np.zeros((n, n))
    out = P.coefficients[-1] * np.eye(n)
    for c in P.coefficients[-2::-1]:
        out = out @ L + c * np.eye(n)
    return out


def symmetric_basis(n: int):
    """Orthonormal basis of symmetric n x n matrices under <S,T> = tr(ST)."""
    basis = []
    for i in range(n):
        e = np.zeros((n, n))
        e[i, i] = 1.0
        basis.append(e)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = inv_sqrt2
            basis.append(e)
    return basis


def operator_on_symmetric(f, n: int) -> np.ndarray:
    """Matrix of a linear map on Sym(n) in the symmetric_basis coordinates."""
    basis = symmetric_basis(n)
    cols = []
    for e in basis:
        fe = f(e)
        cols.append([np.sum(fe * b) for b in basis])
    return np.array(cols).T
