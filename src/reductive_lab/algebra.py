"""Numeric kernels shared by the geometric modules.

Polynomials with trailing-zero trimming, the canonical splitting of a
skew-symmetric operator into its kernel and invariant 2m-planes, the
matrix of a linear map on symmetric matrices, the fixed-seed unit
samples that the checks draw, and the one bound on the size of a chunked
temporary.  All arithmetic is double precision; exact
rational input is converted once on entry.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

__all__ = [
    "RESIDUAL_TOL",
    "GAP_TOL",
    "ZERO_TOL",
    "CHUNK_DOUBLES",
    "NotSkew",
    "DegenerateSpectrum",
    "Polynomial",
    "SkewBlock",
    "SkewSpectrum",
    "SkewSpectra",
    "skew_spectra",
    "skew_spectral_decomposition",
    "operator_on_symmetric",
    "orthonormal_pairs",
    "unit_rows",
    "chunks",
]

RESIDUAL_TOL = 1e-8
GAP_TOL = 1e-6
ZERO_TOL = 1e-10
CHUNK_DOUBLES = 1 << 15


def chunks(count: int, per_item: int) -> list:
    """Consecutive slices of range(count), each of at most CHUNK_DOUBLES
    doubles at per_item doubles an item (and at least one item): the one
    bound on the temporaries of every loop that works in chunks."""
    step = max(1, CHUNK_DOUBLES // max(1, per_item))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def check_close(actual, desired, atol: float, err_msg: str = "") -> None:
    """Raise AssertionError unless |actual - desired| <= atol + 1e-7 |desired|
    entry-wise: the bound and message layout of numpy's assert_allclose,
    without importing numpy.testing, and kept under python -O."""
    diff = np.abs(np.asarray(actual) - desired)
    if not np.all(diff <= atol + 1e-7 * np.abs(desired)):
        raise AssertionError("Not equal to tolerance rtol=1e-07, atol=%g\n%s\n"
                             "Max absolute difference: %.3g"
                             % (atol, err_msg, float(np.max(diff))))


def unit_rows(n: int, count: int, seed: int) -> np.ndarray:
    """(count, n) fixed-seed unit rows: one normal draw, each row normalized."""
    xs = np.random.default_rng(seed).normal(size=(count, n))
    return xs / np.linalg.norm(xs, axis=1)[:, None]


def orthonormal_pairs(n: int, count: int, seed: int):
    """Stacks xs, ys (count, n) of fixed-seed orthonormal pairs: unit x, and
    y orthogonalized against x and normalized, from one (count, 2, n) draw."""
    xs, ys = np.random.default_rng(seed).normal(size=(count, 2, n)).transpose(1, 0, 2)
    xs = xs / np.linalg.norm(xs, axis=1)[:, None]
    ys = ys - np.sum(ys * xs, axis=1)[:, None] * xs
    return xs, ys / np.linalg.norm(ys, axis=1)[:, None]


class NotSkew(ValueError):
    """Raised when an operator expected to be skew-symmetric is not."""


class DegenerateSpectrum(ValueError):
    """Eigenvalue clusters of -A^2 cannot be separated at GAP_TOL.  The
    caller should resample rather than trust the splitting."""


class Polynomial:
    """Real polynomial in one variable, coefficients ascending.

    Trailing coefficients of size at most ZERO_TOL are stripped, so the
    leading coefficient is nonzero unless the polynomial is zero.
    """

    def __init__(self, coefficients):
        coeffs = list(np.atleast_1d(np.asarray(coefficients, dtype=float)))
        while coeffs and abs(coeffs[-1]) <= ZERO_TOL:
            coeffs.pop()
        self.coefficients = np.asarray(coeffs, dtype=float)

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coefficients.size == 0

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial([])
        return Polynomial(np.convolve(self.coefficients, other.coefficients))

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
    def zero_projection(self) -> np.ndarray:
        return self.zero_space @ self.zero_space.T

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        for b in self.blocks:
            out += b.lam * (b.j @ b.projection)
        return out

    def check(self) -> None:
        lams = self.lams
        if not np.all(lams > 0):
            raise AssertionError("block eigenvalues must be positive")
        if not np.all(np.diff(lams) > 0):
            raise AssertionError("block eigenvalues must increase strictly")
        frames = [self.zero_space] + [b.basis for b in self.blocks]
        q = np.hstack([f for f in frames if f.shape[1] > 0])
        if q.shape != (self.dim, self.dim):
            raise AssertionError("blocks and kernel must span")
        check_close(q.T @ q, np.eye(self.dim), RESIDUAL_TOL)
        for b in self.blocks:
            if b.basis.shape[1] % 2:
                raise AssertionError("a block must have even dimension")
            check_close(b.j @ b.j, -b.projection, RESIDUAL_TOL)
            check_close(b.j @ b.projection, b.j, RESIDUAL_TOL)


# Skew spectral splits of a stack of skew operators, as arrays.  Row i is
# usable when reasons[i] is None.  Its block count is counts[i] and
# lams[i, :counts[i]] are the block values in increasing order.  Eigenvector
# column c of vecs[i] (of -A^2) lies in block labels[i, c] (0 for the
# kernel).  Rows with fewer blocks carry zeros in the unused slots of lams; a
# degenerate row carries the reason in place of None.
SkewSpectra = namedtuple("SkewSpectra", "vecs labels counts lams reasons")


def skew_spectra(As) -> SkewSpectra:
    """Decompose every skew-symmetric A of a stack (N, n, n) via -A^2.

    The eigenvalues of -A^2 come from one stacked eigh and are clustered
    with GAP_TOL; the cluster at zero is the kernel, each positive cluster
    mu = lam^2 carries the complex structure J = A/lam.  A row is marked
    degenerate when a cluster is smeared, an eigenspace cannot carry a
    complex structure (odd multiplicity), or the blocks do not reconstruct
    A.  Raises NotSkew when some A is not skew.
    """
    As = np.asarray(As, dtype=float)
    count, n = As.shape[0], As.shape[-1]
    scale = np.maximum(1.0, np.linalg.norm(As, axis=(1, 2)))
    asym = np.linalg.norm(As + As.transpose(0, 2, 1), axis=(1, 2))
    bad = np.flatnonzero(asym > RESIDUAL_TOL * scale)
    if bad.size:
        raise NotSkew("operator is not skew-symmetric: ||A + A^T|| = %.3e"
                      % asym[bad[0]])

    m = -(As @ As)
    m = 0.5 * (m + m.transpose(0, 2, 1))
    mu, vecs = np.linalg.eigh(m)
    mu = np.maximum(mu, 0.0)
    # Virtual eigenvalue 0 is prepended so the kernel cluster is detected by
    # the same gap rule even when A is invertible; label 0 is the kernel.
    padded = np.concatenate([np.zeros((count, 1)), mu], axis=1)
    labels = np.concatenate([np.zeros((count, 1), dtype=int),
                             np.cumsum(np.diff(padded, axis=1) > GAP_TOL, axis=1)], axis=1)
    counts = labels[:, -1]
    rmax = int(counts.max(initial=0))
    onehot = labels[:, :, None] == np.arange(rmax + 1)  # (N, n + 1, rmax + 1)
    sizes = onehot.sum(axis=1)
    lo = np.where(onehot, padded[:, :, None], np.inf).min(axis=1)
    hi = np.where(onehot, padded[:, :, None], -np.inf).max(axis=1)
    sums = np.einsum("ni,nik->nk", padded, onehot.astype(float))
    smeared = hi - lo > GAP_TOL / 10.0
    suspect = smeared | ((sizes % 2 == 1) & (np.arange(rmax + 1) > 0))  # 0: the kernel
    ok = ~np.any(suspect, axis=1)
    reasons = [None] * count
    for i in np.flatnonzero(~ok):  # the reason names the row's first suspect cluster
        k = np.argmax(suspect[i])
        reasons[i] = ("eigenvalue cluster of -A^2 spans [%.3e, %.3e] at gap_tol %.1e"
                      % (lo[i, k], hi[i, k], GAP_TOL) if smeared[i, k] else
                      "eigenspace of -A^2 at %.6g has odd dimension %d"
                      % (sums[i, k] / sizes[i, k], sizes[i, k]))
    lams = np.sqrt(sums[:, 1:] / np.maximum(sizes[:, 1:], 1))
    labels = labels[:, 1:]
    check_close(vecs[ok].transpose(0, 2, 1) @ vecs[ok], np.eye(n), RESIDUAL_TOL)
    # a block with mu below GAP_TOL merges into the kernel and is lost here:
    # A does not vanish on the kernel columns of vecs
    residual = np.linalg.norm(As @ (vecs * (labels == 0)[:, None, :]), axis=(1, 2))
    for i in np.flatnonzero(ok & (residual > RESIDUAL_TOL * scale)):
        reasons[i] = ("blocks do not reconstruct the operator: residual %.3e"
                      % float(residual[i]))
    return SkewSpectra(vecs, labels, counts, lams, reasons)


def skew_spectral_decomposition(A) -> SkewSpectrum:
    """Decompose a skew-symmetric A via the symmetric PSD operator -A^2: the
    one-row case of skew_spectra.  Raises NotSkew, or DegenerateSpectrum
    when the clusters of -A^2 admit no split (the caller should resample
    rather than trust it).
    """
    sp = skew_spectra(np.asarray(A, dtype=float)[None])
    if sp.reasons[0] is not None:
        raise DegenerateSpectrum(sp.reasons[0])
    a, vecs, labels = np.asarray(A, dtype=float), sp.vecs[0], sp.labels[0]
    blocks = []
    for k in range(1, sp.counts[0] + 1):
        basis = vecs[:, labels == k]
        projection = basis @ basis.T
        blocks.append(SkewBlock(sp.lams[0, k - 1], basis, a @ projection / sp.lams[0, k - 1],
                                projection))
    return SkewSpectrum(vecs[:, labels == 0], blocks)


def operator_on_symmetric(f, n: int) -> np.ndarray:
    """Matrix of a linear map f on Sym(n) in orthonormal coordinates under
    <S,T> = tr(ST): the entries i <= j in row-major order, weighted sqrt(2)
    off the diagonal.  f is applied once per basis element."""
    i, j = np.triu_indices(n)
    weights = np.where(i == j, 1.0, np.sqrt(2.0))
    basis = np.zeros((len(i), n, n))
    basis[np.arange(len(i)), i, j] = basis[np.arange(len(i)), j, i] = 1.0 / weights
    images = np.array([f(e) for e in basis])
    return (images[:, i, j] * weights).T
