"""Naturally reductive triples and their infinitesimal models.

A triple (g, h, B) with invariant B and B-orthogonal reductive splitting
g = h + m induces the model data on m: torsion tau(x,y) = -[x,y]_m and
canonical curvature rbar(x,y) = -ad([x,y]_h)|_m, both expressed in a
B-orthonormal basis of m so the metric is the identity.  The curvature sign
convention is R(U,X,X) := R_(U,X)X, anchored by the constant-curvature
oracle on the round 3-sphere in the tests.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .algebra import check_close, chunks
from .liealg import (BilinearForm, LieAlgebra, null_space, orthocomplement,
                     orthonormalize)

__all__ = [
    "NotReductive",
    "IndefiniteMetric",
    "NonInvariantForm",
    "InadmissibleS",
    "NotNormalSubalgebra",
    "ReductiveTriple",
    "InfinitesimalModel",
    "build_triple",
    "to_model",
    "jacobi_operator",
    "ricci",
    "scalar_curvature",
    "extend_fibered",
]


_SLAB = 64  # inner indices per product of InfinitesimalModel.curvature_term


class NotReductive(ValueError):
    pass


class IndefiniteMetric(ValueError):
    pass


class NonInvariantForm(ValueError):
    pass


class InadmissibleS(ValueError):
    pass


class NotNormalSubalgebra(ValueError):
    pass


class ReductiveTriple:
    """(g, h, B) with a B-orthonormal basis of m = h-orthocomplement."""

    def __init__(self, g: LieAlgebra, h_basis, B: BilinearForm, m_basis):
        self.g = g
        self.h_basis = np.asarray(h_basis, dtype=float).reshape(g.dim, -1)
        self.B = B
        self.m_basis = np.asarray(m_basis, dtype=float)
        self.dim_m = self.m_basis.shape[1]
        self.check()

    @cached_property
    def model(self) -> "InfinitesimalModel":
        """The infinitesimal model, built by to_model on first read."""
        return to_model(self)

    def m_component(self, v) -> np.ndarray:
        """Coordinates of the m-part of g-vectors (last axis) in the
        orthonormal m-basis."""
        return v @ (self.B.matrix @ self.m_basis)

    def h_component(self, v) -> np.ndarray:
        """The h-part of g-vectors (last axis), as g-vectors."""
        return v - self.m_component(v) @ self.m_basis.T

    def check(self) -> None:
        """h and m span g, m is B-orthonormal, and h is B-orthogonal to m
        with [h, h] in h and [h, m] in m, else NotReductive.  The span is
        the rank of [h | m] with unit columns at 1e-10, and m^T B m is I
        within 1e-10 (1e-10 + 1e-7 on the diagonal); the h-checks read h with
        unit columns, B / max|B| (so m times sqrt(max|B|)) and the brackets
        / max|c^k_ij|, so a scaled form or rescaled isotropy columns pass or
        fail alike."""
        g, m, B = self.g, self.m_basis, self.B
        def unit(a):
            lengths = np.linalg.norm(a, axis=0)
            return a / np.where(lengths > 0, lengths, 1.0)
        h = unit(self.h_basis)
        both = np.column_stack([h, unit(m)])
        sv = np.linalg.svd(both, compute_uv=False)
        rank = int(np.sum(sv > 1e-10 * np.max(sv, initial=0.0)))
        if both.shape[1] != g.dim or rank != g.dim:
            raise NotReductive("h and m do not span g: dim h + dim m = %d, rank %d, dim g = %d"
                               % (both.shape[1], rank, g.dim))
        dev = np.abs(m.T @ B.matrix @ m - np.eye(self.dim_m))
        if not np.all(dev <= 1e-10 + 1e-7 * np.eye(self.dim_m)):
            raise NotReductive("m-basis not B-orthonormal: max deviation %.3e" % np.max(dev))
        root = np.sqrt(np.max(np.abs(B.matrix)))
        worst_hb = float(np.max(np.abs(h.T @ B.matrix @ m), initial=0.0)) / root
        if not worst_hb <= 1e-10:
            raise NotReductive("h and m not B-orthogonal: residual %.3e" % worst_hb)
        scale = root * (np.max(np.abs(g._upper[3]), initial=0.0) or 1.0)
        worst_hh = float(np.max(np.abs(self.m_component(g.brackets(h, h))), initial=0.0)) / scale
        worst_hm = float(np.max(np.abs(g.brackets(h, m) @ (B.matrix @ h)), initial=0.0)) / scale
        if worst_hh > 1e-9:
            raise NotReductive("[h,h] leaves h: residual %.3e" % worst_hh)
        if worst_hm > 1e-9:
            raise NotReductive("[h,m] leaves m: residual %.3e" % worst_hm)


def build_triple(g: LieAlgebra, h_basis, B: BilinearForm,
                 m_basis=None) -> ReductiveTriple:
    """Construct and fully verify a naturally reductive triple.

    When m_basis is omitted it is computed as the B-orthocomplement of h,
    orthonormalized by modified Gram-Schmidt against B.  The invariance test
    is relative to max|B| max|c^k_ij|; the degeneracy and positivity tests
    read the spectrum of the form with every row scaled to unit size.  So a
    scaled form, or rescaled basis vectors, pass or fail alike.
    """
    residual = B.invariance_residual(g)
    if residual > 1e-9 * np.max(np.abs(B.matrix)) * np.max(np.abs(g.tensor), initial=0.0):
        raise NonInvariantForm("B is not invariant: residual %.3e" % residual)
    if np.min(np.abs(_unit_row_spectrum(B.matrix))) <= 1e-10:
        raise NonInvariantForm("B is degenerate on g")
    h_basis = np.asarray(h_basis, dtype=float).reshape(g.dim, -1)
    m_cols = orthocomplement(g, h_basis, B) if m_basis is None \
        else np.asarray(m_basis, dtype=float)
    if m_cols.shape[1] and np.min(_unit_row_spectrum(m_cols.T @ B.matrix @ m_cols)) <= 1e-10:
        raise IndefiniteMetric("B restricted to m is not positive definite")
    return ReductiveTriple(g, h_basis, B,
                           orthonormalize(m_cols, B) if m_basis is None else m_cols)


def _unit_row_spectrum(a) -> np.ndarray:
    """Eigenvalues of D a D for a symmetric a, D = diag(max_j |a_ij|)^(-1/2):
    the spectrum with every row scaled to unit size, which does not change
    when a is scaled or its basis vectors are.  A zero row gives a zero
    eigenvalue."""
    size = np.max(np.abs(a), axis=1)
    d = np.divide(1.0, np.sqrt(size), out=np.zeros_like(size), where=size > 0)
    return np.linalg.eigvalsh(d[:, None] * a * d)


class InfinitesimalModel:
    """Torsion 3-form and canonical curvature in orthonormal coordinates.

    tau has shape (n, n, n) with tau[i,j,k] = g(tau(e_i, e_j), e_k); rbar has
    shape (n, n, n, n) with rbar[i,j] the matrix of the skew endomorphism
    rbar(e_i, e_j).  The metric is the identity by construction.  rbar is
    stored once, as the (n^2, n^2) matrix with rows (j, b) and columns
    (a, u) of rbar[u, j, a, b], and model.rbar is a view of it.
    """

    def __init__(self, tau, rbar):
        self.tau = np.asarray(tau, dtype=float)
        rbar = np.asarray(rbar, dtype=float)
        self.n = n = self.tau.shape[0]
        if self.tau.shape != (n,) * 3 or rbar.shape != (n,) * 4:
            raise ValueError("tau and rbar must have shapes (n,) * 3 and (n,) * 4, got %s and %s"
                             % (self.tau.shape, rbar.shape))
        self._curvature = rbar.transpose(1, 3, 2, 0).reshape(n * n, n * n)
        self.rbar = self._curvature.reshape(n, n, n, n).transpose(3, 0, 2, 1)
        self.triple = None
        self.check()

    def check(self) -> None:
        """tau and rbar are finite (else ValueError) and skew in each slot pair,
        up to 1e-10 max|tensor|; curvature_scale = max(max|tau|^2, max|rbar|).

        rbar is read from the stored matrix in slabs of at most
        algebra.CHUNK_DOUBLES entries, so that each slot swap stays in cache."""
        t, n = self.tau, self.n
        # the one n^4 temporary: freeing it raises glibc's dynamic mmap and trim
        # thresholds, so later MB-sized temporaries (relation detection) reuse
        # heap pages instead of faulting in fresh ones
        rbar_max = np.max(np.abs(self._curvature), initial=0.0)
        tau_max = np.max(np.abs(t), initial=0.0)
        if not np.all(np.isfinite([tau_max, rbar_max])):
            raise ValueError("tau and rbar must be finite")
        for name, skew in (("tau(x, y)", t + t.transpose(1, 0, 2)),
                           ("tau(x, ., .)", t + t.transpose(0, 2, 1))):
            if not np.max(np.abs(skew), initial=0.0) <= 1e-10 * tau_max:
                raise AssertionError("%s is not skew" % name)
        c = self._curvature.reshape(n, n, n, n)  # c[j, b, a, u] = rbar[u, j, a, b]
        pair, endo = [0.0], [0.0]
        for b in chunks(n, n ** 3):
            slab = np.ascontiguousarray(c[:, b])
            pair.append(np.abs(slab + slab.transpose(3, 1, 2, 0)).max())
            endo.append(np.abs(slab + c[:, :, b].transpose(0, 2, 1, 3)).max())
        for name, worst in (("rbar(x, y)", pair), ("rbar(x, y) as an endomorphism", endo)):
            if not np.max(worst) <= 1e-10 * rbar_max:
                raise AssertionError("%s is not skew" % name)
        self.curvature_scale = max(tau_max ** 2, rbar_max)

    def tau_matrix(self, x) -> np.ndarray:
        """The skew endomorphism tau_X, metric-dual of tau(X, ., .), for one
        X or for every row X of a stack."""
        return np.einsum("...a,abc->...cb", np.asarray(x, float), self.tau)

    def curvature_term(self, x) -> np.ndarray:
        """rbar(., X)X, i.e. R_0(X) without the torsion-square part, for one
        X or for every row X of a stack: the outer product X (x) X times the
        stored curvature matrix, summed over slabs of 64 inner indices in
        order, so that a threaded BLAS does not split the sum and its
        rounding does not follow the thread count."""
        x = np.asarray(x, dtype=float)
        outer = (x[..., :, None] * x[..., None, :]).reshape(x.shape[:-1] + (self.n ** 2,))
        c = self._curvature
        out = outer[..., :_SLAB] @ c[:_SLAB]
        for i in range(_SLAB, len(c), _SLAB):
            out += outer[..., i:i + _SLAB] @ c[i:i + _SLAB]
        return out.reshape(x.shape + (self.n,))

    def holonomy_residual(self) -> float:
        """Maximal residual of rbar(e_i, e_j) acting on tau as a derivation.

        One row i at a time, over all j > i, as three matrix products of
        rbar(e_i, e_j) with tau, one per slot, so memory stays O(n^4).
        """
        n, t = self.n, self.tau
        first = t.reshape(n, n * n)                      # [m, (b, c)]
        middle = t.transpose(1, 0, 2).reshape(n, n * n)  # [m, (a, c)]
        last = t.reshape(n * n, n)                       # [(a, b), m]
        c = self._curvature.reshape(n, n, n, n)  # c[j, m, a, i] = rbar[i, j, a, m]
        worst = 0.0
        for i in range(n - 1):
            a = c[i + 1:, :, :, i].transpose(0, 2, 1).reshape(-1, n)  # [(j, a), m]
            rows = n - 1 - i
            dt = (a @ first).reshape(rows, n, n, n)
            dt += (a @ middle).reshape(rows, n, n, n).transpose(0, 2, 1, 3)
            dt += (last @ a.T).reshape(n, n, rows, n).transpose(2, 0, 1, 3)
            worst = max(worst, float(np.abs(dt).max()))
        return worst


def to_model(triple: ReductiveTriple) -> InfinitesimalModel:
    """Infinitesimal model of a triple: tau(x,y) = -[x,y]_m, rbar = -ad([x,y]_h)."""
    g, m, n = triple.g, triple.m_basis, triple.dim_m
    mm = g.brackets(m, m)
    mm = 0.5 * (mm - mm.transpose(1, 0, 2))  # exactly skew in (i, j)
    tau = -triple.m_component(mm)
    h_part = triple.h_component(mm).reshape(n * n, g.dim)
    # column b of rbar(e_i, e_j) is -[h_part_ij, m_b] in m-coordinates
    rbar = -triple.m_component(g.brackets(h_part.T, m)).transpose(0, 2, 1)
    model = InfinitesimalModel(tau, rbar.reshape(n, n, n, n))
    model.triple = triple
    residual = model.holonomy_residual()
    # relative to the curvature scale: the residual scales as its 3/2 power
    # under a scaled form, and tau may be rounding noise
    if not residual <= 1e-9 * model.curvature_scale ** 1.5:
        raise AssertionError("canonical curvature does not preserve tau: %.3e" % residual)
    return model


def jacobi_operator(model: InfinitesimalModel, x, t=None) -> np.ndarray:
    """R_0(X): U -> rbar(U, X)X - (1/4) tau_X^2 U (symmetric, kills X), for
    one X or for every row X of a stack; t is model.tau_matrix(x) when the
    caller already has it."""
    if t is None:
        t = model.tau_matrix(x)
    return model.curvature_term(x) - 0.25 * (t @ t)


def ricci(model: InfinitesimalModel, x):
    """Ric(X, X) = tr R_0(X), for one X or for every row X of a stack."""
    return np.trace(jacobi_operator(model, x), axis1=-2, axis2=-1)


def scalar_curvature(model: InfinitesimalModel) -> float:
    return float(np.sum(ricci(model, np.eye(model.n))))


def extend_fibered(triple: ReductiveTriple, h_normal, s: float) -> ReductiveTriple:
    """One-parameter family of naturally reductive metrics on a fiber bundle
    over the base triple (g, k, B), for h normal in the isotropy algebra k.

    The extended algebra is g + k/h with the fiber factor carrying (1/s) B,
    the isotropy is embedded diagonally, and s = 0 returns the normal triple
    on G/H in the same frame, base m then fiber.  Admissible s keeps (1+s) B
    positive on the fiber directions.  The fiber k/h may have any dimension
    q; the result is verified by _verify_extension.
    """
    g, k_basis, B = triple.g, triple.h_basis, triple.B
    h_normal = np.asarray(h_normal, dtype=float).reshape(g.dim, -1)

    # h must sit inside k and be an ideal of it
    k_pinv = np.linalg.pinv(k_basis)
    if h_normal.shape[1]:
        if np.max(np.abs(k_basis @ (k_pinv @ h_normal) - h_normal)) > 1e-10:
            raise NotNormalSubalgebra("h is not contained in the isotropy algebra")
        v = g.brackets(k_basis, h_normal)
        h_proj = h_normal @ np.linalg.pinv(h_normal)
        if np.max(np.abs(v @ h_proj.T - v), initial=0.0) > 1e-9:
            raise NotNormalSubalgebra("[k, h] leaves h")

    # fiber directions: B-orthocomplement of h inside k
    k_gram = k_basis.T @ B.matrix @ k_basis
    h_in_k = k_pinv @ h_normal
    z_in_k = null_space(h_in_k.T @ k_gram)
    z_cols = k_basis @ z_in_k
    q = z_cols.shape[1]

    fiber_gram = z_cols.T @ B.matrix @ z_cols
    fiber_eigs = np.linalg.eigvalsh(fiber_gram)
    if np.min(fiber_eigs) > 0:
        sign = 1.0
    elif np.max(fiber_eigs) < 0:
        sign = -1.0
    else:
        raise InadmissibleS("B is indefinite on the fiber directions")
    if not sign * (1.0 + s) > 0:
        raise InadmissibleS("s = %g is outside the admissible range" % s)
    z_cols = orthonormalize(z_cols, B if sign > 0 else B.scaled(-1.0))
    if s == 0.0:
        return build_triple(g, h_normal, B, m_basis=np.column_stack([triple.m_basis, z_cols]))

    ghat, bhat = _extended_algebra(g, B, z_cols, s, sign)
    d = g.dim
    khat = np.zeros((d + q, h_normal.shape[1] + q))
    khat[:d, :h_normal.shape[1]] = h_normal
    khat[:d, h_normal.shape[1]:] = z_cols
    khat[d:, h_normal.shape[1]:] = np.eye(q)

    # adapted m-basis: base horizontal vectors, then the fiber directions
    scale = 1.0 / np.sqrt(sign * (1.0 + s))
    mhat = np.zeros((d + q, triple.dim_m + q))
    mhat[:d, :triple.dim_m] = triple.m_basis
    mhat[:d, triple.dim_m:] = z_cols * scale
    mhat[d:, triple.dim_m:] = -s * scale * np.eye(q)

    extended = build_triple(ghat, khat, bhat, m_basis=mhat)
    _verify_extension(triple, extended, z_cols, s, sign)
    return extended


def _extended_algebra(g: LieAlgebra, B: BilinearForm, z_cols, s: float, sign: float):
    """g + (k/h) with the fiber carrying the quotient bracket and (1/s) B."""
    d, q = g.dim, z_cols.shape[1]
    i, j = np.triu_indices(q, 1)
    # z-columns are (sign B)-orthonormal, so sign B z_cols reads off coordinates
    coords = sign * (g.brackets(z_cols, z_cols)[i, j] @ (B.matrix @ z_cols))
    p, k = np.nonzero(np.abs(coords) > 1e-12)
    gi, gj, gk, gv = g._upper
    rows = np.concatenate([np.column_stack([gi, gj, gk, gv]),
                           np.column_stack([d + i[p], d + j[p], d + k, coords[p, k]])])
    ghat = LieAlgebra(d + q, rows)
    bm = np.zeros((d + q, d + q))
    bm[:d, :d] = B.matrix
    bm[d:, d:] = (sign / s) * np.eye(q)
    return ghat, BilinearForm(bm)


def _verify_extension(base: ReductiveTriple, extended: ReductiveTriple,
                      z_cols, s: float, sign: float) -> None:
    """Postcondition of extend_fibered, on the models of both triples.

    Horizontal torsion is unchanged and the vertical part is the isotropy
    action of the fiber directions z_cols scaled by 1/sqrt(|1+s|) (the
    O'Neill part); for a 1-dim fiber the full closed forms of the extended
    torsion and curvature hold.
    Tolerances are 1e-9 of max|tau| and of max|rbar| of the extension, so
    that they hold alike for a scaled form.
    """
    n = base.dim_m
    model, base_model = extended.model, base.model
    tol_t = 1e-9 * np.max(np.abs(model.tau))
    tol_r = 1e-9 * np.max(np.abs(model._curvature))
    check_close(model.tau[:n, :n, :n], base_model.tau, tol_t,
                err_msg="horizontal torsion changed")
    denom = np.sqrt(sign * (1.0 + s))
    # rhos[a] is the isotropy action of z_a on m: column b is [z_a, m_b]_m
    rhos = base.m_component(base.g.brackets(z_cols, base.m_basis)).transpose(0, 2, 1)
    # tau_hat(x, y, w_a) = -<rho_a x, y> / sqrt(|1+s|)
    check_close(model.tau[:n, :n, n:], -rhos.transpose(2, 1, 0) / denom, tol_t,
                err_msg="vertical torsion wrong")
    if z_cols.shape[1] == 1:
        if not np.max(np.abs(model.tau[:, n:, n:])) < tol_t:
            raise AssertionError("torsion has a vertical-vertical part")
        rho = rhos[0]
        form = rho.T  # form[i, j] = <rho e_i, e_j>
        expected_r = base_model.rbar + \
            np.einsum("ij,ab->ijab", form, rho) / (sign * (1.0 + s))
        check_close(model.rbar[:n, :n, :n, :n], expected_r, tol_r,
                    err_msg="horizontal curvature wrong")
        if not (np.max(np.abs(model.rbar[n:])) < tol_r
                and np.max(np.abs(model.rbar[:, :, n:])) < tol_r):
            raise AssertionError("curvature has a vertical part")
