"""Derivative operator calculus on Jacobi operators and linear Jacobi
relations.

The central object is the derivation T_X S = (S tau_X - tau_X S) / 2 acting
on symmetric endomorphisms; iterating it on the Jacobi operator produces the
symmetrized curvature derivatives R_k(X) = T_X^k R_0(X).  A linear Jacobi
relation is a monic polynomial P with P(T_X) R_0(X) = 0 for all X; this
module detects one, certifies minimality through the eigenspace components of
R_0(X) along the skew spectrum of tau_X, computes the universal relation
(the characteristic polynomial of the restricted derivation) exactly from
the spectrum of tau_X, and checks the trace-free (twistor) consequences.

Relations are polynomial identities in X, so verification on a fixed-seed
sample plan (pseudorandom unit vectors plus basis vectors and normalized
pairwise sums) stands in for "for all X".
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .algebra import Polynomial, check_close, chunks, skew_spectra, unit_rows
from .liealg import null_space
from .reductive import InfinitesimalModel, ReductiveTriple, jacobi_operator

__all__ = [
    "InsufficientSamples",
    "PolarizationRankDeficient",
    "JacobiFamily",
    "LjrVerdict",
    "sample_vectors",
    "t_apply",
    "check_ljr",
    "minimal_ljr",
    "component_split",
    "universal_jr",
    "isotropy_invariance_check",
    "verify_twistor",
]

CONSTANCY_TOL = 1e-6
VANISH_TOL = 1e-7
SAMPLE_FLOOR = 8


class InsufficientSamples(ValueError):
    pass


class PolarizationRankDeficient(ValueError):
    pass


def sample_vectors(n: int, count: int = 64, seed: int = 0) -> np.ndarray:
    """Unit sample plan: `count` fixed-seed unit vectors, the basis vectors,
    and all normalized pairwise basis sums."""
    i, j = np.triu_indices(n, 1)
    pairs = (np.eye(n)[i] + np.eye(n)[j]) / np.sqrt(2.0)
    return np.vstack([unit_rows(n, count, seed), np.eye(n), pairs])


def t_apply(model: InfinitesimalModel, x, s) -> np.ndarray:
    """The derivation T_X on a symmetric endomorphism: (S tau_X - tau_X S)/2."""
    s = np.asarray(s, dtype=float)
    if not np.max(np.abs(s - s.T)) < 1e-8 * max(1.0, float(np.max(np.abs(s)))):
        raise ValueError("T_X acts on symmetric endomorphisms; S is not symmetric")
    t = model.tau_matrix(x)
    return 0.5 * (s @ t - t @ s)


def _sizes(r0, t, k: int) -> np.ndarray:
    """Sizes s_j(X) = |R_0(X)|_F omega^j >= |R_j(X)|_F, j = 0..k, shape (N, k+1),
    from stacks R_0(X), tau_X (N, n, n): omega = max(rho, 1e-4 |R_0(X)|_F^(1/2))
    and rho = |(tau_X^2)^4|_F^(1/8) bounds |T_X| within n^(1/16).  They scale
    like R_j with the metric and do not depend on the orthonormal frame."""
    norm = np.linalg.norm(r0, axis=(1, 2))[:, None]
    if k == 0:
        return norm
    rho = np.linalg.norm(np.linalg.matrix_power(t @ t, 4), axis=(1, 2)) ** 0.125
    return norm * np.maximum(rho[:, None], 1e-4 * np.sqrt(norm)) ** np.arange(k + 1)


class JacobiFamily:
    """Symmetrized curvature derivatives R_k(X) = T_X^k R_0(X) of a model,
    computed for stacks of base vectors X.

    Every computed R_k(X) is checked to be symmetric and to annihilate X up
    to 1e-9 s_k(X) (see _sizes).
    """

    def __init__(self, model: InfinitesimalModel):
        self.model = model
        self.n = model.n

    def blocks(self, xs, k: int, t=None):
        """R_0(X), ..., R_k(X) for every row X of xs as checked blocks of
        consecutive orders: yields (j, ops, size), ops = R_j..R_(j+g-1)
        (N, g, n, n) and size their bounds s_j..s_(j+g-1) (N, g), with
        N g n^2 <= algebra.CHUNK_DOUBLES, or g = 1 where N n^2 alone exceeds
        it.  tau_X is contracted once (t, when the caller has it), and the
        bounds come from one _sizes call."""
        xs = np.asarray(xs, dtype=float).reshape(-1, self.n)
        if t is None:
            t = self.model.tau_matrix(xs)
        prev = jacobi_operator(self.model, xs, t)
        sizes = _sizes(prev, t, k)
        lengths = np.linalg.norm(xs, axis=1)[:, None]
        for orders in chunks(k + 1, xs.size * self.n):
            j = orders.start
            ops = np.empty((len(xs), orders.stop - j, self.n, self.n))
            for i in range(ops.shape[1]):
                ops[:, i] = prev if i + j == 0 else 0.5 * (prev @ t - t @ prev)
                prev = ops[:, i]
            size = sizes[:, orders]
            scale = 1e-9 * size
            if np.any(np.max(np.abs(ops - ops.swapaxes(2, 3)), axis=(2, 3)) > scale):
                raise AssertionError("R_k(X) is not symmetric")
            image = np.max(np.abs(ops @ xs[:, None, :, None]), axis=(2, 3))
            if np.any(image > scale * lengths):
                raise AssertionError("R_k(X) does not annihilate X")
            yield j, ops, size

    def stack(self, xs, k: int, t=None) -> np.ndarray:
        """R_0(X), ..., R_k(X) for every row X of xs, shape (N, k+1, n, n):
        the blocks joined."""
        parts = [ops for _, ops, _ in self.blocks(xs, k, t)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def operators(self, x, k: int) -> list:
        """[R_0(X), ..., R_k(X)] for one X: the one-row case of stack."""
        return list(self.stack(x, k)[0])


def _sample_rows(n: int, samples, seed: int) -> np.ndarray:
    """The samples as rows (N, n): an array as given, a count as the plan
    sample_vectors(n, samples, seed)."""
    if not isinstance(samples, np.ndarray):
        return sample_vectors(n, count=samples, seed=seed)
    if samples.ndim != 2 or samples.shape[1] != n or not len(samples):
        raise ValueError("samples must be an array of shape (N, %d) with N >= 1, got %s"
                         % (n, samples.shape))
    return samples


def _scaled_rows(family: JacobiFamily, samples, seed: int):
    """The sample rows (_sample_rows) times 2^-e, and e = frexp(curvature_scale)[1] // 2:
    exactly, to the curvature scale [1/2, 2) that the thresholds hold at."""
    e = int(np.frexp(family.model.curvature_scale)[1] // 2)
    return np.ldexp(_sample_rows(family.n, samples, seed), -e), e


def check_ljr(family: JacobiFamily, p: Polynomial, samples=64,
              seed: int = 0) -> float:
    """Max over samples of the relation residual of a monic P = sum a_k
    lambda^k: |sum a_k R_k(X)|_F / sum |a_k| s_k(X), s_k the size bound of
    _sizes.  It does not depend on the metric scale or on the orthonormal
    frame; samples with R_0(X) = 0 are skipped.  Both sums accumulate over
    the blocks of chunks of algebra.CHUNK_DOUBLES / n^2 samples.  The rows
    are read at the curvature scale (_scaled_rows) and each a_k is scaled by
    2^(-e (deg - k)): exact, and the residual does not change, but R_k(X)
    and s_k(X) neither under- nor overflow at extreme torsion."""
    if abs(p.coefficients[-1] - 1.0) > 1e-12:
        raise ValueError("linear Jacobi relation polynomials must be monic")
    xs, e = _scaled_rows(family, samples, seed)
    coefficients = np.ldexp(p.coefficients, -e * np.arange(p.degree, -1, -1))
    worst = 0.0
    for rows in chunks(len(xs), family.n ** 2):
        total = den = 0.0
        for j, ops, size in family.blocks(xs[rows], p.degree):
            a = coefficients[j:j + ops.shape[1]]
            total += np.einsum("k,pkij->pij", a, ops)
            den += size @ np.abs(a)
        keep = den != 0  # a non-finite size is kept: its NaN or inf propagates
        # both scaled by the power of two 2^-e with den = f 2^e, 1/2 <= f < 1:
        # exact, and the squares in the norm cannot overflow
        e = np.frexp(den[keep])[1]
        rel = (np.linalg.norm(np.ldexp(total[keep], -e[:, None, None]), axis=(1, 2))
               / np.ldexp(den[keep], -e))
        worst = float(np.max(rel, initial=worst))
    return worst


def component_split(spectrum, s) -> dict:
    """Split a symmetric S along the skew spectrum of A = tau_X.

    Keys: "0,0"; "0,k" for the zero-space/block-k cross part; "k,l:(1,1)" and
    "k,l:(2,0)+(0,2)" for 1 <= k <= l.  Each component is an eigenvector of
    -(A star)^2 = -[A, [A, .]] with eigenvalue 0, lambda_k^2,
    (lambda_l - lambda_k)^2, (lambda_l + lambda_k)^2 respectively: the
    one-row case of _split_table and its checks, rotated back, V (M . X) V^T.
    """
    frames = [spectrum.zero_space] + [b.basis for b in spectrum.blocks]
    vecs = np.hstack(frames)
    labels = np.repeat(np.arange(len(frames)), [f.shape[1] for f in frames])
    keys, _, _, (table, onehot, rot, q) = _split_table(
        vecs[None], labels[None], spectrum.lams[None], spectrum.reconstruct()[None],
        np.asarray(s, dtype=float)[None])
    sources = (rot[0], 0.5 * (rot[0] - q[0]), 0.5 * (rot[0] + q[0]))
    masks = onehot[0].T[table[1], :, None] * onehot[0].T[table[2], None, :]  # labels k, l
    return {key: vecs @ (np.maximum(m, m.T) * sources[i]) @ vecs.T
            for key, i, m in zip(keys, table[0], masks)}


def _split_table(vecs, labels, lams, tau, s):
    """Components of symmetric S (..., N, n, n) along the skew spectra of
    tau (N, n, n) with r blocks, from the eigenbases V of -tau^2, their
    column labels (N, n) (0: kernel) and the block values lams (N, r).

    J' = V^T tau V over the block value of each column's label (0 on the
    kernel) is block-diagonal, so with S' = V^T S V and Q = J' S' J' a
    component is the mask at labels k, l of source 0, 1 or 2: S' ("0,0",
    "0,k"), (S' - Q)/2 ("k,l:(1,1)") or (S' + Q)/2 ("k,l:(2,0)+(0,2)").
    Checked per row: V^T tau V vanishes off the labels (1e-8 max(1,
    |tau|_F)) and J'^2 = -1 on the block columns (1e-8 entry-wise), so each
    component is a -(tau star)^2 eigenvector; the squared norms add up to
    |S|_F^2 (1e-8 max(1, |S|_F)^2).  Returns the keys in component_split's
    order, w (N, K) = lambda_l -+ lambda_k (+ for source 2, lambda_0 = 0),
    the squared norms (..., N, K) as block sums, and for component_split the
    (source, k, l) table (3, K), the label indicators (N, n, r+1), S' and Q.
    """
    r = lams.shape[1]
    rows = [(0, 0, 0)] + [row for k in range(1, r + 1) for row in
                          [(0, 0, k)] + [(i, k, l) for l in range(k, r + 1) for i in (1, 2)]]
    keys = ["%d,%d%s" % (k, l, ("", ":(1,1)", ":(2,0)+(0,2)")[i]) for i, k, l in rows]
    src, ks, ls = table = np.array(rows).T
    vt = vecs.swapaxes(1, 2)
    t = vt @ tau @ vecs
    off = np.linalg.norm(np.where(labels[:, :, None] == labels[:, None, :], 0.0, t), axis=(1, 2))
    if np.any(off > 1e-8 * np.maximum(1.0, np.linalg.norm(tau, axis=(1, 2)))):
        raise AssertionError("the eigenbasis does not block-diagonalize tau_X: %.3e" % np.max(off))
    lam0 = np.concatenate([np.zeros((len(lams), 1)), lams], axis=1)
    j = t / np.take_along_axis(np.where(lam0 > 0, lam0, np.inf), labels, axis=1)[:, None, :]
    check_close(j @ j, -np.eye(vecs.shape[1]) * (labels > 0)[:, None, :], 1e-8,
                "tau_X over its block values is not a complex structure")
    total = np.einsum("...ij,...ij->...", s, s)
    rot = vt @ s @ vecs
    q = j @ rot @ j
    onehot = (labels[:, :, None] == np.arange(r + 1)).astype(float)
    ot, d = onehot.swapaxes(1, 2), np.empty_like(rot)  # d: scratch, squared in place
    sums = np.stack([ot @ np.square(rot, out=d) @ onehot,  # (..., N, 3, r+1, r+1)
                     0.25 * ot @ np.square(np.subtract(rot, q, out=d), out=d) @ onehot,
                     0.25 * ot @ np.square(np.add(rot, q, out=d), out=d) @ onehot], axis=-3)
    sq = sums[..., src, ks, ls] + np.where(ks != ls, sums[..., src, ls, ks], 0.0)
    err = np.abs(np.sum(sq, axis=-1) - total) / np.maximum(1.0, total)
    if np.any(err > 1e-8):
        raise AssertionError("the components do not add up to S: %.3e" % np.max(err))
    w = lam0[:, ls] + np.where(src == 2, 1.0, -1.0) * lam0[:, ks]
    return keys, w, sq, (table, onehot, rot, q)


class LjrVerdict:
    """Outcome of minimal_ljr: existence, the minimal polynomial when there
    is one, per-sample eigen diagnostics, and the verification residual."""

    def __init__(self, exists, polynomial, eigen_structure, max_residual):
        self.exists = exists
        self.polynomial = polynomial
        self.eigen_structure = eigen_structure
        self.max_residual = max_residual

    def __repr__(self):
        if not self.exists:
            return "LjrVerdict(exists=False)"
        return "LjrVerdict(exists=True, polynomial=%r, max_residual=%.3e)" % (
            self.polynomial, self.max_residual)


def _detect_rows(family: JacobiFamily, xs):
    """Split R_0(X) and the curvature term R_0(X) + tau_X^2/4 of every row X
    of xs as block sums in the eigenbasis of -tau_X^2, checked once per row
    (_split_table).  Returns the block count of every row (-1 where the
    spectrum is degenerate, -2 where R_0(X) is near zero) and, per block
    count r, the lambdas (N_r, r), the component keys, w (N_r, K) and the
    component relnorms of R_0 and of the curvature term (N_r, K) of its
    rows, in row order."""
    t = family.model.tau_matrix(xs)
    spectra = skew_spectra(t)
    status = np.where([r is None for r in spectra.reasons], spectra.counts, -1)
    rows = np.flatnonzero(status >= 0)
    r0 = family.stack(xs[rows], 0, t[rows])[:, 0]
    norm = np.linalg.norm(r0, axis=(1, 2))
    zero = norm < 1e-14
    status[rows[zero]] = -2
    rows, r0, norm = rows[~zero], r0[~zero], norm[~zero]
    groups = {}
    for r in sorted(set(status[rows].tolist())):  # np.unique would import numpy.ma
        sel = np.flatnonzero(status[rows] == r)
        at = rows[sel]
        lams, tau = spectra.lams[at, :r], t[at]
        keys, w, sq, _ = _split_table(spectra.vecs[at], spectra.labels[at], lams, tau,
                                      np.array([r0[sel], r0[sel] + 0.25 * (tau @ tau)]))
        groups[r] = (lams, keys, w, *(np.sqrt(sq) / norm[sel, None]))
    return status, groups


def minimal_ljr(family: JacobiFamily, samples=64, seed: int = 0) -> LjrVerdict:
    """Detect a linear Jacobi relation and assemble its minimal polynomial.

    Per accepted sample X the skew spectrum of tau_X splits R_0(X) into
    components; a relation exists iff every component either vanishes
    uniformly or has its eigenvalue combination constant across samples.  The
    minimal polynomial is lambda times the least common multiple of
    lambda^2 + (lambda_l -+ lambda_k)^2/4 and lambda^2 + lambda_k^2/4 over
    the non-vanishing components.  Samples at eigenvalue crossings are
    discarded and resampled; component verdicts are cross-checked against
    the same split of the curvature term alone.

    Samples are processed as stacks in rounds: first the plan, then the
    replacements drawn for the degenerate samples of the previous round, in
    order, within a budget of three samples per plan row.  Every row is
    read at the curvature scale (_scaled_rows); the lambdas scale back.
    """
    n = family.n
    batch, e = _scaled_rows(family, samples, seed)
    rng = np.random.default_rng(seed + 0x5eed)
    budget = allowance = 3 * len(batch)
    order = []  # block count of every accepted sample, in processing order
    groups = {}  # block count -> the _detect_rows records of its samples
    resampled = skipped_zero = 0
    while len(batch) and budget > 0:
        batch = batch[:budget]
        budget -= len(batch)
        degenerate = 0
        for rows in chunks(len(batch), n * n):
            status, found = _detect_rows(family, batch[rows])
            order += [int(r) for r in status if r >= 0]
            for r, record in found.items():
                groups.setdefault(r, []).append(record)
            skipped_zero += int(np.sum(status == -2))
            degenerate += int(np.sum(status == -1))
        resampled += degenerate
        batch = rng.normal(size=(degenerate, n))
        batch = np.ldexp(batch / np.linalg.norm(batch, axis=1)[:, None], -e)

    if not order:
        raise InsufficientSamples("no sample produced a usable spectrum")
    modal_r = max(dict.fromkeys(order), key=order.count)  # first seen wins ties
    records = groups[modal_r]
    keys = records[0][1]
    lam, w, rel, rel_bar = (np.concatenate([rec[i] for rec in records]) for i in (0, 2, 3, 4))
    lam, w = np.ldexp(lam, e), np.ldexp(w, e)
    max_rel = dict(zip(keys, rel.max(axis=0).tolist()))
    max_rel_bar = dict(zip(keys, rel_bar.max(axis=0).tolist()))
    w = dict(zip(keys, w.T))
    if len(lam) < SAMPLE_FLOOR:
        raise InsufficientSamples(
            "only %d usable samples (floor %d)" % (len(lam), SAMPLE_FLOOR))

    keys = sorted(keys)
    vanish = {key: max_rel[key] < VANISH_TOL for key in keys}
    vanish_bar = {key: max_rel_bar[key] < VANISH_TOL for key in keys}
    # the torsion-square part commutes with tau_X, so outside the kernel of
    # the derivation (w = 0) the verdicts must agree whether computed from
    # R_0 or from the curvature term alone
    for key in keys:
        if np.any(w[key]) and vanish[key] != vanish_bar[key]:
            raise AssertionError(
                "curvature-term cross-check disagrees on component %s" % key)

    def rel_std(values):
        mean = float(np.mean(values))
        return float(np.std(values)) / max(abs(mean), 1e-300), mean

    failures = []
    factors = []
    lambda_stats = [rel_std(lam[:, k]) for k in range(modal_r)]
    for key in keys:
        if vanish[key] or not np.any(w[key]):
            continue  # in the kernel of the derivation, no factor needed
        std, mean = rel_std(w[key])
        if std >= CONSTANCY_TOL:
            failures.append({"component": key, "max_relnorm": max_rel[key],
                             "eigenvalue_rel_std": std})
        else:
            factors.append(mean ** 2 / 4.0)

    eigen_structure = {
        "block_count": modal_r,
        "samples_used": len(lam),
        "lambda_mean": [m for _, m in lambda_stats],
        "lambda_rel_std": [s for s, _ in lambda_stats],
        "component_max_relnorm": {key: max_rel[key] for key in keys},
        "component_vanish": vanish,
        "failures": failures,
        "samples_offered": allowance - budget,
        "resampled": resampled,
        "skipped_zero": skipped_zero,
        "dropped_nonmodal": len(order) - len(lam),
        "budget_left": budget,
    }
    if failures:
        return LjrVerdict(False, None, eigen_structure, None)

    distinct = []
    for v in sorted(factors):
        if not distinct or v - distinct[-1] > CONSTANCY_TOL * v:
            distinct.append(v)
    eigen_structure["factors"] = distinct
    p = _quadratic_product(1, distinct)
    return LjrVerdict(True, p, eigen_structure, check_ljr(family, p, samples, seed))


def _quadratic_product(e: int, values) -> Polynomial:
    """lambda^e prod_v (lambda^2 + v): the quadratics multiplied in the order
    given, then the e zero coefficients prepended."""
    q = Polynomial([1.0])
    for v in values:
        q = q * Polynomial([v, 0.0, 1.0])
    return Polynomial(np.concatenate([np.zeros(e), q.coefficients]))


def universal_jr(family: JacobiFamily, x, tol: float = 1e-7) -> Polynomial:
    """Characteristic polynomial of T_X on Sym^2 of the complement of X, as
    the exact product lambda^(m + odd) prod (lambda^2 + v) over the spectrum
    +-mu_1..+-mu_m (and 0 when n - 1 is odd) of i tau_X on the complement:
    v = (mu_j + mu_k)^2 / 4 (j <= k), (mu_j - mu_k)^2 / 4 (j < k) and, for
    n - 1 odd, mu_j^2 / 4.  Degree C(n, 2); every coefficient is >= 0 and
    the odd ones are 0.0.  Cayley-Hamilton makes it a relation annihilating
    R_0(X), which is verified before returning.
    """
    x = np.asarray(x, dtype=float)
    if not np.linalg.norm(x) > 0:
        raise ValueError("the universal relation needs a nonzero X")
    n = family.n
    q = null_space(x[None, :])
    tau = q.T @ family.model.tau_matrix(x) @ q
    nu = np.linalg.eigvalsh(1j * tau)
    m, odd = divmod(n - 1, 2)
    mu = (nu[::-1][:m] - nu[:m]) / 2
    j, k = np.triu_indices(m)
    p = _quadratic_product(m + odd, np.concatenate(
        [(mu[j] + mu[k]) ** 2, (mu[j] - mu[k])[j < k] ** 2, mu ** 2 if odd else []]) / 4)
    if p.degree != comb(n, 2):
        raise AssertionError("universal relation has degree %d, not C(%d, 2)" % (p.degree, n))
    residual = check_ljr(family, p, samples=x[None, :])
    if not residual < tol:
        raise AssertionError("universal relation residual %.3e" % residual)
    return p


def _isotropy_flows(triple: ReductiveTriple) -> np.ndarray:
    """exp(t ad_h) on m for each isotropy basis vector h and t in {0.5, 1,
    2}, shape (dim h, 3, dim m, dim m).

    ad_h preserves the metric, so it is skew in the orthonormal m-basis
    (checked), and exp(t ad_h) = V exp(-i t w) V^H from the eigenpairs
    (w, V) of the Hermitian i ad_h.
    """
    # ads[i] is ad(h_i) on m: column b is [h_i, m_b]_m
    ads = triple.m_component(triple.g.brackets(triple.h_basis, triple.m_basis)).transpose(0, 2, 1)
    scale = max(1.0, float(np.max(np.abs(ads), initial=0.0)))
    if np.max(np.abs(ads + ads.transpose(0, 2, 1)), initial=0.0) >= 1e-9 * scale:
        raise AssertionError("ad_h is not skew on m")
    w, v = np.linalg.eigh(1j * ads)
    phase = np.exp(-1j * np.multiply.outer(w, [0.5, 1.0, 2.0]))  # (dim h, dim m, 3)
    return np.einsum("hab,hbt,hcb->htac", v, phase, v.conj()).real


def isotropy_invariance_check(triple: ReductiveTriple, fn, samples: int = 16) -> float:
    """Max deviation of a scalar function of X under the isotropy flows
    exp(t ad_h), t in {0.5, 1, 2}."""
    xs = sample_vectors(triple.dim_m, count=samples)
    base = [fn(x) for x in xs]
    rots = _isotropy_flows(triple).reshape(-1, triple.dim_m, triple.dim_m)
    return max((abs(fn(rot @ x) - b) for rot in rots for x, b in zip(xs, base)), default=0.0)


# ---------------------------------------------------------------------------
# symmetric tensor compression: Sym^m x Sym^2 in multiset coordinates with
# sqrt-multinomial weights, so the euclidean inner product matches the full
# tensor one and transposed contraction maps give orthogonal corrections

PROJECTION_STEPS = 100  # CG steps allowed; the catalog ids need at most 8


@lru_cache(maxsize=None)
def _msets(n, m):
    """Multisets of size m from range(n): sorted rows (N, m), lexicographic."""
    return np.array(list(itertools.combinations_with_replacement(range(n), m)),
                    dtype=np.int64)


def _code(n, a):
    """Flat index in an (n,) * m tensor of every index tuple a (..., m); on
    sorted tuples it orders them lexicographically."""
    return a @ n ** np.arange(a.shape[-1] - 1, -1, -1)


def _rank(n, a):
    """Index in _msets(n, m) of the multiset of every index tuple a (..., m)."""
    return np.searchsorted(_code(n, _msets(n, a.shape[-1])), _code(n, np.sort(a, axis=-1)))


@lru_cache(maxsize=None)
def _weights(n, m):
    """sqrt of the multinomial m! / prod_i hist_i! of every multiset."""
    hist = np.sum(_msets(n, m)[:, :, None] == np.arange(n), axis=1)
    fact = np.array([factorial(c) for c in range(m + 1)])
    return np.sqrt(factorial(m) / np.prod(fact[hist], axis=1))


def _extend(n, gammas, tails):
    """_msets index of gamma + tail for every row of gammas (G, j) and every
    row of tails (T, t), shape (G, T)."""
    both = np.hstack([np.repeat(gammas, len(tails), axis=0), np.tile(tails, (len(gammas), 1))])
    return _rank(n, both).reshape(len(gammas), len(tails))


def _contraction_matrix(n, k):
    """Stacked metric contractions on Sym^(k+2) x Sym^2, weighted coords, as
    fixed-width rows: columns and values (rows, n), one entry per basis
    index i.  Column a * nb + b holds multiset a of Sym^(k+2) against
    multiset b of Sym^2.

    The three contractions (two base slots, the two endomorphism slots, one
    of each) share one form: row (gamma, r) sums the entries (gamma + s_i,
    r + t_i) over i, weighted w(gamma) / (w(gamma + s_i) w(r + t_i) / w(r)).
    """
    m = k + 2
    nb = len(_weights(n, 2))
    i = np.arange(n)[:, None]
    ii, none = np.hstack([i, i]), i[:, :0]
    parts = []
    for g, s, t in ((k, ii, none), (m, none, ii), (k + 1, i, i)):
        r = 2 - t.shape[1]
        alpha = _extend(n, _msets(n, g), s)[:, None]  # (G, 1, i)
        beta = _extend(n, _msets(n, r), t)  # (R, i)
        b_part = _weights(n, 2)[beta] / _weights(n, r)[:, None]
        entries = np.broadcast_arrays(alpha * nb + beta, _weights(n, g)[:, None, None]
                                      / (_weights(n, m)[alpha] * b_part))
        parts.append([e.reshape(-1, n) for e in entries])
    return tuple(np.concatenate(column) for column in zip(*parts))


def _project_traces(n, k, vec):
    """Orthogonal projection onto the joint kernel of all contractions C:
    vec - C^T y, with C C^T y = C vec solved by conjugate gradients until
    the residual is below 1e-14 |vec|.  Sums of squares use np.sum: BLAS
    dot (@, np.linalg.norm) sums in an order that follows its thread count."""
    cols, vals = _contraction_matrix(n, k)

    def contract(v):
        return np.sum(vals * v[cols], axis=1)

    norm = float(np.sqrt(np.sum(vec * vec)))
    out, resid = vec, contract(vec)
    direction, rr = resid, float(np.sum(resid * resid))
    for _ in range(PROJECTION_STEPS):
        if np.sqrt(rr) <= 1e-14 * norm:
            break
        step = np.bincount(cols.ravel(), (vals * direction[:, None]).ravel(), len(vec))
        alpha = rr / float(np.sum(step * step))
        out = out - alpha * step
        resid = resid - alpha * contract(step)
        rr, last = float(np.sum(resid * resid)), rr
        direction = resid + (rr / last) * direction
    if np.sqrt(np.sum(contract(out) ** 2)) > 1e-8 * norm:
        raise AssertionError("trace projection did not converge")
    return out


def _coefficients(model: InfinitesimalModel, k: int) -> np.ndarray:
    """Monomial coefficients of R_k(X) = sum_alpha c[alpha] x^alpha, one
    (n, n) matrix per multiset alpha of _msets(n, k+2), shape (N, n, n).

    R_0 is quadratic: c[{a,a}] = R_0(e_a) and c[{a,b}] = R_0(e_a + e_b) -
    R_0(e_a) - R_0(e_b), from one stacked R_0.  T_X is linear in X, so
    c'[beta] sums (c[alpha] tau_i - tau_i c[alpha]) / 2 over the distinct i
    in beta, alpha = beta - i, tau_i = tau_(e_i): every beta that holds i
    is alpha + i for exactly one alpha, so each order adds, for i ascending,
    the term of every alpha to its alpha + i, over chunks of alpha rows.
    """
    n = model.n
    pairs = _msets(n, 2)
    off = pairs[:, 0] != pairs[:, 1]
    eye = np.eye(n)
    r0 = jacobi_operator(model, eye[pairs[:, 0]] + off[:, None] * eye[pairs[:, 1]])
    single = r0[~off]  # R_0(e_a), a ascending
    c = r0 - off[:, None, None] * (single[pairs[:, 0]] + single[pairs[:, 1]])
    tau = model.tau_matrix(eye)
    for m in range(3, k + 3):
        out = np.zeros((len(_msets(n, m)), n, n))
        for i in range(n):
            after = _extend(n, _msets(n, m - 1), [[i]])[:, 0]  # the index of alpha + i
            for rows in chunks(len(c), n * n):
                out[after[rows]] += 0.5 * (c[rows] @ tau[i] - tau[i] @ c[rows])
        c = out
    return c


def _compressed_tensor(family: JacobiFamily, d: int, seed: int):
    """Compressed coordinates of the full symmetric tensor of R_(d+1), from
    its monomial coefficients: entry (alpha, ij) is c[alpha]_ij w(ij) /
    w(alpha).  Raises PolarizationRankDeficient when sum_alpha c[alpha]
    x^alpha fails to reproduce family.stack at four fixed-seed unit X."""
    n = family.n
    c = _coefficients(family.model, d + 1)
    alphas = _msets(n, d + 3)
    xs = unit_rows(n, 4, seed)
    diag = np.einsum("pa,aij->pij", np.prod(xs[:, alphas], axis=2), c)
    direct = family.stack(xs, d + 1)[:, d + 1]
    scale = np.maximum(1.0, np.linalg.norm(direct, axis=(1, 2)))
    if np.any(np.linalg.norm(diag - direct, axis=(1, 2)) > 1e-8 * scale):
        raise PolarizationRankDeficient("tensor coefficients do not reproduce diagonal values")

    i, j = _msets(n, 2).T
    return (c[:, i, j] * np.outer(1.0 / _weights(n, d + 3), _weights(n, 2))).reshape(-1)


def verify_twistor(family: JacobiFamily, d: int, seed: int = 0) -> float:
    """Relative Frobenius norm of the trace-free part of the full R_(d+1)
    tensor.  Zero certifies that the degree-d relation forces R_(d+1) to be
    built entirely from metric terms."""
    if not 0 <= d <= 5:
        raise ValueError("twistor degree d must be in 0..5, got d = %d" % d)
    vec = _compressed_tensor(family, d, seed)
    norm = float(np.sqrt(np.sum(vec * vec)))  # not BLAS dot: see _project_traces
    # R_(d+1) scales as k^((d+3)/2) in the curvature scale k of the model
    if norm <= 1e-12 * family.model.curvature_scale ** ((d + 3) / 2):
        return 0.0
    out = _project_traces(family.n, d + 1, vec)
    return float(np.sqrt(np.sum(out * out))) / norm
