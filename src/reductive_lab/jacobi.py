"""Derivative operator calculus on Jacobi operators and linear Jacobi
relations.

The central object is the derivation T_X S = (S tau_X - tau_X S) / 2 acting
on symmetric endomorphisms; iterating it on the Jacobi operator produces the
symmetrized curvature derivatives R_k(X) = T_X^k R_0(X).  A linear Jacobi
relation is a monic polynomial P with P(T_X) R_0(X) = 0 for all X; this
module detects one, certifies minimality through the eigenspace components of
R_0(X) along the skew spectrum of tau_X, computes the universal relation
given by the characteristic polynomial of the restricted derivation, and
checks the trace-free (twistor) consequences.

Relations are polynomial identities in X, so verification on a fixed-seed
sample plan (pseudorandom unit vectors plus basis vectors and normalized
pairwise sums) stands in for "for all X".
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .algebra import (
    DegenerateSpectrum,
    Polynomial,
    characteristic_polynomial,
    operator_on_symmetric,
    skew_spectral_decomposition,
)
from .reductive import (InfinitesimalModel, ReductiveTriple, _orthogonal_complement,
                        jacobi_operator, ricci)

__all__ = [
    "InsufficientSamples",
    "PolarizationRankDeficient",
    "JacobiFamily",
    "LjrVerdict",
    "sample_vectors",
    "t_apply",
    "scd",
    "curvature_term",
    "check_ljr",
    "minimal_ljr",
    "component_split",
    "universal_jr",
    "isotropy_invariance_check",
    "trace_free_part",
    "verify_twistor",
]

CONSTANCY_TOL = 1e-6
VANISH_TOL = 1e-7
RESIDUAL_TOL = 1e-8
SAMPLE_FLOOR = 8


class InsufficientSamples(ValueError):
    pass


class PolarizationRankDeficient(ValueError):
    pass


def sample_vectors(n: int, count: int = 64, seed: int = 0) -> np.ndarray:
    """Unit sample plan: `count` fixed-seed unit vectors, the basis vectors,
    and all normalized pairwise basis sums."""
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(count, n))
    xs /= np.linalg.norm(xs, axis=1)[:, None]
    extra = [np.eye(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = np.zeros(n)
            v[i] = v[j] = 1.0 / np.sqrt(2.0)
            extra.append(v[None, :])
    return np.vstack([xs] + extra)


def t_apply(model: InfinitesimalModel, x, s) -> np.ndarray:
    """The derivation T_X on a symmetric endomorphism: (S tau_X - tau_X S)/2."""
    s = np.asarray(s, dtype=float)
    assert np.max(np.abs(s - s.T)) < 1e-8 * max(1.0, float(np.max(np.abs(s))))
    t = model.tau_matrix(x)
    return 0.5 * (s @ t - t @ s)


class JacobiFamily:
    """Symmetrized curvature derivatives of a model, cached per base vector.

    Every computed R_k(X) is checked to be symmetric and to annihilate X.
    """

    def __init__(self, model: InfinitesimalModel):
        self.model = model
        self.n = model.n
        self._cache = {}

    def operators(self, x, k: int) -> list:
        x = np.asarray(x, dtype=float)
        ops = self._cache.setdefault(x.tobytes(), [])
        if not ops:
            ops.append(jacobi_operator(self.model, x))
            self._check(ops[0], x)
        t = self.model.tau_matrix(x)
        while len(ops) <= k:
            ops.append(0.5 * (ops[-1] @ t - t @ ops[-1]))
            self._check(ops[-1], x)
        return ops[: k + 1]

    def _check(self, op, x):
        scale = max(1.0, float(np.linalg.norm(op)))
        assert np.max(np.abs(op - op.T)) < 1e-9 * scale
        assert np.max(np.abs(op @ x)) < 1e-9 * scale * max(
            1.0, float(np.linalg.norm(x)))


def scd(family: JacobiFamily, x, k: int) -> np.ndarray:
    """R_k(X) = T_X^k R_0(X)."""
    assert k >= 0
    return family.operators(x, k)[k]


def curvature_term(model: InfinitesimalModel, x) -> np.ndarray:
    """rbar(., X)X alone, i.e. R_0(X) without the torsion-square part."""
    x = np.asarray(x, dtype=float)
    return np.einsum("ujab,j,b->au", model.rbar, x, x)


def check_ljr(family: JacobiFamily, p: Polynomial, samples=64,
              seed: int = 0) -> float:
    """Max over samples of ||P(T_X) R_0(X)||_F / ||R_0(X)||_F, P monic."""
    if abs(p.coefficients[-1] - 1.0) > 1e-12:
        raise ValueError("linear Jacobi relation polynomials must be monic")
    xs = samples if isinstance(samples, np.ndarray) else \
        sample_vectors(family.n, count=samples, seed=seed)
    worst = 0.0
    for x in xs:
        r0 = family.operators(x, 0)[0]
        norm = float(np.linalg.norm(r0))
        if norm < 1e-14:
            continue
        t = family.model.tau_matrix(x)
        term = r0
        total = p.coefficients[0] * r0
        for a in p.coefficients[1:]:
            term = 0.5 * (term @ t - t @ term)
            total = total + a * term
        worst = max(worst, float(np.linalg.norm(total)) / norm)
    return worst


def component_split(spectrum, s) -> dict:
    """Split a symmetric S along the skew spectrum of A = tau_X.

    Keys: "0,0"; "0,k" for the zero-space/block-k cross part; "k,l:(1,1)" and
    "k,l:(2,0)+(0,2)" for 1 <= k <= l.  Each component is an eigenvector of
    -(A star)^2 = -[A, [A, .]] with eigenvalue 0, lambda_k^2,
    (lambda_l - lambda_k)^2, (lambda_l + lambda_k)^2 respectively; this and
    the completeness of the splitting are verified on every call.
    """
    s = np.asarray(s, dtype=float)
    blocks = spectrum.blocks
    p0 = spectrum.zero_space @ spectrum.zero_space.T
    parts = {"0,0": p0 @ s @ p0}
    for k, bk in enumerate(blocks, start=1):
        pk = bk.projection
        parts["0,%d" % k] = p0 @ s @ pk + pk @ s @ p0
        for l in range(k, len(blocks) + 1):
            bl = blocks[l - 1]
            pl = bl.projection
            if l == k:
                m = pk @ s @ pk
                j = bk.j
            else:
                m = pk @ s @ pl + pl @ s @ pk
                j = bk.j + bl.j
            jmj = j @ m @ j
            parts["%d,%d:(1,1)" % (k, l)] = 0.5 * (m - jmj)
            parts["%d,%d:(2,0)+(0,2)" % (k, l)] = 0.5 * (m + jmj)

    a = spectrum.reconstruct()
    scale = max(1.0, float(np.linalg.norm(s))) * max(
        [1.0] + [b.lam ** 2 for b in blocks])
    total = np.zeros_like(s)
    for key, c in parts.items():
        total += c
        eig = _component_eigenvalue(key, blocks)
        resid = a @ (a @ c - c @ a) - (a @ c - c @ a) @ a + eig * c
        assert np.max(np.abs(resid)) < 1e-8 * scale, \
            "component %s is not a -(A star)^2 eigenvector" % key
    assert np.max(np.abs(total - s)) < 1e-8 * max(1.0, float(np.linalg.norm(s)))
    return parts


def _component_eigenvalue(key, blocks):
    pair, _, kind = key.partition(":")
    k, l = (int(v) for v in pair.split(","))
    if k == 0:
        return blocks[l - 1].lam ** 2 if l else 0.0
    lk, ll = blocks[k - 1].lam, blocks[l - 1].lam
    return (ll - lk) ** 2 if kind == "(1,1)" else (ll + lk) ** 2


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


def minimal_ljr(family: JacobiFamily, samples=64, seed: int = 0,
                residual_tol: float = RESIDUAL_TOL) -> LjrVerdict:
    """Detect a linear Jacobi relation and assemble its minimal polynomial.

    Per accepted sample X the skew spectrum of tau_X splits R_0(X) into
    components; a relation exists iff every component either vanishes
    uniformly or has its eigenvalue combination constant across samples.  The
    minimal polynomial is lambda times the least common multiple of
    lambda^2 + (lambda_l -+ lambda_k)^2/4 and lambda^2 + lambda_k^2/4 over
    the non-vanishing components; the lambda factor is dropped only for
    Ricci-flat models where the remainder already verifies.  Samples at
    eigenvalue crossings are discarded and resampled; component verdicts are
    cross-checked against the same split of the curvature term alone.
    """
    model = family.model
    n = family.n
    xs = samples if isinstance(samples, np.ndarray) else \
        sample_vectors(n, count=samples, seed=seed)
    rng = np.random.default_rng(seed + 0x5eed)
    accepted = []
    budget = 3 * len(xs)
    queue = list(xs)
    while queue and budget > 0:
        x = queue.pop(0)
        budget -= 1
        tau = model.tau_matrix(x)
        try:
            spec = skew_spectral_decomposition(tau)
        except DegenerateSpectrum:
            v = rng.normal(size=n)
            queue.append(v / np.linalg.norm(v))
            continue
        r0 = family.operators(x, 0)[0]
        norm = float(np.linalg.norm(r0))
        if norm < 1e-14:
            continue
        comps = component_split(spec, r0)
        comps_bar = component_split(spec, curvature_term(model, x))
        rel = {key: float(np.linalg.norm(c)) / norm for key, c in comps.items()}
        rel_bar = {key: float(np.linalg.norm(c)) / norm
                   for key, c in comps_bar.items()}
        accepted.append(([b.lam for b in spec.blocks], rel, rel_bar))

    if not accepted:
        raise InsufficientSamples("no sample produced a usable spectrum")
    counts = {}
    for lams, _, _ in accepted:
        counts[len(lams)] = counts.get(len(lams), 0) + 1
    modal_r = max(counts, key=lambda r: counts[r])
    accepted = [rec for rec in accepted if len(rec[0]) == modal_r]
    if len(accepted) < SAMPLE_FLOOR:
        raise InsufficientSamples(
            "only %d usable samples (floor %d)" % (len(accepted), SAMPLE_FLOOR))

    lam = np.array([rec[0] for rec in accepted])  # (N, r)
    keys = sorted(accepted[0][1])
    max_rel = {key: max(rec[1][key] for rec in accepted) for key in keys}
    vanish = {key: max_rel[key] < VANISH_TOL for key in keys}
    vanish_bar = {key: max(rec[2][key] for rec in accepted) < VANISH_TOL
                  for key in keys}
    # the torsion-square part is block-diagonal, so the off-diagonal verdicts
    # must agree whether computed from R_0 or from the curvature term alone
    for key in keys:
        if key == "0,0" or key.endswith(":(1,1)") and _same_pair(key):
            continue
        assert vanish[key] == vanish_bar[key], \
            "curvature-term cross-check disagrees on component %s" % key

    def rel_std(values):
        mean = float(np.mean(values))
        return float(np.std(values)) / max(abs(mean), 1e-300), mean

    failures = []
    factors = []
    lambda_stats = [rel_std(lam[:, k]) for k in range(modal_r)]
    for key in keys:
        if vanish[key] or key == "0,0":
            continue
        pair, _, kind = key.partition(":")
        k, l = (int(v) for v in pair.split(","))
        if k == 0:
            std, mean = lambda_stats[l - 1]
        elif kind == "(1,1)":
            if k == l:
                continue  # in the kernel of the derivation, no factor needed
            std, mean = rel_std(lam[:, l - 1] - lam[:, k - 1])
        else:
            std, mean = rel_std(lam[:, l - 1] + lam[:, k - 1])
        if std >= CONSTANCY_TOL:
            failures.append({"component": key, "max_relnorm": max_rel[key],
                             "eigenvalue_rel_std": std})
        else:
            factors.append(mean ** 2 / 4.0)

    eigen_structure = {
        "block_count": modal_r,
        "samples_used": len(accepted),
        "lambda_mean": [m for _, m in lambda_stats],
        "lambda_rel_std": [s for s, _ in lambda_stats],
        "component_max_relnorm": max_rel,
        "component_vanish": vanish,
        "failures": failures,
    }
    if failures:
        return LjrVerdict(False, None, eigen_structure, None)

    distinct = []
    for v in sorted(factors):
        if not distinct or v - distinct[-1] > CONSTANCY_TOL * max(v, 1.0):
            distinct.append(v)
    eigen_structure["factors"] = distinct
    q = Polynomial([1.0])
    for v in distinct:
        q = q * Polynomial([v, 0.0, 1.0])
    ric = max(abs(ricci(model, e)) for e in np.eye(n))
    if ric < 1e-10 and q.degree >= 1:
        resid = check_ljr(family, q, samples=xs)
        if resid < residual_tol:
            return LjrVerdict(True, q, eigen_structure, resid)
    p = Polynomial([0.0] + list(q.coefficients))
    return LjrVerdict(True, p, eigen_structure, check_ljr(family, p, samples=xs))


def _same_pair(key):
    pair = key.partition(":")[0].split(",")
    return pair[0] == pair[1]


def universal_jr(family: JacobiFamily, x, tol: float = 1e-7) -> Polynomial:
    """Characteristic polynomial of T_X on Sym^2 of the complement of X.

    Degree is C(n, 2); odd coefficients vanish because the restriction is
    skew in a metric it preserves.  Cayley-Hamilton makes the result a
    relation annihilating R_0(X), which is verified before returning.
    """
    x = np.asarray(x, dtype=float)
    assert np.linalg.norm(x) > 0
    n = family.n
    q = _orthogonal_complement(x[:, None])
    tau = q.T @ family.model.tau_matrix(x) @ q
    mat = operator_on_symmetric(lambda s: 0.5 * (s @ tau - tau @ s), n - 1)
    p = characteristic_polynomial(mat)
    assert p.degree == comb(n, 2)
    residual = check_ljr(family, p, samples=x[None, :])
    assert residual < tol, "universal relation residual %.3e" % residual
    return p


def isotropy_invariance_check(triple: ReductiveTriple, fn, samples: int = 16) -> float:
    """Max deviation of a scalar function of X under the isotropy flows
    exp(t ad_h), t in {0.5, 1, 2}."""
    from scipy.linalg import expm

    n = triple.dim_m
    xs = sample_vectors(n, count=samples)
    base = [fn(x) for x in xs]
    # ads[i] is ad(h_i) on m: column b is [h_i, m_b]_m
    ads = triple.m_component(triple.g.brackets(triple.h_basis, triple.m_basis))
    worst = 0.0
    for ad in ads.transpose(0, 2, 1):
        for t in (0.5, 1.0, 2.0):
            rot = expm(t * ad)
            for x, b in zip(xs, base):
                worst = max(worst, abs(fn(rot @ x) - b))
    return worst


# ---------------------------------------------------------------------------
# symmetric tensor compression: Sym^m x Sym^2 in multiset coordinates with
# sqrt-multinomial weights, so the euclidean inner product matches the full
# tensor one and transposed contraction maps give orthogonal corrections


@lru_cache(maxsize=None)
def _msets(n, m):
    return list(itertools.combinations_with_replacement(range(n), m))


@lru_cache(maxsize=None)
def _mset_index(n, m):
    return {a: i for i, a in enumerate(_msets(n, m))}


@lru_cache(maxsize=None)
def _weights(n, m):
    out = []
    for a in _msets(n, m):
        counts = np.bincount(a, minlength=n)
        mult = factorial(m)
        for c in counts:
            mult //= factorial(int(c))
        out.append(np.sqrt(float(mult)))
    return np.array(out)


@lru_cache(maxsize=None)
def _full_index_map(n, m):
    idx = _mset_index(n, m)
    out = np.empty(n ** m, dtype=np.int64)
    for flat, tup in enumerate(itertools.product(range(n), repeat=m)):
        out[flat] = idx[tuple(sorted(tup))]
    return out


@lru_cache(maxsize=None)
def _contraction_matrix(n, k):
    """Stacked metric contractions on Sym^(k+2) x Sym^2, weighted coords."""
    from scipy.sparse import csr_matrix

    m = k + 2
    a_sets, a_idx, a_w = _msets(n, m), _mset_index(n, m), _weights(n, m)
    b_sets, b_idx, b_w = _msets(n, 2), _mset_index(n, 2), _weights(n, 2)
    nb = len(b_sets)
    rows, cols, vals = [], [], []
    row = 0
    # two base slots
    for g_t, gamma in enumerate(_msets(n, k)):
        gw = _weights(n, k)[g_t]
        for bi in range(nb):
            for i in range(n):
                alpha = tuple(sorted(gamma + (i, i)))
                ai = a_idx[alpha]
                rows.append(row)
                cols.append(ai * nb + bi)
                vals.append(gw / a_w[ai])
            row += 1
    # the two endomorphism slots
    for ai in range(len(a_sets)):
        for i in range(n):
            rows.append(row)
            cols.append(ai * nb + b_idx[(i, i)])
            vals.append(1.0)
        row += 1
    # one base slot against one endomorphism slot
    for g_t, gamma in enumerate(_msets(n, k + 1)):
        gw = _weights(n, k + 1)[g_t]
        for u in range(n):
            for i in range(n):
                alpha = tuple(sorted(gamma + (i,)))
                beta = (min(i, u), max(i, u))
                ai = a_idx[alpha]
                rows.append(row)
                cols.append(ai * nb + b_idx[beta])
                vals.append(gw / (a_w[ai] * b_w[b_idx[beta]]))
            row += 1
    shape = (row, len(a_sets) * nb)
    return csr_matrix((vals, (rows, cols)), shape=shape)


def _project_traces(n, k, vec):
    """Orthogonal projection onto the joint kernel of all contractions."""
    from scipy.sparse.linalg import lsmr

    mat = _contraction_matrix(n, k)
    norm = float(np.linalg.norm(vec))
    if norm < 1e-300:
        return vec
    sol = lsmr(mat.T, vec, atol=1e-14, btol=1e-14, maxiter=8 * mat.shape[0])
    out = vec - mat.T @ sol[0]
    assert float(np.linalg.norm(mat @ out)) < 1e-8 * norm, \
        "trace projection did not converge"
    return out


def trace_free_part(t, k: int) -> np.ndarray:
    """Completely trace-free part of an element of Sym^(k+2) x Sym^2.

    Input shape (n,) * (k+4), symmetric in the first k+2 slots and the last
    two.  Projects orthogonally onto the joint kernel of the three metric
    contractions; re-contracting the output is verified to leave residual
    below 1e-8 relative.
    """
    t = np.asarray(t, dtype=float)
    m = k + 2
    n = t.shape[0]
    assert t.shape == (n,) * (m + 2)
    if m >= 2:
        assert np.max(np.abs(t - np.swapaxes(t, 0, 1))) < 1e-9 * max(
            1.0, float(np.max(np.abs(t))))
    assert np.max(np.abs(t - np.swapaxes(t, m, m + 1))) < 1e-9 * max(
        1.0, float(np.max(np.abs(t))))
    a_w, b_w = _weights(n, m), _weights(n, 2)
    map_a, map_b = _full_index_map(n, m), _full_index_map(n, 2)
    nb = len(b_w)
    flat = t.reshape(n ** m, n ** 2)
    idx_a = np.array([np.ravel_multi_index(a, (n,) * m) for a in _msets(n, m)])
    idx_b = np.array([np.ravel_multi_index(b, (n, n)) for b in _msets(n, 2)])
    comp = flat[np.ix_(idx_a, idx_b)] * np.outer(a_w, b_w)
    out = _project_traces(n, k, comp.reshape(-1)).reshape(len(a_w), nb)
    out /= np.outer(a_w, b_w)
    full = out[np.ix_(map_a, map_b)]
    return full.reshape((n,) * (m + 2))


def _polarize_compressed(family: JacobiFamily, d: int, seed: int):
    """Compressed coordinates of the full multilinear tensor of R_(d+1),
    recovered by polarizing over basis-vector sums with multiset memoization.
    Raises PolarizationRankDeficient when the polarized tensor fails to
    reproduce the diagonal values it came from at four random unit vectors."""
    n = family.n
    m = d + 3
    cache = {}

    def ev(mu):
        if mu not in cache:
            cache[mu] = family.operators(np.array(mu, dtype=float), d + 1)[d + 1]
        return cache[mu]

    a_sets = _msets(n, m)
    values = np.zeros((len(a_sets), n, n))
    for a_i, alpha in enumerate(a_sets):
        hist = tuple(np.bincount(alpha, minlength=n))
        total = np.zeros((n, n))
        for mu in itertools.product(*[range(c + 1) for c in hist]):
            size = sum(mu)
            if size == 0:
                continue
            count = 1
            for c, u in zip(hist, mu):
                count *= comb(c, u)
            total += ((-1) ** (m - size) * count) * ev(mu)
        values[a_i] = total / factorial(m)

    mults = _weights(n, m) ** 2
    rng = np.random.default_rng(seed)
    for _ in range(4):
        x = rng.normal(size=n)
        x /= np.linalg.norm(x)
        monomials = np.array([np.prod(x[list(a)]) for a in a_sets])
        diag = np.einsum("a,aij->ij", mults * monomials, values)
        direct = family.operators(x, d + 1)[d + 1]
        scale = max(1.0, float(np.linalg.norm(direct)))
        if float(np.linalg.norm(diag - direct)) > 1e-8 * scale:
            raise PolarizationRankDeficient(
                "polarized tensor does not reproduce diagonal values")

    b_sets = _msets(n, 2)
    comp = np.empty((len(a_sets), len(b_sets)))
    for b_i, beta in enumerate(b_sets):
        comp[:, b_i] = values[:, beta[0], beta[1]]
    comp *= np.outer(_weights(n, m), _weights(n, 2))
    return comp.reshape(-1)


def verify_twistor(family: JacobiFamily, d: int, seed: int = 0) -> float:
    """Relative Frobenius norm of the trace-free part of the full R_(d+1)
    tensor.  Zero certifies that the degree-d relation forces R_(d+1) to be
    built entirely from metric terms."""
    assert d >= 0
    if d > 5:
        raise ValueError("polarization stencils are only supported for d <= 5")
    vec = _polarize_compressed(family, d, seed)
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        return 0.0
    out = _project_traces(family.n, d + 1, vec)
    return float(np.linalg.norm(out)) / norm
