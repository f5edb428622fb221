"""Real Lie algebras from structure constants or matrix generators.

Complex and quaternionic matrix algebras are realified once on construction
(layout [[X, -Y], [Y, X]] for X + iY); everything downstream is real.
Vectors are 1-d coordinate arrays, subspace bases are (dim, k) column
matrices.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "JACOBI_TOL",
    "DimensionMismatch",
    "NotClosed",
    "DegenerateRestriction",
    "LieAlgebra",
    "BilinearForm",
    "from_matrix_algebra",
    "stabilizer_subalgebra",
    "orthocomplement",
    "orthonormalize",
    "direct_sum",
    "null_space",
    "realify",
    "quaternion_to_complex",
    "su",
    "su_generators",
    "so",
    "sp",
    "algebra_from_json",
]

JACOBI_TOL = 1e-10
_JACOBI_BLOCK = 2 ** 14  # products per block of the sparse Jacobi sum
_JACOBI_CHUNK = 2 ** 16  # entries per temporary of the dense Jacobi loop and commutator blocks


class DimensionMismatch(ValueError):
    pass


class NotClosed(ValueError):
    """Commutator of generators leaves their span."""


class DegenerateRestriction(ValueError):
    """A bilinear form restricts degenerately to a subspace."""


class LieAlgebra:
    """Lie algebra given by sparse structure constants c^k_{ij}.

    brackets may be a {(i, j, k): value} map, an iterable of
    (i, j, k, value) or an (N, 4) array of them; missing (j, i, k) entries
    are completed antisymmetrically, conflicting ones rejected.
    """

    def __init__(self, dim: int, brackets):
        self.dim = int(dim)
        if isinstance(brackets, dict):
            brackets = [(*key, v) for key, v in brackets.items()]
        elif not isinstance(brackets, np.ndarray):
            brackets = list(brackets)
        rows = np.asarray(brackets, dtype=float)
        if rows.size == 0:
            rows = rows.reshape(0, 4)
        if rows.ndim != 2 or rows.shape[1] != 4:
            raise ValueError("brackets must be (i, j, k, value) entries")
        self.tensor = _structure_tensor(self.dim, rows)
        i, j, k = np.nonzero(self.tensor)
        upper = i < j
        i, j, k = i[upper], j[upper], k[upper]
        self._upper = (i, j, k, self.tensor[i, j, k])  # the nonzero c^k_ij with i < j
        self.matrices = None  # set by from_matrix_algebra

        residual = self.jacobi_residual()
        # relative to max|c^k_ij|^2, as the cyclic sums are quadratic in the constants
        if residual > JACOBI_TOL * np.max(np.abs(self._upper[3]), initial=0.0) ** 2:
            raise ValueError("Jacobi identity fails: residual %.3e" % residual)

    def jacobi_residual(self) -> float:
        """Max |[ad e_i, ad e_j] - ad [e_i, e_j]| over i < j.

        Entry (k, m) of that defect is, up to sign and transpose, the cyclic
        Jacobi sum J(i, j, k)^m = sum_l c_ij^l c_lk^m + c_jk^l c_li^m + c_ki^l c_lj^m.
        Sparse constants sum only the products of nonzero constants
        (_sparse_jacobi_residual).  Constants with more than dim^5 / 64
        such products, where the dense loop's dim^5 flops are cheaper, or
        with more than _JACOBI_BLOCK of them on one output index m, take the
        dense loop over pairs (_dense_jacobi_residual).  Either way the
        temporaries hold at most 2 * _JACOBI_BLOCK products or
        max(_JACOBI_CHUNK, dim^2) entries at a time, beside a few arrays
        as long as the list of nonzero constants.
        """
        dim = self.dim
        a, b, out, _ = self._upper
        # products c_xy^l c_lk^m (x < y) per output index m: each entry
        # c_ab^m is a partner c_lk^m for l = a and for l = b, and each
        # partner meets the count[l] entries with output l
        count = np.bincount(out, minlength=dim)
        per_m = np.bincount(out, weights=count[a] + count[b], minlength=dim).astype(np.int64)
        if per_m.sum() * 64 > dim ** 5 or per_m.max(initial=0) > _JACOBI_BLOCK:
            return _dense_jacobi_residual(self.tensor)
        return _sparse_jacobi_residual(self._upper, per_m, dim)

    def brackets(self, xs, ys) -> np.ndarray:
        """All brackets [xs[:, a], ys[:, b]] as an (a, b, dim) array.

        xs and ys are (dim, a) and (dim, b) column stacks.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 2 or ys.ndim != 2 or xs.shape[0] != self.dim \
                or ys.shape[0] != self.dim:
            raise DimensionMismatch("expected (%d, k) column stacks" % self.dim)
        if xs.shape[1] > ys.shape[1]:  # contract the narrower stack first
            return -self.brackets(ys, xs).transpose(1, 0, 2)
        partial = xs.T @ self.tensor.reshape(self.dim, self.dim ** 2)  # [x_a, e_j]
        return ys.T @ partial.reshape(xs.shape[1], self.dim, self.dim)

    def bracket(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise DimensionMismatch("expected vectors of length %d" % self.dim)
        return self.brackets(x[:, None], y[:, None])[0, 0]

    def killing_form(self) -> "BilinearForm":
        k = np.einsum("imk,jkm->ij", self.tensor, self.tensor)
        return BilinearForm(0.5 * (k + k.T))

    def __repr__(self):
        return "LieAlgebra(dim=%d, nnz=%d)" % (self.dim, len(self._upper[0]))


def _structure_tensor(dim, rows):
    """The dense c^k_ij of the entries rows = (i, j, k, value), completed
    antisymmetrically.

    Entries are read in order, as a loop over them would: the first entry
    that is out of range, a nonzero [e_i, e_i], or a repeat of an earlier
    (i, j, k) with another value raises.  Then, in the order of first
    appearance, a given (j, i, k) that is not minus its (i, j, k) raises;
    a missing one is filled in.
    """
    idx = rows[:, :3].astype(np.int64)  # truncates as int() does
    v = rows[:, 3]
    i, j, k = idx.T
    outside = np.any((idx < 0) | (idx >= dim), axis=1)
    diagonal = ~outside & (i == j)
    kept = np.flatnonzero(~outside & ~diagonal)
    key = ((i[kept] * dim + j[kept]) * dim + k[kept])
    order = np.argsort(key, kind="stable")  # repeats of a key in entry order
    key, val, kept = key[order], v[kept][order], kept[order]
    repeat = key[1:] == key[:-1]
    conflict = np.zeros(len(v), dtype=bool)
    conflict[kept[1:][repeat & (val[1:] != val[:-1])]] = True
    faults = [(outside, lambda r: DimensionMismatch(
                  "bracket index out of range: %s" % (_key(idx[r]),))),
              (diagonal & (v != 0.0), lambda r: ValueError(
                  "[e%d, e%d] must vanish" % (i[r], i[r]))),
              (conflict, lambda r: ValueError("conflicting entries for %s" % (_key(idx[r]),)))]
    first = [int(np.argmax(mask)) if mask.any() else len(v) for mask, _ in faults]
    r = min(first)
    if r < len(v):
        raise faults[first.index(r)][1](r)

    unique = np.ones(len(key), dtype=bool)
    unique[1:] = ~repeat
    key, val, kept = key[unique], val[unique], kept[unique]  # sorted by key
    ui, uj, uk = idx[kept].T
    swapped = (uj * dim + ui) * dim + uk
    pos = np.minimum(np.searchsorted(key, swapped), len(key) - 1)  # -1 only when empty
    given = key[pos] == swapped
    broken = np.flatnonzero(given & (val[pos] != -val))
    if broken.size:
        r = kept[broken[np.argmin(kept[broken])]]
        raise ValueError("antisymmetry violated at %s" % (_key(idx[r]),))
    tensor = np.zeros((dim, dim, dim))
    tensor[ui, uj, uk] = val
    tensor[uj[~given], ui[~given], uk[~given]] = -val[~given]
    return tensor


def _key(index):
    return tuple(int(x) for x in index)


def _dense_jacobi_residual(c):
    """The defects [ad e_i, ad e_j] - ad [e_i, e_j], transposed, for j in
    steps of at most max(1, _JACOBI_CHUNK // dim^2) at a time.
    """
    dim = len(c)
    flat = c.reshape(dim, dim * dim)
    step = max(1, _JACOBI_CHUNK // dim ** 2)
    worst = 0.0
    for i in range(dim):
        for j in range(i + 1, dim, step):
            rest = c[j:j + step]
            defect = rest @ c[i] - c[i] @ rest - (c[i, j:j + step] @ flat).reshape(rest.shape)
            worst = max(worst, float(np.max(np.abs(defect))))
    return worst


def _sparse_jacobi_residual(upper, per_m, dim):
    """The max of |J| over the products of nonzero constants.

    J is alternating in (i, j, k), so it vanishes for k in {i, j} and the
    maximum over sorted triples is the maximum over all.  Each product
    c_ab^l c_lk^m of nonzero constants with a < b and k not in {a, b} is
    one term of J at (a, b, k) sorted, signed by the sorting permutation
    (odd exactly when a < k < b); the products with k in {a, b} cancel
    exactly and count as zero.  per_m[m] counts the products with output
    index m.  They are summed per (lo, mid, hi, m) in blocks of
    consecutive m, a new block starting at each multiple of _JACOBI_BLOCK
    products, so a block holds fewer than _JACOBI_BLOCK + max(per_m).
    """
    a, b, out, v = upper
    # partners c_lk^m: every nonzero constant, both orders of (l, k)
    partners = (np.concatenate([a, b]), np.concatenate([b, a]),
                np.concatenate([out, out]), np.concatenate([v, -v]))
    block = ((np.cumsum(per_m) - per_m) // _JACOBI_BLOCK)[partners[2]]
    order = np.lexsort((partners[0], block))  # by block, then by l
    partners = [p[order] for p in partners]
    bounds = np.flatnonzero(np.diff(block[order], prepend=-1, append=-1))
    worst = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # a call of its own, so that its temporaries are freed before the sort
        key, term = _jacobi_terms(upper, [p[lo:hi] for p in partners], dim)
        # sum the terms per key; a stable argsort shares lexsort's code, where
        # np.unique would page in another sort of about 0.5 MB per process
        order = np.argsort(key, kind="stable")
        key = key[order]
        group = np.cumsum(np.diff(key, prepend=key[:1]) != 0)
        worst = max(worst, float(np.max(np.abs(np.bincount(group, weights=term[order])),
                                        initial=0.0)))
    return worst


def _jacobi_terms(upper, partners, dim):
    """Keys (lo, mid, hi, m) and signed values of the products c_ab^l c_lk^m
    of the entries upper = (a, b, l, c_ab^l), a < b, with the entries
    partners = (l, k, m, c_lk^m), which are sorted by l.
    """
    a, b, out, v = upper
    first, second, pm, pv = partners
    count = np.bincount(first, minlength=dim)
    reps = count[out]
    offset = np.cumsum(reps) - reps
    start = np.cumsum(count) - count
    part = np.arange(reps.sum()) + np.repeat(start[out] - offset, reps)  # the (l, k, m) entry
    i, j, k = np.repeat(a, reps), np.repeat(b, reps), second[part]
    term = np.repeat(v, reps) * pv[part]
    term[(k == i) | (k == j)] = 0.0  # J(a, b, a) = J(a, b, b) = 0 exactly
    term[(i < k) & (k < j)] *= -1.0
    lo, hi = np.minimum(i, k), np.maximum(j, k)
    return ((lo * dim + (i + j + k - lo - hi)) * dim + hi) * dim + pm[part], term


class BilinearForm:
    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if not np.max(np.abs(m - m.T)) < 1e-12:
            raise AssertionError("form must be symmetric")
        self.matrix = 0.5 * (m + m.T)

    def __call__(self, x, y) -> float:
        return float(np.asarray(x, float) @ self.matrix @ np.asarray(y, float))

    def invariance_residual(self, g: LieAlgebra) -> float:
        """Max |ad(e_z)^T B + B ad(e_z)| over z, for z in steps of at most
        max(1, _JACOBI_CHUNK // dim^2)."""
        step = max(1, _JACOBI_CHUNK // g.dim ** 2)
        worst = [0.0]
        for z in range(0, g.dim, step):
            cb = g.tensor[z:z + step] @ self.matrix  # cb[z] = ad(e_z)^T B
            worst.append(np.max(np.abs(cb + cb.transpose(0, 2, 1))))
        return float(np.max(worst))

    def scaled(self, factor: float) -> "BilinearForm":
        return BilinearForm(factor * self.matrix)

    def __repr__(self):
        return "BilinearForm(dim=%d)" % self.matrix.shape[0]


def null_space(a) -> np.ndarray:
    """Orthonormal kernel basis of a real or complex matrix, as columns.

    Singular values up to 1e-10 of the largest count as zero.  The full
    square U is formed only for wide matrices, whose full V needs it."""
    a = np.asarray(a)
    _, sv, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    rank = int(np.sum(sv > np.amax(sv, initial=0.0) * 1e-10))
    return vh[rank:].conj().T


def from_matrix_algebra(matrices) -> LieAlgebra:
    """Lie algebra spanned by real matrices, closed under commutator.

    Structure constants come from expanding commutators in the generator
    basis; a commutator leaving the span raises NotClosed.  The pairs
    i < j are expanded in blocks of about _JACOBI_CHUNK matrix entries, and
    only the nonzero constants of a block are kept.
    """
    mats = [np.asarray(m, dtype=float) for m in matrices]
    d = len(mats)
    stack = np.array(mats)
    span = stack.reshape(d, -1).T
    # one SVD for the rank test and for the pseudo-inverse (np.linalg.pinv's
    # formula at its default cutoff, 1e-15 of the largest singular value)
    u, sv, vh = np.linalg.svd(span, full_matrices=False)
    if np.count_nonzero(sv > 1e-10) < d:
        raise ValueError("generators are linearly dependent")
    inverse = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > 1e-15 * np.max(sv))
    pinv = vh.T @ (inverse[:, None] * u.T)
    scale = max(1.0, float(np.sqrt(np.max(np.sum(span * span, axis=0)))))
    i, j = np.triu_indices(d, 1)
    step = max(d, _JACOBI_CHUNK // span.shape[0])
    entries, worst, at = [], 0.0, 0
    for p in range(0, i.size, step):
        x, y = stack[i[p:p + step]], stack[j[p:p + step]]
        comm = (x @ y - y @ x).reshape(len(x), -1)
        coords = comm @ pinv.T  # row q: [m_i, m_j] at pair p + q in generator coordinates
        residual = np.linalg.norm(coords @ span.T - comm, axis=1)
        q = int(np.argmax(residual))
        if residual[q] > worst:
            worst, at = float(residual[q]), p + q
        q, k = np.nonzero(np.abs(coords) > 1e-12)
        entries.append(np.column_stack([i[p + q], j[p + q], k, coords[q, k]]))
    if worst > 1e-9 * scale ** 2:
        raise NotClosed("[m%d, m%d] leaves the span: residual %.3e" % (i[at], j[at], worst))
    g = LieAlgebra(d, np.concatenate(entries) if entries else [])
    g.matrices = mats
    return g


def stabilizer_subalgebra(g: LieAlgebra, rep_matrices, tensors) -> np.ndarray:
    """Kernel of A -> A*t (derivation action on the tensors), as columns in
    g-coordinates.  Closure under the bracket is verified before returning.

    tensors: one ndarray or a list of them; each of shape (n,) * order.
    """
    if isinstance(tensors, np.ndarray):
        tensors = [tensors]
    reps = np.array([np.asarray(m, dtype=float) for m in rep_matrices])
    if len(reps) != g.dim:
        raise AssertionError("%d representation matrices for dimension %d" % (len(reps), g.dim))
    rows = []
    for t in tensors:
        t = np.asarray(t, dtype=float)
        order = t.ndim
        dt = np.zeros((g.dim,) + t.shape)
        for axis in range(order):
            # action on covariant tensors: (A*t)(x,..) = -sum_axis t(.., Ax, ..)
            dt -= np.moveaxis(np.tensordot(t, reps, axes=([axis], [1])), (order - 1, order),
                              (0, axis + 1))
        rows.append(dt.reshape(g.dim, -1).T)
    system = np.vstack(rows)
    kernel = null_space(system)
    if kernel.shape[1] == 0:
        return kernel
    # closure check: brackets of kernel elements stay inside the kernel span
    b = g.brackets(kernel, kernel)
    worst = float(np.max(np.linalg.norm(b - b @ (kernel @ kernel.T), axis=-1)))
    if not worst < 1e-9:
        raise AssertionError("stabilizer not closed under bracket: %.3e" % worst)
    return kernel


def orthocomplement(g: LieAlgebra, subspace, B: BilinearForm) -> np.ndarray:
    """B-orthogonal complement of a subspace, as (dim, k) columns."""
    s = np.asarray(subspace, dtype=float)
    if s.ndim != 2 or s.shape[0] != g.dim:
        raise DimensionMismatch("subspace must be (dim, k) columns")
    if s.shape[1] == 0:
        return np.eye(g.dim)
    gram = s.T @ B.matrix @ s
    # relative to |B| and the longest column, so that a scaled form passes alike
    tol = 1e-10 * np.max(np.abs(B.matrix)) * np.max(np.sum(s * s, axis=0))
    if np.linalg.matrix_rank(gram, tol=tol) < s.shape[1]:
        raise DegenerateRestriction("B restricts degenerately to the subspace")
    comp = null_space(s.T @ B.matrix)
    if comp.shape[1] != g.dim - s.shape[1]:
        raise AssertionError("complement has dimension %d, not %d"
                             % (comp.shape[1], g.dim - s.shape[1]))
    return comp


def orthonormalize(vectors, B: BilinearForm) -> np.ndarray:
    """Modified Gram-Schmidt against B with one re-orthogonalization pass.

    Requires B positive definite on the span; raises DegenerateRestriction on
    (near-)degenerate input: a squared B-norm of at most 1e-10 |v| |Bv| for
    the input column v, a bound that scales with B and with v.
    """
    v = np.array(vectors, dtype=float, copy=True)
    m = B.matrix
    out, dual = [], []  # the columns so far and their rows q^T B
    for col in v.T:
        w = col.copy()
        for _ in range(2):
            for q, qm in zip(out, dual):
                w -= (qm @ w) * q
        norm2 = float(w @ m @ w)
        if norm2 <= 1e-10 * float(np.linalg.norm(col) * np.linalg.norm(m @ col)):
            raise DegenerateRestriction(
                "vector has non-positive B-norm %.3e during Gram-Schmidt" % norm2)
        out.append(w / np.sqrt(norm2))
        dual.append(out[-1] @ m)
    return np.column_stack(out) if out else np.zeros((v.shape[0], 0))


def direct_sum(*algebras: LieAlgebra) -> LieAlgebra:
    dims = [g.dim for g in algebras]
    offsets = np.concatenate([[0], np.cumsum(dims)])
    total = int(offsets[-1])
    rows = [np.zeros((0, 4))]
    for g, off in zip(algebras, offsets):
        i, j, k, val = g._upper
        rows.append(np.column_stack([i + off, j + off, k + off, val]))
    out = LieAlgebra(total, np.concatenate(rows))
    if all(g.matrices is not None for g in algebras):
        sizes = [np.shape(g.matrices[0])[0] for g in algebras]
        starts = np.concatenate([[0], np.cumsum(sizes)])
        out.matrices = []
        for g, lo, hi in zip(algebras, starts, starts[1:]):
            for m in g.matrices:
                block = np.zeros((starts[-1], starts[-1]))
                block[lo:hi, lo:hi] = m
                out.matrices.append(block)
    return out


def realify(m) -> np.ndarray:
    """Complex n x n matrix X + iY to real 2n x 2n [[X, -Y], [Y, X]]; a
    stack of them (..., n, n) to the stack of their realifications."""
    m = np.asarray(m, dtype=complex)
    r, c = m.shape[-2:]
    out = np.empty(m.shape[:-2] + (2 * r, 2 * c))
    out[..., :r, :c] = out[..., r:, c:] = m.real
    out[..., r:, :c] = m.imag
    out[..., :r, c:] = -m.imag
    return out


def quaternion_to_complex(a, b, c, d) -> np.ndarray:
    """Quaternionic matrix A + Bi + Cj + Dk as a complex 2n x 2n matrix.

    Entries are replaced by their 2 x 2 complex blocks, the images
    [[a + bi, c + di], [-c + di, a - bi]] of a + bi + cj + dk.
    """
    a, b, c, d = (np.asarray(x, dtype=float) for x in (a, b, c, d))
    r, s = a.shape
    out = np.empty((2 * r, 2 * s), dtype=complex)
    out[0::2, 0::2] = a + 1j * b
    out[0::2, 1::2] = c + 1j * d
    out[1::2, 0::2] = -c + 1j * d
    out[1::2, 1::2] = a - 1j * b
    return out


def su_generators(n: int, size: int) -> list:
    """Realified generators of su(n) in the upper-left block of size x size
    complex matrices: E_pq - E_qp and i(E_pq + E_qp) for p < q, then
    i(E_pp - E_(p+1)(p+1))."""
    p, q = np.triu_indices(n, 1)
    pairs, diagonal = 2 * len(p), np.arange(n - 1)
    mats = np.zeros((pairs + n - 1, size, size), dtype=complex)
    even, odd = np.arange(0, pairs, 2), np.arange(1, pairs, 2)
    mats[even, p, q], mats[even, q, p] = 1.0, -1.0
    mats[odd, p, q] = mats[odd, q, p] = 1j
    mats[pairs + diagonal, diagonal, diagonal] = 1j
    mats[pairs + diagonal, diagonal + 1, diagonal + 1] = -1j
    return list(realify(mats))


def su(n: int) -> LieAlgebra:
    """su(n), realified defining representation."""
    return from_matrix_algebra(su_generators(n, n))


def so(n: int) -> LieAlgebra:
    mats = []
    for p in range(n):
        for q in range(p + 1, n):
            e = np.zeros((n, n))
            e[p, q], e[q, p] = 1.0, -1.0
            mats.append(e)
    return from_matrix_algebra(mats)


def sp(n: int) -> LieAlgebra:
    """Compact symplectic algebra sp(n): quaternionic skew-Hermitian matrices,
    realified via the complex 2n x 2n picture."""
    zero = np.zeros((n, n))
    mats = []
    for p in range(n):
        for unit in range(3):
            e = np.zeros((n, n))
            e[p, p] = 1.0
            parts = [zero, zero, zero, zero]
            parts[1 + unit] = e
            mats.append(quaternion_to_complex(*parts))
    for p in range(n):
        for q in range(p + 1, n):
            anti = np.zeros((n, n))
            anti[p, q], anti[q, p] = 1.0, -1.0
            mats.append(quaternion_to_complex(anti, zero, zero, zero))
            sym = np.zeros((n, n))
            sym[p, q] = sym[q, p] = 1.0
            for unit in range(3):
                parts = [zero, zero, zero, zero]
                parts[1 + unit] = sym
                mats.append(quaternion_to_complex(*parts))
    return from_matrix_algebra([realify(m) for m in mats])


def algebra_from_json(data: dict):
    """Load a (LieAlgebra, {name: BilinearForm}) pair from the JSON schema

    { "dim": n, "brackets": [[i, j, k, value], ...], "forms": { "name": [[...]] } }

    Indices are 0-based; omitted (i, j) pairs mean zero bracket and the
    antisymmetric completion is applied on load.  Other keys are ignored.
    """
    dim = int(data["dim"])
    brackets = [(int(i), int(j), int(k), float(v)) for i, j, k, v in data.get("brackets", [])]
    g = LieAlgebra(dim, brackets)
    forms = {name: BilinearForm(np.asarray(mat, dtype=float))
             for name, mat in data.get("forms", {}).items()}
    return g, forms
