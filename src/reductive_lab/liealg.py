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
_JACOBI_CHUNK = 2 ** 16  # entries per temporary of the dense Jacobi loop


class DimensionMismatch(ValueError):
    pass


class NotClosed(ValueError):
    """Commutator of generators leaves their span."""


class DegenerateRestriction(ValueError):
    """A bilinear form restricts degenerately to a subspace."""


class LieAlgebra:
    """Lie algebra given by sparse structure constants c^k_{ij}.

    brackets may be a {(i, j, k): value} map or an iterable of
    (i, j, k, value); missing (j, i, k) entries are completed
    antisymmetrically, conflicting ones rejected.
    """

    def __init__(self, dim: int, brackets, labels=None, jacobi_tol: float = JACOBI_TOL):
        self.dim = int(dim)
        if labels is None:
            labels = ["e%d" % i for i in range(self.dim)]
        if len(labels) != self.dim:
            raise AssertionError("%d labels for dimension %d" % (len(labels), self.dim))
        self.labels = list(labels)

        if isinstance(brackets, dict):
            entries = [(i, j, k, v) for (i, j, k), v in brackets.items()]
        else:
            entries = [tuple(e) for e in brackets]
        seen = {}
        for i, j, k, v in entries:
            i, j, k, v = int(i), int(j), int(k), float(v)
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise DimensionMismatch("bracket index out of range: %s" % ((i, j, k),))
            if i == j:
                if v != 0.0:
                    raise ValueError("[e%d, e%d] must vanish" % (i, i))
                continue
            if (i, j, k) in seen and seen[(i, j, k)] != v:
                raise ValueError("conflicting entries for %s" % ((i, j, k),))
            seen[(i, j, k)] = v
        tensor = np.zeros((dim, dim, dim))
        for (i, j, k), v in seen.items():
            tensor[i, j, k] = v
        for (i, j, k), v in seen.items():
            if (j, i, k) in seen:
                if seen[(j, i, k)] != -v:
                    raise ValueError("antisymmetry violated at %s" % ((i, j, k),))
            else:
                tensor[j, i, k] = -v
        self.tensor = tensor
        i, j, k = np.nonzero(tensor)
        upper = i < j
        i, j, k = i[upper], j[upper], k[upper]
        self._upper = (i, j, k, tensor[i, j, k])  # the nonzero c^k_ij with i < j
        self.triples = tuple(zip(i.tolist(), j.tolist(), k.tolist(), self._upper[3]))
        self.matrices = None  # set by from_matrix_algebra

        residual = self.jacobi_residual()
        if residual > jacobi_tol:
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
        return BilinearForm(0.5 * (k + k.T), name="killing")

    def __repr__(self):
        return "LieAlgebra(dim=%d, nnz=%d)" % (self.dim, len(self.triples))


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
    def __init__(self, matrix, name: str = "B"):
        m = np.asarray(matrix, dtype=float)
        if not np.max(np.abs(m - m.T)) < 1e-12:
            raise AssertionError("form must be symmetric")
        self.matrix = 0.5 * (m + m.T)
        self.name = name

    def __call__(self, x, y) -> float:
        return float(np.asarray(x, float) @ self.matrix @ np.asarray(y, float))

    def invariance_residual(self, g: LieAlgebra) -> float:
        """Max |ad(e_z)^T B + B ad(e_z)| over z."""
        cb = g.tensor @ self.matrix  # cb[z] = ad(e_z)^T B
        return float(np.max(np.abs(cb + cb.transpose(0, 2, 1)), initial=0.0))

    def scaled(self, factor: float) -> "BilinearForm":
        return BilinearForm(factor * self.matrix, name=self.name)

    def __repr__(self):
        return "BilinearForm(%r, dim=%d)" % (self.name, self.matrix.shape[0])


def null_space(a) -> np.ndarray:
    """Orthonormal kernel basis of a real or complex matrix, as columns.

    Singular values up to 1e-10 of the largest count as zero."""
    _, sv, vh = np.linalg.svd(a, full_matrices=True)
    rank = int(np.sum(sv > np.amax(sv, initial=0.0) * 1e-10))
    return vh[rank:].conj().T


def from_matrix_algebra(matrices) -> LieAlgebra:
    """Lie algebra spanned by real matrices, closed under commutator.

    Structure constants come from expanding commutators in the generator
    basis; a commutator leaving the span raises NotClosed.
    """
    mats = [np.asarray(m, dtype=float) for m in matrices]
    d = len(mats)
    stack = np.array(mats)
    span = stack.reshape(d, -1).T
    if np.linalg.matrix_rank(span, tol=1e-10) < d:
        raise ValueError("generators are linearly dependent")
    pinv = np.linalg.pinv(span)
    scale = max(1.0, max(np.linalg.norm(m) for m in mats))
    i, j = np.triu_indices(d, 1)
    comm = np.empty((i.size,) + stack.shape[1:])
    p = 0
    for a in range(d - 1):  # the rows of (a, a + 1), ..., (a, d - 1)
        rest = stack[a + 1:]
        comm[p:p + len(rest)] = stack[a] @ rest - rest @ stack[a]
        p += len(rest)
    comm = comm.reshape(i.size, -1)
    coords = comm @ pinv.T  # row p: [m_i, m_j] at (i[p], j[p]) in generator coordinates
    residual = np.empty(i.size)
    for p in range(0, i.size, d):  # row blocks: no second (pairs, n^2) array
        residual[p:p + d] = np.linalg.norm(coords[p:p + d] @ span.T - comm[p:p + d], axis=1)
    if residual.size:
        worst = int(np.argmax(residual))
        if residual[worst] > 1e-9 * scale ** 2:
            raise NotClosed("[m%d, m%d] leaves the span: residual %.3e"
                            % (i[worst], j[worst], residual[worst]))
    p, k = np.nonzero(np.abs(coords) > 1e-12)
    g = LieAlgebra(d, zip(i[p], j[p], k, coords[p, k]))
    g.matrices = mats
    return g


def stabilizer_subalgebra(g: LieAlgebra, rep_matrices, tensors) -> np.ndarray:
    """Kernel of A -> A*t (derivation action on the tensors), as columns in
    g-coordinates.  Closure under the bracket is verified before returning.

    tensors: one ndarray or a list of them; each of shape (n,) * order.
    """
    if isinstance(tensors, np.ndarray):
        tensors = [tensors]
    reps = [np.asarray(m, dtype=float) for m in rep_matrices]
    if len(reps) != g.dim:
        raise AssertionError("%d representation matrices for dimension %d" % (len(reps), g.dim))
    rows = []
    for t in tensors:
        t = np.asarray(t, dtype=float)
        order = t.ndim
        cols = []
        for a in reps:
            dt = np.zeros_like(t)
            for axis in range(order):
                # action on covariant tensors: (A*t)(x,..) = -sum_axis t(.., Ax, ..)
                dt -= np.tensordot(t, a, axes=([axis], [0])).transpose(
                    _restore_axis(order, axis))
            cols.append(dt.reshape(-1))
        rows.append(np.column_stack(cols))
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


def _restore_axis(order, axis):
    # tensordot moved the contracted slot to the end; put it back at `axis`
    perm = list(range(order - 1))
    perm.insert(axis, order - 1)
    return perm


def orthocomplement(g: LieAlgebra, subspace, B: BilinearForm) -> np.ndarray:
    """B-orthogonal complement of a subspace, as (dim, k) columns."""
    s = np.asarray(subspace, dtype=float)
    if s.ndim != 2 or s.shape[0] != g.dim:
        raise DimensionMismatch("subspace must be (dim, k) columns")
    if s.shape[1] == 0:
        return np.eye(g.dim)
    gram = s.T @ B.matrix @ s
    if s.shape[1] and np.linalg.matrix_rank(gram, tol=1e-10) < s.shape[1]:
        raise DegenerateRestriction("B restricts degenerately to the subspace")
    comp = null_space(s.T @ B.matrix)
    if comp.shape[1] != g.dim - s.shape[1]:
        raise AssertionError("complement has dimension %d, not %d"
                             % (comp.shape[1], g.dim - s.shape[1]))
    return comp


def orthonormalize(vectors, B: BilinearForm) -> np.ndarray:
    """Modified Gram-Schmidt against B with one re-orthogonalization pass.

    Requires B positive definite on the span; raises DegenerateRestriction on
    (near-)degenerate input.
    """
    v = np.array(vectors, dtype=float, copy=True)
    m = B.matrix
    out = []
    for col in v.T:
        w = col.copy()
        for _ in range(2):
            for q in out:
                w -= (q @ m @ w) * q
        norm2 = float(w @ m @ w)
        if norm2 < 1e-10:
            raise DegenerateRestriction(
                "vector has non-positive B-norm %.3e during Gram-Schmidt" % norm2)
        out.append(w / np.sqrt(norm2))
    return np.column_stack(out) if out else np.zeros((v.shape[0], 0))


def direct_sum(*algebras: LieAlgebra) -> LieAlgebra:
    dims = [g.dim for g in algebras]
    offsets = np.concatenate([[0], np.cumsum(dims)])
    total = int(offsets[-1])
    brackets = {}
    labels = []
    collide = len({lab for g in algebras for lab in g.labels}) < total
    for idx, (g, off) in enumerate(zip(algebras, offsets)):
        off = int(off)
        labels.extend("%d:%s" % (idx, lab) if collide else lab for lab in g.labels)
        for i, j, k, val in g.triples:
            brackets[(i + off, j + off, k + off)] = val
    out = LieAlgebra(total, brackets, labels=labels)
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
    """Complex n x n matrix X + iY to real 2n x 2n [[X, -Y], [Y, X]]."""
    m = np.asarray(m, dtype=complex)
    x, y = m.real, m.imag
    return np.block([[x, -y], [y, x]])


def quaternion_to_complex(a, b, c, d) -> np.ndarray:
    """Quaternionic matrix A + Bi + Cj + Dk as a complex 2n x 2n matrix.

    Entries are replaced by their 2 x 2 complex blocks, i.e. kron with the
    standard images of 1, i, j, k.
    """
    one = np.eye(2, dtype=complex)
    qi = np.array([[1j, 0], [0, -1j]])
    qj = np.array([[0, 1], [-1, 0]], dtype=complex)
    qk = np.array([[0, 1j], [1j, 0]])
    return (np.kron(a, one) + np.kron(b, qi) + np.kron(c, qj) + np.kron(d, qk))


def su_generators(n: int, size: int) -> list:
    """Realified generators of su(n) in the upper-left block of size x size
    complex matrices: E_pq - E_qp and i(E_pq + E_qp) for p < q, then
    i(E_pp - E_(p+1)(p+1))."""
    mats = []
    for p in range(n):
        for q in range(p + 1, n):
            e = np.zeros((size, size), dtype=complex)
            e[p, q], e[q, p] = 1.0, -1.0
            mats.append(e)
            e = np.zeros((size, size), dtype=complex)
            e[p, q] = e[q, p] = 1j
            mats.append(e)
    for p in range(n - 1):
        e = np.zeros((size, size), dtype=complex)
        e[p, p], e[p + 1, p + 1] = 1j, -1j
        mats.append(e)
    return [realify(m) for m in mats]


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

    { "dim": n, "labels": [...], "brackets": [[i, j, k, value], ...],
      "forms": { "name": [[...]] } }

    Indices are 0-based; omitted (i, j) pairs mean zero bracket and the
    antisymmetric completion is applied on load.
    """
    dim = int(data["dim"])
    labels = data.get("labels")
    brackets = [(int(i), int(j), int(k), float(v)) for i, j, k, v in data.get("brackets", [])]
    g = LieAlgebra(dim, brackets, labels=labels)
    forms = {name: BilinearForm(np.asarray(mat, dtype=float), name=name)
             for name, mat in data.get("forms", {}).items()}
    return g, forms
