"""Named example spaces with pinned normalizations.

The Hopf series (the ``berger`` and ``heisenberg`` kinds, and
``neg:su4-su3``, its member at n = 3, s = 0) is built in closed form from
its base curvature and the O'Neill term; ``berger_total_space`` keeps its
Lie route, an extension of the normal triple on su(n+1)/u(n).  Every other
entry is built from an explicit matrix realization of its Lie algebra.
The registry rows carry the expected relation polynomial (where the
normalization determines one) so reports can show an expected-vs-computed
table.  Registry identifiers are the stable CLI names, e.g. ``nk:flag`` or
``berger:n=2,s=1``.
"""

import numpy as np

from .algebra import Polynomial
from .liealg import (
    BilinearForm,
    LieAlgebra,
    direct_sum,
    from_matrix_algebra,
    realify,
    so,
    sp,
    stabilizer_subalgebra,
    su,
    su_generators,
)
from .reductive import (
    InadmissibleS,
    InfinitesimalModel,
    ReductiveTriple,
    build_triple,
    extend_fibered,
    scalar_curvature,
)
from .vcp import InvalidS, g2_sigma

__all__ = [
    "CatalogEntry",
    "aloff_wallach_n11",
    "berger_model",
    "berger_total_space",
    "entries",
    "entry",
    "flag_manifold",
    "heisenberg_model",
    "rescale_model",
    "rescaled_to_scalar",
    "s3_x_s3",
    "s6_round",
    "sp2_sp1_sphere",
    "spin7_sphere",
    "squashed_s7",
    "torsion_block_eigenvalue",
    "cp3_twistor",
    "v1_space",
]


def _matrix_gram(g: LieAlgebra) -> np.ndarray:
    mats = g.matrices
    if mats is None:
        raise AssertionError("algebra carries no matrix realization")
    stack = np.array(mats)
    return np.einsum("ipq,jqp->ij", stack, stack, optimize=True)  # tr(A_i A_j)


def trace_multiple(g: LieAlgebra, factor: float) -> BilinearForm:
    """factor * tr(XY) over the matrix realization.

    For realified complex matrices the real trace is twice the complex one,
    so the usual -1/2 complex-trace form is trace_multiple(g, -1/4).
    """
    return BilinearForm(factor * _matrix_gram(g))


# ---------------------------------------------------------------------------
# direct infinitesimal models


def _hopf_model(n: int, kappa: int, c: float) -> InfinitesimalModel:
    """Circle bundle of the Hopf series on R^(2n+1), fibre last, over the
    complex space form of curvature sign kappa (1, 0 or -1).

    tau = c J^eta, and on the horizontal space the base curvature plus the
    O'Neill term, rbar = kappa (A + B + 2C) - c^2 C, where
    A[i,l,a,b] = d_ia d_lb - d_ib d_la, B[i,l,a,b] = J_ia J_lb - J_ib J_la
    and C[i,l,a,b] = J_il J_ab; rbar vanishes on the fibre.
    """
    dim = 2 * n + 1
    j = np.zeros((dim, dim))
    for k in range(n):
        j[2 * k + 1, 2 * k] = 1.0
        j[2 * k, 2 * k + 1] = -1.0
    omega = j.T  # omega[i, l] = <J e_i, e_l>
    eta = np.zeros(dim)
    eta[2 * n] = 1.0
    tau = c * (omega[:, :, None] * eta + omega[None, :, :] * eta[:, None, None]
               + omega.T[:, None, :] * eta[None, :, None])
    # rbar is built in the layout the model stores (axes l, b, a, i), so that
    # no n^4 array is copied: first the C term, -C = omega x J
    w = ((c * c - 2 * kappa) * omega).T  # c ** 2 would raise OverflowError for a huge c
    stored = np.multiply(w[:, None, None, :], j.T[None, :, :, None], order="C")
    if kappa:
        # A and B have one entry per horizontal pair (i, l); J e_i = +-e_(i^1)
        i, l = np.divmod(np.arange(4 * n * n), 2 * n)
        ji, jl = i ^ 1, l ^ 1
        sign = kappa * j[i, ji] * j[l, jl]
        stored[l, l, i, i] += kappa
        stored[l, i, l, i] -= kappa
        stored[l, jl, ji, i] += sign
        stored[l, ji, jl, i] -= sign
    return InfinitesimalModel(tau, stored.transpose(3, 0, 2, 1))


def heisenberg_model(n: int, c: float) -> InfinitesimalModel:
    """Heisenberg-type model on R^(2n+1): tau = c J^eta, rbar = c^2 omega x J."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if c <= 0:
        raise ValueError("c must be positive")
    return _hopf_model(n, 0, c)


def berger_model(n: int, s: float, kappa: int = 1) -> InfinitesimalModel:
    """Circle bundle over the complex projective (kappa = 1) or hyperbolic
    (kappa = -1) base in closed form, with c^2 = 2(n+1)/(n|1+s|).

    kappa = 1 admits s > -1, is the normal metric on SU(n+1)/SU(n) at
    s = 0 and the round sphere at s = -(n-1)/(2n); kappa = -1 admits
    s < -1 only.  berger_total_space builds the kappa = 1 member through
    the Lie route.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if kappa not in (1, -1):
        raise ValueError("kappa must be 1 or -1, got %r" % (kappa,))
    if not kappa * (1.0 + s) > 0:
        raise InadmissibleS("s = %g is outside the admissible range" % s)
    return _hopf_model(n, kappa, (2.0 * (n + 1) / (n * abs(1.0 + s))) ** 0.5)


def aloff_wallach_n11(s: float) -> InfinitesimalModel:
    """One-parameter family on su(3)+su(2) with u(2) isotropy.

    The form is -1/2 the complex trace on su(3) and -1/(2s) on su(2); the
    m-basis splits as (su(2)-like directions, C^2 directions) in that order.
    """
    if s in (0.0, -1.0):
        raise InvalidS("s = %g degenerates the family" % s)
    g = direct_sum(su(3), su(2))
    e = np.eye(g.dim)
    # the diagonal u(2): traceless A paired with itself, the center with 0
    h = np.column_stack([e[0] + e[8], e[1] + e[9], e[6] + e[10], e[6] + 2 * e[7]])
    gram = _matrix_gram(g)
    b = np.zeros((g.dim, g.dim))
    b[:8, :8] = -0.25 * gram[:8, :8]
    b[8:, 8:] = -(0.25 / s) * gram[8:, 8:]
    form = BilinearForm(b)
    if 1.0 + s > 0:
        root = np.sqrt(1.0 + s)
        m_basis = np.column_stack([
            (e[0] - s * e[8]) / root,
            (e[1] - s * e[9]) / root,
            (e[6] - s * e[10]) / root,
            -e[2], -e[3], -e[4], -e[5],
        ])
        triple = build_triple(g, h, form, m_basis=m_basis)
    else:
        triple = build_triple(g, h, form)  # raises IndefiniteMetric
    return triple.model


# ---------------------------------------------------------------------------
# circle bundles over projective bases


def _berger_base(n: int, kappa: int):
    """(normal base triple on g/u(n), columns of the normal su(n) in u(n)).

    g is su(n+1) (kappa = 1) or su(n,1) (kappa = -1), realified from one
    generator list: su(n), the u(n) center, then the 2n off-block
    directions.  The form, -kappa/2 the complex trace, is positive on them.
    """
    d = n + 1
    mats = [1j * np.diag([1.0] * n + [-float(n)]) / d]  # the center
    for j in range(n):
        for upper, lower in ((1.0, -kappa), (1j, 1j * kappa)):
            m = np.zeros((d, d), dtype=complex)
            m[j, n], m[n, j] = upper, lower
            mats.append(m)
    g = from_matrix_algebra(su_generators(n, d) + [realify(m) for m in mats])
    k = np.eye(g.dim)[:, : n * n]
    return build_triple(g, k, trace_multiple(g, -0.25 * kappa)), k[:, :-1]


def berger_total_space(n: int, s: float) -> ReductiveTriple:
    """Circle bundle over the complex projective base as a fibered extension
    of the normal base triple on su(n+1)/u(n): the Lie route of
    berger_model(n, s), for s > -1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    base, h_cols = _berger_base(n, 1)
    return extend_fibered(base, h_cols, s)


def torsion_block_eigenvalue(model: InfinitesimalModel) -> float:
    """The constant nonzero eigenvalue of -tau_x^2, x the last basis
    direction (the fiber direction of an extended triple).

    Raises if the nonzero spectrum is not constant, or if its top is at most
    1e-8 max|tau|^2 or 1e-24 of the curvature scale: the second floor reads
    a torsion of rounding noise (a symmetric space) as vanishing.  Both
    floors scale with the metric.
    """
    t = model.tau_matrix(np.eye(model.n)[-1])
    eigs = np.linalg.eigvalsh(-t @ t)
    top = float(eigs[-1])
    if not top > max(1e-8 * np.max(np.abs(model.tau)) ** 2, 1e-24 * model.curvature_scale):
        raise AssertionError("tau_x vanishes")
    block = eigs[eigs > 1e-8 * top]
    if not float(block.max() - block.min()) < 1e-8 * top:
        raise AssertionError("nonzero spectrum of -tau_x^2 is not constant")
    return float(block.mean())


# ---------------------------------------------------------------------------
# nearly Kaehler presets (six-dimensional, scal = 30 at -1/12 Killing)


def flag_manifold(form_scale: float = -1.0 / 12.0) -> ReductiveTriple:
    """su(3) modulo its diagonal torus."""
    g = su(3)
    e = np.eye(g.dim)
    return build_triple(g, e[:, 6:8], g.killing_form().scaled(form_scale))


def s3_x_s3(form_scale: float = -1.0 / 12.0) -> ReductiveTriple:
    """Triple product of su(2) modulo the diagonal."""
    g = direct_sum(su(2), su(2), su(2))
    e = np.eye(g.dim)
    h = np.column_stack([e[k] + e[3 + k] + e[6 + k] for k in range(3)])
    return build_triple(g, h, g.killing_form().scaled(form_scale))


def cp3_twistor(form_scale: float = -1.0 / 12.0) -> ReductiveTriple:
    """so(5) modulo u(2), the u(2) solved as a stabilizer."""
    g = so(5)
    omega = np.zeros((5, 5))
    for k in range(2):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    axis = np.zeros(5)
    axis[4] = 1.0
    h = stabilizer_subalgebra(g, g.matrices, [omega, axis])
    if h.shape[1] != 4:
        raise AssertionError("u(2) stabilizer has dimension %d, not 4" % h.shape[1])
    return build_triple(g, h, g.killing_form().scaled(form_scale))


def s6_round(form_scale: float = -1.0 / 12.0) -> ReductiveTriple:
    """Stabilizer chain so(7) -> g2 -> su(3); the quotient is the round
    six-sphere with its non-symmetric reductive structure."""
    base = so(7)
    g2_cols = stabilizer_subalgebra(base, base.matrices, g2_sigma().values)
    if g2_cols.shape[1] != 14:
        raise AssertionError("g2 stabilizer has dimension %d, not 14" % g2_cols.shape[1])
    mats = [sum(float(c) * m for c, m in zip(col, base.matrices))
            for col in g2_cols.T]
    g2 = from_matrix_algebra(mats)
    axis = np.zeros(7)
    axis[6] = 1.0
    su3_cols = stabilizer_subalgebra(g2, g2.matrices, axis)
    if su3_cols.shape[1] != 8:
        raise AssertionError("su(3) stabilizer has dimension %d, not 8" % su3_cols.shape[1])
    return build_triple(g2, su3_cols, g2.killing_form().scaled(form_scale))


# ---------------------------------------------------------------------------
# nearly parallel presets (seven-dimensional, scal = 21/8 at -6/5 Killing)


def spin7_sphere(form_scale: float = -6.0 / 5.0) -> ReductiveTriple:
    """so(7) modulo g2: the round seven-sphere."""
    g = so(7)
    g2_cols = stabilizer_subalgebra(g, g.matrices, g2_sigma().values)
    return build_triple(g, g2_cols, g.killing_form().scaled(form_scale))


def squashed_s7(form_scale: float = -6.0 / 5.0) -> ReductiveTriple:
    """sp(2)+sp(1) modulo sp(1)+sp(1), the second block paired with the
    extra factor."""
    g = direct_sum(sp(2), sp(1))
    e = np.eye(g.dim)
    h = np.column_stack([e[0], e[1], e[2],
                         e[3] + e[10], e[4] + e[11], e[5] + e[12]])
    return build_triple(g, h, g.killing_form().scaled(form_scale))


def v1_space(form_scale: float = -1.0 / 30.0) -> ReductiveTriple:
    """so(5) = sp(2) modulo the irreducible so(3) = su(2).

    so(3) acts on the traceless symmetric 3 x 3 matrices, R^5, by
    conjugation; it is the stabilizer in so(5) of the invariant cubic
    C(a, b, c) = tr(E_a E_b E_c) over an orthonormal basis E of them.
    """
    e = np.zeros((5, 3, 3))
    for a, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
        e[a, i, j] = e[a, j, i] = np.sqrt(0.5)
    e[3] = np.diag([1.0, -1.0, 0.0]) * np.sqrt(0.5)
    e[4] = np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    g = so(5)
    h = stabilizer_subalgebra(g, g.matrices, np.einsum("aij,bjk,cki->abc", e, e, e))
    if h.shape[1] != 3:
        raise AssertionError("so(3) stabilizer has dimension %d, not 3" % h.shape[1])
    return build_triple(g, h, g.killing_form().scaled(form_scale))


# ---------------------------------------------------------------------------
# negative controls


def sp2_sp1_sphere(form_scale: float = -6.0 / 5.0) -> ReductiveTriple:
    """sp(2) modulo the lower-right sp(1) block."""
    g = sp(2)
    e = np.eye(g.dim)
    return build_triple(g, e[:, 3:6], g.killing_form().scaled(form_scale))


# ---------------------------------------------------------------------------
# metric rescaling


def rescale_model(model: InfinitesimalModel, t: float) -> InfinitesimalModel:
    """Model of the metric scaled by t > 0, in its orthonormal frame."""
    if not t > 0:
        raise AssertionError("the metric scale must be positive")
    return InfinitesimalModel(model.tau / np.sqrt(t), model.rbar / t)


def rescaled_to_scalar(model: InfinitesimalModel, target: float) -> InfinitesimalModel:
    """Rescale the metric so the scalar curvature equals target."""
    current = scalar_curvature(model)
    if not current * target > 0:
        raise AssertionError("scalar curvature cannot change sign")
    return rescale_model(model, current / target)


# ---------------------------------------------------------------------------
# registry


class CatalogEntry:
    """Registry row: identifier, zero-argument constructor, expected
    relation and note."""

    def __init__(self, name, builder, expected, note):
        self.name = name
        self.expected = expected
        self.note = note
        self._builder = builder

    def build(self) -> InfinitesimalModel:
        built = self._builder()
        return built.model if isinstance(built, ReductiveTriple) else built

    def __repr__(self):
        return "CatalogEntry(%r)" % self.name


_POL_ORDER4 = Polynomial([0.0, 0.25, 0.0, 1.25, 0.0, 1.0])
_POL_LINEAR = Polynomial([0.0, 1.0])
_NK_NOTE = "order-4 relation with coefficients 5/4 and 1/4 at scal = 30"

# fixed ids: {id: (builder, expected polynomial, note)}
_FIXED = {
    "nk:flag": (flag_manifold, _POL_ORDER4, _NK_NOTE),
    "nk:s3xs3": (s3_x_s3, _POL_ORDER4, _NK_NOTE),
    "nk:cp3": (cp3_twistor, _POL_ORDER4, _NK_NOTE),
    "nk:s6": (s6_round, _POL_LINEAR,
              "constant sectional curvature; the relation degenerates to the symmetric one"),
    "np:spin7-g2": (spin7_sphere, _POL_LINEAR, "round sphere; the order-2 family relation "
                    "lambda^3 + lambda/36 still annihilates"),
    "np:squashed-s7": (squashed_s7, Polynomial([0.0, 1.0 / 36.0, 0.0, 1.0]),
                       "scal = 21/8 at the -6/5 Killing form"),
    "np:v1": (v1_space, Polynomial([0.0, 1.0, 0.0, 1.0]),
              "irreducible su(2) isotropy, -1/30 Killing form"),
    "np:v3": (lambda: aloff_wallach_n11(1.5), Polynomial([0.0, 0.4, 0.0, 1.0]),
              "diagonal u(2) isotropy, -1/12 Killing form"),
    "neg:su4-su3": (lambda: berger_model(3, 0.0), None, "relation exists but its coefficient is not 2 scal / 189"),
    "neg:sp2-sp1": (sp2_sp1_sphere, None, "no linear relation; kept as the negative control"),
}

# parametric kinds: {kind: (builder, lead token, {parameter: (type, required)}, note)}
_PARAMETRIC = {
    "berger": (berger_model, None,
               {"n": (int, True), "s": (float, True), "kappa": (int, False)},
               "fiber over the projective base; relation lambda (lambda^2 + c^2) "
               "with c^2 read off the torsion"),
    "heisenberg": (heisenberg_model, None, {"n": (int, True), "c": (float, True)},
                   "relation lambda (lambda^2 + c^2)"),
    "aw": (aloff_wallach_n11, "n11", {"s": (float, True)},
           "splitting-family member; a cross product multiple only at s = 3/2"),
}


def entries() -> list:
    """The full registry: the parametric representatives, then the fixed ids."""
    return [entry(name) for name in ("berger:n=2,s=1", "heisenberg:n=2,c=1", "aw:n11,s=1.5",
                                     *_FIXED)]


def entry(name: str) -> CatalogEntry:
    """Resolve a registry identifier: a fixed id, or a kind, its lead token
    if any, and its declared parameters, each at most once, the required
    ones present, finite and of the declared type, kappa 1 or -1, e.g.
    berger:n=2,s=-0.25,kappa=1 or aw:n11,s=1.5; else raise KeyError."""
    if name in _FIXED:
        builder, expected, note = _FIXED[name]
        return CatalogEntry(name, builder, expected, note)
    kind, _, rest = name.partition(":")
    try:
        builder, lead, declared, note = _PARAMETRIC[kind]
        parts = rest.split(",")
        if lead is not None and parts.pop(0) != lead:
            raise ValueError
        pairs = [part.split("=") for part in parts]
        params = {key: declared[key][0](text) for key, text in pairs}
        if (len(params) < len(pairs) or not all(abs(v) < np.inf for v in params.values())
                or any(required and key not in params for key, (_, required) in declared.items())
                or params.get("kappa", 1) not in (1, -1)):
            raise ValueError
    except (KeyError, ValueError):
        raise KeyError("unknown catalog entry %r" % name)
    return CatalogEntry(name, lambda: builder(**params), None, note)
