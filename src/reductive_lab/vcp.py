"""Vector cross products and their generalized relatives.

A 3-form sigma on euclidean R^n is a vector cross product when
|sigma_X Y| = |X ^ Y| for all X, Y.  The weaker requirement that the
operators sigma_X for unit X all be conjugate in O(n) admits, besides
the classical dimensions 3 and 7, exactly one further family in
dimension six.  Detection works through the eigenvalue spectrum of
-sigma_X^2, which is constant in X precisely in the generalized case.
"""

import itertools

import numpy as np

from .algebra import orthonormal_pairs, unit_rows

__all__ = [
    "ThreeForm", "InvalidS",
    "VOLUME_TYPE3", "G2_TYPE7", "SU3_TYPE6", "NOT_GVCP",
    "volume_3form", "g2_sigma", "su3_tau",
    "is_vcp", "is_gvcp", "classify_gvcp", "fit_vcp_multiple",
    "appendix_component_checks",
]

VOLUME_TYPE3 = "VolumeType3"
G2_TYPE7 = "G2Type7"
SU3_TYPE6 = "SU3Type6"
NOT_GVCP = "NotGVCP"

SPECTRUM_TOL = 1e-7


class InvalidS(ValueError):
    pass


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class ThreeForm:
    """Alternating 3-form, stored as the full antisymmetric array."""

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or len(set(values.shape)) != 1:
            raise AssertionError("a 3-form needs shape (n, n, n), got %s" % (values.shape,))
        scale = float(np.abs(values).max())  # the bound of InfinitesimalModel.check
        for axes in [(1, 0, 2), (0, 2, 1)]:
            if np.abs(values + values.transpose(axes)).max() > 1e-10 * scale:
                raise ValueError("coefficients are not totally antisymmetric")
        self.n = values.shape[0]
        self.values = values

    @classmethod
    def from_components(cls, n: int, components: dict) -> "ThreeForm":
        """Build from 1-based strictly increasing index triples."""
        values = np.zeros((n, n, n))
        for (i, j, k), coeff in components.items():
            if not 1 <= i < j < k <= n:
                raise AssertionError("index triple %s is not increasing in 1..%d" % ((i, j, k), n))
            for perm in itertools.permutations((i - 1, j - 1, k - 1)):
                values[perm] = coeff * _perm_sign(perm)
        return cls(values)

    def __call__(self, x, y, z) -> float:
        return float(np.einsum("i,j,k,ijk->", x, y, z, self.values))

    def apply(self, x, y) -> np.ndarray:
        """The vector sigma_X Y (indices raised with the euclidean metric),
        for one pair or for every row pair of two stacks."""
        return np.einsum("...i,...j,ijk->...k", x, y, self.values)

    def matrix(self, x) -> np.ndarray:
        """sigma_X as a skew matrix acting on column vectors, for one X or
        for every row X of a stack."""
        return np.einsum("...i,ijk->...kj", x, self.values)

    def scaled(self, c: float) -> "ThreeForm":
        return ThreeForm(c * self.values)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def __repr__(self):
        return "ThreeForm(n=%d, |.|=%.3g)" % (self.n, self.norm())


def volume_3form() -> ThreeForm:
    return ThreeForm.from_components(3, {(1, 2, 3): 1.0})


def g2_sigma() -> ThreeForm:
    """The associative 3-form: (e12 + e34 + e56) ^ e7 + Re(z1 ^ z2 ^ z3)."""
    return ThreeForm.from_components(7, {
        (1, 2, 7): 1.0, (3, 4, 7): 1.0, (5, 6, 7): 1.0,
        (1, 3, 5): 1.0, (1, 4, 6): -1.0, (2, 3, 6): -1.0, (2, 4, 5): -1.0,
    })


def su3_tau() -> ThreeForm:
    """Real part of the complex volume form on C^3 = R^6."""
    return ThreeForm.from_components(6, {
        (1, 3, 5): 1.0, (1, 4, 6): -1.0, (2, 3, 6): -1.0, (2, 4, 5): -1.0,
    })


def is_vcp(sigma: ThreeForm, seed: int = 0):
    """Test |sigma_X Y|^2 = 1 on 48 orthonormal pairs.

    Returns (verdict, max deviation).
    """
    v = sigma.apply(*orthonormal_pairs(sigma.n, 48, seed))
    worst = float(np.max(np.abs(np.sum(v * v, axis=1) - 1.0)))
    return worst < SPECTRUM_TOL, worst


def is_gvcp(tau: ThreeForm, seed: int = 0):
    """Constant spectrum of -tau_X^2 over 48 unit X, or None.

    The zero form does not qualify.
    """
    if tau.norm() < 1e-14:
        return None
    m = tau.matrix(unit_rows(tau.n, 48, seed))
    specs = np.linalg.eigvalsh(-(m @ m))  # ascending per row
    mean = specs.mean(axis=0)
    scale = max(float(specs.max()), 1e-300)
    if float(np.abs(specs - mean).max()) > SPECTRUM_TOL * scale:
        return None
    return mean


def classify_gvcp(tau: ThreeForm, seed: int = 0) -> str:
    """Match the constant spectrum against the three model patterns.

    Scale never matters: conjugacy classes are tested only through the
    multiplicity pattern of -tau_X^2.
    """
    spectrum = is_gvcp(tau, seed=seed)
    if spectrum is None:
        return NOT_GVCP
    top = float(spectrum.max())
    kernel = int(np.sum(spectrum < SPECTRUM_TOL * top))
    rest = spectrum[kernel:]
    equal = float(np.abs(rest - rest.mean()).max()) < SPECTRUM_TOL * top
    if tau.n == 3 and kernel == 1 and equal:
        return VOLUME_TYPE3
    if tau.n == 7 and kernel == 1 and equal:
        return G2_TYPE7
    if tau.n == 6 and kernel == 2 and equal:
        return SU3_TYPE6
    return NOT_GVCP


def fit_vcp_multiple(tau: ThreeForm, seed: int = 0):
    """Scale c with c*tau a vector cross product, or None.

    c is fitted as 1/median of |tau_X Y| over 48 orthonormal pairs, so a
    single aligned pair cannot skew the verdict.
    """
    if tau.n not in (3, 7):
        raise AssertionError("vector cross products exist in dimension 3 and 7, not %d" % tau.n)
    norms = np.linalg.norm(tau.apply(*orthonormal_pairs(tau.n, 48, seed)), axis=1)
    med = float(np.median(norms))
    if med < 1e-12:
        return None
    c = 1.0 / med
    ok, _ = is_vcp(tau.scaled(c), seed=seed + 1)
    return c if ok else None


# --- the su(2) (+) C^2 model -------------------------------------------------
# an element U + u is a row of a complex stack [U | u] (N, 2, 3)

_PAULI = np.array([[[0.0, 1.0], [1.0, 0.0]],
                   [[0.0, -1.0j], [1.0j, 0.0]],
                   [[1.0, 0.0], [0.0, -1.0]]])


def _unit_su2(v) -> np.ndarray:
    """i sum_c v_c sigma_c for every row v (N, 3), normalized."""
    return 1.0j * np.einsum("pc,cij->pij", v / np.linalg.norm(v, axis=1)[:, None], _PAULI)


def _hermitian(a, b) -> np.ndarray:
    """sum_i conj(a_i) b_i for every row pair of two stacks (N, 2)."""
    return np.sum(a.conj() * b, axis=-1)


def _su2_inner(a, b) -> np.ndarray:
    return np.real(-0.5 * np.trace(a @ b, axis1=-2, axis2=-1))


def _residual_bracket(s: float, x, y) -> np.ndarray:
    (A, a), (B, b) = (x[:, :, :2], x[:, :, 2]), (y[:, :, :2], y[:, :, 2])
    # the trace-free part of a b^H - b a^H inside u(2)
    star = a[:, :, None] * b.conj()[:, None, :] - b[:, :, None] * a.conj()[:, None, :]
    star += 1.0j * np.imag(_hermitian(a, b))[:, None, None] * np.eye(2)
    first = (1.0 - s) * (A @ B - B @ A) - star / (s + 1.0)
    return np.dstack([first, np.einsum("pij,pj->pi", A, b) - np.einsum("pij,pj->pi", B, a)])


def _worst_norm(x) -> float:
    """Max over the rows of |U + u|, |U|^2 = -tr(U^2) / 2."""
    u, a = x[:, :, :2], x[:, :, 2]
    # rounding can push a zero residual slightly negative
    return float(np.max(np.sqrt(np.maximum(_su2_inner(u, u) + np.real(_hermitian(a, a)), 0.0))))


def appendix_component_checks(s: float, seed: int = 0) -> dict:
    """Residuals of the three quadratic cross-product identities.

    The model is su(2) (+) C^2 with the residual bracket of the
    one-parameter family of reductive splittings; the candidate scale
    is always c^2 = s + 1.  Returns per-identity maxima over 24 random
    samples, together with the 2x2 matrix identity
    AX + XA = tr(AX) id + tr(X) A used to derive them.  The samples are
    the rows of one (24, 22) normal draw: A (3), a (2 + 2i), B (3),
    b (2 + 2i) and the complex 2x2 X (4 + 4i).
    """
    if abs(s) < 1e-12 or abs(s + 1.0) < 1e-12:
        raise InvalidS("the splitting degenerates at s in {0, -1}")
    c2 = s + 1.0
    d = np.random.default_rng(seed).normal(size=(24, 22))
    A, B = _unit_su2(d[:, 0:3]), _unit_su2(d[:, 7:10])
    a, b = (d[:, i:i + 2] + 1.0j * d[:, i + 2:i + 4] for i in (3, 10))
    a, b = (v / np.sqrt(np.real(_hermitian(v, v)))[:, None] for v in (a, b))
    x = (d[:, 14:18] + 1.0j * d[:, 18:22]).reshape(-1, 2, 2)

    def t(v, w):
        return _residual_bracket(s, v, w)

    ea, ev = np.dstack([A, np.zeros_like(a)]), np.dstack([np.zeros_like(A), a])
    y = np.dstack([B, b])
    ab, aa = (_su2_inner(A, v)[:, None, None] for v in (B, A))
    re_ab, na = (np.real(_hermitian(a, v))[:, None, None] for v in (b, a))
    ident = (A @ x + x @ A - np.trace(A @ x, axis1=1, axis2=2)[:, None, None] * np.eye(2)
             - np.trace(x, axis1=1, axis2=2)[:, None, None] * A)
    return {"vcp1": _worst_norm(t(ea, t(ea, y)) - (ab * ea - aa * y)),
            "vcp2": _worst_norm(c2 * t(ev, t(ev, y)) - (re_ab * ev - na * y)),
            "vcp3": _worst_norm(c2 * (t(ea, t(ev, y)) + t(ev, t(ea, y)))
                                - (re_ab * ea + c2 * ab * ev)),
            "matrix_identity": float(np.abs(ident).max())}
