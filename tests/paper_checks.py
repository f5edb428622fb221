"""Checks of the paper's claims that only the unit tests run.

No command, benchmark op or acceptance criterion calls these, so they live
with the tests that use them, together with the curvature helpers that only
they need:

- sectional and holomorphic sectional curvature, and the four equivalent
  conditions for constant holomorphic sectional curvature;
- the round member of a one-parameter family, by golden-section search;
- the fibre identity 4 c^2 = r^2 kappa^2 of the Hopf series over CP^n,
  through the Lie route (extend_fibered of the normal base triple);
- the three-dimensional fibre over the quaternionic projective line;
- the completely trace-free part of a tensor in Sym^(k+2) x Sym^2.
"""

import numpy as np

from reductive_lab.algebra import orthonormal_pairs
from reductive_lab.catalog import _berger_base, torsion_block_eigenvalue, trace_multiple
from reductive_lab.jacobi import _code, _msets, _project_traces, _rank, _weights
from reductive_lab.liealg import sp
from reductive_lab.reductive import (InfinitesimalModel, ReductiveTriple, build_triple,
                                     extend_fibered, jacobi_operator)


class DegeneratePlane(ValueError):
    pass


class NotComplexStructure(ValueError):
    pass


# ---------------------------------------------------------------------------
# curvature of a model


def sectional_curvature(model: InfinitesimalModel, x, y):
    """K(X, Y) = <R_0(Y) X, X> / |X ^ Y|^2, for one pair (a float) or for
    every row pair of two stacks; any degenerate pair raises."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gram = np.sum(x * x, -1) * np.sum(y * y, -1) - np.sum(x * y, -1) ** 2
    if np.any(gram <= 1e-10):
        raise DegeneratePlane("x and y do not span a 2-plane")
    k = np.einsum("...a,...ab,...b->...", x, jacobi_operator(model, y), x) / gram
    return float(k) if k.ndim == 0 else k


def _check_complex_structure(j, n):
    j = np.asarray(j, dtype=float)
    if j.shape != (n, n) or np.max(np.abs(j @ j + np.eye(n))) > 1e-9 \
            or np.max(np.abs(j.T @ j - np.eye(n))) > 1e-9:
        raise NotComplexStructure("J must be orthogonal with J^2 = -id")
    return j


def holomorphic_sectional(model: InfinitesimalModel, j, x):
    """H(X) = R(X, JX, JX, X) / |X|^4, for one X (a float) or for every row
    X of a stack; any zero X raises."""
    j = _check_complex_structure(j, model.n)
    x = np.asarray(x, dtype=float)
    jx = x @ j.T
    norm4 = np.sum(x * x, -1) ** 2
    if not np.all(norm4 > 0):
        raise ValueError("holomorphic sectional curvature needs a nonzero X")
    h = np.einsum("...a,...ab,...b->...", jx, jacobi_operator(model, x), jx) / norm4
    return float(h) if h.ndim == 0 else h


def check_chsc_equivalences(model: InfinitesimalModel, j) -> dict:
    """Evaluate the four equivalent constancy conditions on 32 fixed-seed
    unit samples, as stacks.

    (1) sectional curvature constant, (2) holomorphic sectional curvature
    constant, (3) the Jacobi operator preserves span{JX}, (4) the quadratic
    form of R_0(X) is invariant under U -> tau_X U on {X, JX}-perp, i.e. the
    form P^T (tau_X^T R_0(X) tau_X - R_0(X)) P vanishes for an orthonormal
    basis P of {X, JX}-perp; its residual is the largest |eigenvalue|.
    Returns per-condition booleans, residuals, and their logical agreement.
    """
    j = _check_complex_structure(j, model.n)
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(32, model.n))
    xs /= np.linalg.norm(xs, axis=1)[:, None]
    ys = rng.normal(size=xs.shape)
    ys -= np.sum(ys * xs, axis=1)[:, None] * xs
    ys /= np.linalg.norm(ys, axis=1)[:, None]

    sec = sectional_curvature(model, xs, ys)
    res_1 = float(sec.max() - sec.min()) / max(1.0, float(np.max(np.abs(sec))))
    hol = holomorphic_sectional(model, j, xs)
    res_2 = float(hol.max() - hol.min()) / max(1.0, float(np.max(np.abs(hol))))

    ops = jacobi_operator(model, xs)
    scale = np.maximum(1.0, np.linalg.norm(ops, axis=(1, 2)))
    jxs = xs @ j.T
    image = np.einsum("pab,pb->pa", ops, jxs)
    off = image - np.sum(image * jxs, axis=1)[:, None] * jxs
    res_3 = float(np.max(np.linalg.norm(off, axis=1) / scale))
    # X, JX are orthonormal: their last n - 2 right singular vectors span {X, JX}-perp
    perp = np.linalg.svd(np.stack([xs, jxs], axis=1))[2][:, 2:]
    t = model.tau_matrix(xs)
    twist = t.swapaxes(1, 2) @ ops @ t - ops
    form = np.linalg.eigvalsh(perp @ twist @ perp.swapaxes(1, 2))
    res_4 = float(np.max(np.abs(form) / scale[:, None], initial=0.0))

    residuals = {"constant_sectional": res_1, "constant_holomorphic": res_2,
                 "jacobi_preserves_j_line": res_3, "torsion_twist_identity": res_4}
    verdicts = {key: bool(r < 1e-6) for key, r in residuals.items()}
    return {**verdicts, "residuals": residuals, "all_agree": len(set(verdicts.values())) == 1}


# ---------------------------------------------------------------------------
# fibred families


def curvature_spread(model: InfinitesimalModel):
    """Spread and values of the sectional curvature on 24 fixed-seed
    orthonormal pairs."""
    values = sectional_curvature(model, *orthonormal_pairs(model.n, 24, 0))
    return float(values.max() - values.min()), values


def round_parameter(build, lo: float, hi: float) -> float:
    """Parameter in (lo, hi) minimizing the sectional-curvature spread of
    build(s), the round member of a one-parameter family: golden-section
    search for a unimodal spread, to a bracket of width 1e-10."""
    def spread(s):
        return curvature_spread(build(s).model)[0]
    shrink = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = spread(c), spread(d)
    while hi - lo > 1e-10:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = spread(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = spread(d)
    return 0.5 * (lo + hi)


def berger_consistency(n: int, s: float) -> dict:
    """Fiber-circle consistency data for the positive-curvature family.

    Returns c^2 read off the torsion, the squared fiber radius r^2 derived
    from the round member, the base curvature kappa, and the two sides of
    4 c^2 = r^2 kappa^2.
    """
    star = -0.5 * (n - 1) / n
    base, h_cols = _berger_base(n, 1)
    ext = extend_fibered(base, h_cols, s).model
    c2 = torsion_block_eigenvalue(ext)

    round_model = extend_fibered(base, h_cols, star).model
    spread, values = curvature_spread(round_model)
    if not spread < 1e-8 * max(1.0, abs(values[0])):
        raise AssertionError("the round member is not round: spread %.3e" % spread)
    r2_round = 1.0 / float(values.mean())
    r2 = r2_round * (1.0 + star) / (1.0 + s)

    base_model = base.model
    if base_model.n == 2:
        kappa = sectional_curvature(base_model, *np.eye(2))
    else:
        j = ext.tau_matrix(np.eye(ext.n)[-1])[: base_model.n, : base_model.n]
        j /= np.sqrt(c2)
        hs = holomorphic_sectional(base_model, j, np.eye(base_model.n))
        if not hs.max() - hs.min() < 1e-8 * abs(hs[0]):
            raise AssertionError("holomorphic sectional curvature of the base is not constant")
        kappa = float(np.mean(hs))
    return {"c2": c2, "r2": r2, "kappa": kappa,
            "lhs": 4.0 * c2, "rhs": r2 * kappa ** 2}


def quaternionic_hopf(s: float) -> ReductiveTriple:
    """Three-dimensional fiber over the quaternionic projective line.

    The base is sp(2) modulo both diagonal sp(1) blocks; the lower-right
    block stays isotropy and the upper-left block becomes the fiber.
    """
    g = sp(2)
    form = trace_multiple(g, -0.25)
    e = np.eye(g.dim)
    k_cols = e[:, :6]
    h_cols = e[:, 3:6]
    base = build_triple(g, k_cols, form)
    return extend_fibered(base, h_cols, s)


# ---------------------------------------------------------------------------
# twistor tensors


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
    if t.shape != (n,) * (m + 2):
        raise ValueError("expected shape (n,) * %d, got %s" % (m + 2, t.shape))
    scale = 1e-9 * max(1.0, float(np.max(np.abs(t))))
    if (np.max(np.abs(t - np.swapaxes(t, 0, 1))) >= scale
            or np.max(np.abs(t - np.swapaxes(t, m, m + 1))) >= scale):
        raise ValueError("the tensor is not symmetric in its slot groups")
    weights = np.outer(_weights(n, m), _weights(n, 2))
    comp = t.reshape(n ** m, n * n)[np.ix_(_code(n, _msets(n, m)), _code(n, _msets(n, 2)))]
    out = _project_traces(n, k, (comp * weights).reshape(-1)).reshape(weights.shape) / weights
    ranks = [_rank(n, np.indices((n,) * j).reshape(j, -1).T) for j in (m, 2)]
    return out[np.ix_(*ranks)].reshape((n,) * (m + 2))
