"""The sampled paper checks on stacks against per-sample reference loops.

ref_appendix_checks is the per-sample loop that appendix_component_checks
ran before it became stacked: one draw and one bracket evaluation at a
time.  ref_chsc_residuals evaluates the four conditions of
check_chsc_equivalences one sample at a time, from the einsum form of
R_0, with condition (4) as the largest |eigenvalue| of the restricted form
on a QR basis of {X, JX}-perp.  Both are test-only references; the stacked
forms sum in another order, so results must agree to rounding.
"""

import numpy as np
import pytest
from conftest import (cp2_triple, fubini_study_rbar, reference_jacobi_operator,
                      standard_j, unit_samples)
from paper_checks import (DegeneratePlane, check_chsc_equivalences, holomorphic_sectional,
                          sectional_curvature)

from reductive_lab.catalog import entry
from reductive_lab.reductive import InfinitesimalModel, to_model
from reductive_lab.vcp import appendix_component_checks

# --- the appendix sweep, one sample at a time ---------------------------------

PAULI = [np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
         np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
         np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)]


def ref_su2_inner(a, b):
    return float(np.real(-0.5 * np.trace(a @ b)))


def ref_bracket(s, x, y):
    (A, a), (B, b) = x, y
    star = np.outer(a, b.conj()) - np.outer(b, a.conj())
    star = star + 1.0j * float(np.imag(np.vdot(a, b))) * np.eye(2)
    return (1.0 - s) * (A @ B - B @ A) - star / (s + 1.0), A @ b - B @ a


def ref_pair_norm(u, a):
    return float(np.sqrt(max(ref_su2_inner(u, u) + np.real(np.vdot(a, a)), 0.0)))


def ref_appendix_checks(s, seed=0):
    c2 = s + 1.0
    rng = np.random.default_rng(seed)

    def unit_su2():
        v = rng.normal(size=3)
        return 1.0j * sum(float(c) * p for c, p in zip(v / np.linalg.norm(v), PAULI))

    def unit_c2():
        a = rng.normal(size=2) + 1.0j * rng.normal(size=2)
        return a / np.sqrt(np.real(np.vdot(a, a)))

    def t(v, w):
        return ref_bracket(s, v, w)

    worst = {"vcp1": 0.0, "vcp2": 0.0, "vcp3": 0.0, "matrix_identity": 0.0}
    for _ in range(24):
        A, a = unit_su2(), unit_c2()
        B, b = unit_su2(), unit_c2()
        ea, ev = (A, np.zeros(2, dtype=complex)), (np.zeros((2, 2), dtype=complex), a)
        lhs = t(ea, t(ea, (B, b)))
        rhs = (ref_su2_inner(A, B) * A - ref_su2_inner(A, A) * B, -ref_su2_inner(A, A) * b)
        worst["vcp1"] = max(worst["vcp1"], ref_pair_norm(lhs[0] - rhs[0], lhs[1] - rhs[1]))
        lhs = t(ev, t(ev, (B, b)))
        na, re_ab = float(np.real(np.vdot(a, a))), float(np.real(np.vdot(a, b)))
        rhs = (-na * B, re_ab * a - na * b)
        worst["vcp2"] = max(worst["vcp2"],
                            ref_pair_norm(c2 * lhs[0] - rhs[0], c2 * lhs[1] - rhs[1]))
        mixed, mixed2 = t(ea, t(ev, (B, b))), t(ev, t(ea, (B, b)))
        rhs = (re_ab * A, c2 * ref_su2_inner(A, B) * a)
        worst["vcp3"] = max(worst["vcp3"], ref_pair_norm(c2 * (mixed[0] + mixed2[0]) - rhs[0],
                                                         c2 * (mixed[1] + mixed2[1]) - rhs[1]))
        x = rng.normal(size=(2, 2)) + 1.0j * rng.normal(size=(2, 2))
        ident = A @ x + x @ A - np.trace(A @ x) * np.eye(2) - np.trace(x) * A
        worst["matrix_identity"] = max(worst["matrix_identity"], float(np.abs(ident).max()))
    return worst


@pytest.mark.parametrize("s", list(np.linspace(0.25, 2.0, 8)) + [-2.0, -0.5, 3.0])
def test_appendix_matches_per_sample_loop(s):
    got, want = appendix_component_checks(s), ref_appendix_checks(s)
    assert list(got) == list(want)
    for key, value in want.items():
        assert type(got[key]) is float
        assert abs(got[key] - value) <= 1e-12 * max(1.0, value), key


# --- the CHSC equivalences, one sample at a time --------------------------------


def ref_chsc_residuals(model, j):
    n = model.n
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(32, n))
    xs /= np.linalg.norm(xs, axis=1)[:, None]
    sec, hol, res_3, res_4 = [], [], 0.0, 0.0
    for x in xs:
        y = rng.normal(size=n)
        y -= (y @ x) * x
        y /= np.linalg.norm(y)
        sec.append(x @ reference_jacobi_operator(model, y) @ x)
        op, jx = reference_jacobi_operator(model, x), j @ x
        hol.append(jx @ op @ jx)
        scale = max(1.0, np.linalg.norm(op))
        image = op @ jx
        res_3 = max(res_3, np.linalg.norm(image - (image @ jx) * jx) / scale)
        q, _ = np.linalg.qr(np.column_stack([x, jx, np.eye(n)]))
        perp, t = q[:, 2:n], model.tau_matrix(x)
        form = perp.T @ (t.T @ op @ t - op) @ perp
        res_4 = max(res_4, np.max(np.abs(np.linalg.eigvalsh(form)), initial=0.0) / scale)
    spread = [(max(v) - min(v)) / max(1.0, max(np.abs(v))) for v in (sec, hol)]
    return {"constant_sectional": spread[0], "constant_holomorphic": spread[1],
            "jacobi_preserves_j_line": res_3, "torsion_twist_identity": res_4}


CHSC_MODELS = {
    "cp2": lambda: to_model(cp2_triple()),
    "kaehler": lambda: InfinitesimalModel(np.zeros((4, 4, 4)),
                                          fubini_study_rbar(4, 2.0, standard_j(4))),
    "nk:flag": lambda: entry("nk:flag").build(),
    "nk:s3xs3": lambda: entry("nk:s3xs3").build(),
    "nk:cp3": lambda: entry("nk:cp3").build(),
}


@pytest.mark.parametrize("name", sorted(CHSC_MODELS))
def test_chsc_matches_per_sample_loop(name):
    # condition (4) reads the whole restricted form: the check that read its
    # diagonal on one basis gave 0.8020 on nk:flag, where the form has 0.8131
    model = CHSC_MODELS[name]()
    report = check_chsc_equivalences(model, standard_j(model.n))
    want = ref_chsc_residuals(model, standard_j(model.n))
    assert list(report["residuals"]) == list(want)
    for key, value in want.items():
        assert abs(report["residuals"][key] - value) <= 1e-12 * max(1.0, value), key
        assert report[key] is bool(value < 1e-6), key
    assert report["all_agree"] is (len({value < 1e-6 for value in want.values()}) == 1)


# --- the curvature helpers on stacks -------------------------------------------


@pytest.fixture(scope="module")
def flag():
    return entry("nk:flag").build()


def test_sectional_curvature_of_a_stack_is_row_by_row(flag):
    xs, ys = unit_samples(6, 12, seed=1), unit_samples(6, 12, seed=2)
    rows = [sectional_curvature(flag, x, y) for x, y in zip(xs, ys)]
    assert all(type(k) is float for k in rows)
    np.testing.assert_allclose(sectional_curvature(flag, xs, ys), rows, rtol=1e-12, atol=1e-14)
    ys[5] = 2.0 * xs[5]
    with pytest.raises(DegeneratePlane):
        sectional_curvature(flag, xs, ys)


def test_holomorphic_sectional_of_a_stack_is_row_by_row(flag):
    j, xs = standard_j(6), unit_samples(6, 12, seed=3)
    rows = [holomorphic_sectional(flag, j, x) for x in xs]
    assert all(type(h) is float for h in rows)
    np.testing.assert_allclose(holomorphic_sectional(flag, j, xs), rows, rtol=1e-12, atol=1e-14)
    xs[7] = 0.0
    with pytest.raises(ValueError, match="nonzero X"):
        holomorphic_sectional(flag, j, xs)
