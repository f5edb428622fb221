"""The stacked Jacobi family against per-X reference loops.

The references below are the per-X loops the stacked path replaced: R_k(X)
from the einsum form of R_0 and T_X one X at a time, the component split one
skew spectrum at a time, check_ljr one X at a time, and minimal_ljr's
sample queue.  The stacked path must reproduce them on every fixed catalog
id.
"""

import numpy as np
import pytest
from conftest import reference_jacobi_operator

from reductive_lab import algebra, jacobi
from reductive_lab.algebra import (DegenerateSpectrum, Polynomial, skew_spectra,
                                   skew_spectral_decomposition)
from reductive_lab.catalog import entries, entry
from reductive_lab.jacobi import (VANISH_TOL, InsufficientSamples, JacobiFamily, _detect_rows,
                                  check_ljr, component_split, minimal_ljr, sample_vectors)
from reductive_lab.reductive import InfinitesimalModel

FIXED = {e.name: e for e in entries()}
ACCOUNTING = ("samples_offered", "resampled", "skipped_zero", "dropped_nonmodal",
              "budget_left")


@pytest.fixture(scope="module")
def models():
    return {name: e.build() for name, e in FIXED.items()}


def reference_operators(model, x, k):
    """R_0(X), ..., R_k(X) for one X, one product at a time."""
    ops = [reference_jacobi_operator(model, x)]
    t = model.tau_matrix(x)
    while len(ops) <= k:
        ops.append(0.5 * (ops[-1] @ t - t @ ops[-1]))
    return ops


def reference_split(spectrum, s):
    """Components of S along one skew spectrum, one block pair at a time."""
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
                m, j = pk @ s @ pk, bk.j
            else:
                m, j = pk @ s @ pl + pl @ s @ pk, bk.j + bl.j
            jmj = j @ m @ j
            parts["%d,%d:(1,1)" % (k, l)] = 0.5 * (m - jmj)
            parts["%d,%d:(2,0)+(0,2)" % (k, l)] = 0.5 * (m + jmj)
    return parts


def reference_w(lams, key):
    """The block-value combination of a component from its key: 0 for "0,0",
    lambda_l for "0,l", lambda_l - lambda_k for "k,l:(1,1)" and lambda_l +
    lambda_k for "k,l:(2,0)+(0,2)"."""
    pair, _, kind = key.partition(":")
    lk, ll = (lams[int(v) - 1] if v != "0" else 0.0 for v in pair.split(","))
    return ll + lk if kind == "(2,0)+(0,2)" else ll - lk


def reference_queue(family, xs, seed):
    """minimal_ljr's sample queue one X at a time: the block count of every
    accepted sample in order, and the resampled and skipped counts."""
    n = family.n
    rng = np.random.default_rng(seed + 0x5eed)
    queue, budget = list(xs), 3 * len(xs)
    accepted, resampled, skipped = [], 0, 0
    while queue and budget > 0:
        x = queue.pop(0)
        budget -= 1
        try:
            spec = skew_spectral_decomposition(family.model.tau_matrix(x))
        except DegenerateSpectrum:
            v = rng.normal(size=n)
            queue.append(v / np.linalg.norm(v))
            resampled += 1
            continue
        if np.linalg.norm(reference_jacobi_operator(family.model, x)) < 1e-14:
            skipped += 1
            continue
        accepted.append(len(spec.blocks))
    return accepted, resampled, skipped, budget


def _rel(got, want):
    return float(np.linalg.norm(got - want)) / max(1.0, float(np.linalg.norm(want)))


@pytest.mark.parametrize("name", sorted(FIXED))
def test_stack_matches_per_x_loop(models, name):
    model = models[name]
    xs = sample_vectors(model.n, count=8, seed=3)
    ops = JacobiFamily(model).stack(xs, 5)
    assert ops.shape == (len(xs), 6, model.n, model.n)
    worst = max(_rel(ops[i, k], ref)
                for i, x in enumerate(xs)
                for k, ref in enumerate(reference_operators(model, x, 5)))
    assert worst < 1e-12


def test_operators_is_the_one_row_stack(models):
    family = JacobiFamily(models["nk:flag"])
    x = sample_vectors(6, count=1, seed=4)[0]
    ops = family.operators(x, 3)
    assert len(ops) == 4
    np.testing.assert_array_equal(np.array(ops), family.stack(x[None], 3)[0])


# three rows of heisenberg:n=8 (n = 17) up to order 80 take three blocks of
# orders; 120 rows exceed CHUNK_DOUBLES in one order, so every block is one
# order wide
@pytest.mark.parametrize("rows, k", [(3, 80), (120, 3)])
def test_blocks_are_consecutive_orders_within_the_chunk_bound(rows, k):
    model = entry("heisenberg:n=8,c=1").build()
    family = JacobiFamily(model)
    xs = sample_vectors(model.n, count=rows, seed=5)[:rows]
    blocks = list(family.blocks(xs, k))
    widths = [ops.shape[1] for _, ops, _ in blocks]
    assert len(blocks) > 1 and sum(widths) == k + 1
    assert [j for j, _, _ in blocks] == [sum(widths[:i]) for i in range(len(blocks))]
    for _, ops, size in blocks:
        assert ops.shape[0] == size.shape[0] == rows and ops.shape[1] == size.shape[1]
        assert ops.size <= jacobi.CHUNK_DOUBLES or ops.shape[1] == 1
    ops = family.stack(xs, k)
    np.testing.assert_array_equal(np.concatenate([s for _, _, s in blocks], axis=1),
                                  jacobi._sizes(ops[:, 0], model.tau_matrix(xs), k))
    worst = max(float(np.linalg.norm(ops[i, j] - ref) / np.linalg.norm(ref))
                for i, x in enumerate(xs)
                for j, ref in enumerate(reference_operators(model, x, k)))
    assert worst < 1e-12


def test_an_operator_that_moves_x_raises(monkeypatch):
    real = jacobi.jacobi_operator

    def moved(model, x, t):  # symmetric, but no longer kills X
        return real(model, x, t) + 1e-6 * np.eye(model.n)
    monkeypatch.setattr(jacobi, "jacobi_operator", moved)
    family = JacobiFamily(entry("nk:flag").build())
    with pytest.raises(AssertionError, match="R_k\\(X\\) does not annihilate X"):
        family.stack(sample_vectors(6, count=4), 2)


def test_curvature_terms_match_the_single_x_contraction(models):
    model = models["np:v3"]
    xs = sample_vectors(model.n, count=4, seed=2)
    terms = model.curvature_term(xs)
    for x, term in zip(xs, terms):
        want = np.einsum("ujab,j,b->au", model.rbar, x, x)
        assert _rel(term, want) < 1e-13
        assert _rel(model.curvature_term(x), want) < 1e-13


# larger spectra than the fixed ids: two or three blocks of mixed sizes
SPLIT_EXTRA = ("berger:n=4,s=1.3,kappa=1", "berger:n=4,s=-1.5,kappa=-1",
               "berger:n=7,s=1.3,kappa=1", "berger:n=7,s=-1.5,kappa=-1",
               "heisenberg:n=8,c=1")


@pytest.mark.parametrize("name", sorted(FIXED) + list(SPLIT_EXTRA))
def test_batched_split_matches_per_spectrum_split(models, name):
    model = models[name] if name in models else entry(name).build()
    family = JacobiFamily(model)
    xs = sample_vectors(model.n, count=16, seed=0)
    status, groups = _detect_rows(family, xs)
    spectra = skew_spectra(model.tau_matrix(xs))
    seen = {r: 0 for r in groups}
    for i, x in enumerate(xs):
        try:
            spec = skew_spectral_decomposition(model.tau_matrix(x))
        except DegenerateSpectrum:
            assert status[i] == -1
            continue
        assert status[i] == len(spec.blocks)
        np.testing.assert_allclose(spectra.lams[i, :status[i]], spec.lams, rtol=1e-13)
        r0 = reference_jacobi_operator(model, x)
        want = reference_split(spec, r0)
        got = component_split(spec, r0)
        norm = float(np.linalg.norm(r0))
        assert list(got) == list(want)
        for key in want:
            err = _rel(got[key], want[key])
            if name in SPLIT_EXTRA and np.linalg.norm(want[key]) < VANISH_TOL * norm:
                # on the larger spectra a vanishing component carries the
                # rounding of S (up to 1.7e-12 relative to the component)
                err = float(np.linalg.norm(got[key] - want[key])) / max(1.0, norm)
            assert err < 1e-12, key
        lams, keys, w, rel, rel_bar = groups[status[i]]
        row = seen[status[i]]
        seen[status[i]] += 1
        bar = reference_split(spec, np.einsum("ujab,j,b->au", model.rbar, x, x))
        for col, key in enumerate(keys):
            assert abs(w[row, col] - reference_w(spec.lams, key)) < 1e-12, key
            assert abs(rel[row, col] - np.linalg.norm(want[key]) / norm) < 1e-12, key
            assert abs(rel_bar[row, col] - np.linalg.norm(bar[key]) / norm) < 1e-12, key
    assert seen == {r: len(g[0]) for r, g in groups.items()}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_check_ljr_matches_per_x_loop(models, name):
    model = models[name]
    p = FIXED[name].expected or Polynomial([0.0, 1.0, 0.0, 1.0])
    xs = sample_vectors(model.n, count=16, seed=1)
    worst = 0.0
    for x in xs:
        ops = reference_operators(model, x, p.degree)
        total = sum(a * op for a, op in zip(p.coefficients, ops))
        norm = float(np.linalg.norm(ops[0]))
        t = model.tau_matrix(x)
        rho = float(np.linalg.norm(np.linalg.matrix_power(t @ t, 4))) ** 0.125
        omega = max(rho, 1e-4 * np.sqrt(norm))
        size = sum(abs(a) * norm * omega ** k for k, a in enumerate(p.coefficients))
        worst = max(worst, float(np.linalg.norm(total)) / size)
    got = check_ljr(JacobiFamily(model), p, samples=xs)
    assert abs(got - worst) <= 1e-12 * max(1.0, worst)


def residual_from_stack(model, p, xs):
    """check_ljr's residual from one stack of every sample: max over xs of
    |sum a_k R_k(X)|_F / sum |a_k| s_k(X)."""
    ops = JacobiFamily(model).stack(xs, p.degree)
    size = jacobi._sizes(ops[:, 0], model.tau_matrix(xs), p.degree)
    total = np.einsum("k,pkij->pij", p.coefficients, ops)
    den = size @ np.abs(p.coefficients)
    keep = den > 0
    return float(np.max(np.linalg.norm(total[keep], axis=(1, 2)) / den[keep], initial=0.0))


# a monic sextic that is no relation, so that its residual is of order one
NO_RELATION = Polynomial([0.3, -1.2, 0.5, 0.0, -0.7, 0.2, 1.0])


@pytest.mark.parametrize("name", sorted(FIXED) + ["heisenberg:n=12,c=0.558",
                                                  "berger:n=7,s=1.3,kappa=1"])
def test_check_ljr_is_the_residual_of_the_stack(models, name):
    model = models[name] if name in models else entry(name).build()
    family = JacobiFamily(model)
    xs = sample_vectors(model.n)
    want = residual_from_stack(model, NO_RELATION, xs)
    assert want > 1e-3
    assert check_ljr(family, NO_RELATION, samples=xs) == pytest.approx(want, rel=1e-14)
    p = minimal_ljr(family, samples=xs).polynomial
    if p is not None:
        want = residual_from_stack(model, p, xs)
        assert abs(check_ljr(family, p, samples=xs) - want) <= 1e-14 * max(1.0, want)


def test_tau_x_is_contracted_once_per_chunk(monkeypatch):
    model = entry("heisenberg:n=12,c=0.558").build()
    family = JacobiFamily(model)
    xs = sample_vectors(model.n)
    chunks = jacobi._row_chunks(len(xs), model.n ** 2)
    real, calls = model.tau_matrix, []

    def counting(x):
        calls.append(len(x))
        return real(x)
    monkeypatch.setattr(model, "tau_matrix", counting)
    check_ljr(family, NO_RELATION, samples=xs)
    assert len(chunks) > 1 and calls == [c.stop - c.start for c in chunks]
    calls.clear()
    _detect_rows(family, xs[chunks[0]])
    assert calls == [chunks[0].stop]


@pytest.mark.parametrize("call", [
    lambda family, xs: check_ljr(family, Polynomial([0.0, 1.0]), samples=xs),
    lambda family, xs: minimal_ljr(family, samples=xs),
], ids=["check_ljr", "minimal_ljr"])
@pytest.mark.parametrize("xs", [np.full(17, 17 ** -0.5), np.empty((0, 17)),
                                np.eye(16)], ids=["one_x", "no_rows", "wrong_width"])
def test_sample_arrays_are_rows_of_n_columns(call, xs):
    family = JacobiFamily(entry("heisenberg:n=8,c=1").build())
    with pytest.raises(ValueError, match=r"shape \(N, 17\) with N >= 1"):
        call(family, xs)


@pytest.mark.parametrize("name", sorted(FIXED))
def test_sample_accounting_adds_up(models, name):
    family = JacobiFamily(models[name])
    xs = sample_vectors(family.n, count=64, seed=0)
    es = minimal_ljr(family, samples=xs).eigen_structure
    assert es["samples_offered"] == (es["samples_used"] + es["resampled"]
                                     + es["skipped_zero"] + es["dropped_nonmodal"])
    assert es["budget_left"] == 3 * len(xs) - es["samples_offered"]


def with_flat_line(model):
    """The product of a model with a flat line: R_0(e_n) vanishes."""
    n = model.n + 1
    tau, rbar = np.zeros((n,) * 3), np.zeros((n,) * 4)
    tau[:-1, :-1, :-1] = model.tau
    rbar[:-1, :-1, :-1, :-1] = model.rbar
    return InfinitesimalModel(tau, rbar)


@pytest.mark.parametrize("build,samples,seed", [
    # resamples one sample at a lost tiny block
    (lambda: entry("heisenberg:n=8,c=0.604").build(), 64, 5),
    # skips the flat direction
    (lambda: with_flat_line(entry("heisenberg:n=2,c=1").build()), 16, 2),
    # drops non-modal samples
    (lambda: entry("berger:n=2,s=1").build(), 16, 0),
], ids=["resampled", "skipped_zero", "dropped_nonmodal"])
def test_rounds_follow_the_sample_queue(request, build, samples, seed):
    family = JacobiFamily(build())
    xs = sample_vectors(family.n, count=samples, seed=seed)
    es = minimal_ljr(family, samples=samples, seed=seed).eigen_structure
    accepted, resampled, skipped, budget = reference_queue(family, xs, seed)
    modal = max(set(accepted), key=lambda r: (accepted.count(r), -accepted.index(r)))
    used = accepted.count(modal)
    assert [es[key] for key in ACCOUNTING] == [
        3 * len(xs) - budget, resampled, skipped, len(accepted) - used, budget]
    assert (es["block_count"], es["samples_used"]) == (modal, used)
    assert es[request.node.callspec.id] > 0


def test_rounds_stop_at_the_budget(monkeypatch):
    # mark every tau_X with |tau_X|_1 > 7.5 as a crossing: on nk:flag that is
    # most samples, so the replacements run the budget out mid-round
    real = algebra.skew_spectra

    def crossing(As, gap_tol=algebra.GAP_TOL):
        spectra = real(As, gap_tol)
        for i in np.flatnonzero(np.abs(As).sum(axis=(1, 2)) > 7.5):
            spectra.reasons[i] = "forced crossing"
        return spectra
    monkeypatch.setattr(algebra, "skew_spectra", crossing)
    monkeypatch.setattr(jacobi, "skew_spectra", crossing)
    family = JacobiFamily(entry("nk:flag").build())
    xs = sample_vectors(family.n, count=64, seed=0)
    es = minimal_ljr(family, samples=xs).eigen_structure
    accepted, resampled, skipped, budget = reference_queue(family, xs, 0)
    assert budget == 0
    assert [es[key] for key in ACCOUNTING] == [3 * len(xs), resampled, skipped,
                                               len(accepted) - es["samples_used"], 0]
    assert es["samples_used"] == accepted.count(es["block_count"])


def test_a_plan_without_usable_spectra_raises(monkeypatch):
    real = algebra.skew_spectra

    def crossing(As, gap_tol=algebra.GAP_TOL):
        spectra = real(As, gap_tol)
        spectra.reasons[:] = ["forced crossing"] * len(As)
        return spectra
    monkeypatch.setattr(jacobi, "skew_spectra", crossing)
    with pytest.raises(InsufficientSamples, match="no sample produced a usable spectrum"):
        minimal_ljr(JacobiFamily(entry("nk:flag").build()), samples=8)
