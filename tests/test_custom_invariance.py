"""`custom` reports the same geometry for every spelling of the same triple.

Every catalog id built from a triple is written as a `custom` file (the
Berger ids, which the catalog builds in closed form, from their Lie
route), then transformed in a way that leaves the space and its metric
alone, or scales the metric by t:

- a change of basis of g with condition number 1e2;
- the form scaled by t = 1e-12 or 1e12, which scales the metric by t;
- the isotropy columns mixed by an invertible matrix of condition number 1e2;

each with the m rows given and omitted.  Every run keeps the exit code,
torsion class and relation order of the file as written; the relation
coefficients move as a_k t^(-(deg-k)/2) and the scalar curvature as 1/t.
Reports spell a value within 1e-9 units of a small rational as that
rational, the unit being the model's curvature scale for the scalar
curvature and its ((deg-k)/2)-th power for a_k; so both are compared
within 1e-7 of the expected value, at every t.

A file whose isotropy and m rows do not span g, because rows are dropped
or repeated, exits 2 as NotReductive; so does one whose m rows are not
B-orthonormal, or not B-orthogonal to the isotropy.  A file whose form is
not symmetric or not finite exits 2 as ValueError.
"""

import contextlib
import io
import json
from fractions import Fraction

import numpy as np
import pytest
from conftest import hopf_lie_triple

from reductive_lab.catalog import entry
from reductive_lab.cli import main

IDS = ["nk:flag", "nk:s3xs3", "nk:cp3", "nk:s6", "np:spin7-g2", "np:squashed-s7", "np:v1",
       "np:v3", "neg:su4-su3", "neg:sp2-sp1", "aw:n11,s=1.5", "berger:n=2,s=1",
       "berger:n=3,s=-1.5,kappa=-1"]
TRANSFORMS = ["basis", "t=1e-12", "t=1e12", "isotropy"]


def triple_of(ident):
    """The triple of a catalog id; the registry builds the Hopf series in
    closed form, so its ids are written from their Lie route."""
    return entry(ident).build().triple or hopf_lie_triple(ident)


def custom_json(triple, name) -> dict:
    """The `custom` input of a triple, each bracket given once, with i < j."""
    i, j, k, v = triple.g._upper
    return {"name": name, "dim": triple.g.dim,
            "brackets": np.column_stack([i, j, k, v]).tolist(),
            "forms": {"b": triple.B.matrix.tolist()}, "form": "b",
            "isotropy": triple.h_basis.T.tolist(), "m": triple.m_basis.T.tolist()}


def conditioned(n, rng) -> np.ndarray:
    """A random n x n matrix with singular values from 1 to 1e2."""
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q1 @ np.diag(np.geomspace(1.0, 1e2, n)) @ q2


def transformed(data, how, rng) -> tuple:
    """(the transformed input, the metric scale t)."""
    out = dict(data)
    form = np.asarray(data["forms"]["b"])
    h, m = np.asarray(data["isotropy"]).T, np.asarray(data["m"]).T
    if how == "basis":  # new basis vectors: the columns of p
        p = conditioned(data["dim"], rng)
        q = np.linalg.inv(p)
        c = np.zeros((data["dim"],) * 3)
        for i, j, k, v in data["brackets"]:
            c[int(i), int(j), int(k)], c[int(j), int(i), int(k)] = v, -v
        c = np.einsum("ia,jb,ijl,kl->abk", p, p, c, q, optimize=True)
        a, b, k = np.nonzero(c)
        upper = a < b
        a, b, k = a[upper], b[upper], k[upper]
        out["brackets"] = np.column_stack([a, b, k, c[a, b, k]]).tolist()
        form = p.T @ form @ p
        out["forms"] = {"b": (0.5 * (form + form.T)).tolist()}
        out["isotropy"], out["m"] = (q @ h).T.tolist(), (q @ m).T.tolist()
        return out, 1.0
    if how == "isotropy":
        out["isotropy"] = (h @ conditioned(h.shape[1], rng)).T.tolist()
        return out, 1.0
    t = float(how[2:])
    out["forms"] = {"b": (t * form).tolist()}
    out["m"] = (m / np.sqrt(t)).T.tolist()
    return out, t


def run_custom(data, tmp_path) -> tuple:
    """(exit code, parsed --json report or None, stderr) of one in-process run."""
    path = tmp_path / "space.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["custom", str(path), "--json"])
    return code, json.loads(out.getvalue()) if out.getvalue() else None, err.getvalue()


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """{id: (its custom input, the exit code and report of that input)}."""
    tmp_path = tmp_path_factory.mktemp("written")
    out = {}
    for ident in IDS:
        data = custom_json(triple_of(ident), ident)
        code, report, err = run_custom(data, tmp_path)
        assert err == ""
        out[ident] = data, code, report
    return out


def value(token) -> float:
    return float(Fraction(token))


def close(got, want) -> bool:
    return abs(got - want) <= 1e-7 * abs(want)


@pytest.mark.parametrize("with_m", [True, False], ids=["m given", "m omitted"])
@pytest.mark.parametrize("how", TRANSFORMS)
@pytest.mark.parametrize("ident", IDS)
def test_custom_report_is_invariant(written, tmp_path, ident, how, with_m):
    data, want_code, want = written[ident]
    rng = np.random.default_rng([IDS.index(ident), TRANSFORMS.index(how)])
    case, t = transformed(data, how, rng)
    if not with_m:
        del case["m"]
    code, report, err = run_custom(case, tmp_path)
    assert (code, err) == (want_code, ""), err
    assert report["torsion_class"] == want["torsion_class"]
    assert report["ljr"]["order"] == want["ljr"]["order"]
    assert close(value(report["scalar_curvature"]), value(want["scalar_curvature"]) / t)
    if want["ljr"]["coefficients"] is not None:
        # highest degree first: the token at position p belongs to lambda^(deg - p)
        got = [value(c) for c in report["ljr"]["coefficients"]]
        expected = [value(c) * t ** (-p / 2) for p, c in enumerate(want["ljr"]["coefficients"])]
        assert all(close(g, e) for g, e in zip(got, expected)), (got, expected)


# (id, rows, the rows kept): too few m or isotropy rows, or a repeated one
NOT_SPANNING = [("nk:flag", "m", slice(4)), ("berger:n=2,s=1", "m", slice(-1)),
                ("nk:flag", "isotropy", slice(-1)), ("np:v3", "isotropy", slice(-1)),
                ("berger:n=2,s=1", "isotropy", slice(-1)), ("np:spin7-g2", "m", slice(5)),
                ("nk:flag", "m", slice(-1)), ("np:v3", "m", slice(-1)),
                ("nk:flag", "isotropy", [0, 0])]


@pytest.mark.parametrize("ident, rows, kept", NOT_SPANNING,
                         ids=["%s-%s%s" % (i, r, "[:%d]" % k.stop if isinstance(k, slice) else k)
                              for i, r, k in NOT_SPANNING])
def test_custom_rejects_a_triple_that_does_not_span_g(tmp_path, ident, rows, kept):
    data = custom_json(triple_of(ident), ident)
    data[rows] = np.asarray(data[rows])[kept].tolist()
    code, report, err = run_custom(data, tmp_path)
    assert (code, report) == (2, None)
    error = json.loads(err)["error"]
    assert error["type"] == "NotReductive"
    assert error["message"].startswith("h and m do not span g")


# nk:flag with m row 0 tilted by 0.3 h_0: as written, m is not B-orthonormal;
# rescaled to B-length 1, m is orthonormal but not B-orthogonal to h
@pytest.mark.parametrize("normalized, message", [(False, "m-basis not B-orthonormal"),
                                                 (True, "h and m not B-orthogonal")])
def test_custom_rejects_an_m_row_tilted_into_the_isotropy(tmp_path, normalized, message):
    triple = entry("nk:flag").build().triple
    data = custom_json(triple, "nk:flag")
    row = triple.m_basis[:, 0] + 0.3 * triple.h_basis[:, 0]
    if normalized:
        row = row / np.sqrt(row @ triple.B.matrix @ row)
    data["m"][0] = row.tolist()
    code, report, err = run_custom(data, tmp_path)
    assert (code, report) == (2, None)
    error = json.loads(err)["error"]
    assert error["type"] == "NotReductive"
    assert error["message"].startswith(message)


# a form that is not symmetric, or not finite, is bad input: ValueError, not
# the AssertionError of a broken invariant
@pytest.mark.parametrize("entry_value, message", [(lambda v: v + 1e-3, "form must be symmetric"),
                                                  (lambda v: float("nan"), "form must be finite")],
                         ids=["moved", "nan"])
def test_custom_rejects_a_bad_form_entry(tmp_path, entry_value, message):
    data = custom_json(entry("nk:flag").build().triple, "nk:flag")
    data["forms"]["b"][0][1] = entry_value(data["forms"]["b"][0][1])
    code, report, err = run_custom(data, tmp_path)
    assert (code, report) == (2, None)
    assert json.loads(err)["error"] == {"type": "ValueError", "message": message}
