"""Relation detection does not depend on the metric scale.

Scaling the metric by t scales tau by t^(-1/2) and rbar by 1/t, so T_X
scales by t^(-1/2): a relation P of degree deg with coefficients a_k
becomes the relation with coefficients a_k t^(-(deg - k)/2).  On every
fixed catalog id and at scales far outside [1/2, 2), minimal_ljr must give
the verdict of the unscaled model and those coefficients.
"""

import numpy as np
import pytest

from reductive_lab.catalog import entries, rescale_model
from reductive_lab.jacobi import JacobiFamily, minimal_ljr

MODELS = {e.name: e.build() for e in entries()}
SCALES = (1e-12, 1e-6, 1e6, 1e12)


@pytest.fixture(scope="module")
def unscaled():
    return {name: minimal_ljr(JacobiFamily(model)) for name, model in MODELS.items()}


@pytest.mark.parametrize("t", SCALES)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_detection_is_scale_free(unscaled, name, t):
    want = unscaled[name]
    got = minimal_ljr(JacobiFamily(rescale_model(MODELS[name], t)))
    assert got.exists == want.exists
    if want.exists:
        a = want.polynomial.coefficients
        powers = (len(a) - 1 - np.arange(len(a))) / 2
        back = got.polynomial.coefficients * t ** powers
        assert back.shape == a.shape
        assert np.max(np.abs(back - a)) <= 1e-9
