"""Raster container validation and the argmax labeling rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapfuse.grids import (MAX_CLASSES, NODATA, GridShape, LabelRaster,
                           ProbabilityRaster, hard_classify)

from conftest import make_prob


def test_grid_shape_validation():
    with pytest.raises(ValueError):
        GridShape(0, 4, 3)
    with pytest.raises(ValueError):
        GridShape(4, -1, 3)
    with pytest.raises(ValueError):
        GridShape(4, 4, 1)
    with pytest.raises(ValueError):
        GridShape(4, 4, MAX_CLASSES + 1)


def test_grid_shape_names_default_and_mismatch():
    s = GridShape(3, 2, 4)
    assert len(s.class_names) == 4
    assert s.n_pixels == 6
    with pytest.raises(ValueError):
        GridShape(3, 2, 4, ("a", "b"))


def test_probability_raster_rejects_bad_values():
    good = np.full((2, 2, 3), 1 / 3)
    with pytest.raises(ValueError):
        ProbabilityRaster(GridShape(2, 2, 3), good[..., :2])
    bad = good.copy()
    bad[0, 0, 0] = -0.1
    with pytest.raises(ValueError):
        ProbabilityRaster(GridShape(2, 2, 3), bad)
    bad = good.copy()
    bad[1, 1, 2] = np.nan
    with pytest.raises(ValueError):
        ProbabilityRaster(GridShape(2, 2, 3), bad)
    bad = good.copy()
    bad[0, 1] = (0.5, 0.4, 0.2)  # does not sum to 1
    with pytest.raises(ValueError):
        ProbabilityRaster(GridShape(2, 2, 3), bad)


def test_label_raster_accepts_nodata_and_rejects_stray_values():
    v = np.array([[0, 1], [NODATA, 2]], dtype=np.uint8)
    r = LabelRaster(GridShape(2, 2, 3), v)
    assert r.values[1, 0] == NODATA
    with pytest.raises(ValueError):
        LabelRaster(GridShape(2, 2, 3), np.array([[0, 1], [3, 2]]))


def test_rasters_are_immutable():
    r = make_prob(np.full((2, 2, 4), 0.25))
    with pytest.raises(ValueError):
        r.values[0, 0, 0] = 1.0


def test_hard_classify_examples():
    r = make_prob([[[0.1, 0.7, 0.1, 0.1]]])
    assert hard_classify(r).values[0, 0] == 1
    r = make_prob([[[0.1, 0.2, 0.3, 0.4]]])
    assert hard_classify(r).values[0, 0] == 3


def test_hard_classify_tie_breaks_low():
    r = make_prob([[[0.25, 0.25, 0.25, 0.25]]])
    assert hard_classify(r).values[0, 0] == 0
    r = make_prob([[[0.1, 0.45, 0.45]]])
    assert hard_classify(r).values[0, 0] == 1


@given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2,
                max_size=8).filter(lambda r: r.count(max(r)) == 1),
       st.floats(min_value=1e-6, max_value=1e6))
def test_argmax_scale_invariance(raw, scale):
    # the labeling rule depends only on ratios, never on the overall mass
    p = np.array(raw)
    assert np.argmax(p) == np.argmax(p * scale)
    a = make_prob((p / p.sum()).reshape(1, 1, -1))
    assert hard_classify(a).values[0, 0] == np.argmax(p)


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_hard_classify_matches_argmax(seed):
    rng = np.random.default_rng(seed)
    g = rng.gamma(1.0, size=(3, 4, 5)) + 1e-12
    p = g / g.sum(axis=2, keepdims=True)
    assert (hard_classify(make_prob(p)).values == p.argmax(axis=2)).all()

