"""Raster container validation and the argmax labeling rule."""

import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapfuse.clustering import entropy_map
from mapfuse.fusion import fuse
from mapfuse.grids import (MAX_CLASSES, NODATA, GridShape, LabelRaster,
                           ProbabilityRaster, first_max, hard_classify,
                           map_on_cores, pair_counts, regularize)
from mapfuse.io import load_probability_raster, save_probability_raster
from mapfuse.synth import InvestigatorSpec, generate_investigator, uniform_kernel

from conftest import make_prob, pixel


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
    good = np.full((3, 2, 2), 1 / 3)
    with pytest.raises(ValueError):
        ProbabilityRaster(GridShape(2, 2, 3), good[:2])
    bad = good.copy()
    bad[0, 0, 0] = -0.1
    with pytest.raises(ValueError):
        ProbabilityRaster(GridShape(2, 2, 3), bad)
    bad = good.copy()
    bad[2, 1, 1] = np.nan
    with pytest.raises(ValueError):
        ProbabilityRaster(GridShape(2, 2, 3), bad)
    bad = good.copy()
    bad[:, 0, 1] = (0.5, 0.4, 0.2)  # does not sum to 1
    with pytest.raises(ValueError):
        ProbabilityRaster(GridShape(2, 2, 3), bad)


def test_probability_raster_unit_sum_tolerance():
    v = np.full((4, 3, 2), 0.25)
    v[:, 2, 1] = (0.25, 0.25, 0.25, 0.25 + 2e-6)
    with pytest.raises(ValueError, match="sum to 1"):
        ProbabilityRaster(GridShape(2, 3, 4), v)
    v[3, 2, 1] = 0.25 + 5e-7
    ProbabilityRaster(GridShape(2, 3, 4), v)


def test_map_on_cores_keeps_item_order_and_joins_before_the_first_error():
    assert map_on_cores(lambda x: x * x, range(7), workers=3) == [x * x for x in range(7)]
    assert map_on_cores(lambda x: x, []) == []
    caller, ran = threading.current_thread(), []

    def fn(x):
        if x == 4:                  # a later error, still running at the first
            time.sleep(0.05)
        ran.append((x, threading.current_thread() is caller))
        if x in (2, 4):
            raise ValueError(f"item {x}")
        return x

    before = threading.active_count()
    with pytest.raises(ValueError, match="item 2"):
        map_on_cores(fn, range(6), workers=2)
    assert sorted(x for x, _ in ran) == list(range(6))     # every item ended
    assert [x for x, on_caller in ran if on_caller] == [0]
    assert threading.active_count() == before


def test_label_raster_accepts_nodata_and_rejects_stray_values():
    v = np.array([[0, 1], [NODATA, 2]], dtype=np.uint8)
    r = LabelRaster(GridShape(2, 2, 3), v)
    assert r.values[1, 0] == NODATA
    with pytest.raises(ValueError):
        LabelRaster(GridShape(2, 2, 3), np.array([[0, 1], [3, 2]]))


def test_rasters_are_immutable():
    r = make_prob(np.full((4, 2, 2), 0.25))
    with pytest.raises(ValueError):
        r.values[0, 0, 0] = 1.0


def _planes_of(r: ProbabilityRaster) -> np.ndarray:
    """A raster's values, checked to be its (C, H, W) float64 class planes in one
    read-only C-contiguous array."""
    planes = r.values
    assert planes.shape == (r.shape.n_classes, r.shape.height, r.shape.width)
    assert planes.dtype == np.float64
    assert planes.flags.c_contiguous and not planes.flags.writeable
    return planes


def test_rasters_hold_contiguous_read_only_class_planes(tmp_path, small_scene):
    """Loaded, fused and generated rasters hold the file's band-sequential
    planes as their values; only strided planes are copied, and the caller's
    array stays writeable."""
    spec = InvestigatorSpec(noise_rate=0.2, confusion_kernel=uniform_kernel(4),
                            softness=5.0, seed=3)
    made = generate_investigator(small_scene, spec)
    save_probability_raster(made, tmp_path / "p")
    loaded = load_probability_raster(tmp_path / "p")
    for r in (made, loaded, fuse([made, loaded]), fuse([made, loaded], [0.5, 2.0])):
        _planes_of(r)
    planes = np.array(made.values)
    kept = ProbabilityRaster(made.shape, planes)
    assert np.shares_memory(_planes_of(kept), planes)           # no copy
    assert planes.flags.writeable
    strided = np.ascontiguousarray(np.moveaxis(made.values, 0, 2)).transpose(2, 0, 1)
    copied = ProbabilityRaster(made.shape, strided)
    assert not np.shares_memory(_planes_of(copied), strided)
    assert np.array_equal(copied.values, planes)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes())


@pytest.mark.parametrize("c", [4, 9])
def test_kernels_give_the_same_bits_for_either_input_layout(tmp_path, c):
    """Class planes given strided (a view of a pixel-major array) and contiguous
    give bit-identical regularized values, labels, entropy, fusion and saved
    payloads, equal to the per-pixel operations in class order. From 8 classes
    numpy sums a contiguous class axis pairwise, not in class order, so C = 9
    tells a layout-dependent sum apart."""
    rng = np.random.default_rng(c)
    raw = rng.random((2, 13, 11, c)) ** 4 * 10.0 ** rng.integers(-9, 1, (2, 13, 11, c))
    raw[0, 0, 0, 1] = 0.0                       # one zero for regularize to replace
    strided = raw.transpose(0, 3, 1, 2)         # (2, C, H, W) over pixel-major memory
    reg_s = np.stack([regularize(v) for v in strided])
    reg_c = np.stack([regularize(np.ascontiguousarray(v)) for v in strided])
    assert _same_bits(reg_s, reg_c)
    # the reference: each pixel renormalized by its sum in class order
    ref = np.where(strided == 0.0, 1e-10, strided)
    ref = ref / sum(ref[:, k] for k in range(c))[:, None]
    assert _same_bits(reg_c, ref)

    shape = GridShape(11, 13, c)
    pixel_major = np.ascontiguousarray(ref.transpose(0, 2, 3, 1))
    from_strided = [ProbabilityRaster(shape, v.transpose(2, 0, 1)) for v in pixel_major]
    planar = [ProbabilityRaster(shape, v) for v in reg_c]
    for a, b, v in zip(from_strided, planar, ref):
        assert _same_bits(hard_classify(a).values, hard_classify(b).values)
        assert np.array_equal(hard_classify(a).values, np.argmax(v, axis=0))
        h = -sum((v * np.log2(v))[k] for k in range(c))
        assert _same_bits(entropy_map(a), entropy_map(b))
        assert _same_bits(entropy_map(b), np.clip(h, 0.0, np.log2(c)))
    for w in (None, [0.25, 3.0]):
        wj = np.ones(2) if w is None else np.asarray(w)
        acc = ref[0] * wj[0]
        acc += ref[1] * wj[1]
        acc += 1.0
        acc /= c + wj.sum()
        assert _same_bits(fuse(from_strided, w).values, fuse(planar, w).values)
        assert _same_bits(fuse(planar, w).values, acc)
    save_probability_raster(from_strided[0], tmp_path / "a")
    save_probability_raster(planar[0], tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
    assert (tmp_path / "a").read_bytes() == ref[0].astype("<f4").tobytes()


@pytest.mark.parametrize("c", [9, 12])
def test_regularize_gives_a_pixel_the_same_bits_alone_or_in_bulk(c):
    """Each pixel's sum runs in class order whatever the array's shape, so a
    pixel regularized alone (as a vector or a 1x1 grid) has the bits it has
    when its whole 8x8 grid is regularized at once."""
    rng = np.random.default_rng(c)
    planes = rng.random((c, 8, 8)) ** 4 * 10.0 ** rng.integers(-9, 1, (c, 8, 8))
    bulk = regularize(planes)
    for i in range(8):
        for j in range(8):
            assert _same_bits(regularize(planes[:, i, j]), bulk[:, i, j])
            assert _same_bits(regularize(planes[:, i:i + 1, j:j + 1]),
                              bulk[:, i:i + 1, j:j + 1])


def test_hard_classify_examples():
    r = pixel([0.1, 0.7, 0.1, 0.1])
    assert hard_classify(r).values[0, 0] == 1
    r = pixel([0.1, 0.2, 0.3, 0.4])
    assert hard_classify(r).values[0, 0] == 3


def test_hard_classify_tie_breaks_low():
    r = pixel([0.25, 0.25, 0.25, 0.25])
    assert hard_classify(r).values[0, 0] == 0
    r = pixel([0.1, 0.45, 0.45])
    assert hard_classify(r).values[0, 0] == 1


@given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2,
                max_size=8).filter(lambda r: sorted(r)[-1] > sorted(r)[-2] * (1 + 1e-9)),
       st.floats(min_value=1e-6, max_value=1e6))
def test_argmax_scale_invariance(raw, scale):
    # the labeling rule depends only on ratios, never on the overall mass;
    # a top pair within rounding of a tie is left out, since normalizing or
    # scaling can make it an exact tie, which hard_classify breaks low
    p = np.array(raw)
    assert np.argmax(p) == np.argmax(p * scale)
    a = pixel(p / p.sum())
    assert hard_classify(a).values[0, 0] == np.argmax(p)


@settings(max_examples=50)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_hard_classify_matches_argmax(seed):
    rng = np.random.default_rng(seed)
    g = rng.gamma(1.0, size=(5, 3, 4)) + 1e-12
    p = g / g.sum(axis=0)
    assert (hard_classify(make_prob(p)).values == p.argmax(axis=0)).all()


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=2, max_value=12),
       st.sampled_from([np.float64, np.int64, np.uint8]))
def test_first_max_is_argmax_over_the_planes_with_ties(seed, c, dtype):
    # values from {0, 0.5, 1} (integers: {0, 1, 2}) tie often, at every step
    # of the scan, for odd and even plane counts
    rng = np.random.default_rng(seed)
    steps = rng.integers(0, 3, size=(c, 5, 7))
    planes = (steps / 2 if dtype is np.float64 else steps).astype(dtype)
    planes.flags.writeable = False                # as a raster's planes: never written
    got = first_max(planes)
    assert got.dtype == np.uint8
    assert (got == planes.argmax(axis=0)).all()
    # strided planes, those of a pixel-major (H, W, C) array, give the same labels
    last = np.moveaxis(planes, 0, 2)
    assert (first_max([last[..., k] for k in range(c)]) == got).all()



@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=40),
       st.integers(min_value=2, max_value=MAX_CLASSES))
@example(1, 1, 40, 2).via("u8 codes")
@example(2, 5, 40, 20).via("u16 codes")
@example(3, 5, 40, MAX_CLASSES).via("u32 codes")
def test_pair_counts_matches_add_at(seed, n, s, c):
    """Oracle: one np.add.at per valid pair. NODATA, and labels in [C, 255),
    sit on either side and are not counted; row 0 (when there is one) holds no
    valid pair, so its table is all zeros. The examples need u8, u16 and u32 codes."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, c, size=(n, s)).astype(np.uint8)
    b = rng.integers(0, c, size=(n, s)).astype(np.uint8)
    for x in (a, b):
        x[rng.random(size=(n, s)) < 0.2] = NODATA
        if c < NODATA:
            above = rng.random(size=(n, s)) < 0.1
            x[above] = rng.integers(c, NODATA, size=int(above.sum()))
    if n:
        a[0, ::2] = NODATA
        b[0, 1::2] = c if c < NODATA else NODATA
    want = np.zeros((n, c, c), dtype=np.int64)
    i, j = np.nonzero((a < c) & (b < c))
    np.add.at(want, (i, a[i, j].astype(np.int64), b[i, j].astype(np.int64)), 1)
    got = pair_counts(a, b, c)
    assert got.dtype == np.int64 and got.shape == (n, c, c)
    assert (got == want).all()
    if n:
        assert not got[0].any()
