"""Synthetic scenes and planted-reliability investigators."""

import hashlib
import heapq
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.ndimage import distance_transform_edt

from mapfuse.grids import GridShape, hard_classify
from mapfuse.io import load_label_raster, load_probability_raster
from mapfuse.synth import (InvestigatorSpec, SceneSpec, _quotas, generate_investigator,
                           generate_scene, load_scenario,
                           materialize_scenario, style_kernel,
                           two_style_scenario, uniform_kernel)


def scene(width=32, height=32, n_classes=4, n_blobs=8, seed=0, mix=None):
    shape = GridShape(width, height, n_classes)
    mix = mix if mix is not None else (1.0 / n_classes,) * n_classes
    return generate_scene(SceneSpec(shape=shape, n_blobs=n_blobs,
                                    class_mix=mix, seed=seed))


# ---------------------------------------------------------------- scenes

def test_scene_hits_exact_quotas():
    truth = scene(width=8, height=8, n_classes=3, n_blobs=6,
                  mix=(0.5, 0.25, 0.25))
    counts = np.bincount(truth.values.ravel(), minlength=3)
    assert list(counts) == [32, 16, 16]


def test_scene_quota_rounding_remainder():
    # 100 pixels at 1/3 each cannot be exact; the floor shortfall goes to
    # the largest fractional parts (all tied -> lowest index by stable sort)
    truth = scene(width=10, height=10, n_classes=3, n_blobs=6,
                  mix=(1 / 3, 1 / 3, 1 / 3))
    counts = np.bincount(truth.values.ravel(), minlength=3)
    assert list(counts) == [34, 33, 33]


def test_scene_is_deterministic_and_seed_sensitive():
    a = scene(seed=5)
    b = scene(seed=5)
    c = scene(seed=6)
    assert (a.values == b.values).all()
    assert (a.values != c.values).any()


def test_scene_is_patchy_not_salt_and_pepper():
    # with few blobs most rook neighbors agree
    truth = scene(width=48, height=48, n_blobs=8, seed=3)
    v = truth.values
    same = (v[:, :-1] == v[:, 1:]).mean() / 2 + (v[:-1, :] == v[1:, :]).mean() / 2
    assert same > 0.8


def test_infeasible_fraction_rejected():
    with pytest.raises(ValueError, match="yields under one pixel"):
        scene(width=10, height=10, n_classes=3, n_blobs=6,
              mix=(0.998, 0.001, 0.001))


def test_scene_spec_validation():
    shape = GridShape(8, 8, 3)
    with pytest.raises(ValueError, match="length must match"):
        SceneSpec(shape=shape, n_blobs=6, class_mix=(0.5, 0.5), seed=0)
    with pytest.raises(ValueError, match="positive"):
        SceneSpec(shape=shape, n_blobs=6, class_mix=(1.0, 0.0, 0.0), seed=0)
    with pytest.raises(ValueError, match="sums to"):
        SceneSpec(shape=shape, n_blobs=6, class_mix=(0.5, 0.3, 0.3), seed=0)
    with pytest.raises(ValueError, match="one blob per class"):
        SceneSpec(shape=shape, n_blobs=2, class_mix=(1 / 3,) * 3, seed=0)
    with pytest.raises(ValueError, match="n_blobs 65 exceeds the grid's 64 pixels"):
        SceneSpec(shape=shape, n_blobs=65, class_mix=(1 / 3,) * 3, seed=0)
    # one blob on every pixel is a valid scene
    assert generate_scene(SceneSpec(shape=shape, n_blobs=64,
                                    class_mix=(0.5, 0.25, 0.25), seed=0)).values.size == 64


# Pinned bytes of scenes and one investigator drawn on the first scene, as
# the random-priority flood first wrote them: the 256-pixel-square panel-c9
# scene (several blocks of draws, 8,723 repaired holes), a skewed 40x32 mix
# (153 holes) and a tiny 2-class grid (9 holes).
GOLDEN_SCENES = [
    ((256, 256, 4), 24, (0.25,) * 4, 10_001,
     "ffe2ab7999b83522467a4843136e0210d6f08929e305b2e86261d4da98ca5d29"),
    ((40, 32, 4), 12, (0.55, 0.25, 0.15, 0.05), 3,
     "a57a8c76415cfe3ae036b95f537f7bc49614314155bf1973e080a856b29d7f10"),
    ((7, 5, 2), 3, (0.7, 0.3), 8,
     "1496058da5fd05c0cad6770391d1ffe49e851bcc2ef6f15b78db22d21464d4b4"),
]
GOLDEN_INVESTIGATOR = "d686e988e9cfd024381aaeaaee613fb2d708fe21f1d624c5002aa73a367e2752"


def _golden_spec(dims, n_blobs, mix, seed):
    return SceneSpec(shape=GridShape(*dims), n_blobs=n_blobs, class_mix=mix, seed=seed)


def _sha256(values):
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


@pytest.mark.parametrize("dims,n_blobs,mix,seed,digest", GOLDEN_SCENES,
                         ids=["panel-c9", "skewed-40x32", "tiny-2-class"])
def test_scene_bytes_are_pinned(dims, n_blobs, mix, seed, digest):
    values = generate_scene(_golden_spec(dims, n_blobs, mix, seed)).values
    assert values.dtype == np.uint8 and values.shape == dims[1::-1]
    assert _sha256(values) == digest


def test_investigator_bytes_are_pinned():
    truth = generate_scene(_golden_spec(*GOLDEN_SCENES[0][:4]))
    raster = generate_investigator(truth, InvestigatorSpec(
        noise_rate=0.2, confusion_kernel=style_kernel(4, 1), softness=8.0, seed=100_001))
    assert raster.values.dtype == np.float64 and raster.values.shape == (4, 256, 256)
    assert _sha256(raster.values) == GOLDEN_INVESTIGATOR


def _neighbors(px: int, width: int, height: int):
    r, c = divmod(px, width)
    if r > 0:
        yield px - width
    if r + 1 < height:
        yield px + width
    if c > 0:
        yield px - 1
    if c + 1 < width:
        yield px + 1


def _reference_scene(spec: SceneSpec) -> np.ndarray:
    """The flood and repair as first written: a (priority, tick, pixel,
    class) tuple heap with one scalar draw per push, and one argsort per
    repaired hole."""
    shape = spec.shape
    h, w = shape.height, shape.width
    n = shape.n_pixels
    quotas = _quotas(spec.class_mix, n)
    rng = np.random.Generator(np.random.Philox(spec.seed))

    blob_classes = np.concatenate([
        np.arange(shape.n_classes),
        rng.choice(shape.n_classes, size=spec.n_blobs - shape.n_classes,
                   p=np.asarray(spec.class_mix)),
    ])
    rng.shuffle(blob_classes)
    seeds = rng.choice(n, size=spec.n_blobs, replace=False)

    labels = np.full(n, -1, dtype=np.int64)
    remaining = quotas.copy()
    heap = []
    tick = 0
    # seeds get priority below any random frontier so each claims its own pixel
    for px, cls in zip(seeds, blob_classes):
        heapq.heappush(heap, (-1.0, tick, int(px), int(cls)))
        tick += 1
    while heap:
        _, _, px, cls = heapq.heappop(heap)
        if labels[px] != -1 or remaining[cls] == 0:
            continue
        labels[px] = cls
        remaining[cls] -= 1
        for nb in _neighbors(px, w, h):
            if labels[nb] == -1:
                heapq.heappush(heap, (rng.random(), tick, nb, cls))
                tick += 1

    holes = np.flatnonzero(labels == -1)
    if holes.size:
        # stranded pockets: give each to the nearest class with leftover quota
        grid = labels.reshape(h, w)
        open_classes = np.flatnonzero(remaining > 0)
        dist = np.stack([distance_transform_edt(grid != c).ravel()[holes]
                         for c in open_classes])
        for i in np.argsort(dist.min(axis=0), kind="stable"):
            choices = np.argsort(dist[:, i], kind="stable")
            for ch in choices:
                cls = open_classes[ch]
                if remaining[cls] > 0:
                    labels[holes[i]] = cls
                    remaining[cls] -= 1
                    break
    if (labels < 0).any() or remaining.any():
        raise RuntimeError("scene repair left pixels unlabeled or quotas unmet")
    return labels.reshape(h, w)


@settings(max_examples=150, deadline=None)
@given(width=st.integers(4, 40), height=st.integers(4, 40),
       weights=st.lists(st.integers(1, 9), min_size=2, max_size=6),
       extra_blobs=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
def test_scene_matches_the_reference_flood(width, height, weights, extra_blobs, seed):
    mix = tuple(np.asarray(weights) / sum(weights))
    assume(min(mix) * width * height >= 1)
    n_blobs = min(len(weights) + extra_blobs, width * height)
    spec = SceneSpec(shape=GridShape(width, height, len(weights)), n_blobs=n_blobs,
                     class_mix=mix, seed=seed)
    assert (generate_scene(spec).values == _reference_scene(spec)).all()


# ---------------------------------------------------------- investigators

def test_noiseless_sharp_investigator_reproduces_truth():
    truth = scene(seed=1)
    inv = generate_investigator(truth, InvestigatorSpec(
        noise_rate=0.0, confusion_kernel=uniform_kernel(4),
        softness=1e6, seed=42))
    assert (hard_classify(inv).values == truth.values).all()


def test_uniform_kernel_disagreement_rate_is_calibrated():
    # a uniform redraw lands back on the truth with probability 1/C, so the
    # label-level corruption rate is noise * (1 - 1/C); sharp emissions keep
    # the argmax faithful to the corrupted label
    truth = scene(width=100, height=100, seed=2)
    inv = generate_investigator(truth, InvestigatorSpec(
        noise_rate=0.3, confusion_kernel=uniform_kernel(4),
        softness=1000.0, seed=7))
    rate = (hard_classify(inv).values != truth.values).mean()
    assert rate == pytest.approx(0.3 * (1 - 1 / 4), abs=0.02)


def test_quality_is_monotone_in_noise_rate():
    rates = {nr: [] for nr in (0.05, 0.2, 0.4)}
    for s in range(20):
        truth = scene(seed=100 + s)
        for nr in rates:
            inv = generate_investigator(truth, InvestigatorSpec(
                noise_rate=nr, confusion_kernel=uniform_kernel(4),
                softness=30.0, seed=2000 + 17 * s + int(nr * 100)))
            rates[nr].append((hard_classify(inv).values == truth.values).mean())
    means = {nr: np.mean(v) for nr, v in rates.items()}
    assert means[0.05] > means[0.2] > means[0.4]


def test_softness_controls_entropy():
    from mapfuse.clustering import entropy_map
    truth = scene(seed=4)
    soft, sharp = (generate_investigator(truth, InvestigatorSpec(
        noise_rate=0.1, confusion_kernel=uniform_kernel(4),
        softness=s, seed=11)) for s in (2.5, 25.0))
    assert entropy_map(soft).mean() > entropy_map(sharp).mean() + 0.5


def test_investigator_is_deterministic():
    truth = scene(seed=5)
    spec = InvestigatorSpec(noise_rate=0.2, confusion_kernel=uniform_kernel(4),
                            softness=10.0, seed=3)
    a = generate_investigator(truth, spec)
    b = generate_investigator(truth, spec)
    assert (a.values == b.values).all()


def test_investigator_spec_validation():
    k = uniform_kernel(3)
    with pytest.raises(ValueError, match="noise_rate"):
        InvestigatorSpec(noise_rate=1.0, confusion_kernel=k, softness=1.0, seed=0)
    with pytest.raises(ValueError, match="softness"):
        InvestigatorSpec(noise_rate=0.1, confusion_kernel=k, softness=0.0, seed=0)
    with pytest.raises(ValueError, match="square"):
        InvestigatorSpec(noise_rate=0.1, confusion_kernel=np.ones((2, 3)) / 3,
                         softness=1.0, seed=0)
    with pytest.raises(ValueError, match="stochastic"):
        InvestigatorSpec(noise_rate=0.1, confusion_kernel=np.ones((3, 3)),
                         softness=1.0, seed=0)
    with pytest.raises(ValueError, match="diagonal must dominate"):
        InvestigatorSpec(noise_rate=0.1,
                         confusion_kernel=np.array([[0.2, 0.8, 0.0],
                                                    [0.1, 0.8, 0.1],
                                                    [0.1, 0.1, 0.8]]),
                         softness=1.0, seed=0)
    with pytest.raises(ValueError, match="kernel size"):
        generate_investigator(scene(seed=0), InvestigatorSpec(
            noise_rate=0.1, confusion_kernel=k, softness=1.0, seed=0))


# --------------------------------------------------------------- kernels

def test_uniform_kernel_structure():
    k = uniform_kernel(4)
    assert k.shape == (4, 4) and (k == 0.25).all()


def test_style_kernel_structure():
    k = style_kernel(4, 0)
    assert np.allclose(k.sum(axis=1), 1.0)
    for c in range(4):
        assert k[c, c] == pytest.approx(0.5)
        assert k[c, (c + 1) % 4] == pytest.approx(0.4)
    # different styles favor different targets
    k1 = style_kernel(4, 1)
    assert k1[0, 2] == pytest.approx(0.4)
    # a style that would favor the diagonal falls forward instead
    k3 = style_kernel(4, 3)
    assert k3[0, 1] == pytest.approx(0.4)
    with pytest.raises(ValueError, match="at least 3"):
        style_kernel(2, 0)


# -------------------------------------------------------------- scenarios

def write_scenario(tmp_path, doc):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    return p


def small_doc():
    return {
        "scene": {"width": 16, "height": 16,
                  "class_names": ["a", "b", "c"],
                  "n_blobs": 6, "class_mix": [1 / 3, 1 / 3, 1 / 3], "seed": 1},
        "investigators": [
            {"id": "inv0", "noise_rate": 0.1, "softness": 10.0, "seed": 2},
            {"id": "inv1", "noise_rate": 0.3, "softness": 5.0, "seed": 3,
             "kernel": {"style": 0}},
        ],
    }


def test_load_scenario(tmp_path):
    sc, invs = load_scenario(write_scenario(tmp_path, small_doc()))
    assert sc.shape == GridShape(16, 16, 3, ("a", "b", "c"))
    assert [i for i, _ in invs] == ["inv0", "inv1"]
    assert (invs[0][1].confusion_kernel == uniform_kernel(3)).all()
    assert invs[1][1].confusion_kernel[0, 0] == pytest.approx(0.5)


def test_load_scenario_missing_field(tmp_path):
    doc = small_doc()
    del doc["investigators"][0]["softness"]
    with pytest.raises(ValueError, match="scenario missing field"):
        load_scenario(write_scenario(tmp_path, doc))


def test_load_scenario_duplicate_ids(tmp_path):
    doc = small_doc()
    doc["investigators"][1]["id"] = "inv0"
    with pytest.raises(ValueError, match="duplicate investigator ids"):
        load_scenario(write_scenario(tmp_path, doc))


def test_load_scenario_explicit_kernel(tmp_path):
    doc = small_doc()
    doc["investigators"][0]["kernel"] = [[0.8, 0.1, 0.1],
                                         [0.1, 0.8, 0.1],
                                         [0.1, 0.1, 0.8]]
    sc, invs = load_scenario(write_scenario(tmp_path, doc))
    assert invs[0][1].confusion_kernel[0, 0] == 0.8
    doc["investigators"][0]["kernel"] = [[1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match="kernel must be 3x3"):
        load_scenario(write_scenario(tmp_path, doc))


def test_materialize_scenario(tmp_path):
    truth, rasters = materialize_scenario(
        write_scenario(tmp_path, small_doc()), tmp_path / "out")
    index = json.loads((tmp_path / "out" / "index.json").read_text())
    assert index == {"truth": "truth", "investigators": ["inv0", "inv1"]}
    back = load_label_raster(tmp_path / "out" / "truth")
    assert (back.values == truth.values).all()
    for map_id, raster in rasters:
        stored = load_probability_raster(tmp_path / "out" / map_id)
        assert np.abs(stored.values - raster.values).max() < 1e-6


def test_two_style_scenario_structure(tmp_path):
    doc = two_style_scenario(width=24, height=24, n_per_group=3, n_blobs=8)
    sc, invs = load_scenario(write_scenario(tmp_path, doc))
    assert len(invs) == 6
    assert [i for i, _ in invs[:3]] == ["g0inv00", "g0inv01", "g0inv02"]
    g0, g1 = invs[0][1], invs[3][1]
    assert g0.noise_rate < g1.noise_rate
    assert g0.softness > g1.softness
    assert (g0.confusion_kernel != g1.confusion_kernel).any()
