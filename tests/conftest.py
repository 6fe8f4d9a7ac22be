"""Shared fixtures: tiny deterministic rasters and a reusable scene."""

import numpy as np
import pytest

from mapfuse.grids import GridShape, LabelRaster, ProbabilityRaster
from mapfuse.synth import (InvestigatorSpec, SceneSpec, generate_investigator,
                           generate_scene, uniform_kernel)


def make_prob(planes) -> ProbabilityRaster:
    """Wrap (C, H, W) class planes, inferring the shape."""
    v = np.asarray(planes, dtype=np.float64)
    c, h, w = v.shape
    return ProbabilityRaster(GridShape(w, h, c), v)


def pixel(vector) -> ProbabilityRaster:
    """A 1x1 raster holding one probability vector."""
    return make_prob(np.reshape(vector, (-1, 1, 1)))


def make_labels(values, n_classes=None) -> LabelRaster:
    v = np.asarray(values)
    n = int(v.max()) + 1 if n_classes is None else n_classes
    return LabelRaster(GridShape(v.shape[1], v.shape[0], n), v)


def random_prob(rng, height, width, n_classes) -> ProbabilityRaster:
    g = rng.gamma(1.0, size=(height, width, n_classes)) + 1e-12
    return make_prob((g / g.sum(axis=2, keepdims=True)).transpose(2, 0, 1))


@pytest.fixture(scope="session")
def small_scene():
    """48x48, 4 classes, equal mix — shared by tests that only read it."""
    spec = SceneSpec(shape=GridShape(48, 48, 4), n_blobs=10,
                     class_mix=(0.25, 0.25, 0.25, 0.25), seed=7)
    return generate_scene(spec)


@pytest.fixture(scope="session")
def small_panel(small_scene):
    """Three investigators of decreasing quality on the shared scene."""
    maps = []
    for j, noise in enumerate((0.05, 0.2, 0.4)):
        spec = InvestigatorSpec(noise_rate=noise,
                                confusion_kernel=uniform_kernel(4),
                                softness=10.0, seed=100 + j)
        maps.append(generate_investigator(small_scene, spec))
    return maps
