"""Raster data model shared by every stage of the fusion pipeline.

Grids are numpy arrays with their class metadata, read-only after construction so
instances can be shared across worker threads. A probability raster is its file's
band-sequential class planes, held as float64: load and save do not transpose.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

# Reserved label value marking pixels with no usable class. Stored in one
# byte on disk, hence the class-count ceiling below.
NODATA = 255

MAX_CLASSES = 255  # NODATA occupies the last u8 code

DEFAULT_EPSILON = 1e-10

# the cores this process may run on (its CPU affinity); a cgroup quota is not seen
CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


def map_on_cores(fn, items, workers=CORES) -> list:
    """[fn(x) for x in items]: the first on the calling thread, the rest on a pool
    of ``workers`` threads made for this call, which leaving joins, also after an
    error; the first error in item order surfaces. Pool threads lack np.errstate."""
    with ThreadPoolExecutor(workers, thread_name_prefix="mapfuse") as pool:
        rest = [pool.submit(fn, x) for x in items[1:]]
        return [fn(x) for x in items[:1]] + [f.result() for f in rest]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class GridShape:
    """Grid dimensions plus the class legend.

    ``n_classes`` is the length of every per-pixel probability vector and
    the exclusive upper bound for label values.
    """

    width: int
    height: int
    n_classes: int
    class_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.height}x{self.width}")
        if not 2 <= self.n_classes <= MAX_CLASSES:
            raise ValueError(f"n_classes must be in [2, {MAX_CLASSES}], got {self.n_classes}")
        names = self.class_names or tuple(f"class{c}" for c in range(self.n_classes))
        if len(names) != self.n_classes:
            raise ValueError(
                f"expected {self.n_classes} class names, got {len(names)}"
            )
        if len(set(names)) != len(names) or not all(isinstance(n, str) and n for n in names):
            raise ValueError("class names must be distinct, non-empty strings")
        object.__setattr__(self, "class_names", tuple(names))

    @property
    def n_pixels(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class ProbabilityRaster:
    """One map's per-pixel class probabilities. ``values`` is its read-only
    C-contiguous (C, H, W) float64 class planes, in the file's band order; only
    strided input is copied. Construction checks finiteness, non-negativity and
    unit sums (loose 1e-6 tolerance; :func:`regularize` tightens this to 1e-9).
    There is no NODATA here: absent coverage must be masked upstream."""

    shape: GridShape
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)   # copies only strided input
        expected = (self.shape.n_classes, self.shape.height, self.shape.width)
        if v.shape != expected:
            raise ValueError(f"values shape {v.shape} does not match grid {expected}")
        if not np.isfinite(v).all():
            raise ValueError("probability raster contains NaN or Inf")
        if (v < 0).any():
            raise ValueError("probability raster contains negative values")
        sums = v.sum(axis=0)                      # max |sums - 1| from two extremes
        if max(sums.max() - 1.0, 1.0 - sums.min()) > 1e-6:
            raise ValueError("pixel probability vectors must sum to 1")
        object.__setattr__(self, "values", _freeze(v.view()))   # the caller's stays writeable


def regularize(planes) -> np.ndarray:
    """A float64 copy of class planes (classes first) with zeros replaced by
    DEFAULT_EPSILON and each pixel renormalized by its sum in class order, so its
    bits do not depend on the array's shape or layout, vectors stay strictly inside
    the simplex and zero-count conjugate updates stay finite. Negative values
    raise; NaN and Inf pass through for ProbabilityRaster to reject."""
    planes = np.array(planes, dtype=np.float64, order="C")
    if (planes < 0).any():
        raise ValueError("negative probability")
    planes[planes == 0.0] = DEFAULT_EPSILON
    with np.errstate(invalid="ignore"):
        planes /= sum(planes)
    return planes


@dataclass(frozen=True)
class LabelRaster:
    """H x W categorical grid of class indices, with NODATA sentinel."""

    shape: GridShape
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values)
        if not np.issubdtype(v.dtype, np.integer):
            raise ValueError("label raster must hold integers")
        expected = (self.shape.height, self.shape.width)
        if v.shape != expected:
            raise ValueError(f"values shape {v.shape} does not match grid {expected}")
        bad = ((v < 0) | (v >= self.shape.n_classes)) & (v != NODATA)
        if bad.any():
            raise ValueError(
                f"label raster contains values outside [0, {self.shape.n_classes})"
            )
        v = v.astype(np.uint8)
        object.__setattr__(self, "values", _freeze(v))


def common_shape(maps) -> GridShape:
    """The grid every raster of a non-empty panel shares; raises otherwise."""
    if len(maps) == 0:
        raise ValueError("no maps: need at least one raster")
    shape = maps[0].shape
    for m in maps[1:]:
        if m.shape != shape:
            raise ValueError(f"shape mismatch: {m.shape} != {shape}")
    return shape


def pair_counts(a, b, n_classes: int) -> np.ndarray:
    """(n, C, C) int64 counts of the label pairs (a[i, s], b[i, s]) in each row i
    of two (n, S) arrays of non-negative labels. A label at or above C, as NODATA,
    is folded onto a spare code C whose row and column are cut off: not counted."""
    a, b = np.asarray(a), np.asarray(b)
    n, c = len(a), n_classes + 1
    dt = np.min_scalar_type(max(n, 1) * c * c)   # the narrowest codes: the fastest
    # min(x, C) as x - (x >= C) * (x - C), ~10x faster than np.minimum(x, C); in
    # unsigned labels x - C wraps below C, where it is multiplied by 0
    cell, fb = ((x - (x >= n_classes) * (x - n_classes)).astype(dt, copy=False) for x in (a, b))
    cell *= c
    cell += fb
    cell += np.arange(0, n * c * c, c * c, dtype=dt)[:, None]
    return np.bincount(cell.ravel(), minlength=n * c * c).reshape(n, c, c)[:, :-1, :-1]


def first_max(planes) -> np.ndarray:
    """u8 index of the first largest of C >= 2 same-shape planes, as np.argmax
    over a leading class axis: a scan in which plane c takes the label only where
    it is strictly larger than the maximum of the planes before it. That maximum
    lives in one buffer, made by the first np.maximum and then reused as its
    out=, so the planes themselves are never written."""
    label = (planes[1] > planes[0]).astype(np.uint8)
    best = None
    for c in range(2, len(planes)):
        best = np.maximum(planes[0] if best is None else best, planes[c - 1], out=best)
        label += (planes[c] > best) * (np.uint8(c) - label)   # label < c: no wrap
    return label


def hard_classify(raster: ProbabilityRaster) -> LabelRaster:
    """Per-pixel argmax over class probabilities, by ``first_max`` of the class
    planes (faster than a reduction over the short class axis). Ties break toward
    the lowest class index, so output is independent of investigator ordering."""
    return LabelRaster(raster.shape, first_max(raster.values))
