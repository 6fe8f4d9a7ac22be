"""Raster data model shared by every stage of the fusion pipeline.

All grids are plain numpy arrays wrapped with their class metadata. Values
are immutable after construction (arrays are flagged non-writeable) so
instances can be shared freely across worker threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Reserved label value marking pixels with no usable class. Stored in one
# byte on disk, hence the class-count ceiling below.
NODATA = 255

MAX_CLASSES = 255  # NODATA occupies the last u8 code

DEFAULT_EPSILON = 1e-10


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
    """H x W stack of per-pixel class-probability vectors for one map.

    ``values`` has shape (height, width, n_classes), float64. Construction
    checks finiteness, non-negativity and unit sums (loose 1e-6 tolerance;
    regularization tightens this to 1e-9, see :func:`regularize`).
    There is no NODATA here: absent coverage must be masked upstream.
    """

    shape: GridShape
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        expected = (self.shape.height, self.shape.width, self.shape.n_classes)
        if v.shape != expected:
            raise ValueError(f"values shape {v.shape} does not match grid {expected}")
        if not np.isfinite(v).all():
            raise ValueError("probability raster contains NaN or Inf")
        if (v < 0).any():
            raise ValueError("probability raster contains negative values")
        sums = v.sum(axis=2)
        if np.abs(sums - 1.0).max() > 1e-6:
            raise ValueError("pixel probability vectors must sum to 1")
        object.__setattr__(self, "values", _freeze(v))


def regularize(values) -> np.ndarray:
    """A float64 copy with zeros replaced by DEFAULT_EPSILON and each pixel
    (last axis) renormalized, so vectors stay strictly inside the simplex and
    zero-count conjugate updates stay finite. Negative values raise; NaN and
    Inf pass through for ProbabilityRaster to reject."""
    out = np.array(values, dtype=np.float64)     # a copy in the input's layout
    if (out < 0).any():
        raise ValueError("negative probability")
    out[out == 0.0] = DEFAULT_EPSILON
    with np.errstate(invalid="ignore"):
        out /= out.sum(axis=-1, keepdims=True)
    return out


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

    def valid_mask(self) -> np.ndarray:
        """Boolean mask of pixels that carry an actual class."""
        return self.values != NODATA


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
    """(n, C, C) int64 counts of the label pairs (a[i, s], b[i, s]) in each
    row i of two (n, S) label arrays, skipping NODATA on either side."""
    a, b = np.asarray(a), np.asarray(b)
    n, c = len(a), n_classes
    cell = (np.arange(n)[:, None] * c + a) * c + b   # int64 rows: u8 labels never wrap
    counts = np.bincount(cell[(a != NODATA) & (b != NODATA)], minlength=n * c * c)
    return counts.reshape(n, c, c)


def hard_classify(raster: ProbabilityRaster) -> LabelRaster:
    """Per-pixel argmax over class probabilities.

    Ties break toward the lowest class index so output is deterministic
    and independent of investigator ordering.
    """
    labels = np.argmax(raster.values, axis=2).astype(np.uint8)
    return LabelRaster(raster.shape, labels)
