"""Closed-form Bayesian fusion of probabilistic classifications.

Each pixel carries the flat Dirichlet prior, alpha = 1 for every class.
Treating investigator probability vectors as weighted fractional
observations, conjugacy gives the posterior concentration in closed form:

    alpha_post[i, c] = 1 + sum_j w[j] * p[j, i, c]

and the posterior mean estimate of the class proportions

    theta_hat[i, c] = alpha_post[i, c] / (C + W)

with C the number of classes and W = sum_j w[j]. No sampling or
iteration is involved; fusing any number of maps is a single weighted
sum over the panel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (GridShape, LabelRaster, ProbabilityRaster, _freeze, common_shape,
                    hard_classify)

DEFAULT_EPSILON = 1e-10


@dataclass(frozen=True)
class PosteriorField:
    """Fusion output: per-pixel posterior concentrations and their mean."""

    shape: GridShape
    alpha: np.ndarray          # (H, W, C) posterior concentration
    mean: ProbabilityRaster    # posterior mean, a proper probability raster

    def __post_init__(self):
        object.__setattr__(self, "alpha", _freeze(np.asarray(self.alpha, dtype=np.float64)))


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


def fuse(maps, weights=None) -> PosteriorField:
    """Fuse probability rasters into a posterior field under the flat
    Dirichlet prior (alpha = 1 for every class).

    weights : per-map positive weights, one per raster; defaults to all
    ones (each map counts as a single observation).
    """
    shape = common_shape(maps)
    n_maps = len(maps)
    if weights is None:
        w = np.ones(n_maps)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n_maps,):
            raise ValueError(f"expected {n_maps} weights, got shape {w.shape}")
        if not np.isfinite(w).all() or (w <= 0).any():
            raise ValueError("weights must be positive and finite")

    # accumulated map by map: no (J, H, W, C) copy of the panel
    evidence = sum(w_j * m.values for w_j, m in zip(w, maps))
    alpha_post = 1.0 + evidence
    mean = ProbabilityRaster(shape, alpha_post / (shape.n_classes + w.sum()))
    return PosteriorField(shape=shape, alpha=alpha_post, mean=mean)


def fused_label_map(posterior: PosteriorField) -> LabelRaster:
    """Hard consensus map: per-pixel argmax of the posterior mean."""
    return hard_classify(posterior.mean)
