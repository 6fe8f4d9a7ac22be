"""Closed-form Bayesian fusion of probabilistic classifications.

Each pixel carries a Dirichlet prior over class proportions. Treating
investigator probability vectors as weighted fractional observations,
conjugacy gives the posterior concentration in closed form:

    alpha_post[i, c] = alpha[c] + sum_j w[j] * p[j, i, c]

and the posterior mean estimate of the class proportions

    theta_hat[i, c] = alpha_post[i, c] / (alpha_0 + W)

with alpha_0 = sum_c alpha[c] and W = sum_j w[j]. No sampling or
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
    weights: np.ndarray        # (J,) weights actually applied

    def __post_init__(self):
        object.__setattr__(self, "alpha", _freeze(np.asarray(self.alpha, dtype=np.float64)))
        object.__setattr__(self, "weights", _freeze(np.asarray(self.weights, dtype=np.float64)))

    @property
    def strength(self) -> float:
        """Total posterior concentration alpha_0 + W (same at every pixel)."""
        return float(self.alpha[0, 0].sum())


def regularize(values: np.ndarray, epsilon: float = DEFAULT_EPSILON) -> np.ndarray:
    """Replace zero components by epsilon and renormalize each pixel.

    Keeps probability vectors strictly interior to the simplex so that
    log-density evaluation and zero-count conjugate updates stay finite.
    Vectors without zeros pass through up to renormalization.
    """
    values = np.asarray(values, dtype=np.float64)
    if (values < 0).any():
        raise ValueError("negative probability")
    out = np.where(values == 0.0, epsilon, values)
    return out / out.sum(axis=-1, keepdims=True)


def fuse(maps, weights=None, prior_alpha: float = 1.0) -> PosteriorField:
    """Fuse probability rasters into a posterior field.

    weights : per-map positive weights, one per raster; defaults to all
    ones (each map counts as a single observation).
    prior_alpha : symmetric Dirichlet prior concentration for every
    class; 1.0 is the flat (uniform) prior used throughout.
    """
    if not (prior_alpha > 0 and np.isfinite(prior_alpha)):
        raise ValueError(f"prior_alpha must be positive, got {prior_alpha}")
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
    alpha_post = prior_alpha + evidence
    strength = prior_alpha * shape.n_classes + w.sum()
    mean = ProbabilityRaster(shape, alpha_post / strength)
    return PosteriorField(shape=shape, alpha=alpha_post, mean=mean, weights=w)


def fused_label_map(posterior: PosteriorField) -> LabelRaster:
    """Hard consensus map: per-pixel argmax of the posterior mean."""
    return hard_classify(posterior.mean)
