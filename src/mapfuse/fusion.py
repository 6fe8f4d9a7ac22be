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

import numpy as np

from .grids import LabelRaster, ProbabilityRaster, common_shape, hard_classify


def fuse(maps, weights=None) -> ProbabilityRaster:
    """Fuse probability rasters under the flat Dirichlet prior (alpha = 1 for
    every class) into the posterior mean; the posterior concentration is
    alpha_post = mean * (C + W).

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

    # one buffer, added into map by map (x * 1.0 is x: unit weights skip it)
    acc = maps[0].values * w[0]
    for w_j, m in zip(w[1:], maps[1:]):
        acc += m.values if w_j == 1.0 else w_j * m.values
    acc += 1.0
    acc /= shape.n_classes + w.sum()
    return ProbabilityRaster(shape, acc)


# only hard_classify, kept by name: perfbench traces it and scripts call it
def fused_label_map(mean: ProbabilityRaster) -> LabelRaster:
    """Hard consensus map: per-pixel argmax of the posterior mean."""
    return hard_classify(mean)
