"""Accuracy assessment: confusion metrics, stratified Monte Carlo, t-tests.

Conventions. Confusion counts are indexed [classified, reference]:
counts[c][q] is the number of sampled pixels classified as c whose
reference class is q. Overall accuracy is the trace ratio, user's
accuracy the per-row correctness (commission side), producer's accuracy
the per-column correctness (omission side). Classes never predicted or
never referenced get NaN for the respective metric — undefined, not
zero — and NaN entries are excluded from any mean taken here.

Sampling keeps equal per-class sizes (which deliberately distorts
area-weighted accuracy; comparisons stay like-for-like because every
compared map is sampled at the same pixels). Monte Carlo iteration i is
seeded seed+i, so iterations are independently reproducible and two
assessments with the same reference, sizes, and seed share identical
sample pixels — paired by construction.

The paired t-test (``ttests.csv``, the paper's construction) pairs those
iterations. Each resamples the same two fixed maps, so p tests whether their
census accuracy difference is exactly zero, and p shrinks as the iteration
count grows, whatever the size of that difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .grids import LabelRaster, common_shape, pair_counts
from .io import write_csv


@dataclass(frozen=True)
class Accuracy:
    """Rates of one confusion table, or of a stack of them along leading axes."""

    overall: np.ndarray       # leading shape: 0-d for one table, (n,) for n
    users: np.ndarray         # (..., C) NaN where the class was never predicted
    producers: np.ndarray     # (..., C) NaN where the class is absent from the reference

    def __post_init__(self):
        for name in ("overall", "users", "producers"):
            a = np.array(getattr(self, name), dtype=np.float64)  # 0-d stays 0-d
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def confusion(pred: LabelRaster, ref: LabelRaster) -> np.ndarray:
    """(C, C) counts of (classified, reference) pairs, skipping NODATA on either side."""
    common_shape([ref, pred])
    counts = pair_counts(pred.values.reshape(1, -1), ref.values.reshape(1, -1),
                         pred.shape.n_classes)[0]
    if not counts.any():
        raise ValueError("no valid pixels in sample")
    return counts


def accuracy_report(counts) -> Accuracy:
    """Accuracy of a (C, C) table of counts, rows classified and columns
    reference, or of a stack of tables along leading axes."""
    c = np.asarray(counts)
    if c.ndim < 2 or c.shape[-1] != c.shape[-2]:
        raise ValueError(f"bad confusion shape {c.shape}")
    if (c < 0).any():
        raise ValueError("negative counts")
    if not c.any(axis=(-2, -1)).all():
        raise ValueError("no valid pixels in sample: empty confusion matrix")
    diag = np.diagonal(c, axis1=-2, axis2=-1)
    rows = c.sum(axis=-1)
    cols = c.sum(axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        users = np.where(rows > 0, diag / rows, np.nan)
        producers = np.where(cols > 0, diag / cols, np.nan)
    return Accuracy(diag.sum(axis=-1) / c.sum(axis=(-2, -1)), users, producers)


def stratified_samples(ref: LabelRaster, n_iterations: int, per_class: int,
                       seed: int) -> np.ndarray:
    """(n_iterations, S) pixel indices: row i draws per_class pixels from each
    class present in ref, in ascending class order, from ``default_rng(seed + i)``.
    The class pools are built once. Raises if a present class has fewer than
    per_class pixels."""
    if n_iterations < 1:
        raise ValueError(f"n_iterations must be >= 1, got {n_iterations}")
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    flat = ref.values.ravel()
    pools = []
    for c in range(ref.shape.n_classes):
        pool = np.flatnonzero(flat == c)
        if pool.size == 0:
            continue
        if pool.size < per_class:
            raise ValueError(
                f"class {ref.shape.class_names[c]!r} has only {pool.size} pixels, "
                f"cannot draw {per_class} without replacement")
        pools.append(pool)
    if not pools:
        raise ValueError("reference contains no valid pixels")
    rows = []
    for i in range(n_iterations):
        rng = np.random.default_rng(seed + i)
        rows.append(np.concatenate([rng.choice(pool, size=per_class, replace=False)
                                    for pool in pools]))
    return np.stack(rows)


def monte_carlo_assess(pred: LabelRaster, ref: LabelRaster, n_iterations: int,
                       per_class: int, seed: int, *, samples=None) -> Accuracy:
    """Iteration i scores pred on row i of ``stratified_samples``; the result
    has a leading iteration axis. ``samples`` is that draw made once by the
    caller, for assessing many maps against one reference."""
    common_shape([ref, pred])
    idx = (stratified_samples(ref, n_iterations, per_class, seed)
           if samples is None else samples)
    counts = pair_counts(pred.values.ravel()[idx], ref.values.ravel()[idx],
                         ref.shape.n_classes)
    return accuracy_report(counts)


def paired_t_test(a, b) -> tuple[float, float, int]:
    """Two-sided paired t on the differences a - b; returns (t, p, df).

    Zero-variance differences do not fail: all zero (identical maps) report
    t=0, p=1, and a nonzero constant (maps scored on the whole reference every
    time) t=+-inf, p=0, as scipy's ttest_rel.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    n = a.size
    if n < 2:
        raise ValueError("need at least two pairs")
    d = a - b
    sd = d.std(ddof=1)
    df = n - 1
    if sd == 0.0:
        return (math.copysign(math.inf, d[0]), 0.0, df) if d.any() else (0.0, 1.0, df)
    t = float(d.mean() / (sd / math.sqrt(n)))
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return t, p, df


def write_mc_csv(result: Accuracy, class_names, path, *copies) -> None:
    """One row per iteration: iter,oa,ua_<class>...,pa_<class>... (NaN -> empty)."""
    header = ["iter", "oa"] + [f"ua_{n}" for n in class_names] \
        + [f"pa_{n}" for n in class_names]
    rows = zip(range(len(result.overall)), result.overall.tolist(), result.users.tolist(),
               result.producers.tolist())            # Python floats: the fast cells
    write_csv(path, header, ([i, oa, *ua, *pa] for i, oa, ua, pa in rows), *copies)
