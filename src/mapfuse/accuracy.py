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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .grids import NODATA, LabelRaster, _freeze
from .io import write_csv


@dataclass(frozen=True)
class ConfusionMatrix:
    counts: np.ndarray        # (C, C) rows=classified, cols=reference
    class_names: tuple

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] != len(self.class_names):
            raise ValueError(f"bad confusion shape {c.shape}")
        if (c < 0).any():
            raise ValueError("negative counts")
        if c.sum() == 0:
            raise ValueError("empty confusion matrix")
        object.__setattr__(self, "counts", _freeze(c))
        object.__setattr__(self, "class_names", tuple(self.class_names))


@dataclass(frozen=True)
class AccuracyReport:
    overall: float
    users: np.ndarray         # (C,) NaN where the class was never predicted
    producers: np.ndarray     # (C,) NaN where the class is absent from the reference

    def __post_init__(self):
        object.__setattr__(self, "users", _freeze(np.asarray(self.users, dtype=np.float64)))
        object.__setattr__(self, "producers", _freeze(np.asarray(self.producers, dtype=np.float64)))


@dataclass(frozen=True)
class MonteCarloResult:
    overall: np.ndarray       # (n,) OA of each iteration
    users: np.ndarray         # (n, C) NaN where iteration i never predicted the class
    producers: np.ndarray     # (n, C) NaN where the class is absent from the reference

    def __post_init__(self):
        for name in ("overall", "users", "producers"):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name), np.float64)))

    @property
    def n_iterations(self) -> int:
        return self.overall.size


def confusion(pred: LabelRaster, ref: LabelRaster, sample_indices=None) -> ConfusionMatrix:
    """Count classified-vs-reference pairs, skipping NODATA on either side."""
    if pred.shape != ref.shape:
        raise ValueError(f"shape mismatch: {pred.shape} != {ref.shape}")
    p = pred.values.ravel()
    r = ref.values.ravel()
    if sample_indices is not None:
        idx = np.asarray(sample_indices, dtype=np.int64)
        if len(idx) and (idx.min() < 0 or idx.max() >= p.size):
            raise ValueError("sample index out of range")
        p, r = p[idx], r[idx]
    keep = (p != NODATA) & (r != NODATA)
    p, r = p[keep], r[keep]
    if p.size == 0:
        raise ValueError("no valid pixels in sample")
    n = pred.shape.n_classes
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (p.astype(np.int64), r.astype(np.int64)), 1)
    return ConfusionMatrix(counts, pred.shape.class_names)


def _rates(counts: np.ndarray):
    """(overall, users, producers) of confusion counts over the last two axes."""
    c = counts.astype(np.float64)
    diag = np.diagonal(c, axis1=-2, axis2=-1)
    rows = c.sum(axis=-1)
    cols = c.sum(axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        users = np.where(rows > 0, diag / rows, np.nan)
        producers = np.where(cols > 0, diag / cols, np.nan)
    return diag.sum(axis=-1) / c.sum(axis=(-2, -1)), users, producers


def accuracy_report(cm: ConfusionMatrix) -> AccuracyReport:
    overall, users, producers = _rates(cm.counts)
    return AccuracyReport(overall=float(overall), users=users, producers=producers)


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
                       per_class: int, seed: int) -> MonteCarloResult:
    """Iteration i scores pred on row i of ``stratified_samples``, all rows
    counted in one (n, C, C) confusion cube that skips NODATA predictions
    (the sampled reference pixels are never NODATA)."""
    if pred.shape != ref.shape:
        raise ValueError(f"shape mismatch: {pred.shape} != {ref.shape}")
    idx = stratified_samples(ref, n_iterations, per_class, seed)
    p, r = pred.values.ravel()[idx], ref.values.ravel()[idx]
    n = ref.shape.n_classes
    cell = (np.arange(n_iterations)[:, None] * n + p) * n + r   # int64, not u8
    counts = np.bincount(cell[p != NODATA], minlength=n_iterations * n * n).reshape(-1, n, n)
    if not counts.any(axis=(1, 2)).all():
        raise ValueError("no valid pixels in sample")
    return MonteCarloResult(*_rates(counts))


def paired_t_test(a, b) -> tuple[float, float, int]:
    """Two-sided paired t on the differences a - b; returns (t, p, df).

    Zero-variance differences (identical maps) report t=0, p=1 rather
    than failing, so sweeps over near-duplicate variants never abort.
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
        return 0.0, 1.0, df
    t = float(d.mean() / (sd / math.sqrt(n)))
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return t, p, df


def write_mc_csv(result: MonteCarloResult, class_names, path) -> None:
    """One row per iteration: iter,oa,ua_<class>...,pa_<class>... (NaN -> empty)."""
    header = ["iter", "oa"] + [f"ua_{n}" for n in class_names] \
        + [f"pa_{n}" for n in class_names]
    rows = zip(range(result.n_iterations), result.overall, result.users, result.producers)
    write_csv(path, header, ([i, oa, *ua, *pa] for i, oa, ua, pa in rows))
