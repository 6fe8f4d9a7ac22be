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

    @property
    def total(self) -> int:
        return int(self.counts.sum())


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
    n_iterations: int
    per_iteration: tuple      # of AccuracyReport
    per_class_sample_size: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "per_iteration", tuple(self.per_iteration))
        if len(self.per_iteration) != self.n_iterations:
            raise ValueError("report count != n_iterations")

    def overall_series(self) -> np.ndarray:
        return np.array([r.overall for r in self.per_iteration])


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


def accuracy_report(cm: ConfusionMatrix) -> AccuracyReport:
    c = cm.counts.astype(np.float64)
    diag = np.diag(c)
    rows = c.sum(axis=1)
    cols = c.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        users = np.where(rows > 0, diag / rows, np.nan)
        producers = np.where(cols > 0, diag / cols, np.nan)
    return AccuracyReport(overall=float(diag.sum() / c.sum()),
                          users=users, producers=producers)


def _class_pools(ref: LabelRaster, per_class: int) -> list:
    """Pixel indices of every class present in ref, in ascending class order.

    Raises if some present class has fewer than per_class pixels.
    """
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
    return pools


def _draw(pools, per_class: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.choice(pool, size=per_class, replace=False)
                           for pool in pools])


def stratified_sample(ref: LabelRaster, per_class: int, seed: int) -> np.ndarray:
    """Draw per_class pixel indices from each class present in ref.

    Classes are visited in ascending index order from a single seeded
    stream, so the draw is deterministic. Raises if some present class
    has fewer than per_class pixels.
    """
    return _draw(_class_pools(ref, per_class), per_class, seed)


def monte_carlo_assess(pred: LabelRaster, ref: LabelRaster, n_iterations: int,
                       per_class: int, seed: int) -> MonteCarloResult:
    """Iteration i scores pred on ``stratified_sample(ref, per_class, seed + i)``;
    the class pools are built once and shared by every iteration."""
    if n_iterations < 1:
        raise ValueError(f"n_iterations must be >= 1, got {n_iterations}")
    pools = _class_pools(ref, per_class)
    reports = [accuracy_report(confusion(pred, ref, _draw(pools, per_class, seed + i)))
               for i in range(n_iterations)]
    return MonteCarloResult(n_iterations=n_iterations, per_iteration=reports,
                            per_class_sample_size=per_class, seed=seed)


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


def agreement_ratio(samples, ref: LabelRaster) -> float:
    """Fraction of (row, col, label) points whose label matches ref there."""
    if len(samples) == 0:
        raise ValueError("empty sample set")
    hits = 0
    for row, col, label in samples:
        if not (0 <= row < ref.shape.height and 0 <= col < ref.shape.width):
            raise ValueError(f"sample ({row}, {col}) outside the grid")
        hits += int(ref.values[row, col]) == int(label)
    return hits / len(samples)


def pearson_correlation(x, y) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("length mismatch")
    if x.size < 3:
        raise ValueError("need at least three points")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt((dx * dx).sum())
    sy = math.sqrt((dy * dy).sum())
    if sx == 0.0 or sy == 0.0:
        raise ValueError("zero variance")
    return float((dx * dy).sum() / (sx * sy))


def _fmt(v: float) -> str:
    return "" if np.isnan(v) else repr(float(v))


def write_mc_csv(result: MonteCarloResult, class_names, path) -> None:
    """One row per iteration: iter,oa,ua_<class>...,pa_<class>... (NaN -> empty)."""
    cols = ["iter", "oa"]
    cols += [f"ua_{n}" for n in class_names] + [f"pa_{n}" for n in class_names]
    lines = [",".join(cols)]
    for i, rep in enumerate(result.per_iteration):
        cells = [str(i), _fmt(rep.overall)]
        cells += [_fmt(v) for v in rep.users] + [_fmt(v) for v in rep.producers]
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
