"""Entropy feature extraction and investigator-map clustering.

Maps are grouped by how their per-pixel uncertainty is distributed: each
map is reduced to a flat vector of pixel-wise Shannon entropies (bits).
Entropy rasters share one unit and one range, so rows are deliberately left
unstandardized. The feature matrix holds the two J x J distance matrices
between its rows, built once: hand-rolled k-Means (Lloyd on squared
Euclidean distances, via the kernel k-means identity) and k-Medoids/PAM
(Manhattan) read only those, never the pixel-length rows.

Cluster numbering is canonical: clusters are ordered by their smallest
member index, so identical inputs yield identical models regardless of
internal restart bookkeeping.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

from .grids import ProbabilityRaster, _freeze, common_shape
from .io import is_bare_file_name, write_text_atomic


def entropy_map(p: ProbabilityRaster) -> np.ndarray:
    """(H, W) per-pixel Shannon entropy in bits, with 0*log2(0) = 0, within
    [0, log2(C)]."""
    v = p.values
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(v > 0, v * np.log2(v), 0.0)
    h = -terms.sum(axis=2)
    # fp rounding can push a hair past the closed bounds
    return np.clip(h, 0.0, np.log2(p.shape.n_classes))


@dataclass(frozen=True)
class EntropyFeatureMatrix:
    """One flattened entropy raster per investigator map, and the two J x J
    distance matrices between them that the clusterers read."""

    rows: np.ndarray          # (J, H*W) bits
    max_entropy: float        # log2(C), the feature-space ceiling
    sqeuclidean: np.ndarray = field(init=False)   # (J, J), for k-means
    cityblock: np.ndarray = field(init=False)     # (J, J), for PAM

    def __post_init__(self):
        r = np.asarray(self.rows, dtype=np.float64)
        if r.ndim != 2 or r.shape[0] < 1:
            raise ValueError(f"expected (J, n_pixels) rows, got {r.shape}")
        if (r < 0).any() or (r > self.max_entropy + 1e-9).any():
            raise ValueError("entropy features outside [0, log2(C)]")
        object.__setattr__(self, "rows", _freeze(r))
        for metric in ("sqeuclidean", "cityblock"):
            object.__setattr__(self, metric, _freeze(cdist(r, r, metric)))

    @property
    def n_maps(self) -> int:
        return self.rows.shape[0]


def entropy_features(maps) -> EntropyFeatureMatrix:
    shape = common_shape(maps)
    rows = np.empty((len(maps), shape.n_pixels))     # filled in place: one copy
    for j, m in enumerate(maps):
        rows[j] = entropy_map(m).ravel()
    return EntropyFeatureMatrix(rows=rows, max_entropy=float(np.log2(shape.n_classes)))


@dataclass(frozen=True)
class ClusterModel:
    method: str               # "kmeans" | "kmedoids"
    k: int
    assignment: np.ndarray    # (J,) cluster index per map
    centers: np.ndarray       # kmeans: (k, F) centroids; kmedoids: (k,) map indices
    inertia: float
    seed: int

    def __post_init__(self):
        if self.method not in ("kmeans", "kmedoids"):
            raise ValueError(f"unknown method {self.method!r}")
        a = np.asarray(self.assignment, dtype=np.int64)
        if set(np.unique(a)) != set(range(self.k)):
            raise ValueError("every cluster must be non-empty")
        object.__setattr__(self, "assignment", _freeze(a))
        object.__setattr__(self, "centers", _freeze(np.asarray(self.centers)))


def _canonical(assignment: np.ndarray, k: int) -> np.ndarray:
    """Relabel clusters in order of first appearance (smallest member index)."""
    order = {a: c for c, a in enumerate(dict.fromkeys(assignment.tolist()))}
    if len(order) != k:
        raise ValueError("every cluster must be non-empty")
    return np.array([order[a] for a in assignment.tolist()], dtype=np.int64)


def _check_k(k: int, features: EntropyFeatureMatrix) -> None:
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    # a map is distinct unless an earlier map has the same entropy raster
    distinct = int((~np.tril(features.cityblock == 0, -1).any(axis=1)).sum())
    if k > distinct:
        raise ValueError(f"k={k} exceeds the {distinct} distinct maps")


def _kmeanspp(d: np.ndarray, k: int, rng) -> list[int]:
    """k-means++ seeds as map indices, from squared distances ``d``."""
    n = len(d)
    seeds = [int(rng.integers(n))]
    d2 = d[seeds[0]]
    for _ in range(1, k):
        total = d2.sum()
        seeds.append(int(rng.integers(n) if total == 0 else rng.choice(n, p=d2 / total)))
        d2 = np.minimum(d2, d[seeds[-1]])
    return seeds


def _lloyd(d: np.ndarray, k: int, rng) -> tuple[np.ndarray, float]:
    """Lloyd's algorithm on the J x J squared distances ``d`` alone: row c of
    ``w`` is 1/|S| on cluster c's members S, ||x_i - mu_S||^2 = (w d)_ci -
    (w d w^T)_cc / 2, and S's sum of squares is |S| (w d w^T)_cc / 2. No
    term is as large as |x_i|^2 (as in the Gram form), so none cancels."""
    n = len(d)
    w = np.zeros((k, n))
    w[np.arange(k), _kmeanspp(d, k, rng)] = 1.0
    assign = np.full(n, -1)
    prev_inertia = np.inf
    for _ in range(300):
        wd = w @ d
        d2 = (wd - 0.5 * (wd * w).sum(axis=1, keepdims=True)).T
        new_assign = d2.argmin(axis=1)
        for empty in range(k):
            if not (new_assign == empty).any():
                # donate the globally worst-fit point to the empty cluster
                far = d2[np.arange(n), new_assign].argmax()
                new_assign[far] = empty
                d2[far] = 0
        w = (new_assign == np.arange(k)[:, None]).astype(np.float64)
        sizes = w.sum(axis=1)
        w /= sizes[:, None]
        inertia = float(sizes @ ((w @ d) * w).sum(axis=1)) / 2
        if not inertia <= prev_inertia + 1e-9 * max(1.0, prev_inertia):
            raise RuntimeError(f"k-means inertia increased: {prev_inertia!r} -> {inertia!r}")
        prev_inertia = inertia
        if (new_assign == assign).all():
            break
        assign = new_assign
    return assign, prev_inertia


def kmeans_cluster(features: EntropyFeatureMatrix, k: int, seed: int) -> ClusterModel:
    """Lloyd's algorithm, k-means++ start, best of 10 seeded restarts."""
    _check_k(k, features)
    runs = [_lloyd(features.sqeuclidean, k, np.random.default_rng((seed, restart)))
            for restart in range(10)]
    assign, inertia = min(runs, key=lambda run: run[1])     # first of any ties
    assign = _canonical(assign, k)
    centers = np.stack([features.rows[assign == c].mean(axis=0) for c in range(k)])
    return ClusterModel("kmeans", k, assign, centers, inertia, seed)


def _pam_cost(dist: np.ndarray, medoids) -> float:
    return float(dist[:, medoids].min(axis=1).sum())


def kmedoids_cluster(features: EntropyFeatureMatrix, k: int, seed: int) -> ClusterModel:
    """PAM build + swap under Manhattan distance; seed breaks cost ties."""
    _check_k(k, features)
    dist = features.cityblock
    n = features.n_maps
    rng = np.random.default_rng(seed)

    def pick(cands, costs):
        lo = costs.min()
        tied = cands[costs <= lo]
        return int(tied[rng.integers(len(tied))])

    # BUILD: greedy seeding, first medoid minimizes total distance
    medoids = [pick(np.arange(n), dist.sum(axis=1))]
    while len(medoids) < k:
        nearest = dist[:, medoids].min(axis=1)
        cands = np.array([j for j in range(n) if j not in medoids])
        costs = np.array([np.minimum(nearest, dist[:, j]).sum() for j in cands])
        medoids.append(pick(cands, costs))

    # SWAP: steepest improving swap until local optimum
    cost = _pam_cost(dist, medoids)
    while True:
        swaps, costs = [], []
        for mi, m in enumerate(medoids):
            for h in range(n):
                if h in medoids:
                    continue
                trial = medoids.copy()
                trial[mi] = h
                swaps.append((mi, h))
                costs.append(_pam_cost(dist, trial))
        costs = np.array(costs)
        if len(costs) == 0 or costs.min() >= cost:
            break
        mi, h = swaps[pick(np.arange(len(swaps)), costs)]
        medoids[mi] = h
        cost = float(costs.min())

    medoids = np.array(sorted(medoids))
    assign = _canonical(dist[:, medoids].argmin(axis=1), k)
    # distinct medoids each own their cluster: list them in canonical order
    ordered = np.empty(k, dtype=np.int64)
    ordered[assign[medoids]] = medoids
    return ClusterModel("kmedoids", k, assign, ordered, cost, seed)


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected partition agreement; 1.0 means identical partitions."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("partitions must label the same items")
    n = len(a)
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    table = np.zeros((len(ua), len(ub)), dtype=np.int64)
    np.add.at(table, (ia, ib), 1)
    comb = lambda x: x * (x - 1) / 2.0
    sum_ij = comb(table).sum()
    sum_a = comb(table.sum(axis=1)).sum()
    sum_b = comb(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb(n)
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def save_cluster_model(model: ClusterModel, path) -> None:
    """Write the model as JSON; k-means centroids go first, atomically, to a
    ``.centers`` file beside it, so a JSON always names a complete one."""
    path = Path(path)
    doc = {
        "method": model.method,
        "k": model.k,
        "seed": model.seed,
        "assignment": model.assignment.tolist(),
        "inertia": model.inertia,
    }
    if model.method == "kmedoids":
        doc["medoid_indices"] = model.centers.tolist()
    else:
        centers_file = path.with_suffix(".centers")
        write_text_atomic(centers_file, model.centers.astype("<f8").tobytes())
        doc["centers_file"] = centers_file.name
        doc["centers_shape"] = list(model.centers.shape)
    write_text_atomic(path, json.dumps(doc, indent=2))


def load_cluster_model(path) -> ClusterModel:
    path = Path(path)
    doc = json.loads(path.read_text())
    if doc["method"] == "kmedoids":
        centers = np.asarray(doc["medoid_indices"], dtype=np.int64)
    else:
        if not is_bare_file_name(doc["centers_file"]):
            raise ValueError(f"malformed cluster model {path}: centers_file must "
                             "be a file name in that directory")
        raw = (path.parent / doc["centers_file"]).read_bytes()
        centers = np.frombuffer(raw, dtype="<f8").reshape(doc["centers_shape"])
    return ClusterModel(doc["method"], doc["k"], np.asarray(doc["assignment"]),
                        centers, doc["inertia"], doc["seed"])
