"""Entropy feature extraction and investigator-map clustering.

Maps are grouped by how their per-pixel uncertainty is distributed: each
map is reduced to a flat vector of pixel-wise Shannon entropies (bits).
Entropy rasters share one unit and one range, so rows are deliberately left
unstandardized. The rows and the two J x J distance matrices between them
(squared out from the J(J-1)/2 condensed pairs) are built once, across the
cores, with the same bits on any core count:
hand-rolled k-Means (Lloyd on squared Euclidean distances, via the kernel
k-means identity) and k-Medoids/PAM (Manhattan) read only the matrices.

Cluster numbering is canonical: clusters are ordered by their smallest
member index, so identical inputs yield identical models regardless of
internal restart bookkeeping.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .grids import ProbabilityRaster, _freeze, common_shape, map_on_cores, pair_counts
from .io import is_bare_file_name, read_json, write_text_atomic


METHODS = ("kmeans", "kmedoids")


def entropy_map(p: ProbabilityRaster) -> np.ndarray:
    """(H, W) per-pixel Shannon entropy in bits, with 0*log2(0) = 0, within
    [0, log2(C)]."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p.values * np.log2(p.values)
    terms[p.values == 0] = 0.0
    h = -sum(terms)                               # plane by plane, in class order
    # fp rounding can push a hair past the closed bounds
    return np.clip(h, 0.0, np.log2(p.shape.n_classes))


@dataclass(frozen=True)
class EntropyFeatureMatrix:
    """One flattened entropy raster per investigator map, and the two J x J
    distance matrices between them that the clusterers read, each squared out
    from its J(J-1)/2 condensed pairs: half the work of the full square."""

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
        metrics = ("sqeuclidean", "cityblock")
        dists = map_on_cores(lambda m: squareform(pdist(r, m)), metrics)
        for metric, d in zip(metrics, dists):
            object.__setattr__(self, metric, _freeze(d))


def entropy_features(maps) -> EntropyFeatureMatrix:
    shape = common_shape(maps)
    rows = np.empty((len(maps), shape.n_pixels))     # filled in place: one copy

    def fill(j):
        rows[j] = entropy_map(maps[j]).ravel()

    map_on_cores(fill, range(len(maps)))
    return EntropyFeatureMatrix(rows=rows, max_entropy=float(np.log2(shape.n_classes)))


@dataclass(frozen=True)
class ClusterModel:
    method: str               # one of METHODS
    k: int
    assignment: np.ndarray    # (J,) cluster index per map
    centers: np.ndarray       # kmeans: (k, F) centroids; kmedoids: (k,) map indices
    inertia: float
    seed: int

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        a = np.asarray(self.assignment, dtype=np.int64)
        if set(np.unique(a)) != set(range(self.k)):
            raise ValueError("every cluster must be non-empty")
        object.__setattr__(self, "assignment", _freeze(a))
        object.__setattr__(self, "centers", _freeze(np.asarray(self.centers)))


def _canonical(assignment: np.ndarray) -> np.ndarray:
    """Relabel clusters in order of first appearance (smallest member index)."""
    order = {a: c for c, a in enumerate(dict.fromkeys(assignment.tolist()))}
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
    assign = _canonical(assign)
    centers = np.stack([features.rows[assign == c].mean(axis=0) for c in range(k)])
    return ClusterModel("kmeans", k, assign, centers, inertia, seed)


def kmedoids_cluster(features: EntropyFeatureMatrix, k: int, seed: int) -> ClusterModel:
    """PAM build + swap under Manhattan distance; seed breaks cost ties. Each cost
    sums a contiguous row of the symmetric matrix: a 1-D sum's bits over the maps."""
    _check_k(k, features)
    dist = features.cityblock
    rng = np.random.default_rng(seed)

    def pick(cands, costs):
        tied = cands[costs <= costs.min()]
        return int(tied[rng.integers(len(tied))])

    # BUILD: greedy seeding, first medoid minimizes total distance
    medoids = [pick(np.arange(len(dist)), dist.sum(axis=1))]
    while len(medoids) < k:
        cands = np.delete(np.arange(len(dist)), medoids)
        nearest = dist[medoids].min(axis=0)
        medoids.append(pick(cands, np.minimum(nearest, dist[cands]).sum(axis=1)))

    # SWAP: steepest improving move (medoid i -> map h) until a local optimum;
    # without medoid i, each map is as near as its nearest other medoid
    cost = float(dist[medoids].min(axis=0).sum())
    while len(medoids) < len(dist):
        near = dist[medoids]
        first, second = np.sort(near, axis=0)[:2]
        other = np.where(near == first, second, first)                 # (k, J)
        hs = np.delete(np.arange(len(dist)), medoids)
        costs = np.minimum(other[:, None], dist[hs]).sum(axis=2)       # (k, J - k)
        if costs.min() >= cost:
            break
        i, h = divmod(pick(np.arange(costs.size), costs.ravel()), len(hs))
        medoids[i], cost = int(hs[h]), float(costs.min())

    medoids = np.array(sorted(medoids))
    assign = _canonical(dist[:, medoids].argmin(axis=1))
    # distinct medoids each own their cluster: list them in canonical order
    ordered = np.empty(k, dtype=np.int64)
    ordered[assign[medoids]] = medoids
    return ClusterModel("kmedoids", k, assign, ordered, cost, seed)


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected partition agreement; 1.0 means identical partitions."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("partitions must label the same items")
    n = len(a)
    if n < 2:           # two partitions of 0 or 1 item always agree
        return 1.0
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    table = pair_counts(ia.reshape(1, -1), ib.reshape(1, -1),
                        max(len(ua), len(ub)))[0, :len(ua), :len(ub)]
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
    doc = read_json(path, "cluster model", ("method", "k", "assignment", "inertia", "seed"))
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
