"""Entropy features and the hand-rolled k-Means / k-Medoids solvers."""

import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import mapfuse.clustering as clustering
from mapfuse.clustering import (ClusterModel, EntropyFeatureMatrix,
                                adjusted_rand_index, entropy_features,
                                entropy_map, kmeans_cluster, kmedoids_cluster,
                                load_cluster_model, save_cluster_model)
from mapfuse.grids import GridShape, ProbabilityRaster
from mapfuse.synth import (InvestigatorSpec, SceneSpec, generate_investigator,
                           generate_scene, style_kernel)

from conftest import make_prob, random_prob


# ---------------------------------------------------------------- entropy

def test_entropy_exact_values():
    p = make_prob(np.transpose([[[0.25, 0.25, 0.25, 0.25],
                                 [1.0, 0.0, 0.0, 0.0],
                                 [0.5, 0.5, 0.0, 0.0]]], (2, 0, 1)))
    h = entropy_map(p)[0]
    assert h[0] == 2.0
    assert h[1] == 0.0
    assert h[2] == 1.0


def _entropy_map_reference(p):
    """The np.where form, reduced by numpy over the class axis of pixel vectors."""
    v = np.moveaxis(p.values, 0, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(v > 0, v * np.log2(v), 0.0)
    return np.clip(-np.ascontiguousarray(terms).sum(axis=2), 0.0,
                   np.log2(p.shape.n_classes))


def _with_exact_zeros(rng, c, size=40):
    g = rng.gamma(0.5, size=(size, size, c))
    g[rng.random(g.shape) < 0.2] = 0.0
    g[0, 0] = 0.0
    g[0, 0, c - 1] = 1.0            # a one-hot pixel: entropy exactly 0
    g[g.sum(axis=2) == 0, 0] = 1.0
    return make_prob((g / g.sum(axis=2, keepdims=True)).transpose(2, 0, 1))


@pytest.mark.parametrize("c", [2, 4, 7])
def test_entropy_map_has_the_bits_of_the_reduction_below_8_classes(c):
    p = _with_exact_zeros(np.random.default_rng(c), c)
    assert (p.values == 0).any()
    assert np.array_equal(entropy_map(p), _entropy_map_reference(p))


def test_entropy_map_matches_the_reduction_to_rounding_at_12_classes():
    """numpy sums 8 or more elements pairwise, not in class order."""
    p = _with_exact_zeros(np.random.default_rng(12), 12)
    got, want = entropy_map(p), _entropy_map_reference(p)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_entropy_bounds_and_uniform_maximum():
    rng = np.random.default_rng(0)
    for c in (2, 3, 4, 6):
        p = random_prob(rng, 20, 20, c)
        h = entropy_map(p)
        assert (h >= 0).all() and (h <= np.log2(c)).all()
        uniform = make_prob(np.full((c, 1, 1), 1.0 / c))
        assert entropy_map(uniform)[0, 0] == pytest.approx(np.log2(c), abs=1e-12)
        # maximum is attained only at the uniform vector
        assert (h > np.log2(c) - 1e-12).sum() == 0


def test_entropy_features_rows_are_flat_maps():
    rng = np.random.default_rng(1)
    maps = [random_prob(rng, 4, 3, 4) for _ in range(2)]
    f = entropy_features(maps)
    assert f.rows.shape == (2, 12)
    assert f.max_entropy == 2.0
    assert (f.rows[1] == entropy_map(maps[1]).ravel()).all()
    with pytest.raises(ValueError):
        entropy_features([])
    with pytest.raises(ValueError, match="shape mismatch"):
        entropy_features([maps[0], random_prob(rng, 3, 3, 4)])


def test_feature_matrix_rejects_entropy_outside_its_range():
    # the one range check on entropy values: [0, log2(C)], here C = 4
    EntropyFeatureMatrix(rows=np.array([[0.0, 2.0]]), max_entropy=2.0)
    for bad in ([0.0, 2.1], [-0.01, 1.0]):
        with pytest.raises(ValueError, match="outside"):
            EntropyFeatureMatrix(rows=np.array([bad]), max_entropy=2.0)


def _features(rows, max_entropy=20.0):
    return EntropyFeatureMatrix(rows=np.asarray(rows, dtype=np.float64),
                                max_entropy=max_entropy)


def test_feature_matrix_distances_are_cdist():
    # the condensed pairs, squared out, give the full-square matrix's bits
    for n_maps in (1, 2, 7):
        rows = np.random.default_rng(2).uniform(0, 2, size=(n_maps, 30))
        f = _features(rows)
        for metric in ("sqeuclidean", "cityblock"):
            d = getattr(f, metric)
            assert d.shape == (n_maps, n_maps)
            assert (d == cdist(rows, rows, metric)).all()
            assert not d.flags.writeable


def test_clusterers_never_reach_the_rows_after_the_features(monkeypatch):
    f = _features(np.random.default_rng(3).uniform(0, 2, size=(9, 40)))

    def refuse(*args, **kwargs):
        raise AssertionError("pixel-length distance computed per call")

    monkeypatch.setattr(clustering, "pdist", refuse)
    for fit in (kmeans_cluster, kmedoids_cluster):
        assert fit(f, 3, seed=0).k == 3


# ----------------------------------------------------------------- kmeans

def test_kmeans_separable_pairs():
    f = _features([[0.0, 0.1], [0.1, 0.0], [5.0, 5.1], [5.1, 5.0]])
    model = kmeans_cluster(f, 2, seed=0)
    assert model.method == "kmeans"
    assert list(model.assignment) == [0, 0, 1, 1]
    assert model.inertia == pytest.approx(0.02)
    # canonical numbering: cluster of map 0 is cluster 0
    assert model.assignment[0] == 0


def test_kmeans_k_equals_j():
    f = _features([[0.0], [1.0], [2.0], [3.0]])
    model = kmeans_cluster(f, 4, seed=3)
    assert sorted(model.assignment) == [0, 1, 2, 3]
    assert model.inertia == 0.0


def test_kmeans_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(7)
    f = _features(rng.uniform(0, 10, size=(12, 6)))
    a = kmeans_cluster(f, 3, seed=11)
    b = kmeans_cluster(f, 3, seed=11)
    assert (a.assignment == b.assignment).all()
    assert a.inertia == b.inertia
    assert (a.centers == b.centers).all()


def test_kmeans_centers_are_cluster_means():
    rng = np.random.default_rng(8)
    f = _features(rng.uniform(0, 10, size=(10, 4)))
    model = kmeans_cluster(f, 3, seed=0)
    for c in range(3):
        members = f.rows[model.assignment == c]
        assert np.abs(model.centers[c] - members.mean(axis=0)).max() < 1e-9


def test_planted_two_groups_recovered():
    # groups offset by ~10 sigma in feature space
    rng = np.random.default_rng(9)
    lo = rng.normal(1.0, 0.1, size=(6, 8))
    hi = rng.normal(2.0, 0.1, size=(6, 8))
    f = _features(np.clip(np.vstack([lo, hi]), 0.0, 20.0))
    planted = np.array([0] * 6 + [1] * 6)
    for fit in (kmeans_cluster, kmedoids_cluster):
        model = fit(f, 2, seed=1)
        assert adjusted_rand_index(model.assignment, planted) == 1.0


# Reference: the row-based k-means that the J x J form replaced. It seeds
# and runs Lloyd on the (J, F) rows with centroid rows, and draws from the
# same seeded streams, so assignments must match exactly and the inertia
# to rounding.

def _kmeanspp_rows(x, k, rng):
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total == 0:
            centers[c] = x[rng.integers(n)]
            continue
        centers[c] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))
    return centers


def _lloyd_rows(x, k, rng):
    centers = _kmeanspp_rows(x, k, rng)
    assign = np.full(x.shape[0], -1)
    prev_inertia = np.inf
    for _ in range(300):
        d2 = cdist(x, centers, "sqeuclidean")
        new_assign = d2.argmin(axis=1)
        for empty in range(k):
            if not (new_assign == empty).any():
                far = d2[np.arange(len(new_assign)), new_assign].argmax()
                new_assign[far] = empty
                d2[far] = 0
        for c in range(k):
            centers[c] = x[new_assign == c].mean(axis=0)
        inertia = float(((x - centers[new_assign]) ** 2).sum())
        assert inertia <= prev_inertia + 1e-9 * max(1.0, prev_inertia)
        prev_inertia = inertia
        if (new_assign == assign).all():
            break
        assign = new_assign
    return assign, prev_inertia


def kmeans_rows(x, k, seed):
    """Best of 10 restarts, canonical numbering, as ``kmeans_cluster``."""
    best = None
    for restart in range(10):
        assign, inertia = _lloyd_rows(x, k, np.random.default_rng((seed, restart)))
        if best is None or inertia < best[1]:
            best = (assign, inertia)
    _, first = np.unique(best[0], return_index=True)
    return np.argsort(np.argsort(first))[best[0]], best[1]


def assert_matches_rows(rows, k, seed):
    rows = np.asarray(rows, dtype=np.float64)
    model = kmeans_cluster(_features(rows), k, seed)
    assign, inertia = kmeans_rows(rows, k, seed)
    assert (model.assignment == assign).all()
    # an exact-zero inertia (repeated maps) is rounding noise in the rows
    scatter = float(((rows - rows.mean(axis=0)) ** 2).sum())
    assert model.inertia == pytest.approx(inertia, rel=1e-12, abs=1e-12 * scatter)


def test_kmeans_matches_row_oracle_on_random_panels():
    rng = np.random.default_rng(20)
    compared = 0
    for panel in range(300):
        n = int(rng.integers(5, 16))
        rows = rng.uniform(0, 2, size=(n, int(rng.integers(1, 9))))
        if panel % 5 == 0:             # repeated maps, still >= 4 distinct
            rows[rng.integers(4, n, size=n // 3)] = rows[0]
        for k in (2, 3, 4):
            assert_matches_rows(rows, k, seed=panel)
            compared += 1
    assert compared == 900


def test_kmeans_matches_row_oracle_near_ties():
    # every row shares a large offset, so |x|^2 dwarfs the distances
    # (as in entropy rasters), and map 4 sits a hair off the midpoint
    # between the two pairs, nearly equidistant from both centroids
    base = np.array([[0.0, 0.0], [0.0, 1e-3], [1.0, 0.0], [1.0, 1e-3],
                     [0.5 + 1e-11, 5e-4]])
    rows = 1.5 + np.tile(base, (1, 500))
    for k in (2, 3):
        for seed in range(10):
            assert_matches_rows(rows, k, seed)


def test_kmeans_matches_row_oracle_k_equals_j():
    rows = np.random.default_rng(21).uniform(0, 2, size=(6, 5))
    assert_matches_rows(rows, 6, seed=4)
    assert kmeans_cluster(_features(rows), 6, seed=4).inertia == 0.0


def two_group_maps(seed, n_per_group=5, size=32):
    truth = generate_scene(SceneSpec(shape=GridShape(size, size, 4), n_blobs=8,
                                     class_mix=(0.25,) * 4, seed=seed))
    return [generate_investigator(truth, InvestigatorSpec(
                noise_rate=nr, confusion_kernel=style_kernel(4, g), softness=soft,
                seed=100 * seed + 10 * g + r))
            for g, (nr, soft) in enumerate(zip((0.05, 0.5), (30.0, 3.0)))
            for r in range(n_per_group)]


def test_kmeans_matches_row_oracle_on_entropy_features():
    for seed in (1, 2):
        rows = entropy_features(two_group_maps(seed)).rows
        for k in (2, 3, 4):
            assert_matches_rows(rows, k, seed)


def test_fewer_distinct_maps_than_k_is_a_value_error():
    rows = np.random.default_rng(22).uniform(0, 2, size=(3, 5))
    f = _features(rows[[0, 1, 2, 0, 1, 2, 0, 0]])
    for fit in (kmeans_cluster, kmedoids_cluster):
        with pytest.raises(ValueError, match="k=4 exceeds the 3 distinct maps"):
            fit(f, 4, seed=0)
        assert fit(f, 3, seed=0).k == 3


# --------------------------------------------------------------- kmedoids

def brute_force_kmedoids(rows, k):
    """Exhaustive PAM oracle: try every medoid subset, L1 assignment."""
    n = len(rows)
    best_cost, best = np.inf, None
    for med in itertools.combinations(range(n), k):
        d = np.abs(rows[:, None, :] - rows[None, list(med), :]).sum(axis=2)
        cost = d.min(axis=1).sum()
        if cost < best_cost - 1e-12:
            best_cost, best = cost, med
    return best_cost, best


def test_kmedoids_three_point_toy():
    f = _features([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0]])
    model = kmedoids_cluster(f, 2, seed=0)
    assert list(model.assignment) == [0, 0, 1]
    assert model.inertia == pytest.approx(1.0)
    assert model.centers[0] in (0, 1)     # either pair member works
    assert model.centers[1] == 2
    cost, _ = brute_force_kmedoids(f.rows, 2)
    assert model.inertia == pytest.approx(cost)


def swap_cost(rows, medoids):
    d = np.abs(rows[:, None, :] - rows[None, list(medoids), :]).sum(axis=2)
    return d.min(axis=1).sum()


def test_kmedoids_solution_quality_on_random_instances():
    # Steepest-descent swap search guarantees a *local* optimum: the global
    # optimum is a lower bound on its cost, and no single medoid/non-medoid
    # exchange may improve it.  Exact global matches are pinned separately
    # on crafted instances with an unambiguous basin.
    rng = np.random.default_rng(10)
    for trial in range(10):
        rows = rng.uniform(0, 10, size=(7, 3))
        f = _features(rows)
        k = int(rng.integers(2, 4))
        model = kmedoids_cluster(f, k, seed=trial)
        best_cost, _ = brute_force_kmedoids(rows, k)
        assert model.inertia >= best_cost - 1e-9
        medoids = set(int(c) for c in model.centers)
        assert model.inertia == pytest.approx(swap_cost(rows, medoids))
        for m in sorted(medoids):
            for x in range(len(rows)):
                if x in medoids:
                    continue
                trial_set = (medoids - {m}) | {x}
                assert swap_cost(rows, trial_set) >= model.inertia - 1e-9


def loop_kmedoids(dist, k, seed):
    """The PAM that scored each trial medoid list in a Python loop, as an
    oracle: (canonical assignment, medoids in canonical order, inertia)."""
    n = len(dist)
    rng = np.random.default_rng(seed)

    def pick(cands, costs):
        lo = costs.min()
        tied = cands[costs <= lo]
        return int(tied[rng.integers(len(tied))])

    def pam_cost(medoids):
        return float(dist[:, medoids].min(axis=1).sum())

    medoids = [pick(np.arange(n), dist.sum(axis=1))]
    while len(medoids) < k:
        nearest = dist[:, medoids].min(axis=1)
        cands = np.array([j for j in range(n) if j not in medoids])
        costs = np.array([np.minimum(nearest, dist[:, j]).sum() for j in cands])
        medoids.append(pick(cands, costs))
    cost = pam_cost(medoids)
    while True:
        swaps, costs = [], []
        for mi in range(len(medoids)):
            for h in range(n):
                if h in medoids:
                    continue
                trial = medoids.copy()
                trial[mi] = h
                swaps.append((mi, h))
                costs.append(pam_cost(trial))
        costs = np.array(costs)
        if len(costs) == 0 or costs.min() >= cost:
            break
        mi, h = swaps[pick(np.arange(len(swaps)), costs)]
        medoids[mi] = h
        cost = float(costs.min())
    medoids = np.array(sorted(medoids))
    assign = clustering._canonical(dist[:, medoids].argmin(axis=1))
    ordered = np.empty(k, dtype=np.int64)
    ordered[assign[medoids]] = medoids
    return assign, ordered, cost


@pytest.mark.parametrize("kind", ["random", "ties", "duplicates"])
def test_kmedoids_matches_the_loop_oracle(kind):
    """The array-scored PAM makes the loop's every choice: same assignment,
    medoids and inertia bits, also where many swaps tie on cost."""
    rng = np.random.default_rng(["random", "ties", "duplicates"].index(kind))
    for _ in range(40):
        n = int(rng.integers(3, 50))
        if kind == "random":
            rows = rng.uniform(0, 2, size=(n, int(rng.integers(1, 30))))
        elif kind == "ties":      # cityblock distances from {0, 0.5, 1} tie often
            rows = rng.integers(0, 3, size=(n, int(rng.integers(1, 6)))) / 2
        else:                     # a few distinct rows, each repeated
            base = rng.uniform(0, 2, size=(int(rng.integers(2, 9)), 5))
            rows = base[rng.integers(0, len(base), size=n)]
        f = _features(rows)
        distinct = len(np.unique(rows, axis=0))
        if distinct < 2:
            continue
        for k in range(2, min(7, distinct) + 1):
            seed = int(rng.integers(2 ** 31))
            model = kmedoids_cluster(f, k, seed)
            assign, medoids, inertia = loop_kmedoids(f.cityblock, k, seed)
            assert model.assignment.tolist() == assign.tolist()
            assert model.centers.tolist() == medoids.tolist()
            assert repr(model.inertia) == repr(inertia)


def test_kmedoids_separable_pairs_medoids_are_members():
    f = _features([[0.0, 0.1], [0.1, 0.0], [5.0, 5.1], [5.1, 5.0]])
    model = kmedoids_cluster(f, 2, seed=0)
    assert list(model.assignment) == [0, 0, 1, 1]
    assert model.centers[0] in (0, 1)
    assert model.centers[1] in (2, 3)


def test_kmedoids_deterministic():
    rng = np.random.default_rng(11)
    f = _features(rng.uniform(0, 10, size=(9, 5)))
    a = kmedoids_cluster(f, 3, seed=2)
    b = kmedoids_cluster(f, 3, seed=2)
    assert (a.assignment == b.assignment).all()
    assert (a.centers == b.centers).all()


def test_cluster_k_validation():
    f = _features([[0.0], [1.0], [2.0]])
    for fit in (kmeans_cluster, kmedoids_cluster):
        with pytest.raises(ValueError, match="at least 2"):
            fit(f, 1, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            fit(f, 4, seed=0)


# ---------------------------------------------------------------- model

def test_cluster_model_rejects_bad_assignment():
    with pytest.raises(ValueError):
        ClusterModel(method="kmeans", k=2, assignment=np.array([0, 5, 0]),
                     centers=np.zeros((2, 12)), inertia=0.0, seed=0)
    with pytest.raises(ValueError, match="non-empty"):
        ClusterModel(method="kmeans", k=2, assignment=np.array([0, 0, 0]),
                     centers=np.zeros((2, 12)), inertia=0.0, seed=0)


def test_lloyd_inertia_check_is_a_runtime_error(monkeypatch):
    # assigning every point to its farthest centroid raises the inertia;
    # the check must fire as an explicit error, also under python -O
    real = clustering.pdist
    monkeypatch.setattr(clustering, "pdist", lambda x, metric: -real(x, metric))
    rows = np.random.default_rng(5).random((8, 6))
    with pytest.raises(RuntimeError, match="inertia increased"):
        kmeans_cluster(_features(rows, max_entropy=1.0), 3, seed=0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=4, max_value=10),
       st.integers(min_value=2, max_value=4))
def test_partition_property(seed, n, k):
    rng = np.random.default_rng(seed)
    f = _features(rng.uniform(0, 10, size=(n, 3)))
    for fit in (kmeans_cluster, kmedoids_cluster):
        model = fit(f, min(k, n), seed=seed)
        sizes = np.bincount(model.assignment, minlength=model.k)
        assert sizes.sum() == n
        assert (sizes > 0).all()
        # canonical numbering is order of first appearance
        firsts = [np.flatnonzero(model.assignment == c)[0] for c in range(model.k)]
        assert firsts == sorted(firsts)


# --------------------------------------------------------------------- ARI

@pytest.mark.parametrize("a, b", [([0], [0]), ([0], [1]), ([], [])])
def test_adjusted_rand_index_of_fewer_than_two_items_is_1(a, b):
    # no pair to disagree on; the suite's warning filter catches a 0 / 0
    assert adjusted_rand_index(a, b) == 1.0


def test_adjusted_rand_index_values():
    assert adjusted_rand_index([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert adjusted_rand_index([0, 0, 1, 1], [0, 1, 0, 1]) < 0.5
    assert adjusted_rand_index([0, 1, 2, 3], [0, 1, 2, 3]) == 1.0
    # known hand value: one element moved between otherwise equal pairs
    a = [0, 0, 0, 1, 1, 1]
    b = [0, 0, 1, 1, 1, 1]
    num = adjusted_rand_index(a, b)
    assert 0.0 < num < 1.0
    assert num == pytest.approx(adjusted_rand_index(b, a))


def _ari_reference(a, b):
    """The index with its contingency table as one bincount of the inverse-index
    pairs, as an oracle."""
    a, b = np.asarray(a), np.asarray(b)
    ua, ia = np.unique(a, return_inverse=True)
    ub, ib = np.unique(b, return_inverse=True)
    table = np.bincount(ia * len(ub) + ib, minlength=len(ua) * len(ub)).reshape(
        len(ua), len(ub))
    comb = lambda x: x * (x - 1) / 2.0
    sum_ij = comb(table).sum()
    sum_a = comb(table.sum(axis=1)).sum()
    sum_b = comb(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb(len(a))
    max_index = 0.5 * (sum_a + sum_b)
    if max_index == expected:
        return 1.0
    return float((sum_ij - expected) / (max_index - expected))


def test_adjusted_rand_index_matches_the_bincount_table():
    # negative and non-contiguous labels, more clusters on either side
    rng = np.random.default_rng(19)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        a = rng.choice([-7, -1, 0, 3, 100, 2 ** 40], size=n)
        b = rng.choice(rng.integers(-50, 50, size=int(rng.integers(1, 12))), size=n)
        assert repr(adjusted_rand_index(a, b)) == repr(_ari_reference(a, b))


# -------------------------------------------------------------- model I/O

def test_cluster_model_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    f = _features(rng.uniform(0, 10, size=(8, 4)))
    for fit in (kmeans_cluster, kmedoids_cluster):
        model = fit(f, 2, seed=6)
        save_cluster_model(model, tmp_path / f"{model.method}.json")
        back = load_cluster_model(tmp_path / f"{model.method}.json")
        assert back.method == model.method
        assert back.k == model.k
        assert (back.assignment == model.assignment).all()
        assert (np.asarray(back.centers) == np.asarray(model.centers)).all()
        assert back.inertia == model.inertia


@pytest.mark.parametrize("name", ["../outside.bin", "sub/x.centers", "ABSOLUTE"])
def test_cluster_model_centers_file_stays_in_its_directory(tmp_path, name):
    f = _features(np.random.default_rng(15).uniform(0, 10, size=(6, 3)))
    path = tmp_path / "models" / "cluster_kmeans_k2.json"
    path.parent.mkdir()
    save_cluster_model(kmeans_cluster(f, 2, seed=1), path)
    assert load_cluster_model(path).k == 2          # the saved model loads
    doc = json.loads(path.read_text())
    outside = tmp_path / "outside.bin"
    outside.write_bytes((path.parent / doc["centers_file"]).read_bytes())
    doc["centers_file"] = str(outside) if name == "ABSOLUTE" else name
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="centers_file") as info:
        load_cluster_model(path)
    assert str(path) in str(info.value)


def test_cluster_files_replace_centers_first_and_atomically(tmp_path, monkeypatch):
    f = _features(np.random.default_rng(16).uniform(0, 10, size=(6, 3)))
    path = tmp_path / "cluster_kmeans_k2.json"
    save_cluster_model(kmeans_cluster(f, 2, seed=1), path)
    old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(old) == ["cluster_kmeans_k2.centers", "cluster_kmeans_k2.json"]

    replaced = []
    real_replace = os.replace

    def record(src, dst):
        replaced.append(os.path.basename(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", record)
    save_cluster_model(kmeans_cluster(f, 3, seed=1), path)
    assert replaced == ["cluster_kmeans_k2.centers", "cluster_kmeans_k2.json"]
    assert load_cluster_model(path).k == 3

    def failing(src, dst):
        raise OSError("disk full")

    new = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(os, "replace", failing)
    for k in (2, 4):
        with pytest.raises(OSError, match="disk full"):
            save_cluster_model(kmeans_cluster(f, k, seed=1), path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == new

