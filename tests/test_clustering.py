"""Entropy features and the hand-rolled k-Means / k-Medoids solvers."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mapfuse.clustering as clustering
from mapfuse.clustering import (ClusterModel, EntropyFeatureMatrix,
                                adjusted_rand_index, entropy_features,
                                entropy_map, kmeans_cluster, kmedoids_cluster,
                                load_cluster_model, save_cluster_model)
from mapfuse.grids import GridShape, ProbabilityRaster

from conftest import make_prob, random_prob


# ---------------------------------------------------------------- entropy

def test_entropy_exact_values():
    p = make_prob([[[0.25, 0.25, 0.25, 0.25],
                    [1.0, 0.0, 0.0, 0.0],
                    [0.5, 0.5, 0.0, 0.0]]])
    h = entropy_map(p).values[0]
    assert h[0] == 2.0
    assert h[1] == 0.0
    assert h[2] == 1.0


def test_entropy_bounds_and_uniform_maximum():
    rng = np.random.default_rng(0)
    for c in (2, 3, 4, 6):
        p = random_prob(rng, 20, 20, c)
        h = entropy_map(p).values
        assert (h >= 0).all() and (h <= np.log2(c)).all()
        uniform = make_prob(np.full((1, 1, c), 1.0 / c))
        assert entropy_map(uniform).values[0, 0] == pytest.approx(np.log2(c), abs=1e-12)
        # maximum is attained only at the uniform vector
        assert (h > np.log2(c) - 1e-12).sum() == 0


def test_entropy_features_rows_are_flat_maps():
    rng = np.random.default_rng(1)
    maps = [random_prob(rng, 4, 3, 4) for _ in range(2)]
    f = entropy_features(maps)
    assert f.n_maps == 2 and f.n_features == 12
    assert f.max_entropy == 2.0
    assert (f.rows[1] == entropy_map(maps[1]).values.ravel()).all()
    with pytest.raises(ValueError):
        entropy_features([])
    with pytest.raises(ValueError, match="shape mismatch"):
        entropy_features([maps[0], random_prob(rng, 3, 3, 4)])


def _features(rows, max_entropy=20.0):
    return EntropyFeatureMatrix(rows=np.asarray(rows, dtype=np.float64),
                                max_entropy=max_entropy)


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
    real = clustering.cdist
    monkeypatch.setattr(clustering, "cdist",
                        lambda a, b, metric: -real(a, b, metric))
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
