"""Conjugate fusion: closed form vs numerical integration, and invariants."""

import numpy as np
import pytest

from mapfuse.fusion import fuse, fused_label_map
from mapfuse.grids import (DEFAULT_EPSILON, GridShape, ProbabilityRaster, hard_classify,
                           regularize)

from conftest import make_prob, pixel, random_prob


def simplex_grid_mean(alpha_post, step=1.0 / 200):
    """Posterior mean by brute-force quadrature on the 3-simplex.

    Independent of the closed form: evaluates the unnormalized Dirichlet
    density prod_c theta_c^(alpha_c - 1) on interior grid nodes and takes
    the density-weighted average of theta. Normalization cancels in the
    ratio, so a plain Riemann sum suffices.
    """
    t1 = np.arange(step, 1.0, step)
    g1, g2 = np.meshgrid(t1, t1, indexing="ij")
    keep = g1 + g2 < 1.0 - step / 2
    theta = np.stack([g1[keep], g2[keep], 1.0 - g1[keep] - g2[keep]], axis=1)
    log_dens = ((np.asarray(alpha_post) - 1.0) * np.log(theta)).sum(axis=1)
    dens = np.exp(log_dens - log_dens.max())
    return (theta * dens[:, None]).sum(axis=0) / dens.sum()


def test_closed_form_matches_quadrature_on_pinned_case():
    # three one-hot voters: two for class 0, one for class 1
    maps = [pixel(v) for v in
            ([1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])]
    post = fuse(maps)
    expected = np.array([3.0, 2.0, 1.0]) / 6.0
    assert np.abs(post.values[:, 0, 0] - expected).max() < 1e-15
    alpha = 6.0 * post.values[:, 0, 0]                   # (C + W) * mean
    assert np.abs(alpha - (3.0, 2.0, 1.0)).max() < 1e-15
    grid = simplex_grid_mean(alpha)
    assert np.abs(post.values[:, 0, 0] - grid).max() < 1e-2


def test_closed_form_matches_quadrature_random_cases():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n_maps = int(rng.integers(1, 4))
        w = rng.uniform(0.2, 3.0, size=n_maps)
        maps = [random_prob(rng, 1, 1, 3) for _ in range(n_maps)]
        post = fuse(maps, weights=w)
        grid = simplex_grid_mean((3 + w.sum()) * post.values[:, 0, 0])
        assert np.abs(post.values[:, 0, 0] - grid).max() < 1e-2


def test_default_weights_are_ones():
    rng = np.random.default_rng(3)
    maps = [random_prob(rng, 2, 2, 4) for _ in range(3)]
    a = fuse(maps)
    b = fuse(maps, weights=np.ones(3))
    assert (a.values == b.values).all()


def test_permutation_invariance():
    rng = np.random.default_rng(4)
    maps = [random_prob(rng, 3, 3, 4) for _ in range(5)]
    w = rng.uniform(0.5, 2.0, size=5)
    perm = [3, 0, 4, 1, 2]
    a = fuse(maps, weights=w)
    b = fuse([maps[i] for i in perm], weights=w[perm])
    assert np.abs(a.values - b.values).max() < 1e-14


def test_class_relabeling_equivariance():
    rng = np.random.default_rng(5)
    maps = [random_prob(rng, 2, 3, 4) for _ in range(3)]
    perm = np.array([2, 0, 3, 1])
    a = fuse(maps)
    permuted = [ProbabilityRaster(m.shape, m.values[perm]) for m in maps]
    b = fuse(permuted)
    assert (a.values[perm] == b.values).all()


def test_one_hot_vote_increases_its_class():
    rng = np.random.default_rng(6)
    maps = [random_prob(rng, 1, 1, 4) for _ in range(3)]
    before = fuse(maps).values[:, 0, 0]
    onehot = regularize(np.array([0.0, 0.0, 1.0, 0.0]))
    after = fuse(maps + [pixel(onehot)]).values[:, 0, 0]
    assert after[2] > before[2]


def test_prior_dominance_limit():
    rng = np.random.default_rng(7)
    maps = [random_prob(rng, 2, 2, 4) for _ in range(3)]
    post = fuse(maps, weights=np.full(3, 1e-12))
    assert np.abs(post.values - 0.25).max() < 1e-9


def test_agreement_with_counting():
    # near-one-hot inputs: pseudo-count increments equal the vote counts
    votes = [0, 0, 2, 1, 0]
    maps = []
    for c in votes:
        v = np.zeros((3, 1, 1))
        v[c, 0, 0] = 1.0
        maps.append(make_prob(regularize(v)))
    post = fuse(maps)
    counts = np.array([3.0, 1.0, 1.0])
    alpha = 8.0 * post.values[:, 0, 0]                   # (C + W) * mean
    assert (np.abs((alpha - 1.0) - counts).max()
            < len(votes) * 3 * DEFAULT_EPSILON)


def _fuse_reference(maps, weights):
    """The weighted sum the closed form reads, as a Python sum of products."""
    w = np.asarray(weights, dtype=np.float64)
    evidence = sum(w_j * m.values for w_j, m in zip(w, maps))
    return (1.0 + evidence) / (maps[0].shape.n_classes + w.sum())


@pytest.mark.parametrize("weights", [(1.0, 1.0, 1.0, 1.0), (0.3, 1.0, 2.5, 7.125),
                                     (4.0, 0.1, 1.0, 1.0)])
def test_fuse_has_the_bits_of_the_sum_of_products(weights):
    rng = np.random.default_rng(len(weights))
    maps = [random_prob(rng, 9, 11, 5) for _ in weights]
    assert np.array_equal(fuse(maps, weights=weights).values,
                          _fuse_reference(maps, weights))
    assert np.array_equal(fuse(maps).values, _fuse_reference(maps, np.ones(4)))


def test_fused_label_map_examples():
    mean = np.array([[[0.5, 1 / 6, 1 / 6, 1 / 6],
                      [0.25, 0.25, 0.25, 0.25],
                      [0.1, 0.2, 0.3, 0.4]]]).transpose(2, 0, 1)
    post = ProbabilityRaster(GridShape(3, 1, 4), mean)
    assert list(fused_label_map(post).values[0]) == [0, 0, 3]


def test_fuse_validation_errors():
    rng = np.random.default_rng(8)
    maps = [random_prob(rng, 2, 2, 3) for _ in range(2)]
    with pytest.raises(ValueError, match="at least one"):
        fuse([])
    with pytest.raises(ValueError, match="shape mismatch"):
        fuse([maps[0], random_prob(rng, 2, 3, 3)])
    with pytest.raises(ValueError, match="expected 2 weights"):
        fuse(maps, weights=[1.0])
    with pytest.raises(ValueError, match="positive"):
        fuse(maps, weights=[1.0, 0.0])
    with pytest.raises(ValueError, match="positive"):
        fuse(maps, weights=[1.0, np.inf])


def test_regularize_preserves_argmax_and_interior():
    rng = np.random.default_rng(10)
    for _ in range(200):
        v = rng.gamma(0.3, size=(5, 1, 1))
        v[rng.random(size=v.shape) < 0.3] = 0.0
        if v.sum() == 0:
            continue
        v /= v.sum(axis=0)
        out = regularize(v)
        assert (out > 0).all()
        assert abs(out.sum() - 1.0) < 1e-9
        flat, oflat = v[:, 0, 0], out[:, 0, 0]
        if (flat == flat.max()).sum() == 1:
            assert oflat.argmax() == flat.argmax()


def test_regularize_rejects_negative():
    with pytest.raises(ValueError, match="negative"):
        regularize(np.array([0.5, 0.6, -0.1]))
