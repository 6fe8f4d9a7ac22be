"""Confusion metrics, stratified Monte Carlo, and the paired t-test."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapfuse.accuracy import (ConfusionMatrix, accuracy_report, confusion,
                              monte_carlo_assess, paired_t_test,
                              stratified_samples, write_mc_csv)
from mapfuse.grids import NODATA, GridShape, LabelRaster

from conftest import make_labels


# ------------------------------------------------------------- confusion

def test_identical_maps_are_diagonal():
    rng = np.random.default_rng(0)
    v = rng.integers(0, 4, size=(10, 10))
    m = make_labels(v, n_classes=4)
    cm = confusion(m, m)
    assert cm.counts.sum() == 100
    assert (cm.counts == np.diag(np.diag(cm.counts))).all()
    assert accuracy_report(cm).overall == 1.0


def test_constant_prediction_rows():
    ref = make_labels(np.repeat(np.arange(4), 100).reshape(20, 20), n_classes=4)
    pred = make_labels(np.zeros((20, 20), dtype=np.int64), n_classes=4)
    cm = confusion(pred, ref)
    assert (cm.counts[0] == (100, 100, 100, 100)).all()
    assert (cm.counts[1:] == 0).all()
    rep = accuracy_report(cm)
    assert rep.overall == 0.25
    assert rep.users[0] == 0.25
    assert np.isnan(rep.users[1:]).all()       # never predicted
    assert (rep.producers == (1.0, 0.0, 0.0, 0.0)).all()


def test_two_class_hand_example():
    cm = ConfusionMatrix(np.array([[40, 10], [5, 45]]), ("a", "b"))
    rep = accuracy_report(cm)
    assert rep.overall == pytest.approx(0.85)
    assert rep.users == pytest.approx((40 / 50, 45 / 50))
    assert rep.producers == pytest.approx((40 / 45, 45 / 55))


def test_confusion_skips_nodata_and_validates():
    ref = make_labels(np.array([[0, 1], [NODATA, 1]]), n_classes=2)
    pred = make_labels(np.array([[0, NODATA], [1, 1]]), n_classes=2)
    cm = confusion(pred, ref)
    assert cm.counts.sum() == 2                # only two clean pairs remain
    all_nodata = make_labels(np.full((2, 2), NODATA, dtype=np.int64), n_classes=2)
    with pytest.raises(ValueError, match="no valid pixels"):
        confusion(pred, all_nodata)
    with pytest.raises(ValueError, match="shape mismatch"):
        confusion(pred, make_labels(np.zeros((3, 2), dtype=np.int64), n_classes=2))
    with pytest.raises(ValueError, match="out of range"):
        confusion(pred, ref, sample_indices=[0, 4])


def test_oa_identities_on_random_matrices():
    """OA == sum_c UA_c * row_share_c == sum_c PA_c * col_share_c."""
    rng = np.random.default_rng(7)
    for _ in range(1000):
        c = int(rng.integers(2, 7))
        counts = rng.integers(0, 50, size=(c, c))
        if counts.sum() == 0:
            counts[0, 0] = 1
        cm = ConfusionMatrix(counts, tuple(f"c{i}" for i in range(c)))
        rep = accuracy_report(cm)
        rows = cm.counts.sum(axis=1) / cm.counts.sum()
        cols = cm.counts.sum(axis=0) / cm.counts.sum()
        via_users = np.nansum(np.where(rows > 0, rep.users * rows, 0.0))
        via_producers = np.nansum(np.where(cols > 0, rep.producers * cols, 0.0))
        assert abs(rep.overall - via_users) < 1e-12
        assert abs(rep.overall - via_producers) < 1e-12


# ------------------------------------------------------------- sampling

def test_stratified_sample_is_balanced_and_seeded():
    ref = make_labels(np.repeat(np.arange(3), 12).reshape(6, 6), n_classes=3)
    idx = stratified_samples(ref, 1, 5, seed=1)[0]
    assert len(idx) == 15
    labels = ref.values.ravel()[idx]
    assert (np.bincount(labels, minlength=3) == 5).all()
    assert (idx == stratified_samples(ref, 1, 5, seed=1)[0]).all()
    assert not np.array_equal(idx, stratified_samples(ref, 1, 5, seed=2)[0])


def test_stratified_sample_small_class_error_names_class():
    v = np.zeros((4, 4), dtype=np.int64)
    v[0, 0] = 1
    ref = LabelRaster(GridShape(4, 4, 2, ("bg", "rare")), v)
    with pytest.raises(ValueError, match="'rare' has only 1 pixels"):
        stratified_samples(ref, 1, 2, seed=0)


def test_stratified_sample_skips_absent_classes():
    ref = make_labels(np.zeros((4, 4), dtype=np.int64), n_classes=3)
    idx = stratified_samples(ref, 1, 3, seed=0)[0]
    assert len(idx) == 3                       # only class 0 is present


def test_monte_carlo_perfect_map_and_validation(small_scene):
    mc = monte_carlo_assess(small_scene, small_scene, 5, 20, seed=3)
    assert (mc.overall == 1.0).all()
    with pytest.raises(ValueError, match="n_iterations"):
        monte_carlo_assess(small_scene, small_scene, 0, 20, seed=3)
    all_nodata = make_labels(np.full((48, 48), NODATA, dtype=np.int64), n_classes=4)
    with pytest.raises(ValueError, match="no valid pixels in sample"):
        monte_carlo_assess(all_nodata, small_scene, 5, 20, seed=3)
    with pytest.raises(ValueError, match="shape mismatch"):
        monte_carlo_assess(make_labels(np.zeros((48, 40), dtype=np.int64), n_classes=4),
                           small_scene, 5, 20, seed=3)


def test_monte_carlo_builds_class_pools_once(small_scene, monkeypatch):
    """The per-class pixel pools depend only on the reference, so a run
    scans the reference once per present class, not once per iteration."""
    calls = []
    flatnonzero = np.flatnonzero
    monkeypatch.setattr(np, "flatnonzero",
                        lambda a: calls.append(1) or flatnonzero(a))
    monte_carlo_assess(small_scene, small_scene, 7, 20, seed=3)
    assert len(calls) == len(np.unique(small_scene.values))


def test_monte_carlo_pairs_share_sample_pixels(small_scene, small_panel):
    """Same reference, sizes and seed -> identical sample indices, so two
    assessments differ only through the maps being assessed."""
    from mapfuse.grids import hard_classify
    a = monte_carlo_assess(hard_classify(small_panel[0]), small_scene, 4, 30, 9)
    b = monte_carlo_assess(hard_classify(small_panel[2]), small_scene, 4, 30, 9)
    # iteration i of both runs drew the sample from seed 9+i
    idx = stratified_samples(small_scene, 4, 30, seed=9)
    for i in range(4):
        got = confusion(hard_classify(small_panel[0]), small_scene, idx[i])
        assert accuracy_report(got).overall == a.overall[i]
    assert (a.overall > b.overall).all()


@pytest.mark.parametrize("seed", [0, 1, 17, 2024])
def test_monte_carlo_cube_matches_per_iteration_scorer(small_scene, small_panel, seed):
    """Reference: score each iteration on its own with confusion and
    accuracy_report. The prediction has NODATA pixels and never predicts
    class 3, so UA is NaN there and the NODATA samples must be skipped."""
    from mapfuse.grids import hard_classify
    v = hard_classify(small_panel[1]).values.astype(np.int64)
    v[v == 3] = 2
    v[::5, ::3] = NODATA
    pred = make_labels(v, n_classes=4)
    n, per_class = 6, 25
    mc = monte_carlo_assess(pred, small_scene, n, per_class, seed)
    assert mc.n_iterations == n
    idx = stratified_samples(small_scene, n, per_class, seed)
    for i in range(n):
        want = accuracy_report(confusion(pred, small_scene, idx[i]))
        assert mc.overall[i] == want.overall
        # exact equality, NaN in the same places
        np.testing.assert_array_equal(mc.users[i], want.users)
        np.testing.assert_array_equal(mc.producers[i], want.producers)
    assert np.isnan(mc.users[:, 3]).all()


def test_balanced_full_population_equals_full_grid():
    # when classes are exactly balanced and per_class equals the class size,
    # one iteration must reproduce the full-grid confusion metrics
    rng = np.random.default_rng(11)
    ref_v = np.repeat(np.arange(4), 16).reshape(8, 8)
    pred_v = ref_v.copy()
    flip = rng.choice(64, size=12, replace=False)
    pred_v.ravel()[flip] = (pred_v.ravel()[flip] + 1) % 4
    ref = make_labels(ref_v, n_classes=4)
    pred = make_labels(pred_v, n_classes=4)
    mc = monte_carlo_assess(pred, ref, 1, 16, seed=0)
    full = accuracy_report(confusion(pred, ref))
    assert mc.overall[0] == pytest.approx(full.overall, abs=1e-12)


def test_ten_percent_flip_calibration():
    """Flipping exactly 10% of each class's pixels puts sampled OA at 0.90."""
    ref_v = np.repeat(np.arange(4), 2500).reshape(100, 100)
    pred_v = ref_v.copy().ravel()
    for c in range(4):
        pool = np.flatnonzero(ref_v.ravel() == c)
        pred_v[pool[:250]] = (c + 1) % 4       # exactly 10% of 2500
    ref = make_labels(ref_v, n_classes=4)
    pred = make_labels(pred_v.reshape(100, 100), n_classes=4)
    mc = monte_carlo_assess(pred, ref, 100, 300, seed=5)
    assert mc.overall.mean() == pytest.approx(0.90, abs=0.02)


# ------------------------------------------------------------ t machinery

@pytest.mark.parametrize("df", [1, 4, 99])
def test_paired_t_p_against_mpmath_grid(df):
    """p = I_{df/(df+t^2)}(df/2, 1/2) to 1e-12 relative, out to |t| = 230,
    where the p of a 100-iteration comparison reaches about 1e-136."""
    mpmath.mp.dps = 60
    rng = np.random.default_rng(df)
    n = df + 1
    for t_target in np.geomspace(0.1, 230.0, 25):
        # differences whose t statistic is t_target up to rounding
        d = rng.normal(size=n)
        d = (d - d.mean()) / d.std(ddof=1) + t_target / math.sqrt(n)
        t, p, got_df = paired_t_test(d, np.zeros(n))
        assert got_df == df
        ref = float(mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0,
                                   mpmath.mpf(df) / (df + mpmath.mpf(t) ** 2),
                                   regularized=True))
        assert p == pytest.approx(ref, rel=1e-12, abs=0.0), (df, t)


def test_paired_t_pinned_example():
    t, p, df = paired_t_test((1.2, 0.8, 1.1, 0.9, 1.0), (0.0,) * 5)
    assert df == 4
    assert t == pytest.approx(14.142135623730951, rel=1e-12)
    assert p == pytest.approx(1.4512817061319763e-04, rel=1e-3)
    # high-precision oracle: p = I_{df/(df+t^2)}(df/2, 1/2)
    mpmath.mp.dps = 40
    ref = float(mpmath.betainc(2.0, 0.5, 0, 4.0 / (4.0 + t * t),
                               regularized=True))
    assert p == pytest.approx(ref, rel=1e-10)


def test_paired_t_antisymmetry_and_zero_variance():
    rng = np.random.default_rng(3)
    a = rng.normal(size=10)
    b = rng.normal(size=10)
    ta, pa_, dfa = paired_t_test(a, b)
    tb, pb, dfb = paired_t_test(b, a)
    assert ta == pytest.approx(-tb)
    assert pa_ == pytest.approx(pb)
    assert dfa == dfb == 9
    t, p, df = paired_t_test(a, a)
    assert (t, p, df) == (0.0, 1.0, 9)
    with pytest.raises(ValueError):
        paired_t_test([1.0], [2.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy on near-tie data
@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=20),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_paired_t_matches_scipy(diffs, seed):
    import scipy.stats
    rng = np.random.default_rng(seed)
    b = rng.normal(size=len(diffs))
    a = b + np.asarray(diffs)
    t, p, df = paired_t_test(a, b)
    ref = scipy.stats.ttest_rel(a, b)
    # branch on the realized differences: a tiny nominal diff can be
    # absorbed entirely when added to b, leaving a - b identically zero
    if np.std(a - b, ddof=1) == 0.0:
        assert (t, p) == (0.0, 1.0)
    else:
        assert t == pytest.approx(ref.statistic, rel=1e-9, abs=1e-9)
        assert p == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-12)


# ------------------------------------------------------------ CSV output

def test_write_mc_csv_format(tmp_path, small_scene):
    mc = monte_carlo_assess(small_scene, small_scene, 2, 10, seed=0)
    write_mc_csv(mc, small_scene.shape.class_names, tmp_path / "mc.csv")
    lines = (tmp_path / "mc.csv").read_text().splitlines()
    assert lines[0] == ("iter,oa," +
                       ",".join(f"ua_{n}" for n in small_scene.shape.class_names) + "," +
                       ",".join(f"pa_{n}" for n in small_scene.shape.class_names))
    assert len(lines) == 3
    assert lines[1].startswith("0,1.0,")


def test_write_mc_csv_blank_for_undefined(tmp_path):
    # class 2 never predicted and absent from the reference -> blank cells
    ref = make_labels(np.array([[0, 1], [0, 1]]), n_classes=3)
    pred = make_labels(np.array([[0, 1], [1, 0]]), n_classes=3)
    mc = monte_carlo_assess(pred, ref, 1, 2, seed=1)
    write_mc_csv(mc, ref.shape.class_names, tmp_path / "mc.csv")
    row = (tmp_path / "mc.csv").read_text().splitlines()[1]
    cells = row.split(",")
    assert cells[4] == "" and cells[7] == ""   # ua_class2, pa_class2
