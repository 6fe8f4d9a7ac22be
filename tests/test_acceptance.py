"""Acceptance gate: nine end-to-end checks, one verdict line per criterion.

Each test exercises one contract-level claim — conjugate fusion against
numerical integration, exact entropy/IJI anchors, the planted-oracle
recovery rates, metric identities, Monte Carlo calibration, and pipeline
determinism with a wall-clock budget — and prints a single PASS/FAIL
line with the measured numbers before asserting.
"""

import json
import time
from pathlib import Path

import numpy as np
import scipy.stats

from mapfuse.accuracy import accuracy_report, monte_carlo_assess, paired_t_test
from mapfuse.clustering import (adjusted_rand_index, entropy_features,
                                entropy_map, kmeans_cluster, kmedoids_cluster)
from mapfuse.fusion import fuse, fused_label_map
from mapfuse.grids import (GridShape, LabelRaster, ProbabilityRaster, hard_classify,
                           regularize)
from mapfuse.io import save_label_raster, save_probability_raster
from mapfuse.landscape import edge_table, iji
from mapfuse.pipeline import PipelineConfig, run_pipeline
from mapfuse.synth import (InvestigatorSpec, SceneSpec, generate_investigator,
                           generate_scene, style_kernel, uniform_kernel)
from mapfuse.weights import estimate_weights


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def grid_posterior_mean(vectors, weights, prior, step=1 / 200):
    """Quadrature oracle: integrate the pseudo-count density on a 3-simplex.

    The exponent is assembled from the raw investigator vectors, not from
    any fusion output, so this is an independent route to the mean.
    """
    exponent = np.full(3, prior - 1.0)
    for w, p in zip(weights, vectors):
        exponent = exponent + w * np.asarray(p)
    ticks = np.arange(1, int(round(1 / step)))
    total = int(round(1 / step))
    pts = []
    for i in ticks:
        for j in ticks:
            if i + j < total:
                pts.append((i, j, total - i - j))
    x = np.array(pts, dtype=np.float64) / total
    logd = (exponent * np.log(x)).sum(axis=1)
    w = np.exp(logd - logd.max())
    return (x * w[:, None]).sum(axis=0) / w.sum()


def one_pixel(vec):
    return ProbabilityRaster(GridShape(1, 1, len(vec)),
                             np.asarray(vec, dtype=np.float64)[None, None, :])


def test_criterion_1_conjugate_mean_matches_quadrature():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for case in range(100):
        n_inv = int(rng.integers(1, 4))
        vectors = [regularize(rng.dirichlet(np.full(3, 0.8)))
                   for _ in range(n_inv)]
        weighted = case % 2 == 1
        weights = rng.uniform(0.5, 2.0, size=n_inv) if weighted else None
        post = fuse([one_pixel(v) for v in vectors], weights=weights)
        oracle = grid_posterior_mean(
            vectors, np.ones(n_inv) if weights is None else weights, 1.0)
        worst = max(worst, np.abs(post.values[0, 0] - oracle).max())
    elapsed = time.perf_counter() - t0
    verdict(1, worst < 1e-2 and elapsed < 30.0,
            f"100 cases, max |closed-form - quadrature| = {worst:.2e} "
            f"(tol 1e-2), {elapsed:.1f}s (budget 30s)")


def test_criterion_2_entropy_anchors_and_bound():
    uniform = entropy_map(one_pixel([0.25, 0.25, 0.25, 0.25]))[0, 0]
    onehot = entropy_map(one_pixel([1.0, 0.0, 0.0, 0.0]))[0, 0]
    rng = np.random.default_rng(7)
    g = rng.gamma(0.4, size=(1000, 1000, 4))
    g = np.maximum(g, 1e-300)
    big = ProbabilityRaster(GridShape(1000, 1000, 4),
                            g / g.sum(axis=2, keepdims=True))
    h_max = float(entropy_map(big).max())
    ok = uniform == 2.0 and onehot == 0.0 and h_max <= 2.0 + 1e-12
    verdict(2, ok,
            f"uniform pixel H = {uniform} (want 2.0 exactly), one-hot H = "
            f"{onehot} (want 0.0), max H over 1e6 random pixels = {h_max:.15f} "
            f"(bound log2(4) = 2)")


def test_criterion_3_iji_closed_forms():
    def labels(a, c):
        a = np.asarray(a)
        return LabelRaster(GridShape(a.shape[1], a.shape[0], c), a)

    equal_share = iji(labels([[0, 1, 2, 0]], 3))       # three equal pair edges
    table = edge_table(labels([[0, 1], [2, 0]], 3))    # hand-enumerated pairs
    table_ok = (table.e[0, 1] == 2 and table.e[0, 2] == 2
                and table.e[1, 2] == 0 and table.total == 4)
    two_classes = iji(labels([[0, 1]], 2))             # m = 2
    no_edges = iji(labels([[1, 1], [1, 1]], 2))        # E = 0
    ok = (abs(equal_share - 100.0) < 1e-9 and table_ok
          and np.isnan(two_classes) and np.isnan(no_edges))
    verdict(3, ok,
            f"equal-share IJI = {equal_share!r} (want 100 +/- 1e-9), 2x2 edge "
            f"table (e01,e02,e12,E) = ({table.e[0, 1]},{table.e[0, 2]},"
            f"{table.e[1, 2]},{table.total}) (want (2,2,0,4)), m=2 -> "
            f"{two_classes}, E=0 -> {no_edges}")


def full_grid_oa(pred: LabelRaster, ref: LabelRaster) -> float:
    return float((pred.values == ref.values).mean())


def test_criterion_4_fusion_beats_individuals():
    t0 = time.perf_counter()
    oa_wins = 0
    iji_wins = 0
    n_seeds = 100
    for s in range(n_seeds):
        truth = generate_scene(SceneSpec(
            shape=GridShape(128, 128, 4), n_blobs=24,
            class_mix=(0.25,) * 4, seed=1000 + s))
        rng = np.random.default_rng(s)
        maps = [generate_investigator(truth, InvestigatorSpec(
            noise_rate=float(rng.uniform(0.05, 0.4)),
            confusion_kernel=uniform_kernel(4), softness=30.0,
            seed=int(rng.integers(1 << 31)))) for _ in range(20)]
        fused = fused_label_map(fuse(maps))
        individuals = [hard_classify(m) for m in maps]
        if full_grid_oa(fused, truth) > np.mean(
                [full_grid_oa(ind, truth) for ind in individuals]):
            oa_wins += 1
        if iji(fused) < np.median([iji(ind) for ind in individuals]):
            iji_wins += 1
    elapsed = time.perf_counter() - t0
    verdict(4, oa_wins >= 95 and iji_wins >= 90 and elapsed < 300.0,
            f"fused OA beat the mean individual in {oa_wins}/100 seeds "
            f"(need >= 95), fused IJI below the median individual in "
            f"{iji_wins}/100 (need >= 90), {elapsed:.0f}s (budget 300s)")


def test_criterion_5_weight_recovery():
    noise_levels = (0.05, 0.2, 0.4)
    hits = 0
    for s in range(100):
        truth = generate_scene(SceneSpec(
            shape=GridShape(32, 32, 4), n_blobs=8,
            class_mix=(0.25,) * 4, seed=2000 + s))
        maps, planted = [], []
        for i, nr in enumerate(noise_levels):
            for r in range(4):
                maps.append(generate_investigator(truth, InvestigatorSpec(
                    noise_rate=nr, confusion_kernel=uniform_kernel(4),
                    softness=10.0, seed=3000 + 7 * s + 13 * i + r)))
                planted.append(-nr)          # quality = negated noise rate
        est = estimate_weights(maps, subsample=1024, seed=s)
        trace = np.asarray(est.trace)
        assert (np.diff(trace)
                >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1]))).all(), \
            f"objective decreased during ascent (seed {s})"
        rho = scipy.stats.spearmanr(planted, est.kappa).statistic
        if rho >= 0.8:
            hits += 1
    verdict(5, hits >= 90,
            f"Spearman(planted quality, inferred kappa) >= 0.8 in {hits}/100 "
            f"seeds (need >= 90); ascent checked at every outer iteration")


def test_criterion_6_cluster_recovery():
    ari_hits = 0
    oa_hits = 0
    group_of = np.repeat([0, 1], 6)
    for s in range(100):
        truth = generate_scene(SceneSpec(
            shape=GridShape(128, 128, 4), n_blobs=24,
            class_mix=(0.25,) * 4, seed=4000 + s))
        maps = []
        for g, (nr, soft) in enumerate(zip((0.02, 0.70), (60.0, 2.5))):
            for r in range(6):
                maps.append(generate_investigator(truth, InvestigatorSpec(
                    noise_rate=nr, confusion_kernel=style_kernel(4, g),
                    softness=soft, seed=5000 + 17 * s + 5 * g + r)))
        feats = entropy_features(maps)
        km = kmeans_cluster(feats, 2, seed=s)
        pam = kmedoids_cluster(feats, 2, seed=s)
        ari_km = adjusted_rand_index(km.assignment, group_of)
        ari_pam = adjusted_rand_index(pam.assignment, group_of)
        if ari_km == 1.0 and ari_pam == 1.0:
            ari_hits += 1
        all_oa = full_grid_oa(fused_label_map(fuse(maps)), truth)
        best_oa = max(
            full_grid_oa(fused_label_map(fuse(
                [m for m, a in zip(maps, km.assignment) if a == g])), truth)
            for g in range(2))
        if best_oa >= all_oa:
            oa_hits += 1
    verdict(6, ari_hits >= 95 and oa_hits >= 70,
            f"both methods recovered the planted partition (ARI 1.0) in "
            f"{ari_hits}/100 seeds (need >= 95); better-cluster fused OA >= "
            f"all-maps fused OA in {oa_hits}/100 (need >= 70)")


def test_criterion_7_metric_identities_and_pinned_t():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        c = rng.integers(0, 40, size=(4, 4))
        if rng.random() < 0.3:
            c[rng.integers(0, 4)] = 0        # exercise undefined-row handling
        if c.sum() == 0:
            c[0, 0] = 1
        rep = accuracy_report(c)
        cf = c.astype(float)
        diag, rows, cols = np.diag(cf), cf.sum(axis=1), cf.sum(axis=0)
        worst = max(worst, abs(rep.overall - diag.sum() / cf.sum()))
        m = rows > 0
        worst = max(worst, np.abs(rep.users[m] - diag[m] / rows[m]).max(initial=0))
        assert np.isnan(rep.users[~m]).all()
        m = cols > 0
        worst = max(worst,
                    np.abs(rep.producers[m] - diag[m] / cols[m]).max(initial=0))
        assert np.isnan(rep.producers[~m]).all()

    base = np.zeros(5)
    t, p, _ = paired_t_test(base + (1.2, 0.8, 1.1, 0.9, 1.0), base)
    t_err = abs(t - 14.142135623730951) / 14.142135623730951
    p_err = abs(p - 1.4512817061319763e-04) / 1.4512817061319763e-04
    verdict(7, worst < 1e-12 and t_err < 1e-3 and p_err < 1e-3,
            f"identity deviation over 1000 matrices = {worst:.2e} (tol 1e-12); "
            f"pinned paired t: t rel err {t_err:.2e}, p rel err {p_err:.2e} "
            f"(tol 1e-3)")


def test_criterion_8_monte_carlo_calibration():
    ref_values = np.repeat(np.arange(4), 2500).reshape(100, 100)
    pred_values = ref_values.copy()
    for c in range(4):
        idx = np.flatnonzero(ref_values.ravel() == c)[:250]
        pred_values.ravel()[idx] = (c + 1) % 4
    shape = GridShape(100, 100, 4)
    mc = monte_carlo_assess(LabelRaster(shape, pred_values),
                            LabelRaster(shape, ref_values),
                            n_iterations=100, per_class=300, seed=5)
    mean_oa = float(mc.overall.mean())
    verdict(8, abs(mean_oa - 0.90) <= 0.02,
            f"mean OA over 100 stratified iterations = {mean_oa:.4f} "
            f"(want 0.90 +/- 0.02)")


def test_criterion_9_pipeline_determinism_and_budget(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    shape = GridShape(256, 256, 4, ("a", "b", "c", "d"))
    truth = generate_scene(SceneSpec(shape=shape, n_blobs=24,
                                     class_mix=(0.25,) * 4, seed=11))
    save_label_raster(truth, data / "truth")
    ids = []
    for j in range(44):
        g = j % 2
        spec = InvestigatorSpec(
            noise_rate=(0.05, 0.4)[g], confusion_kernel=style_kernel(4, g),
            softness=(25.0, 4.0)[g], seed=500 + j)
        map_id = f"inv{j:02d}"
        save_probability_raster(generate_investigator(truth, spec),
                                data / map_id)
        ids.append(map_id)
    (data / "index.json").write_text(
        json.dumps({"truth": "truth", "investigators": ids}))

    runtimes = []
    for run in ("a", "b"):
        cfg = PipelineConfig(
            input_dir=str(data), reference=str(data / "truth"),
            output_dir=str(tmp_path / run), k_values=(2, 3, 4),
            methods=("kmeans", "kmedoids"), mc_iterations=100,
            per_class_samples=300, seed=0)
        t0 = time.perf_counter()
        run_pipeline(cfg)
        runtimes.append(time.perf_counter() - t0)

    csvs = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
    assert csvs == sorted(p.name for p in (tmp_path / "b").glob("*.csv"))
    diffs = [n for n in csvs if (tmp_path / "a" / n).read_bytes()
             != (tmp_path / "b" / n).read_bytes()]
    n_variants = len(json.loads(
        (tmp_path / "a" / "manifest.json").read_text())["variants"])
    ok = not diffs and max(runtimes) < 60.0 and n_variants == 21
    verdict(9, ok,
            f"two seeded runs: {len(csvs)} CSVs compared, "
            f"{len(diffs)} differ {diffs or ''}; {n_variants} variants "
            f"(full sweep); runtimes {runtimes[0]:.1f}s / {runtimes[1]:.1f}s "
            f"(budget 60s each)")
