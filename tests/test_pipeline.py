"""Pipeline orchestration: planning, manifests, reproducibility."""

import csv
import json
import os
import shutil
import threading
from pathlib import Path

import numpy as np
import pytest

import mapfuse.accuracy
import mapfuse.pipeline
import mapfuse.weights
from mapfuse.accuracy import stratified_samples
from mapfuse.cli import main
from mapfuse.clustering import load_cluster_model
from mapfuse.fusion import fuse, fused_label_map
from mapfuse.grids import GridShape, LabelRaster, hard_classify
from mapfuse.io import (load_label_raster, load_probability_raster,
                        save_label_raster, save_probability_raster)
from mapfuse.pipeline import (PipelineConfig, discover_investigators,
                              load_pipeline_config, plurality_baseline,
                              run_pipeline)
from mapfuse.synth import materialize_scenario, two_style_scenario
from mapfuse.weights import estimate_weights

from conftest import make_prob, pixel


@pytest.fixture(scope="module")
def panel_dir(tmp_path_factory):
    """A small materialized scenario: truth + 4 investigators, 2 groups."""
    d = tmp_path_factory.mktemp("panel")
    doc = two_style_scenario(width=24, height=24, n_per_group=2,
                             n_blobs=8, scene_seed=3)
    (d / "scenario.json").write_text(json.dumps(doc))
    materialize_scenario(d / "scenario.json", d / "data")
    return d / "data"


def config_for(panel_dir, out_dir, **over):
    base = dict(input_dir=str(panel_dir), reference=str(panel_dir / "truth"),
                output_dir=str(out_dir), k_values=(2,), methods=("kmeans",),
                mc_iterations=5, per_class_samples=8, seed=0)
    base.update(over)
    return PipelineConfig(**base)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ------------------------------------------------------------- planning

def test_modes_control_the_plan(panel_dir, tmp_path):
    res = run_pipeline(config_for(panel_dir, tmp_path / "a",
                                  fusion_modes=("unweighted",)))
    assert res["variants"] == ["plurality-baseline", "unweighted"]

    res = run_pipeline(config_for(panel_dir, tmp_path / "b",
                                  methods=("kmeans", "kmedoids"),
                                  k_values=(2, 3)))
    cluster = [v for v in res["variants"] if "-k" in v]
    assert len(cluster) == 2 * (2 + 3)
    assert "kmeans-k2g1" in cluster and "kmedoids-k3g3" in cluster
    assert res["variants"][:3] == ["plurality-baseline", "unweighted", "weighted"]


def test_config_validation():
    with pytest.raises(ValueError, match="k must be at least 2"):
        PipelineConfig("i", "r", "o", k_values=(1,))
    with pytest.raises(ValueError, match="unknown cluster methods"):
        PipelineConfig("i", "r", "o", methods=("ward",))
    with pytest.raises(ValueError, match="unknown fusion modes"):
        PipelineConfig("i", "r", "o", fusion_modes=("stacked",))
    with pytest.raises(ValueError, match="mc_iterations"):
        PipelineConfig("i", "r", "o", mc_iterations=0)
    with pytest.raises(ValueError, match="mc_iterations must be >= 2"):
        PipelineConfig("i", "r", "o", mc_iterations=1)
    with pytest.raises(ValueError, match="per_class_samples"):
        PipelineConfig("i", "r", "o", per_class_samples=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        PipelineConfig("i", "r", "o", seed=-1)
    with pytest.raises(ValueError, match="must not repeat"):
        PipelineConfig("i", "r", "o", k_values=(3, 2, 3))
    with pytest.raises(ValueError, match="must not repeat"):
        PipelineConfig("i", "r", "o", fusion_modes=("weighted", "unweighted", "weighted"))
    # a clustered mode that would plan no group
    with pytest.raises(ValueError, match="at least one k value and one method"):
        PipelineConfig("i", "r", "o", k_values=())
    with pytest.raises(ValueError, match="at least one k value and one method"):
        PipelineConfig("i", "r", "o", methods=[])
    # without it, neither list is read
    assert PipelineConfig("i", "r", "o", k_values=(), methods=(),
                          fusion_modes=("unweighted",)).k_values == ()


def test_config_file_round_trip(tmp_path):
    doc = {"input_dir": "d", "reference": "r", "output_dir": "o",
           "k_values": [2], "mc_iterations": 3}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    cfg = load_pipeline_config(p)
    assert cfg.k_values == (2,) and cfg.mc_iterations == 3

    p.write_text(json.dumps({**doc, "klusters": 2}))
    with pytest.raises(ValueError, match="unknown config keys"):
        load_pipeline_config(p)
    p.write_text(json.dumps({"input_dir": "d"}))
    with pytest.raises(ValueError, match="config missing"):
        load_pipeline_config(p)


def counting_fits(monkeypatch):
    """A list that records every kappa fit the pipeline starts."""
    fits = []

    def counting_fit(*args, **kwargs):
        fits.append(args)
        return estimate_weights(*args, **kwargs)

    monkeypatch.setattr(mapfuse.pipeline, "estimate_weights", counting_fit)
    return fits


def test_invalid_k_rejected_before_compute(panel_dir, tmp_path, monkeypatch):
    fits = counting_fits(monkeypatch)
    with pytest.raises(ValueError, match="k=5 exceeds the 4 distinct maps"):
        run_pipeline(config_for(panel_dir, tmp_path / "o", k_values=(5,)))
    assert fits == []
    assert not (tmp_path / "o").exists()


def test_small_reference_class_rejected_before_the_fit(panel_dir, tmp_path,
                                                      monkeypatch):
    """A class too small for per_class_samples fails before the pool opens:
    no kappa fit starts and no output directory is made."""
    ref = load_label_raster(panel_dir / "truth")
    n = ref.shape.n_classes
    counts = np.bincount(ref.values.ravel(), minlength=n)[:n]    # NODATA dropped
    smallest = int(np.argmin(np.where(counts > 0, counts, counts.max() + 1)))
    fits = counting_fits(monkeypatch)
    with pytest.raises(ValueError) as info:
        run_pipeline(config_for(panel_dir, tmp_path / "o",
                                per_class_samples=int(counts[smallest]) + 1))
    assert f"class {ref.shape.class_names[smallest]!r} has only" in str(info.value)
    assert fits == []
    assert not (tmp_path / "o").exists()


def test_output_dir_naming_a_file_exits_2_before_the_fit(panel_dir, tmp_path, capsys,
                                                         monkeypatch):
    fits = counting_fits(monkeypatch)
    blocker = tmp_path / "run"
    blocker.write_text("in the way")
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(
        {"input_dir": str(panel_dir), "reference": str(panel_dir / "truth"),
         "output_dir": str(blocker), "mc_iterations": 2, "per_class_samples": 1,
         "k_values": [2]}))
    assert main(["pipeline", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: output directory {blocker} names an existing file"], err
    assert fits == []
    assert blocker.read_text() == "in the way"


@pytest.mark.parametrize("mode", ["weighted", "clustered"])
def test_one_map_panel_fails_before_the_pool(panel_dir, tmp_path, mode):
    """Both modes compare maps, so a one-map panel fails before any set runs."""
    name = discover_investigators(panel_dir)[0][0]
    one = tmp_path / "one"
    one.mkdir()
    for f in (name, name + ".json"):
        shutil.copy(panel_dir / f, one / f)
    with pytest.raises(ValueError, match="require at least 2 investigator maps"):
        run_pipeline(config_for(one, tmp_path / "o", reference=str(panel_dir / "truth"),
                                fusion_modes=("unweighted", mode)))
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("command", ["pipeline", "fuse"])
def test_first_bad_map_fails_the_pooled_load(tmp_path, capsys, command):
    """The 3rd map holds a NaN, the 5th is truncated: the 3rd is named, with
    exit code 2, nothing is created and no loader thread is left behind."""
    data, rng = tmp_path / "data", np.random.default_rng(5)
    ids = [f"inv{j}" for j in range(7)]
    for name in ids:
        save_probability_raster(make_prob(rng.dirichlet(np.ones(3), size=(6, 5)).transpose(2, 0, 1)),
                                data / name)
    raw = bytearray((data / "inv2").read_bytes())
    raw[8:12] = np.float32(np.nan).tobytes()
    (data / "inv2").write_bytes(bytes(raw))
    (data / "inv4").write_bytes((data / "inv4").read_bytes()[:-4])
    (data / "index.json").write_text(json.dumps({"investigators": ids}))
    save_label_raster(LabelRaster(GridShape(5, 6, 3), rng.integers(0, 3, size=(6, 5))),
                      data / "truth")
    (tmp_path / "c.json").write_text(json.dumps(
        {"input_dir": str(data), "reference": str(data / "truth"),
         "output_dir": str(tmp_path / "out"), "mc_iterations": 2,
         "per_class_samples": 1, "k_values": [2]}))
    before = threading.active_count()
    argv = (["pipeline", str(tmp_path / "c.json")] if command == "pipeline"
            else ["fuse", "-i", str(data), "-o", str(tmp_path / "out")])
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "inv2" in err[0] and "NaN" in err[0], err
    assert not (tmp_path / "out").exists()
    assert threading.active_count() == before


def test_missing_reference(panel_dir, tmp_path):
    with pytest.raises(ValueError, match="reference raster"):
        run_pipeline(config_for(panel_dir, tmp_path / "o",
                                reference=str(tmp_path / "nowhere")))
    assert not (tmp_path / "o").exists()       # checked before anything is made


# ------------------------------------------------------------- full runs

def test_manifest_and_outputs(panel_dir, tmp_path):
    out = tmp_path / "run"
    res = run_pipeline(config_for(panel_dir, out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(v["status"] == "done" for v in manifest["variants"])
    for entry in manifest["variants"]:
        for f in entry["files"]:
            assert (out / f).exists(), f
    for t in manifest["tables"]:
        assert (out / t).exists(), t
    assert (out / "weights.csv").exists()
    assert (out / "cluster_kmeans_k2.json").exists()

    # summary OA must be the mean of the per-iteration Monte Carlo column
    rows = read_csv(out / "summary.csv")
    header, body = rows[0], rows[1:]
    assert header[:2] == ["variant", "oa"]
    assert [r[0] for r in body] == res["variants"]
    for r in body:
        mc = read_csv(out / f"{r[0]}_mc.csv")
        oa = np.mean([float(line[1]) for line in mc[1:]])
        assert float(r[1]) == pytest.approx(oa, abs=1e-12)

    tt = read_csv(out / "ttests.csv")
    assert tt[0] == ["variant", "baseline", "t", "p", "df"]
    assert len(tt) == 1 + len(res["variants"]) - 1

    ij = read_csv(out / "iji.csv")
    assert [r[0] for r in ij[1:]] == ["reference"] + res["variants"]


def shared_config(panel_dir, out_dir):
    """Both methods at k=2 and 3: on this panel 13 variants fuse 7 sets."""
    return config_for(panel_dir, out_dir, methods=("kmeans", "kmedoids"),
                      k_values=(2, 3))


def distinct_sets(out, variants):
    """Variant id -> what it fuses, rebuilt from the saved cluster models."""
    key = {"plurality-baseline": "baseline", "weighted": "weighted",
           "unweighted": None}
    for vid in variants:
        if "-k" in vid:
            method, rest = vid.split("-k")
            k, g = map(int, rest.split("g"))
            model = load_cluster_model(out / f"cluster_{method}_k{k}.json")
            members = tuple(np.flatnonzero(model.assignment == g - 1))
            key[vid] = None if len(members) == len(model.assignment) else members
    return key


def test_one_edge_table_per_label_map(panel_dir, tmp_path, monkeypatch):
    """iji.csv and summary.csv read one edge table per distinct member set,
    plus one for the reference."""
    import sys
    import mapfuse.landscape

    original = mapfuse.landscape.edge_table
    calls = []

    def counting(raster):
        calls.append(raster)
        return original(raster)

    for name, mod in list(sys.modules.items()):
        if name.startswith("mapfuse") and getattr(mod, "edge_table", None) is original:
            monkeypatch.setattr(mod, "edge_table", counting)
    out = tmp_path / "run"
    res = run_pipeline(shared_config(panel_dir, out))
    n_sets = len(set(distinct_sets(out, res["variants"]).values()))
    assert n_sets < len(res["variants"])
    assert len(calls) == n_sets + 1


def test_each_distinct_set_is_fused_and_scored_once(panel_dir, tmp_path,
                                                    monkeypatch):
    calls = {"fuse": 0, "monte_carlo_assess": 0}
    for name in calls:
        original = getattr(mapfuse.pipeline, name)

        def counting(*args, _name=name, _original=original, **kw):
            calls[_name] += 1
            return _original(*args, **kw)

        monkeypatch.setattr(mapfuse.pipeline, name, counting)
    out = tmp_path / "run"
    res = run_pipeline(shared_config(panel_dir, out))
    key = distinct_sets(out, res["variants"])
    sets = set(key.values())
    assert len(sets) == 7 and len(res["variants"]) == 13
    # the baseline fuses nothing; every other set is fused once
    assert calls == {"fuse": len(sets) - 1, "monte_carlo_assess": len(sets)}

    manifest = json.loads((out / "manifest.json").read_text())
    ids = [n for n, _ in discover_investigators(panel_dir)]
    for entry in manifest["variants"]:
        vid, first = entry["id"], entry["set_id"]
        members = key[vid] if isinstance(key[vid], tuple) else range(len(ids))
        assert entry["members"] == [ids[i] for i in members]
        # set_id names the first variant in plan order with the same set
        assert first == next(v for v in res["variants"] if key[v] == key[vid])
        for suffix in ("_prob", "_prob.json", "_label", "_label.json", "_mc.csv"):
            if (out / f"{first}{suffix}").exists():
                assert ((out / f"{vid}{suffix}").read_bytes()
                        == (out / f"{first}{suffix}").read_bytes()), vid + suffix


def test_class_missing_from_the_reference_leaves_its_means_empty(panel_dir, tmp_path):
    """With one class relabelled away in the reference, every variant's
    producer's accuracy for it is NaN in each iteration: its summary mean
    is an empty cell, not a "Mean of empty slice" warning."""
    truth = load_label_raster(panel_dir / "truth")
    gone, into = truth.shape.class_names[1], truth.shape.class_names[0]
    values = np.where(truth.values == 1, 0, truth.values).astype(truth.values.dtype)
    save_label_raster(LabelRaster(truth.shape, values), tmp_path / "ref")
    out = tmp_path / "run"
    res = run_pipeline(config_for(panel_dir, out, reference=str(tmp_path / "ref")))
    rows = read_csv(out / "summary.csv")
    header, body = rows[0], rows[1:]
    assert [r[0] for r in body] == res["variants"]
    column = dict(zip(header, zip(*body)))
    assert set(column[f"pa_{gone}"]) == {""}
    assert "" not in column[f"pa_{into}"] and "" not in column["oa"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert {e["status"] for e in manifest["variants"]} == {"done"}


def test_failed_set_marks_each_of_its_ids(panel_dir, tmp_path, monkeypatch):
    maps = [load_probability_raster(p)
            for _, p in discover_investigators(panel_dir)]
    target = fused_label_map(fuse(maps[:2])).values
    original = mapfuse.pipeline.monte_carlo_assess

    def failing(label, *args, **kw):
        if np.array_equal(label.values, target):
            raise RuntimeError("sampler broke\nsecond line")
        return original(label, *args, **kw)

    monkeypatch.setattr(mapfuse.pipeline, "monte_carlo_assess", failing)
    out = tmp_path / "run"
    with pytest.raises(RuntimeError, match="sampler broke"):
        run_pipeline(shared_config(panel_dir, out))
    manifest = json.loads((out / "manifest.json").read_text())
    shared = {e["id"] for e in manifest["variants"]
              if e["members"] == ["g0inv00", "g0inv01"]}
    assert len(shared) == 4
    for entry in manifest["variants"]:
        if entry["id"] in shared:
            assert entry["status"] == "failed"
            assert entry["error"] == "sampler broke"
        else:
            assert entry["status"] == "done" and "error" not in entry
    assert not (out / "summary.csv").exists()


def test_failed_manifest_write_keeps_the_planned_manifest(panel_dir, tmp_path,
                                                          monkeypatch):
    """The manifest is replaced whole: when its final write fails, the file
    still holds the planned manifest, and no temporary file is left."""
    out = tmp_path / "run"
    real = os.replace

    def replace(src, dst):
        if Path(dst).name == "manifest.json" and (out / "summary.csv").exists():
            raise OSError("disk full")
        return real(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="disk full"):
        run_pipeline(config_for(panel_dir, out, fusion_modes=("unweighted",)))
    manifest = json.loads((out / "manifest.json").read_text())
    assert {e["status"] for e in manifest["variants"]} == {"planned"}
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("failure", ["clustering", "cluster-model-write"])
def test_prefix_failure_starts_no_fit(panel_dir, tmp_path, monkeypatch, failure):
    """The plan and its writes come before the pool: a failure there raises
    with no kappa fit started and no thread left running."""
    fits = counting_fits(monkeypatch)
    if failure == "clustering":
        def broken_kmeans(*args, **kw):
            raise RuntimeError("kmeans broke")

        monkeypatch.setattr(mapfuse.pipeline, "kmeans_cluster", broken_kmeans)
        error = (RuntimeError, "kmeans broke")
    else:
        real = os.replace

        def replace(src, dst):
            if Path(dst).name == "cluster_kmeans_k2.json":
                raise OSError("disk full")
            return real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        error = (OSError, "disk full")
    before = set(threading.enumerate())
    out = tmp_path / "run"
    with pytest.raises(error[0], match=error[1]):
        run_pipeline(config_for(panel_dir, out))
    assert fits == []
    assert [t for t in threading.enumerate() if t not in before] == []
    if failure == "clustering":
        assert not out.exists()        # the plan comes before the output directory


def test_fit_error_in_a_sweep_block_fails_only_the_weighted_set(
        panel_dir, tmp_path, monkeypatch):
    class Broken(Exception):
        pass

    psi = mapfuse.weights.psi

    def broken_psi(x, *args, **kw):
        if np.ndim(x) == 3:      # the kappa step's (nodes, N, C) H table, in a block
            raise Broken("psi broke")
        return psi(x, *args, **kw)

    monkeypatch.setattr(mapfuse.weights, "psi", broken_psi)
    out = tmp_path / "run"
    with pytest.raises(Broken, match="psi broke"):
        run_pipeline(config_for(panel_dir, out))
    manifest = json.loads((out / "manifest.json").read_text())
    status = {e["id"]: (e["status"], e.get("error")) for e in manifest["variants"]}
    assert status.pop("weighted") == ("failed", "psi broke")
    assert status and set(status.values()) == {("done", None)}
    assert not (out / "summary.csv").exists()


def test_one_monte_carlo_draw_per_run(panel_dir, tmp_path, monkeypatch):
    """Every set is scored on the run's one sample draw."""
    draws = []

    def counting(*args, **kwargs):
        draws.append(args)
        return stratified_samples(*args, **kwargs)

    monkeypatch.setattr(mapfuse.pipeline, "stratified_samples", counting)
    monkeypatch.setattr(mapfuse.accuracy, "stratified_samples", counting)
    res = run_pipeline(config_for(panel_dir, tmp_path / "o"))
    assert len(res["variants"]) > 2
    assert len(draws) == 1 and draws[0][1:] == (5, 8, 0)


def test_manifest_keeps_weight_fit_diagnostics(panel_dir, tmp_path):
    run_pipeline(config_for(panel_dir, tmp_path / "w",
                            fusion_modes=("weighted",)))
    manifest = json.loads((tmp_path / "w" / "manifest.json").read_text())
    maps = [load_probability_raster(p)
            for _, p in discover_investigators(panel_dir)]
    est = estimate_weights(maps, seed=0)
    assert manifest["weights"] == {"iterations": est.iterations,
                                   "converged": est.converged,
                                   "log_posterior": est.log_posterior,
                                   "trace": list(est.trace)}
    # diagnostics stay out of the CSVs
    header = (tmp_path / "w" / "weights.csv").read_text().splitlines()[0]
    assert header == "investigator_id,kappa"

    run_pipeline(config_for(panel_dir, tmp_path / "u",
                            fusion_modes=("unweighted",)))
    manifest = json.loads((tmp_path / "u" / "manifest.json").read_text())
    assert "weights" not in manifest


def test_rerun_is_byte_identical(panel_dir, tmp_path, monkeypatch):
    """Reruns write the same bytes, also on a pool of two threads (the
    weighted task and one set thread): the pool's size changes speed only."""
    run_pipeline(config_for(panel_dir, tmp_path / "a"))
    run_pipeline(config_for(panel_dir, tmp_path / "b"))
    monkeypatch.setattr(mapfuse.pipeline, "CORES", 1)
    run_pipeline(config_for(panel_dir, tmp_path / "c"))
    names = [p.name for p in sorted((tmp_path / "a").iterdir())]
    for other in ("b", "c"):
        assert names == [p.name for p in sorted((tmp_path / other).iterdir())]
        for name in names:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / other / name).read_bytes()
            if name == "manifest.json":   # embeds the differing output_dir
                a, b = json.loads(a), json.loads(b)
                assert a["variants"] == b["variants"] and a["weights"] == b["weights"]
                continue
            assert a == b, f"{name} differs between run a and run {other}"


# ------------------------------------------------------------- baseline

def test_plurality_baseline_majority_and_ties():
    m = [pixel([0.8, 0.1, 0.1]),
         pixel([0.7, 0.2, 0.1]),
         pixel([0.1, 0.8, 0.1])]
    assert plurality_baseline(m).values[0, 0] == 0
    # one vote each for classes 0 and 1 -> tie -> lowest index
    assert plurality_baseline(m[1:]).values[0, 0] == 0
    with pytest.raises(ValueError, match="no maps"):
        plurality_baseline([])
    # a 1x1 map must not vote into a 2x2 grid, nor a 3x3 map index past it
    one, two, three = (make_prob(np.full((2, n, n), 0.5)) for n in (1, 2, 3))
    for panel in ([one, two], [two, three]):
        with pytest.raises(ValueError, match="shape mismatch"):
            plurality_baseline(panel)


def _plurality_reference(maps):
    """Votes counted by a fancy-indexed add into (H, W, C), argmax over C."""
    s = maps[0].shape
    votes = np.zeros((s.height, s.width, s.n_classes), dtype=np.int64)
    hw = (np.arange(s.height)[:, None], np.arange(s.width)[None, :])
    for m in maps:
        votes[hw[0], hw[1], hard_classify(m).values] += 1
    return votes.argmax(axis=2)


@pytest.mark.parametrize("n_maps, n_classes", [(2, 2), (4, 3), (6, 5), (9, 4)])
def test_plurality_baseline_matches_the_indexed_vote_with_ties(n_maps, n_classes):
    rng = np.random.default_rng(n_maps)
    labels = rng.integers(0, n_classes, size=(n_maps, 12, 10))
    labels[: n_maps // 2, 0] = n_classes - 1      # planted ties: top class vs. class 0
    labels[n_maps // 2:, 0] = 0
    maps = [make_prob(np.where(np.arange(n_classes)[:, None, None] == lab, 0.7,
                               0.3 / (n_classes - 1))) for lab in labels]
    got = plurality_baseline(maps).values
    assert np.array_equal(got, _plurality_reference(maps))
    assert (got[0] == 0).all()


@pytest.mark.parametrize("n_maps", [255, 256, 300])
def test_plurality_baseline_counts_past_the_vote_dtype(n_maps):
    # J = 255 fits u8 votes, 256 and 300 need u16: a class with 256 votes must
    # not wrap to 0 and lose to a class with 44
    labels = np.zeros((n_maps, 1, 3), dtype=np.int64)
    labels[:, 0, 0] = 2                           # unanimous
    labels[:n_maps // 2, 0, 1] = 1                # even J ties (1 wins); J = 255: 2 by one
    labels[n_maps // 2:, 0, 1] = 2
    labels[:44, 0, 2] = 0                         # 44 for class 0, the rest class 1
    labels[44:, 0, 2] = 1
    maps = [make_prob(np.where(np.arange(3)[:, None, None] == lab, 0.7, 0.15))
            for lab in labels]
    got = plurality_baseline(maps).values
    assert np.array_equal(got, _plurality_reference(maps))
    assert got.tolist() == [[2, 1 if n_maps % 2 == 0 else 2, 1]]


# ------------------------------------------------------------ discovery

def test_discovery_prefers_index(panel_dir):
    named = discover_investigators(panel_dir)
    ids = [n for n, _ in named]
    assert ids == json.loads((panel_dir / "index.json").read_text())["investigators"]


def test_discovery_falls_back_to_sidecar_scan(tmp_path):
    rng = np.random.default_rng(0)
    for name in ("alpha", "beta"):
        v = rng.dirichlet(np.ones(3), size=(4, 4)).transpose(2, 0, 1)
        save_probability_raster(make_prob(v), tmp_path / name)
    # a reference-looking label raster must not be picked up
    save_label_raster(LabelRaster(GridShape(4, 4, 3),
                                  np.zeros((4, 4), dtype=np.uint8)),
                      tmp_path / "truth")
    named = discover_investigators(tmp_path)
    assert [n for n, _ in named] == ["alpha", "beta"]
    # dotted names keep the whole name as the id, and only the exact
    # reference names are skipped
    for name in ("inv.a", "inv.b", "truth.v2"):
        v = rng.dirichlet(np.ones(3), size=(4, 4)).transpose(2, 0, 1)
        save_probability_raster(make_prob(v), tmp_path / name)
    named = discover_investigators(tmp_path)
    assert named == [(n, tmp_path / n)
                     for n in ("alpha", "beta", "inv.a", "inv.b", "truth.v2")]


@pytest.mark.parametrize("doc", [
    {"truth": "truth"},
    {"investigators": "inv00"},
    {"investigators": ["inv00", "../x"]},
    {"investigators": ["sub/inv00"]},
    {"investigators": [".."]},
    {"investigators": [3]},
    {"investigators": ["inv00", "inv01", "inv00"]},
    ["inv00"],
])
def test_discovery_rejects_malformed_index(tmp_path, doc):
    (tmp_path / "index.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="malformed .*index.json"):
        discover_investigators(tmp_path)


@pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb"])
def test_discovery_refuses_an_index_id_that_is_not_one_csv_cell(tmp_path, name):
    """weights.csv would write the id as it is, and could not be read back."""
    (tmp_path / "index.json").write_text(json.dumps({"investigators": ["inv00", name]}))
    with pytest.raises(ValueError, match="comma or a line break") as err:
        discover_investigators(tmp_path)
    assert "\n" not in str(err.value)


def test_discovery_refuses_a_scanned_id_that_is_not_one_csv_cell(tmp_path):
    rng = np.random.default_rng(0)
    for name in ("alpha", "a,b"):
        v = rng.dirichlet(np.ones(3), size=(4, 4)).transpose(2, 0, 1)
        save_probability_raster(make_prob(v), tmp_path / name)
    with pytest.raises(ValueError, match="'a,b' .* comma or a line break"):
        discover_investigators(tmp_path)


def test_discovery_errors(tmp_path):
    with pytest.raises(ValueError, match="does not exist"):
        discover_investigators(tmp_path / "absent")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError, match="no investigator rasters"):
        discover_investigators(empty)
