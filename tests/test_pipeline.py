"""Pipeline orchestration: planning, manifests, reproducibility."""

import csv
import json
import os
import shutil
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import mapfuse.pipeline
from mapfuse.clustering import load_cluster_model
from mapfuse.fusion import fuse, fused_label_map
from mapfuse.grids import GridShape, LabelRaster
from mapfuse.io import (load_label_raster, load_probability_raster,
                        save_label_raster, save_probability_raster)
from mapfuse.pipeline import (PipelineConfig, discover_investigators,
                              load_pipeline_config, plurality_baseline,
                              run_pipeline)
from mapfuse.synth import materialize_scenario, two_style_scenario
from mapfuse.weights import estimate_weights

from conftest import make_prob


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


def test_invalid_k_rejected_before_compute(panel_dir, tmp_path):
    with pytest.raises(ValueError, match="exceeds the 4 investigator"):
        run_pipeline(config_for(panel_dir, tmp_path / "o", k_values=(5,)))
    assert not (tmp_path / "o" / "summary.csv").exists()


def test_small_reference_class_rejected_before_the_fit(panel_dir, tmp_path,
                                                      monkeypatch):
    """A class too small for per_class_samples fails before the pool opens:
    no kappa fit starts and no manifest is written."""
    ref = load_label_raster(panel_dir / "truth")
    n = ref.shape.n_classes
    counts = np.bincount(ref.values.ravel(), minlength=n)[:n]    # NODATA dropped
    smallest = int(np.argmin(np.where(counts > 0, counts, counts.max() + 1)))
    fits = []

    def counting_fit(*args, **kwargs):
        fits.append(args)
        return estimate_weights(*args, **kwargs)

    monkeypatch.setattr(mapfuse.pipeline, "estimate_weights", counting_fit)
    with pytest.raises(ValueError) as info:
        run_pipeline(config_for(panel_dir, tmp_path / "o",
                                per_class_samples=int(counts[smallest]) + 1))
    assert f"class {ref.shape.class_names[smallest]!r} has only" in str(info.value)
    assert fits == []
    assert not (tmp_path / "o" / "manifest.json").exists()


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


def test_missing_reference(panel_dir, tmp_path):
    with pytest.raises(ValueError, match="reference raster"):
        run_pipeline(config_for(panel_dir, tmp_path / "o",
                                reference=str(tmp_path / "nowhere")))


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


def test_prefix_error_joins_the_running_fit(panel_dir, tmp_path, monkeypatch):
    fit, fit_started = mapfuse.pipeline.estimate_weights, threading.Event()

    def slow_fit(*args, **kw):
        fit_started.set()
        time.sleep(0.5)      # still running when the prefix fails
        return fit(*args, **kw)

    def broken_kmeans(*args, **kw):
        fit_started.wait(10)   # the fit is submitted before the clustering
        raise RuntimeError("kmeans broke")

    monkeypatch.setattr(mapfuse.pipeline, "estimate_weights", slow_fit)
    monkeypatch.setattr(mapfuse.pipeline, "kmeans_cluster", broken_kmeans)
    before = set(threading.enumerate())
    out = tmp_path / "run"
    with pytest.raises(RuntimeError, match="kmeans broke"):
        run_pipeline(config_for(panel_dir, out))
    assert fit_started.is_set()
    assert [t for t in threading.enumerate() if t not in before] == []
    if (out / "manifest.json").exists():
        manifest = json.loads((out / "manifest.json").read_text())
        assert all(e["status"] != "done" for e in manifest["variants"])


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


def test_rerun_is_byte_identical(panel_dir, tmp_path):
    cfg_a = config_for(panel_dir, tmp_path / "a")
    cfg_b = config_for(panel_dir, tmp_path / "b")
    run_pipeline(cfg_a)
    run_pipeline(cfg_b)
    names = [p.name for p in sorted((tmp_path / "a").iterdir())]
    assert names == [p.name for p in sorted((tmp_path / "b").iterdir())]
    for name in names:
        if name == "manifest.json":   # embeds the differing output_dir
            a = json.loads((tmp_path / "a" / name).read_text())
            b = json.loads((tmp_path / "b" / name).read_text())
            assert a["variants"] == b["variants"]
            continue
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


# ------------------------------------------------------------- baseline

def test_plurality_baseline_majority_and_ties():
    m = [make_prob([[[0.8, 0.1, 0.1]]]),
         make_prob([[[0.7, 0.2, 0.1]]]),
         make_prob([[[0.1, 0.8, 0.1]]])]
    assert plurality_baseline(m).values[0, 0] == 0
    # one vote each for classes 0 and 1 -> tie -> lowest index
    assert plurality_baseline(m[1:]).values[0, 0] == 0
    with pytest.raises(ValueError, match="no maps"):
        plurality_baseline([])
    # a 1x1 map must not vote into a 2x2 grid, nor a 3x3 map index past it
    one, two, three = (make_prob(np.full((n, n, 2), 0.5)) for n in (1, 2, 3))
    for panel in ([one, two], [two, three]):
        with pytest.raises(ValueError, match="shape mismatch"):
            plurality_baseline(panel)


# ------------------------------------------------------------ discovery

def test_discovery_prefers_index(panel_dir):
    named = discover_investigators(panel_dir)
    ids = [n for n, _ in named]
    assert ids == json.loads((panel_dir / "index.json").read_text())["investigators"]


def test_discovery_falls_back_to_sidecar_scan(tmp_path):
    rng = np.random.default_rng(0)
    for name in ("alpha", "beta"):
        v = rng.dirichlet(np.ones(3), size=(4, 4))
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
        v = rng.dirichlet(np.ones(3), size=(4, 4))
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


def test_discovery_errors(tmp_path):
    with pytest.raises(ValueError, match="does not exist"):
        discover_investigators(tmp_path / "absent")
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ValueError, match="no investigator rasters"):
        discover_investigators(empty)
