"""End-to-end orchestration: load maps, fuse every requested way, assess.

A run plans, then runs. It checks every input before it creates anything
(_load), then plans its variants — a plurality-vote baseline, plain
unweighted fusion, confidence-weighted fusion, and one variant per cluster
group per method per k (_plan, which fits the cluster models and writes
nothing). Only then does it write the cluster models and a manifest of the
outputs it intends to produce, the first of which makes the output
directory, and open a thread pool: one task per distinct set of fused maps
writes its outputs under every variant id naming that set, the weighted
set's task after fitting the kappa weights. No task waits on another.
Everything derived from randomness is seeded, so re-running a config
reproduces every CSV byte for byte.

The baseline deserves a caveat: it is the per-pixel plurality label
across investigator hard maps, a fusion-free composite standing in for a
pooled-training baseline, and is labeled "plurality-baseline" in every
output to avoid implying more.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .accuracy import monte_carlo_assess, paired_t_test, stratified_samples, write_mc_csv
from .clustering import (METHODS, entropy_features, kmeans_cluster, kmedoids_cluster,
                         save_cluster_model)
from .fusion import fuse, fused_label_map
from .grids import CORES, LabelRaster, common_shape, first_max, hard_classify
from .io import (check_id_cell, check_output_dir, is_bare_file_name, load_label_raster,
                 load_probability_raster, read_header, read_json, save_label_raster,
                 save_probability_raster, write_csv, write_text_atomic)
from .landscape import edge_table, write_iji_csv
from .weights import estimate_weights, save_weights_csv

MODES = ("unweighted", "weighted", "clustered")
BASELINE = "plurality-baseline"


@dataclass(frozen=True)
class PipelineConfig:
    input_dir: str
    reference: str
    output_dir: str
    k_values: tuple = (2, 3, 4)
    methods: tuple = METHODS
    fusion_modes: tuple = MODES
    mc_iterations: int = 100
    per_class_samples: int = 300
    seed: int = 0

    def __post_init__(self):
        paths = (self.input_dir, self.reference, self.output_dir)
        ints = (*self.k_values, self.mc_iterations, self.per_class_samples, self.seed)
        if not (all(isinstance(v, str) for v in paths) and all(type(v) is int for v in ints)):
            raise ValueError("input_dir, reference and output_dir must be strings, and "
                             "k_values, mc_iterations, per_class_samples and seed integers")
        for name in ("k_values", "methods", "fusion_modes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for k in self.k_values:
            if k < 2:
                raise ValueError(f"k must be at least 2, got {k}")
        if any(len(set(v)) < len(v)
               for v in (self.k_values, self.methods, self.fusion_modes)):
            raise ValueError("k_values, methods and fusion_modes must not repeat an entry")
        if "clustered" in self.fusion_modes and not (self.k_values and self.methods):
            raise ValueError("clustered fusion needs at least one k value and one method")
        bad = set(self.methods) - set(METHODS)
        if bad:
            raise ValueError(f"unknown cluster methods {sorted(bad)}")
        bad = set(self.fusion_modes) - set(MODES)
        if bad:
            raise ValueError(f"unknown fusion modes {sorted(bad)}")
        if self.mc_iterations < 2:
            raise ValueError("mc_iterations must be >= 2: the t-tests pair iterations")
        if self.per_class_samples < 1:
            raise ValueError("per_class_samples must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def load_pipeline_config(path) -> PipelineConfig:
    doc = read_json(path, "config", ("input_dir", "reference", "output_dir"))
    unknown = doc.keys() - PipelineConfig.__dataclass_fields__.keys()
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)} in {path}")
    try:
        return PipelineConfig(**doc)
    except (TypeError, ValueError) as exc:       # TypeError: say, methods given as 3
        raise ValueError(f"malformed config {path}: {exc}") from exc


def discover_investigators(input_dir):
    """Find investigator probability rasters in a directory.

    Prefers an index.json written by the simulator; otherwise takes every
    multi-band f32 raster whose name does not look like a reference. A
    name, the investigator's id, holding a comma or a line break is
    refused: it cannot be one cell of weights.csv.
    """
    d = Path(input_dir)
    if not d.is_dir():
        raise ValueError(f"input directory {d} does not exist")
    index = d / "index.json"
    if index.exists():
        names = read_json(index, "index").get("investigators")
        if not (isinstance(names, list) and all(map(is_bare_file_name, names))
                and len(set(names)) == len(names)):
            raise ValueError(f"malformed {index}: 'investigators' must be a list "
                             "of distinct file names in that directory")
        found = [(n, d / n) for n in names]
    else:
        found = []
        for sidecar in sorted(d.glob("*.json")):
            payload = d / sidecar.stem
            if not payload.exists():
                continue
            _, header = read_header(payload)
            if (header["dtype"] == "f32" and header["bands"] > 1
                    and payload.name not in ("truth", "reference")):
                found.append((payload.name, payload))
        if not found:
            raise ValueError(f"no investigator rasters found in {d}")
    for name, _ in found:
        check_id_cell(name, d)
    return found


def load_investigators(input_dir):
    """(ids, maps) of a directory's investigator rasters, on one load thread per
    core; the first bad map in index order raises."""
    named = discover_investigators(input_dir)
    # the caller only waits, unlike in map_on_cores, so perfbench's load spans nest
    with ThreadPoolExecutor(CORES) as pool:
        maps = list(pool.map(load_probability_raster, [p for _, p in named]))
    return [n for n, _ in named], maps


def plurality_baseline(maps) -> LabelRaster:
    """Per-pixel plurality vote over investigator hard maps (ties: lowest class)."""
    shape = common_shape(maps)
    votes = np.zeros((shape.n_classes, shape.height, shape.width),
                     dtype=np.min_scalar_type(len(maps)))    # holds up to J votes
    for m in maps:
        label = hard_classify(m).values
        for c in range(shape.n_classes):
            votes[c] += label == c
    return LabelRaster(shape, first_max(votes))


def _column_means(table):
    """np.nanmean(table, axis=0)'s bits, but an all-NaN column (a class the
    reference lacks, or one a variant never predicts) is NaN with no warning."""
    with np.errstate(invalid="ignore"):
        return np.nansum(table, axis=0) / (~np.isnan(table)).sum(axis=0)


def _load(config):
    """Every input check of a run, the output path's too, made before it creates
    anything. Returns (reference, ids, maps, samples), samples the run's one MC draw."""
    check_output_dir(config.output_dir)
    ref_path = Path(config.reference)
    if not (ref_path.exists() and Path(str(ref_path) + ".json").exists()):
        raise ValueError(f"reference raster {ref_path} not found")
    reference = load_label_raster(ref_path)
    ids, maps = load_investigators(config.input_dir)
    if common_shape(maps) != reference.shape:
        raise ValueError(f"map shape {maps[0].shape} != reference {reference.shape}")
    if len(maps) < 2 and {"weighted", "clustered"} & set(config.fusion_modes):
        raise ValueError("weighting and clustering require at least 2 investigator maps")
    # drawing checks the sample sizes, so a bad size fails before the plan
    samples = stratified_samples(reference, config.mc_iterations,
                                 config.per_class_samples, config.seed)
    return reference, ids, maps, samples


def _plan(config, maps):
    """{variant id: what it fuses} in plan order (the baseline, all maps with
    kappa, or sorted member indices) and {file name: cluster model}; writes nothing."""
    key_of, models = {BASELINE: BASELINE}, {}
    if "unweighted" in config.fusion_modes:
        key_of["unweighted"] = tuple(range(len(maps)))
    if "weighted" in config.fusion_modes:
        key_of["weighted"] = "weighted"
    if "clustered" in config.fusion_modes:
        feats = entropy_features(maps)
        for method in config.methods:
            fit = kmeans_cluster if method == "kmeans" else kmedoids_cluster
            for k in config.k_values:
                model = models[f"cluster_{method}_k{k}.json"] = fit(feats, k, config.seed)
                for g in range(k):
                    key_of[f"{method}-k{k}g{g + 1}"] = tuple(
                        np.flatnonzero(model.assignment == g).tolist())
    return key_of, models


def run_pipeline(config: PipelineConfig) -> dict:
    reference, ids, maps, samples = _load(config)
    key_of, models = _plan(config, maps)
    out = Path(config.output_dir)
    for name, model in models.items():
        save_cluster_model(model, out / name)
    ids_of = {}            # key -> variant ids in plan order
    for vid, key in key_of.items():
        ids_of.setdefault(key, []).append(vid)
    manifest = {
        "config": asdict(config),
        "variants": [
            {"id": vid,
             "files": ([] if vid == BASELINE else [f"{vid}_prob", f"{vid}_prob.json"])
             + [f"{vid}_label", f"{vid}_label.json", f"{vid}_mc.csv"],
             "status": "planned",
             "members": ids if isinstance(key, str) else [ids[i] for i in key],
             "set_id": ids_of[key][0]}
            for vid, key in key_of.items()],
        "tables": ["summary.csv", "iji.csv", "ttests.csv"],
    }

    def save_manifest():
        write_text_atomic(out / "manifest.json",
                          json.dumps(manifest, indent=2, default=str))

    save_manifest()
    fit = None             # the weighted set's kappa fit, for the manifest

    def run_set(key):
        nonlocal fit
        prob = None
        if key == "weighted":
            fit = estimate_weights(maps, seed=config.seed)
            save_weights_csv(fit, out / "weights.csv", ids=ids)
            prob = fuse(maps, weights=fit.kappa)
        elif key != BASELINE:
            prob = fuse([maps[i] for i in key])
        label = plurality_baseline(maps) if prob is None else fused_label_map(prob)
        mc = monte_carlo_assess(label, reference, config.mc_iterations,
                                config.per_class_samples, config.seed,
                                samples=samples)
        # encoded once, written under every variant id naming the set
        if prob is not None:
            save_probability_raster(prob, *(out / f"{vid}_prob" for vid in ids_of[key]))
        save_label_raster(label, *(out / f"{vid}_label" for vid in ids_of[key]))
        write_mc_csv(mc, reference.shape.class_names,
                     *(out / f"{vid}_mc.csv" for vid in ids_of[key]))
        return edge_table(label), mc

    # ---- run the sets ---------------------------------------------------
    # The weighted set runs the kappa fit, the longest task, so it goes first
    # and the rest follow in plan order (a stable sort). Beyond it and one
    # thread per core, threads add allocator arenas (peak RSS), not speed.
    with ThreadPoolExecutor(max_workers=min(8, CORES + 1)) as pool:
        futures = {key: pool.submit(run_set, key)
                   for key in sorted(ids_of, key=lambda k: k != "weighted")}
    # a failed set fails every id that names it
    errors = {key: futures[key].exception() for key in ids_of}
    for e in manifest["variants"]:
        exc = errors[key_of[e["id"]]]
        e["status"] = "failed" if exc else "done"
        if exc:
            e["error"] = (str(exc).splitlines() or [type(exc).__name__])[0]
    failure = next(filter(None, errors.values()), None)
    if failure:
        save_manifest()
        raise failure
    results = {vid: futures[key].result() for vid, key in key_of.items()}

    # ---- joins: IJI, t-tests, summary -----------------------------------
    write_iji_csv([("reference", edge_table(reference))]
                  + [(vid, table) for vid, (table, _) in results.items()],
                  out / "iji.csv")

    base_oa = results[BASELINE][1].overall
    write_csv(out / "ttests.csv", ["variant", "baseline", "t", "p", "df"],
              ([vid, BASELINE, *paired_t_test(results[vid][1].overall, base_oa)]
               for vid in results if vid != BASELINE))

    names = reference.shape.class_names
    summary = {vid: {"oa": float(mc.overall.mean()), "iji": table.iji}
               for vid, (table, mc) in results.items()}
    write_csv(out / "summary.csv",
              ["variant", "oa"] + [f"ua_{n}" for n in names]
              + [f"pa_{n}" for n in names] + ["iji"],
              ([vid, summary[vid]["oa"], *_column_means(mc.users),
                *_column_means(mc.producers), summary[vid]["iji"]]
               for vid, (_, mc) in results.items()))

    if fit is not None:
        # the fit's diagnostics live here, never in a CSV
        manifest["weights"] = {"iterations": fit.iterations,
                               "converged": fit.converged,
                               "log_posterior": fit.log_posterior,
                               "trace": list(fit.trace)}
    save_manifest()
    return {"output_dir": str(out), "variants": list(results), "summary": summary,
            "manifest": str(out / "manifest.json")}
