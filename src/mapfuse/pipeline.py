"""End-to-end orchestration: load maps, fuse every requested way, assess.

A run plans its variants — a plurality-vote baseline, plain unweighted
fusion, confidence-weighted fusion, and one variant per cluster group per
method per k — and writes a manifest of the outputs it intends to produce.
The kappa fit starts on a thread pool before the clustering that plans the
groups; then one task per distinct set of fused maps writes its outputs
under every variant id naming that set. Everything derived from randomness
is seeded, so re-running a config reproduces every CSV byte for byte.

The baseline deserves a caveat: it is the per-pixel plurality label
across investigator hard maps, a fusion-free composite standing in for a
pooled-training baseline, and is labeled "plurality-baseline" in every
output to avoid implying more.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .accuracy import monte_carlo_assess, paired_t_test, stratified_samples, write_mc_csv
from .clustering import (entropy_features, kmeans_cluster, kmedoids_cluster,
                         save_cluster_model)
from .fusion import fuse, fused_label_map
from .grids import LabelRaster, common_shape, hard_classify
from .io import (is_bare_file_name, load_label_raster, load_probability_raster,
                 read_header, read_json, save_label_raster, save_probability_raster,
                 write_csv, write_text_atomic)
from .landscape import edge_table, write_iji_csv
from .weights import estimate_weights, save_weights_csv

MODES = ("unweighted", "weighted", "clustered")
METHODS = ("kmeans", "kmedoids")
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
        object.__setattr__(self, "k_values", tuple(self.k_values))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "fusion_modes", tuple(self.fusion_modes))
        for k in self.k_values:
            if k < 2:
                raise ValueError(f"k must be at least 2, got {k}")
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
    multi-band f32 raster whose name does not look like a reference.
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
        return [(n, d / n) for n in names]
    found = []
    for sidecar in sorted(d.glob("*.json")):
        payload = d / sidecar.stem
        if sidecar.name == "index.json" or not payload.exists():
            continue
        _, header = read_header(payload)
        if (header["dtype"] == "f32" and header["bands"] > 1
                and payload.name not in ("truth", "reference")):
            found.append((payload.name, payload))
    if not found:
        raise ValueError(f"no investigator rasters found in {d}")
    return found


def plurality_baseline(maps) -> LabelRaster:
    """Per-pixel plurality vote over investigator hard maps (ties: lowest class)."""
    shape = common_shape(maps)
    votes = np.zeros((shape.height, shape.width, shape.n_classes), dtype=np.int64)
    hw = (np.arange(shape.height)[:, None], np.arange(shape.width)[None, :])
    for m in maps:
        votes[hw[0], hw[1], hard_classify(m).values] += 1
    return LabelRaster(shape, votes.argmax(axis=2))


def run_pipeline(config: PipelineConfig) -> dict:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    ref_path = Path(config.reference)
    if not (ref_path.exists() and Path(str(ref_path) + ".json").exists()):
        raise ValueError(f"reference raster {ref_path} not found")
    reference = load_label_raster(ref_path)
    named = discover_investigators(config.input_dir)
    ids = [n for n, _ in named]
    maps = [load_probability_raster(p) for _, p in named]
    if common_shape(maps) != reference.shape:
        raise ValueError(f"map shape {maps[0].shape} != reference {reference.shape}")
    n_maps = len(maps)

    if n_maps < 2 and {"weighted", "clustered"} & set(config.fusion_modes):
        raise ValueError("weighting and clustering require at least 2 investigator maps")
    if "clustered" in config.fusion_modes:
        for k in config.k_values:
            if k > n_maps:
                raise ValueError(f"k={k} exceeds the {n_maps} investigator maps")
    # every set's Monte Carlo draw makes this check; fail before the fit starts
    stratified_samples(reference, 1, config.per_class_samples, config.seed)

    # ---- plan and execute ---------------------------------------------
    # The kappa fit is the longest task, so it goes onto the pool first and
    # the clustering runs underneath it (numpy releases the GIL in both).
    # Variants are keyed by what they fuse (the baseline, all maps with
    # kappa, or sorted member indices); one task per key fuses, scores and
    # builds the edge table once and writes the same bytes under each id.
    # Beyond the fit and the weighted task's wait, threads past the core
    # count add allocator arenas (peak RSS), not speed.
    with ThreadPoolExecutor(max_workers=min(8, (os.cpu_count() or 1) + 2)) as pool:
        weights_future = (pool.submit(estimate_weights, maps, seed=config.seed)
                          if "weighted" in config.fusion_modes else None)
        everyone = tuple(range(n_maps))
        key_of = {BASELINE: BASELINE}
        if "unweighted" in config.fusion_modes:
            key_of["unweighted"] = everyone
        if "weighted" in config.fusion_modes:
            key_of["weighted"] = "weighted"
        if "clustered" in config.fusion_modes:
            feats = entropy_features(maps)
            for method in config.methods:
                fit = kmeans_cluster if method == "kmeans" else kmedoids_cluster
                for k in config.k_values:
                    model = fit(feats, k, config.seed)
                    save_cluster_model(model, out / f"cluster_{method}_k{k}.json")
                    for g in range(k):
                        key_of[f"{method}-k{k}g{g + 1}"] = tuple(
                            np.flatnonzero(model.assignment == g).tolist())
        plan = list(key_of)
        ids_of = {}            # key -> variant ids in plan order
        for vid in plan:
            ids_of.setdefault(key_of[vid], []).append(vid)

        def entry(vid):
            key = key_of[vid]
            files = [f"{vid}_label", f"{vid}_label.json", f"{vid}_mc.csv"]
            if vid != BASELINE:
                files = [f"{vid}_prob", f"{vid}_prob.json"] + files
            members = everyone if isinstance(key, str) else key
            return {"id": vid, "files": files, "status": "planned",
                    "members": [ids[i] for i in members],
                    "set_id": ids_of[key][0]}

        manifest = {
            "config": {f: getattr(config, f)
                       for f in PipelineConfig.__dataclass_fields__},
            "variants": [entry(v) for v in plan],
            "tables": ["summary.csv", "iji.csv", "ttests.csv"],
        }
        manifest_path = out / "manifest.json"
        write_text_atomic(manifest_path, json.dumps(manifest, indent=2, default=str))

        def run_set(key):
            prob = None
            if key == BASELINE:
                label = plurality_baseline(maps)
            else:
                if key == "weighted":
                    est = weights_future.result()
                    save_weights_csv(est, out / "weights.csv", ids=ids)
                    prob = fuse(maps, weights=est.kappa)
                else:
                    prob = fuse([maps[i] for i in key])
                label = fused_label_map(prob)
            mc = monte_carlo_assess(label, reference, config.mc_iterations,
                                    config.per_class_samples, config.seed)
            for vid in ids_of[key]:
                if prob is not None:
                    save_probability_raster(prob, out / f"{vid}_prob")
                save_label_raster(label, out / f"{vid}_label")
                write_mc_csv(mc, reference.shape.class_names,
                             out / f"{vid}_mc.csv")
            return edge_table(label), mc

        # stable sort: the weighted task first, the rest in plan order
        futures = {key: pool.submit(run_set, key)
                   for key in sorted(ids_of, key=lambda k: k != "weighted")}

    # a failed set fails every id that names it; the rest are written out
    errors = {key: f.exception() for key, f in futures.items()}
    for e in manifest["variants"]:
        exc = errors[key_of[e["id"]]]
        e["status"] = "failed" if exc else "done"
        if exc:
            e["error"] = (str(exc).splitlines() or [type(exc).__name__])[0]
    failure = next(filter(None, errors.values()), None)
    if failure:
        write_text_atomic(manifest_path, json.dumps(manifest, indent=2, default=str))
        raise failure
    results = {vid: futures[key_of[vid]].result() for vid in plan}

    # ---- joins: IJI, t-tests, summary -----------------------------------
    write_iji_csv([("reference", edge_table(reference))]
                  + [(vid, results[vid][0]) for vid in plan],
                  out / "iji.csv")

    base_oa = results[BASELINE][1].overall
    write_csv(out / "ttests.csv", ["variant", "baseline", "t", "p", "df"],
              ([vid, BASELINE, *paired_t_test(results[vid][1].overall, base_oa)]
               for vid in plan if vid != BASELINE))

    names = reference.shape.class_names
    summary = {vid: {"oa": float(mc.overall.mean()), "iji": table.iji}
               for vid, (table, mc) in results.items()}
    write_csv(out / "summary.csv",
              ["variant", "oa"] + [f"ua_{n}" for n in names]
              + [f"pa_{n}" for n in names] + ["iji"],
              ([vid, summary[vid]["oa"], *np.nanmean(mc.users, axis=0),
                *np.nanmean(mc.producers, axis=0), summary[vid]["iji"]]
               for vid, (_, mc) in results.items()))

    if weights_future is not None:
        # the fit's diagnostics live here, never in a CSV
        est = weights_future.result()
        manifest["weights"] = {"iterations": est.iterations,
                               "converged": est.converged,
                               "log_posterior": est.log_posterior,
                               "trace": list(est.trace)}
    write_text_atomic(manifest_path, json.dumps(manifest, indent=2, default=str))
    return {"output_dir": str(out), "variants": plan, "summary": summary,
            "manifest": str(manifest_path)}
