"""Command-line front end.

Subcommands mirror the workflow stages: simulate a synthetic scenario,
fuse investigator maps (optionally weighted and/or restricted to one
cluster group), compute an entropy map, assess a map against a
reference, score IJI, or run the whole pipeline from a config file.

Exit codes: 0 success, 2 validation error (bad arguments, malformed or
missing inputs), 1 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .accuracy import accuracy_report, confusion, monte_carlo_assess
from .clustering import METHODS, entropy_features, entropy_map, kmeans_cluster, kmedoids_cluster
from .fusion import fuse, fused_label_map
from .io import (check_output_dir, load_label_raster, load_probability_raster,
                 save_entropy_raster, save_label_raster, save_probability_raster)
from .landscape import edge_table
from .pipeline import load_investigators, load_pipeline_config, run_pipeline
from .synth import materialize_scenario
from .weights import estimate_weights, load_weights_csv, save_weights_csv


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="mapfuse", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="materialize a synthetic scenario")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("-o", "--output", required=True, help="output directory")

    p = sub.add_parser("fuse", help="fuse investigator probability rasters")
    p.add_argument("-i", "--input", required=True, help="directory of rasters")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.add_argument("--weights", default=None,
                   help="'auto' to infer confidence weights, or a CSV path")
    p.add_argument("--cluster", choices=METHODS, default=None,
                   help="cluster maps by entropy and fuse one group only")
    p.add_argument("-k", type=int, default=None, help="cluster count")
    p.add_argument("--group", type=int, help="1-based group index (default 1)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("entropy", help="pixel-wise entropy of a probability raster")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("assess", help="accuracy of a map against a reference")
    p.add_argument("--pred", required=True, help="predicted label raster")
    p.add_argument("--ref", required=True, help="reference label raster")
    p.add_argument("--mc", type=int, default=None,
                   help="Monte Carlo iterations (omit for full-grid only)")
    p.add_argument("--per-class", type=int, default=300, dest="per_class")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("iji", help="interspersion/juxtaposition index of a map")
    p.add_argument("map", help="label raster")

    p = sub.add_parser("pipeline", help="run the full workflow from a config")
    p.add_argument("config", help="pipeline config JSON")
    return top


def _cmd_simulate(args) -> int:
    truth, rasters = materialize_scenario(args.scenario, args.output)
    print(f"wrote truth + {len(rasters)} investigator rasters to {args.output}")
    return 0


def _cmd_fuse(args) -> int:
    # the group options and the output path are checked before any map is read
    if (args.cluster is None) != (args.k is None):
        raise ValueError("--cluster requires -k" if args.k is None else "-k requires --cluster")
    if args.cluster is None and args.group is not None:
        raise ValueError("--group requires --cluster")
    group = 1 if args.group is None else args.group
    if args.cluster is not None and args.k < 2:
        raise ValueError(f"k must be at least 2, got {args.k}")
    if args.cluster is not None and not 1 <= group <= args.k:
        raise ValueError(f"--group must be in [1, {args.k}]")
    check_output_dir(args.output)
    table = (dict(zip(*load_weights_csv(args.weights)))    # read before any map
             if args.weights not in (None, "auto") else None)
    ids, maps = load_investigators(args.input)

    if args.cluster is not None:
        feats = entropy_features(maps)
        fit = kmeans_cluster if args.cluster == "kmeans" else kmedoids_cluster
        model = fit(feats, args.k, args.seed)
        keep = np.flatnonzero(model.assignment == group - 1)
        ids = [ids[i] for i in keep]
        maps = [maps[i] for i in keep]
        print(f"cluster {args.cluster} k={args.k} group {group}: "
              f"{len(maps)} maps ({', '.join(ids)})")

    weights = est = None
    if args.weights == "auto":
        est = estimate_weights(maps, seed=args.seed)
        if not est.converged:
            print(f"warning: weight fit did not converge in {est.iterations} "
                  "iterations; using its last kappa", file=sys.stderr)
        weights = est.kappa
        print("inferred weights: "
              + ", ".join(f"{i}={k:.4g}" for i, k in zip(ids, weights)))
    elif table is not None:
        missing = [i for i in ids if i not in table]
        if missing:
            raise ValueError(f"weights CSV lacks entries for {missing}")
        weights = np.array([table[i] for i in ids])

    out = Path(args.output)            # made by its first file, once the weights are known
    if est is not None:
        save_weights_csv(est, out / "weights.csv", ids=ids)
    mean = fuse(maps, weights=weights)
    save_probability_raster(mean, out / "fused_prob")
    save_label_raster(fused_label_map(mean), out / "fused_label")
    print(f"fused {len(maps)} maps -> {out / 'fused_prob'}, {out / 'fused_label'}")
    return 0


def _cmd_entropy(args) -> int:
    check_output_dir(Path(args.output).parent)       # before the raster is read
    raster = load_probability_raster(args.input)
    save_entropy_raster(raster.shape, entropy_map(raster), args.output)
    print(f"wrote entropy raster to {args.output}")
    return 0


def _cmd_assess(args) -> int:
    if args.mc is not None and args.mc < 2:
        raise ValueError(f"--mc must be at least 2 to give a spread, got {args.mc}")
    pred = load_label_raster(args.pred)
    ref = load_label_raster(args.ref)
    full = accuracy_report(confusion(pred, ref))
    names = ref.shape.class_names
    print(f"full-grid OA: {full.overall:.6f}")
    for c, name in enumerate(names):
        print(f"  {name}: UA={full.users[c]:.6f} PA={full.producers[c]:.6f}")
    if args.mc is not None:
        mc = monte_carlo_assess(pred, ref, args.mc, args.per_class, args.seed)
        oa = mc.overall
        print(f"Monte Carlo ({args.mc} iterations, {args.per_class}/class, "
              f"seed {args.seed}): OA {oa.mean():.6f} +/- {oa.std(ddof=1):.6f}")
    return 0


def _cmd_iji(args) -> int:
    table = edge_table(load_label_raster(args.map))
    value = table.iji
    shown = "undefined" if np.isnan(value) else f"{value:.6f}"
    print(f"m={table.m} E={table.total} IJI={shown}")
    return 0


def _cmd_pipeline(args) -> int:
    bundle = run_pipeline(load_pipeline_config(args.config))
    print(f"pipeline complete: {len(bundle['variants'])} variants "
          f"-> {bundle['output_dir']}")
    for vid in bundle["variants"]:
        row = bundle["summary"][vid]
        j = "undefined" if np.isnan(row["iji"]) else f"{row['iji']:.3f}"
        print(f"  {vid}: OA={row['oa']:.4f} IJI={j}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "fuse": _cmd_fuse,
    "entropy": _cmd_entropy,
    "assess": _cmd_assess,
    "iji": _cmd_iji,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:          # fuse and assess draw from it
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError, NotADirectoryError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:                     # noqa: BLE001 - CLI boundary
        print(f"unexpected failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
