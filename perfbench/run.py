"""mapfuse benchmark: one workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload panel-c9 --seed 1 --seconds 10 --trace 0

Run from the root of a mapfuse checkout; the package is imported from
``src/``. One process, one caller, one operation at a time (a closed
loop); the pipeline keeps its own thread pool. The run

1. sets the workload up several times (``synth`` generation plus raster
   writes) and reports the median as ``setup_s``; each set-up replaces
   the last, and the operations use the final one;
2. repeats the operation until ``--seconds`` have passed and the
   workload's minimum count is reached, checking every output;
3. prints a report line (metadata, CSV fingerprints, sample counts) and,
   as the last line, the result object.

With ``--trace 0`` the result holds the end-to-end metrics. With
``--trace 1`` operations alternate between untraced and traced, and the
result holds the per-layer metrics of the traced ones (medians per
operation) plus the tracing overhead; spans are written to
``.perfbench/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing

# Set-ups per run: at least SETUP_REPEATS, more while they total under
# SETUP_SECONDS, so a cheap set-up still gives a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0

END_TO_END = {
    "wall_s": "s",
    "wall_tail_s": "s",
    "mpx_per_s": "Mpx/s",
    "setup_s": "s",
    "fused_oa": "ratio",
    "kappa_auc": "ratio",
    "cluster_ari": "ratio",
}

PER_LAYER = {
    "weights.fit_s": "s", "weights.fit_cpu_s": "s", "weights.fits": "count",
    "weights.iterations": "count", "weights.converged_ratio": "ratio",
    "weights.panel_elems": "count",
    "clustering.features_s": "s", "clustering.kmeans_s": "s",
    "clustering.kmeans_calls": "count", "clustering.kmedoids_s": "s",
    "clustering.kmedoids_calls": "count",
    "fusion.fuse_s": "s", "fusion.fuse_cpu_s": "s", "fusion.fuse_calls": "count",
    "fusion.stack_mb": "MB", "fusion.label_s": "s",
    "accuracy.mc_s": "s", "accuracy.mc_cpu_s": "s", "accuracy.mc_calls": "count",
    "accuracy.mc_samples": "count", "accuracy.ttest_s": "s",
    "landscape.iji_s": "s", "landscape.iji_calls": "count",
    "landscape.iji_csv_s": "s",
    "io.load_s": "s", "io.load_mb": "MB", "io.write_s": "s",
    "io.write_calls": "count", "io.write_mb": "MB",
    "pipeline.prefix_s": "s", "pipeline.pool_s": "s",
    "pipeline.pool_thread_s": "s", "pipeline.joins_s": "s",
    "pipeline.parallelism": "ratio", "pipeline.plurality_s": "s",
    "pipeline.variants": "count",
    "synth.scene_s": "s", "synth.investigators_s": "s",
    "io.self_s": "s", "synth.self_s": "s", "clustering.self_s": "s",
    "weights.self_s": "s", "fusion.self_s": "s", "accuracy.self_s": "s",
    "landscape.self_s": "s", "pipeline.self_s": "s", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
    "peak_rss_mb": "MB",
}

LAYERS = ("io", "synth", "clustering", "weights", "fusion", "accuracy",
          "landscape", "pipeline", "cli")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package sources)."""


def import_package(root: Path):
    src = root / "src"
    if not (src / "mapfuse" / "__init__.py").is_file():
        raise SetupError(f"no mapfuse package under {src}")
    sys.path.insert(0, str(src))
    import mapfuse
    if Path(mapfuse.__file__).resolve().parent != (src / "mapfuse").resolve():
        raise SetupError(f"imported mapfuse from {mapfuse.__file__}, not {src}")
    return mapfuse


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(root: Path) -> dict:
    import numpy
    import scipy

    src = root / "src" / "mapfuse"
    loc = sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py")))
    return {
        "commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "src_mapfuse_loc": loc,
    }


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least 10
    samples above it; the median when that falls below it."""
    s = sorted(values)
    n = len(s)
    med = statistics.median(s)
    k = n - 11           # 0-based index with n - 1 - k = 10 samples beyond
    if k >= 0 and s[k] >= med:
        return s[k], 100.0 * (k + 1) / n
    return med, 50.0


# ---- per-layer metrics from one traced operation's spans -------------------

def layer_metrics(spans, wall: float, process_cpu: float) -> dict:
    def of(layer, *names):
        return [s for s in spans if s.layer == layer and s.name in names]

    def dur(ss):
        return sum(s.duration for s in ss)

    def cpu(ss):
        return sum(s.cpu for s in ss)

    def count(ss, key):
        return sum(s.counts[key] for s in ss)

    fits = of("weights", "estimate_weights")
    fuses = of("fusion", "fuse")
    mcs = of("accuracy", "monte_carlo_assess")
    loads = of("io", "load_probability_raster", "load_label_raster")
    writes = of("io", "save_probability_raster", "save_label_raster")
    m = {
        "weights.fit_s": dur(fits),
        "weights.fit_cpu_s": cpu(fits),
        "weights.fits": len(fits),
        "weights.iterations": count(fits, "iterations"),
        "weights.converged_ratio": count(fits, "converged") / len(fits) if fits else 0.0,
        "weights.panel_elems": count(fits, "panel_elems") / len(fits) if fits else 0.0,
        "clustering.features_s": dur(of("clustering", "entropy_features")),
        "clustering.kmeans_s": dur(of("clustering", "kmeans_cluster")),
        "clustering.kmeans_calls": len(of("clustering", "kmeans_cluster")),
        "clustering.kmedoids_s": dur(of("clustering", "kmedoids_cluster")),
        "clustering.kmedoids_calls": len(of("clustering", "kmedoids_cluster")),
        "fusion.fuse_s": dur(fuses),
        "fusion.fuse_cpu_s": cpu(fuses),
        "fusion.fuse_calls": len(fuses),
        "fusion.stack_mb": count(fuses, "stack_mb"),
        "fusion.label_s": dur(of("fusion", "fused_label_map")),
        "accuracy.mc_s": dur(mcs),
        "accuracy.mc_cpu_s": cpu(mcs),
        "accuracy.mc_calls": len(mcs),
        "accuracy.mc_samples": count(mcs, "samples"),
        "accuracy.ttest_s": dur(of("accuracy", "paired_t_test")),
        "landscape.iji_s": dur(of("landscape", "iji")),
        "landscape.iji_calls": len(of("landscape", "iji")),
        "landscape.iji_csv_s": dur(of("landscape", "write_iji_csv")),
        "io.load_s": dur(loads),
        "io.load_mb": count(loads, "mb"),
        "io.write_s": dur(writes),
        "io.write_calls": len(writes),
        "io.write_mb": count(writes, "mb"),
        "pipeline.plurality_s": dur(of("pipeline", "plurality_baseline")),
    }
    m.update(pool_metrics(spans))
    m["pipeline.parallelism"] = process_cpu / wall
    selfs = tracing.self_times(spans)
    for layer in LAYERS:
        if layer != "synth":
            m[f"{layer}.self_s"] = sum(selfs[s.id] for s in spans if s.layer == layer)
    m["trace.spans"] = len(spans)
    return m


def pool_metrics(spans) -> dict:
    """Split ``run_pipeline`` into the part before the first pool task,
    the pool's span, and the joins after the last pool task ends."""
    runs = [s for s in spans if s.layer == "pipeline" and s.name == "run_pipeline"]
    zero = {"pipeline.prefix_s": 0.0, "pipeline.pool_s": 0.0,
            "pipeline.pool_thread_s": 0.0, "pipeline.joins_s": 0.0}
    if not runs:
        return zero
    run = runs[0]
    pool = [s for s in spans if s.parent == run.id and s.thread != run.thread]
    if not pool:
        return zero
    first = min(s.start for s in pool)
    last = max(s.end for s in pool)
    return {"pipeline.prefix_s": first - run.start,
            "pipeline.pool_s": last - first,
            "pipeline.pool_thread_s": sum(s.duration for s in pool),
            "pipeline.joins_s": run.end - last}


# ---- one run -----------------------------------------------------------------

def run_workload(root: Path, workload, seed: int, seconds: float, trace: bool,
                 log=print):
    """Set up, run and check one workload; returns (result, report, spans)."""
    import mapfuse.weights

    work = root / ".perfbench" / f"work-{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = tracing.Tracer()
    all_spans = []
    fits = []
    original_fit = mapfuse.weights.estimate_weights

    def capture_fit(*args, **kwargs):
        est = original_fit(*args, **kwargs)
        fits.append(est)
        return est

    # The weight checks need every fit's result, traced or not.
    captured = tracing.replace_everywhere(original_fit, capture_fit)
    try:
        setup_times, synth_metrics = [], []
        r = 0
        while r < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            if r:
                shutil.rmtree(work / f"setup{r - 1}")
            if trace:
                tracer.install()
            t0 = time.perf_counter()
            try:
                state = workload.setup(work / f"setup{r}", seed)
            finally:
                if trace:
                    tracer.uninstall()
            setup_times.append(time.perf_counter() - t0)
            if trace:
                spans = tracer.take()
                all_spans += spans
                selfs = tracing.self_times(spans)
                synth_metrics.append({
                    "synth.scene_s": sum(s.duration for s in spans
                                         if s.name == "generate_scene"),
                    "synth.investigators_s": sum(s.duration for s in spans
                                                 if s.name == "generate_investigator"),
                    "synth.self_s": sum(selfs[s.id] for s in spans if s.layer == "synth")})
            r += 1
        log(f"# setup {workload.name}: " + " ".join(f"{t:.3f}s" for t in setup_times))

        walls, traced_walls, per_op = [], [], []
        attempted = failed = 0
        # Operations run in whole cycles (one fit of every panel, or one
        # pipeline run); a traced run alternates untraced and traced cycles
        # and makes at least one of each.
        cycle = workload.cycle
        min_ops = cycle * (2 if trace else 1)
        t_start = time.perf_counter()
        i = 0
        while (i < min_ops or i % cycle
               or time.perf_counter() - t_start < seconds):
            state.prepare_op(i)
            traced = trace and (i // cycle) % 2 == 1
            fits.clear()
            attempted += 1
            if traced:
                tracer.install()
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                out = state.run_op(i)
            except Exception:                      # noqa: BLE001 - counted as failed
                traceback.print_exc()
                out = None
            finally:
                wall = time.perf_counter() - t0
                cpu = time.process_time() - c0
                if traced:
                    tracer.uninstall()
            problems = (["operation raised"] if out is None
                        else state.check_op(i, out, list(fits)))
            if problems:
                failed += 1
                log(f"# op {i} failed: {'; '.join(problems)}", file=sys.stderr)
            elif traced:
                spans = tracer.take()
                all_spans += spans
                errors = tracing.nesting_errors(spans)
                if errors:
                    raise RuntimeError("spans do not nest: " + "; ".join(errors[:3]))
                metrics = layer_metrics(spans, wall, cpu)
                metrics["pipeline.variants"] = state.variants()
                per_op.append(metrics)
                traced_walls.append(wall)
            else:
                walls.append(wall)
            log(f"# op {i}{' traced' if traced else ''}: {wall:.4f}s"
                f"{' FAILED' if problems else ''}")
            tracer.take()      # drop the spans of a failed operation
            i += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not walls or (trace and not per_op):
            raise RuntimeError("no untraced or no traced operation succeeded")

        quality = state.quality()
        wall_s = statistics.median(walls)
        tail_s, tail_pct = tail(walls)
        if trace:
            metrics = {k: statistics.median(op[k] for op in per_op)
                       for k in per_op[0]}
            metrics.update({k: statistics.median(s[k] for s in synth_metrics)
                            for k in synth_metrics[0]})
            metrics["trace.wall_s"] = statistics.median(traced_walls)
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall_s
            metrics["peak_rss_mb"] = peak_rss_mb
            units = PER_LAYER
        else:
            metrics = {
                "wall_s": wall_s,
                "wall_tail_s": tail_s,
                "mpx_per_s": workload.investigator_pixels / 1e6 / wall_s,
                "setup_s": statistics.median(setup_times),
                **quality,
            }
            units = END_TO_END
        correct = (failed == 0 and quality["kappa_auc"] > 0.5
                   and quality["cluster_ari"] > 0.0 and quality["fused_oa"] > 0.25)
        result = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        }
        report = {
            "workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": trace, "meta": metadata(root),
            "wall_samples": len(walls), "wall_tail_percentile": tail_pct,
            "setup_samples": setup_times, "peak_rss_mb": peak_rss_mb,
            "quality": quality, "failed_ratio": failed / attempted,
            "csv_sha256": state.fingerprints,
        }
        return result, report, all_spans
    finally:
        tracing.restore(captured)
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        import_package(root)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS      # imports mapfuse, so after the check

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    def log(msg, file=sys.stdout):
        print(msg, file=file, flush=True)

    result, report, spans = run_workload(root, WORKLOADS[args.workload], args.seed,
                                         args.seconds, bool(args.trace), log=log)
    if args.trace:
        path = root / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracing.write_jsonl(spans, path)
        report["spans_file"] = str(path.relative_to(root))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
