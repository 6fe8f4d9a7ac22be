"""Do two source trees write the same pipeline or scenario outputs, byte for byte?

Runs one pipeline config under each tree's ``mapfuse`` (a fresh interpreter
with only that tree on PYTHONPATH), each into its own temporary output
directory, and hashes every file written. A scenario JSON (a file with a
``scene`` key) is run through ``mapfuse simulate`` instead, so the truth
scene, every investigator raster, their headers and index.json are
compared. ``manifest.json`` is compared as
JSON without ``config.output_dir``, the one entry that names the directory.
Exits 0 when every file matches, and 1 naming each file that differs or is
written on one side only. Where ``weights.csv`` differs, it also prints the
largest relative kappa difference over the investigator ids both sides
wrote; where the manifest's ``weights.trace`` differs, the largest
relative difference over the sweeps both traces hold; and where its
``weights.log_posterior`` differs, the relative difference of the two, so
a change that moves kappa or the fit's objective can say by how much.
Where a ``*_prob`` raster payload differs, it prints how many f32 samples
differ and the largest absolute difference; where a ``*_label`` payload
differs, how many pixels differ; and where ``manifest.json`` differs, the
dotted path of each manifest entry that differs (``weights.trace``).

    python3 scripts/same_outputs.py BASE_SRC CHANGE_SRC CONFIG_OR_SCENARIO
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

# the child refuses a mapfuse imported from anywhere but the tree it was given
CHILD = """import sys
from pathlib import Path
import mapfuse
from mapfuse.cli import main
if Path(sys.argv[1]) not in Path(mapfuse.__file__).resolve().parents:
    sys.exit(f"mapfuse imported from {mapfuse.__file__}, not from {sys.argv[1]}")
sys.exit(main(sys.argv[2:]))
"""


def run(src: Path, config: dict, out: Path) -> None:
    """Run the tree ``src`` on ``config``, writing into ``out``: ``mapfuse
    simulate`` for a scenario (a ``scene`` key), ``mapfuse pipeline`` otherwise."""
    cfg = out.with_suffix(".json")
    if "scene" in config:
        cfg.write_text(json.dumps(config))
        argv = ["simulate", str(cfg), "-o", str(out)]
    else:
        cfg.write_text(json.dumps({**config, "output_dir": str(out)}))
        argv = ["pipeline", str(cfg)]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", CHILD, str(src), *argv], env=env,
                          stdout=subprocess.DEVNULL)
    if done.returncode:
        raise RuntimeError(f"mapfuse {argv[0]} under {src} exited {done.returncode}")


def outputs(out: Path) -> dict:
    """Relative path -> sha256 of each file, and the manifest without its output_dir."""
    found = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        name = path.relative_to(out).as_posix()
        if name == "manifest.json":
            manifest = json.loads(path.read_text())
            manifest["config"].pop("output_dir")
            found[name] = manifest
        else:
            found[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


def kappas(out: Path) -> dict:
    """Investigator id -> kappa from the run's weights.csv; empty without one."""
    path = out / "weights.csv"
    if not path.is_file():
        return {}
    rows = (line.split(",") for line in path.read_text().splitlines()[1:])
    return {name: float(kappa) for name, kappa in rows}


def raster_difference(name: str, base: Path, change: Path):
    """How the payload ``name`` differs between the two output directories:
    differing f32 samples and the largest absolute difference for a
    ``*_prob`` raster, differing pixels for a ``*_label`` one; None for any
    other file."""
    kinds = {"_prob": ("<f4", "f32 samples"), "_label": ("u1", "pixels")}
    suffix = next((k for k in kinds if name.endswith(k)), None)
    if suffix is None:
        return None
    dtype, unit = kinds[suffix]
    was, now = (np.fromfile(side / name, dtype=dtype) for side in (base, change))
    if was.size != now.size:
        return f"{was.size} against {now.size} {unit}"
    text = f"{int((was != now).sum())} of {was.size} {unit} differ"
    if suffix == "_prob":
        gap = np.abs(was.astype(np.float64) - now.astype(np.float64)).max()
        text += f", largest absolute difference {gap:.3g}"
    return text


def differing_keys(base, change, path="") -> list:
    """Dotted paths of the entries that differ between two JSON values,
    descending into objects; a list or any other value differs whole."""
    if not (isinstance(base, dict) and isinstance(change, dict)):
        return [] if base == change else [path]
    missing = object()
    return [key for k in sorted(base.keys() | change.keys())
            for key in differing_keys(base.get(k, missing), change.get(k, missing),
                                      f"{path}.{k}" if path else k)]


def largest_relative(base, change) -> float:
    """max |c - b| / |b| over the paired values of the two sides."""
    return max((abs(c - b) / abs(b) for b, c in zip(base, change)), default=0.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base_src", help="source tree holding the mapfuse package")
    ap.add_argument("change_src", help="the other source tree")
    ap.add_argument("config", help="pipeline config JSON, or a scenario JSON")
    args = ap.parse_args(argv)
    config = json.loads(Path(args.config).read_text())
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        sides, weights = {}, {}
        for side, src in (("base", args.base_src), ("change", args.change_src)):
            out = Path(tmp) / side
            try:
                run(Path(src).resolve(), config, out)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            sides[side] = outputs(out)
            weights[side] = kappas(out)
        base, change = sides["base"], sides["change"]
        differ = [n for n in sorted(base.keys() | change.keys())
                  if base.get(n) != change.get(n)]
        for name in differ:
            where = ("differs" if name in base and name in change
                     else "only under base" if name in base else "only under change")
            print(f"{where}: {name}")
            if where != "differs":
                continue
            if name == "manifest.json":
                detail = "entries that differ: " + ", ".join(
                    differing_keys(base[name], change[name]))
            else:
                detail = raster_difference(name, Path(tmp) / "base", Path(tmp) / "change")
            if detail:
                print(f"  {detail}")
    if "weights.csv" in differ and weights["base"] and weights["change"]:
        was, now = weights["base"], weights["change"]
        ids = sorted(was.keys() & now.keys())
        move = largest_relative([was[i] for i in ids], [now[i] for i in ids])
        print(f"weights.csv: largest relative kappa difference {move:.3g} "
              f"over {len(ids)} shared ids")
    fits = [side.get("manifest.json", {}).get("weights", {}) for side in (base, change)]
    traces = [fit.get("trace") for fit in fits]
    if None not in traces and traces[0] != traces[1]:
        print(f"manifest.json weights.trace: largest relative difference "
              f"{largest_relative(*traces):.3g} over {min(map(len, traces))} shared sweeps "
              f"(base {len(traces[0])}, change {len(traces[1])})")
    posteriors = [fit.get("log_posterior") for fit in fits]
    if None not in posteriors and posteriors[0] != posteriors[1]:
        print(f"manifest.json weights.log_posterior: relative difference "
              f"{largest_relative([posteriors[0]], [posteriors[1]]):.3g}")
    note = (" (manifest.json compared without config.output_dir)"
            if "manifest.json" in base.keys() | change.keys() else "")
    print(f"{len(base.keys() | change.keys())} files, {len(differ)} differ{note}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
