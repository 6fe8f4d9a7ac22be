"""Do two source trees write the same pipeline outputs, byte for byte?

Runs one pipeline config under each tree's ``mapfuse`` (a fresh interpreter
with only that tree on PYTHONPATH), each into its own temporary output
directory, and hashes every file written. ``manifest.json`` is compared as
JSON without ``config.output_dir``, the one entry that names the directory.
Exits 0 when every file matches, and 1 naming each file that differs or is
written on one side only. Where ``weights.csv`` differs, it also prints the
largest relative kappa difference over the investigator ids both sides
wrote; where the manifest's ``weights.trace`` differs, the largest
relative difference over the sweeps both traces hold; and where its
``weights.log_posterior`` differs, the relative difference of the two, so
a change that moves kappa or the fit's objective can say by how much.

    python3 scripts/same_outputs.py BASE_SRC CHANGE_SRC CONFIG
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# the child refuses a mapfuse imported from anywhere but the tree it was given
CHILD = """import sys
from pathlib import Path
import mapfuse
from mapfuse.cli import main
if Path(sys.argv[1]) not in Path(mapfuse.__file__).resolve().parents:
    sys.exit(f"mapfuse imported from {mapfuse.__file__}, not from {sys.argv[1]}")
sys.exit(main(["pipeline", sys.argv[2]]))
"""


def run(src: Path, config: dict, out: Path) -> None:
    """Run the pipeline of the tree ``src`` on ``config``, writing into ``out``."""
    cfg = out.with_suffix(".json")
    cfg.write_text(json.dumps({**config, "output_dir": str(out)}))
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", CHILD, str(src), str(cfg)], env=env,
                          stdout=subprocess.DEVNULL)
    if done.returncode:
        raise RuntimeError(f"the pipeline under {src} exited {done.returncode}")


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


def largest_relative(base, change) -> float:
    """max |c - b| / |b| over the paired values of the two sides."""
    return max((abs(c - b) / abs(b) for b, c in zip(base, change)), default=0.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base_src", help="source tree holding the mapfuse package")
    ap.add_argument("change_src", help="the other source tree")
    ap.add_argument("config", help="pipeline config JSON")
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
    differ = [n for n in sorted(base.keys() | change.keys()) if base.get(n) != change.get(n)]
    for name in differ:
        where = ("differs" if name in base and name in change
                 else "only under base" if name in base else "only under change")
        print(f"{where}: {name}")
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
    print(f"{len(base.keys() | change.keys())} files, {len(differ)} differ "
          "(manifest.json compared without config.output_dir)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
