"""Self-check of the benchmark harness on shrunk panels.

    python3 perfbench/selfcheck.py

Run from the root of a mapfuse checkout. Each workload kind runs on a
small panel, untraced and traced, and the check asserts that every
metric named in BENCHMARK.json is emitted with its declared unit, that
every span nests inside its parent, and that no self time is negative.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import run
import tracing


def shrunk_workloads():
    from workloads import WORKLOADS

    c9 = WORKLOADS["panel-c9"]
    return [
        replace(c9, name="selfcheck-pipeline", width=48, height=48,
                n_investigators=6, mc_iterations=5, per_class_samples=20),
        replace(WORKLOADS["fuse-sweep"], name="selfcheck-sweep", width=48,
                height=48, n_investigators=6, k_values=(2, 3),
                mc_iterations=5, per_class_samples=20),
        replace(WORKLOADS["kappa-batch"], name="selfcheck-kappa", n_panels=2,
                width=16, height=16, subsample=200),
    ]


def check(root: Path) -> list[str]:
    declared = json.loads((root / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in declared["end_to_end"]},
            True: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    errors = []
    for workload in shrunk_workloads():
        for trace in (False, True):
            where = f"{workload.name} trace={int(trace)}"
            result, _, spans = run.run_workload(root, workload, seed=1, seconds=0,
                                                trace=trace, log=lambda *a, **k: None)
            if not result["correct"] or result["failed"]:
                errors.append(f"{where}: outputs failed their checks")
            got = result["metrics"]
            for name, unit in want[trace].items():
                if name not in got:
                    errors.append(f"{where}: metric {name} not emitted")
                elif got[name]["unit"] != unit:
                    errors.append(f"{where}: {name} in {got[name]['unit']}, not {unit}")
            extra = sorted(set(got) - set(want[trace]))
            if extra:
                errors.append(f"{where}: undeclared metrics {extra}")
            if trace:
                if not spans:
                    errors.append(f"{where}: no spans recorded")
                errors += [f"{where}: {e}" for e in tracing.nesting_errors(spans)]
                negative = [s for s, v in tracing.self_times(spans).items() if v < -1e-9]
                if negative:
                    errors.append(f"{where}: negative self time in spans {negative[:5]}")
    return errors


def main() -> int:
    root = Path.cwd()
    try:
        run.import_package(root)
    except run.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    errors = check(root)
    for e in errors:
        print(f"FAIL {e}")
    print("selfcheck: " + ("ok" if not errors else f"{len(errors)} problem(s)"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
