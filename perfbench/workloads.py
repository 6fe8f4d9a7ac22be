"""The benchmark's workloads: inputs made from a seed, one operation, checks.

Each workload writes its inputs with ``mapfuse.synth`` and ``mapfuse.io``
in ``setup``; the program under test only ever receives those raster
files. ``run_op`` is one timed operation; ``check_op`` and ``quality``
run untimed after it, against ground truth the workload planted.

Workloads:

* ``panel-c9``   the criterion-9 panel through ``mapfuse pipeline``:
  256x256x4, 44 investigators in two planted groups, all three modes,
  kmeans and kmedoids at k=2,3,4 (21 variants), Monte Carlo 100x300.
* ``fuse-sweep`` 512x512x4, 16 investigators, unweighted and clustered
  modes only, kmedoids at k=2..6 (22 variants, no weight fit).
* ``kappa-batch`` independent ``estimate_weights`` fits set up as in
  criterion 5: 32x32x4, 12 investigators at noise 0.05/0.2/0.4,
  subsample 1024; one fit per operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import shutil
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

import mapfuse.accuracy as accuracy
import mapfuse.cli as cli
import mapfuse.clustering as clustering
import mapfuse.fusion as fusion
import mapfuse.io as mio
import mapfuse.synth as synth
import mapfuse.weights as weights
from mapfuse.grids import GridShape


def kappa_pairs(kappa, noise) -> tuple[int, int]:
    """(pairs ordered correctly, pairs) over investigators whose planted
    noise differs; lower noise should get the larger kappa."""
    good = total = 0
    for i, j in combinations(range(len(noise)), 2):
        if noise[i] == noise[j]:
            continue
        total += 1
        good += (kappa[i] > kappa[j]) == (noise[i] < noise[j])
    return good, total


def trace_is_monotone(trace) -> bool:
    t = np.asarray(trace, dtype=np.float64)
    if t.size < 2:
        return True
    return bool((np.diff(t) >= -1e-9 * np.maximum(1.0, np.abs(t[:-1]))).all())


def fit_problems(est) -> list[str]:
    problems = []
    if not np.isfinite(est.kappa).all():
        problems.append("non-finite kappa")
    if not trace_is_monotone(est.trace):
        problems.append("kappa objective trace decreased")
    return problems


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def two_group_panel(shape, scene_seed, inv_seed0, n_investigators, noise,
                    softness, n_blobs=24):
    """Truth plus investigators alternating between two planted groups
    (group j % 2) with their own noise, softness and confusion style."""
    truth = synth.generate_scene(synth.SceneSpec(
        shape=shape, n_blobs=n_blobs, class_mix=(1.0 / shape.n_classes,) * shape.n_classes,
        seed=scene_seed))
    for j in range(n_investigators):
        g = j % 2
        spec = synth.InvestigatorSpec(
            noise_rate=noise[g], confusion_kernel=synth.style_kernel(shape.n_classes, g),
            softness=softness[g], seed=inv_seed0 + j)
        yield truth, j, g, synth.generate_investigator(truth, spec)


@dataclass(frozen=True)
class PipelineWorkload:
    """A planted two-group panel run through ``mapfuse pipeline``."""

    name: str
    width: int
    height: int
    n_investigators: int
    fusion_modes: tuple
    methods: tuple
    k_values: tuple
    quality_variant: str
    mc_iterations: int = 100
    per_class_samples: int = 300
    noise: tuple = (0.05, 0.4)
    softness: tuple = (25.0, 4.0)
    cycle: int = 1

    @property
    def investigator_pixels(self) -> int:
        return self.n_investigators * self.width * self.height

    def setup(self, root: Path, seed: int) -> "PipelineState":
        data = root / "data"
        data.mkdir(parents=True)
        shape = GridShape(self.width, self.height, 4, ("a", "b", "c", "d"))
        ids, groups = [], []
        panel = two_group_panel(shape, 10_000 + seed, 100_000 + 1000 * seed,
                                self.n_investigators, self.noise, self.softness)
        for truth, j, g, raster in panel:
            if j == 0:
                mio.save_label_raster(truth, data / "truth")
            map_id = f"inv{j:02d}"
            mio.save_probability_raster(raster, data / map_id)
            ids.append(map_id)
            groups.append(g)
        (data / "index.json").write_text(
            json.dumps({"truth": "truth", "investigators": ids}))
        out = root / "out"
        config = root / "pipeline.json"
        config.write_text(json.dumps({
            "input_dir": str(data), "reference": str(data / "truth"),
            "output_dir": str(out), "k_values": list(self.k_values),
            "methods": list(self.methods), "fusion_modes": list(self.fusion_modes),
            "mc_iterations": self.mc_iterations,
            "per_class_samples": self.per_class_samples, "seed": 0}))
        return PipelineState(self, seed, data, out, config, ids, groups)


@dataclass
class PipelineState:
    workload: PipelineWorkload
    seed: int
    data: Path
    out: Path
    config: Path
    ids: list
    groups: list
    first_csv: dict | None = None
    fingerprints: dict = field(default_factory=dict)

    def prepare_op(self, i: int) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def run_op(self, i: int) -> int:
        with contextlib.redirect_stdout(_stdio.StringIO()):
            return cli.main(["pipeline", str(self.config)])

    def check_op(self, i: int, code: int, fits: list) -> list[str]:
        if code != 0:
            return [f"pipeline exit code {code}"]
        if not (self.out / "manifest.json").is_file():
            return ["manifest.json missing"]
        problems = []
        manifest = json.loads((self.out / "manifest.json").read_text())
        for v in manifest["variants"]:
            missing = [f for f in v["files"] if not (self.out / f).is_file()]
            if missing:
                problems.append(f"variant {v['id']} lacks {missing}")
        missing = [t for t in manifest["tables"] if not (self.out / t).is_file()]
        if missing:
            problems.append(f"tables missing: {missing}")
        csv = {p.name: sha256(p) for p in sorted(self.out.glob("*.csv"))}
        if self.first_csv is None:
            self.first_csv = csv
            self.fingerprints = csv
        elif csv != self.first_csv:
            differ = sorted(n for n in set(csv) | set(self.first_csv)
                            if csv.get(n) != self.first_csv.get(n))
            problems.append(f"CSV bytes differ from the first repetition: {differ}")
        for est in fits:
            problems += fit_problems(est)
        return problems

    def variants(self) -> int:
        return len(json.loads((self.out / "manifest.json").read_text())["variants"])

    def quality(self) -> dict:
        """Quality guards from the last operation's outputs, except kappa.

        On these panels the noisy group is also the diffuse one, and the
        model ranks diffuse maps above sharp ones, so the kappa guard fits
        small criterion-5 panels instead, where investigators differ in
        noise alone (the weighted variant's OA guards this panel's fit).
        """
        w = self.workload
        fused_oa = None
        for line in (self.out / "summary.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            if cells[0] == w.quality_variant:
                fused_oa = float(cells[1])
        aris = []
        for method in w.methods:
            model = clustering.load_cluster_model(self.out / f"cluster_{method}_k2.json")
            aris.append(clustering.adjusted_rand_index(model.assignment, self.groups))
        probe = KappaBatchWorkload(name="kappa-probe", n_panels=2)
        state = probe.setup(self.out.parent / "kappa-probe", self.seed)
        for b in range(probe.n_panels):
            state.check_op(b, state.run_op(b), [])
        return {"fused_oa": fused_oa, "kappa_auc": state.kappa_auc(),
                "cluster_ari": min(aris)}


@dataclass(frozen=True)
class KappaBatchWorkload:
    """Independent weight fits on small criterion-5 panels, one per op."""

    name: str
    n_panels: int = 8
    width: int = 32
    height: int = 32
    noise_levels: tuple = (0.05, 0.2, 0.4)
    per_level: int = 4
    softness: float = 10.0
    subsample: int = 1024

    @property
    def cycle(self) -> int:
        return self.n_panels     # a run fits every panel equally often

    @property
    def investigator_pixels(self) -> int:
        return len(self.noise_levels) * self.per_level * self.width * self.height

    def setup(self, root: Path, seed: int) -> "KappaBatchState":
        shape = GridShape(self.width, self.height, 4)
        panels = []
        for b in range(self.n_panels):
            d = root / f"panel{b:02d}"
            d.mkdir(parents=True)
            s = 1000 * seed + b
            truth = synth.generate_scene(synth.SceneSpec(
                shape=shape, n_blobs=8, class_mix=(0.25,) * 4, seed=20_000 + s))
            mio.save_label_raster(truth, d / "truth")
            paths, noise = [], []
            for i, nr in enumerate(self.noise_levels):
                for r in range(self.per_level):
                    raster = synth.generate_investigator(truth, synth.InvestigatorSpec(
                        noise_rate=nr, confusion_kernel=synth.uniform_kernel(4),
                        softness=self.softness, seed=30_000 + 7 * s + 13 * i + r))
                    path = d / f"inv{i}{r}"
                    mio.save_probability_raster(raster, path)
                    paths.append(path)
                    noise.append(nr)
            panels.append((d / "truth", paths, noise))
        return KappaBatchState(self, seed, panels)


@dataclass
class KappaBatchState:
    workload: KappaBatchWorkload
    seed: int
    panels: list
    fits: dict = field(default_factory=dict)     # panel -> first estimate
    fingerprints: dict = field(default_factory=dict)

    def prepare_op(self, i: int) -> None:
        pass

    def run_op(self, i: int):
        b = i % len(self.panels)
        maps = [mio.load_probability_raster(p) for p in self.panels[b][1]]
        return weights.estimate_weights(maps, subsample=self.workload.subsample, seed=b)

    def check_op(self, i: int, est, fits: list) -> list[str]:
        b = i % len(self.panels)
        self.fits.setdefault(b, est)
        return fit_problems(est)

    def variants(self) -> int:
        return 0

    def kappa_auc(self) -> float:
        """Pairs ordered correctly over the first fit of every panel."""
        good = total = 0
        for b, est in self.fits.items():
            g, t = kappa_pairs(est.kappa, self.panels[b][2])
            good, total = good + g, total + t
        return good / total

    def quality(self) -> dict:
        """kappa guard from the first fit of every panel; the fusion guard
        fuses each panel with its fitted kappa (full-grid OA against the
        planted truth); the clustering guard clusters a separate planted
        two-group panel, since these panels share one entropy profile."""
        oas = []
        for b, est in self.fits.items():
            truth_path, paths, _ = self.panels[b]
            maps = [mio.load_probability_raster(p) for p in paths]
            label = fusion.fused_label_map(fusion.fuse(maps, weights=est.kappa))
            truth = mio.load_label_raster(truth_path)
            oas.append(accuracy.accuracy_report(accuracy.confusion(label, truth)).overall)
        shape = GridShape(64, 64, 4)
        groups, maps = [], []
        for _, _, grp, raster in two_group_panel(
                shape, 40_000 + self.seed, 50_000 + 100 * self.seed, 12,
                noise=(0.02, 0.70), softness=(60.0, 2.5)):
            groups.append(grp)
            maps.append(raster)
        feats = clustering.entropy_features(maps)
        aris = [clustering.adjusted_rand_index(fit(feats, 2, 0).assignment, groups)
                for fit in (clustering.kmeans_cluster, clustering.kmedoids_cluster)]
        return {"fused_oa": float(np.mean(oas)), "kappa_auc": self.kappa_auc(),
                "cluster_ari": min(aris)}


WORKLOADS = {
    w.name: w for w in (
        PipelineWorkload(
            name="panel-c9", width=256, height=256, n_investigators=44,
            fusion_modes=("unweighted", "weighted", "clustered"),
            methods=("kmeans", "kmedoids"), k_values=(2, 3, 4),
            quality_variant="weighted"),
        PipelineWorkload(
            name="fuse-sweep", width=512, height=512, n_investigators=16,
            fusion_modes=("unweighted", "clustered"), methods=("kmedoids",),
            k_values=(2, 3, 4, 5, 6), quality_variant="unweighted"),
        KappaBatchWorkload(name="kappa-batch"),
    )
}
