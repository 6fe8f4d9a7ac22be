"""Synthetic scenes and investigators with planted, known reliability.

Real multi-investigator classification data is rarely shareable, so every
quantitative check here runs against generated ground truth: a spatially
coherent label scene (contiguous organic patches, exact class quotas) and
any number of synthetic investigators, each corrupting the truth at a
planted noise rate and emitting probability vectors of planted sharpness.

Scene growth is a seeded random-priority flood fill (invasion-percolation
order): blob seed pixels are planted, then a priority heap grows each
blob outward one pixel at a time, capped by per-class pixel quotas. A
heap entry is one int, (m << bits) | tick, where the push's draw random()
is m * 2**-53 and a seed's m is -1; ticks are unique, so entries pop in
(priority, tick) order. Draws come from rng.random(k) in blocks, used in
push order: the same doubles as one scalar draw per push. Frontiers that
stall (a blob walled in by neighbors after its class hit quota elsewhere)
leave unassigned pockets; a repair pass hands those, nearest first, to
the nearest class that still has quota, keeping class fractions exact
(a pocket walled in by full classes becomes a patch of its own). Quotas
only close classes, so holes are assigned in runs, each ending at the
first hole whose pick would overfill its class: at most one run per class.

Investigator corruption: per pixel, with probability noise_rate the true
label is redrawn from the confusion kernel row of the true class (the
kernel may redraw the truth itself — with the uniform kernel the realized
disagreement rate is noise_rate*(1 - 1/C)); the resulting label y becomes
a probability vector drawn from Dirichlet(softness*onehot(y) + 1).
All randomness is Philox counter-based, keyed by the spec seeds.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import distance_transform_edt

from .grids import NODATA, GridShape, LabelRaster, ProbabilityRaster, _freeze, regularize
from .io import (check_id_cell, check_output_dir, is_bare_file_name, read_json,
                 save_label_raster, save_probability_raster, write_text_atomic)


@dataclass(frozen=True)
class SceneSpec:
    shape: GridShape
    n_blobs: int
    class_mix: tuple
    seed: int

    def __post_init__(self):
        mix = np.asarray(self.class_mix, dtype=np.float64)
        if mix.shape != (self.shape.n_classes,):
            raise ValueError("class_mix length must match n_classes")
        if (mix <= 0).any():
            raise ValueError("every class fraction must be positive")
        if abs(mix.sum() - 1.0) > 1e-9:
            raise ValueError(f"class_mix sums to {mix.sum()}, expected 1")
        if self.n_blobs < self.shape.n_classes:
            raise ValueError("need at least one blob per class")
        if self.n_blobs > self.shape.n_pixels:
            raise ValueError(f"n_blobs {self.n_blobs} exceeds the grid's "
                             f"{self.shape.n_pixels} pixels")
        object.__setattr__(self, "class_mix", tuple(float(f) for f in mix))


@dataclass(frozen=True)
class InvestigatorSpec:
    noise_rate: float
    confusion_kernel: np.ndarray     # (C, C) row-stochastic
    softness: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.noise_rate < 1.0:
            raise ValueError(f"noise_rate must be in [0, 1), got {self.noise_rate}")
        if self.softness <= 0:
            raise ValueError("softness must be positive")
        k = np.asarray(self.confusion_kernel, dtype=np.float64)
        if k.ndim != 2 or k.shape[0] != k.shape[1]:
            raise ValueError("confusion_kernel must be square")
        if (k < 0).any() or np.abs(k.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("confusion_kernel rows must be stochastic")
        diag = np.diag(k)
        if (k > diag[:, None] + 1e-12).any():
            raise ValueError("kernel diagonal must dominate each row")
        object.__setattr__(self, "confusion_kernel", _freeze(k))


def uniform_kernel(n_classes: int) -> np.ndarray:
    return np.full((n_classes, n_classes), 1.0 / n_classes)


def style_kernel(n_classes: int, style: int) -> np.ndarray:
    """Corruption biased toward one systematic confusion per class.

    Style s sends class c mostly to (c + 1 + s) mod C, modeling a group
    of investigators who share an interpretation habit. Diagonal mass
    stays dominant so the spec invariant holds.
    """
    if n_classes < 3:
        raise ValueError("style kernels need at least 3 classes")
    k = np.full((n_classes, n_classes), 0.1 / (n_classes - 2))
    for c in range(n_classes):
        target = (c + 1 + style) % n_classes
        if target == c:
            target = (c + 1) % n_classes
        k[c, c] = 0.5
        k[c, target] = 0.4
    return k


_DRAWS = 1 << 14         # frontier priorities per rng.random call


def _quotas(mix, n_pixels: int) -> np.ndarray:
    exact = np.asarray(mix) * n_pixels
    if (exact < 1.0).any():
        bad = int(np.argmin(exact))
        raise ValueError(f"class {bad} fraction {mix[bad]} yields under one pixel "
                         f"on a {n_pixels}-pixel grid")
    q = np.floor(exact).astype(np.int64)
    # distribute the rounding remainder by largest fractional part
    short = n_pixels - q.sum()
    order = np.argsort(-(exact - q), kind="stable")
    q[order[:short]] += 1
    return q


def generate_scene(spec: SceneSpec) -> LabelRaster:
    """Grow a patchy label scene with exact per-class pixel quotas."""
    shape = spec.shape
    h, w = shape.height, shape.width
    n = shape.n_pixels
    quotas = _quotas(spec.class_mix, n)
    rng = np.random.Generator(np.random.Philox(spec.seed))

    blob_classes = np.concatenate([
        np.arange(shape.n_classes),
        rng.choice(shape.n_classes, size=spec.n_blobs - shape.n_classes,
                   p=np.asarray(spec.class_mix)),
    ])
    rng.shuffle(blob_classes)
    seeds = rng.choice(n, size=spec.n_blobs, replace=False)

    # entry t grows class owner[t] into pixel[t]
    bits = (spec.n_blobs + 4 * n).bit_length()
    mask = (1 << bits) - 1
    pixel, owner = seeds.tolist(), blob_classes.tolist()
    heap = [(-1 << bits) | t for t in range(spec.n_blobs)]
    labels, remaining, draws = [-1] * n, quotas.tolist(), []
    while heap:
        t = heapq.heappop(heap) & mask
        px, cls = pixel[t], owner[t]
        if labels[px] != -1 or not remaining[cls]:
            continue
        labels[px] = cls
        remaining[cls] -= 1
        c = px % w
        # rook neighbours; one off the grid is px itself, which is labelled
        for nb in (px - w if px >= w else px, px + w if px < n - w else px,
                   px - 1 if c else px, px + 1 if c < w - 1 else px):
            if labels[nb] == -1:
                if not draws:
                    draws = (rng.random(_DRAWS) * 2.0**53).astype(np.int64).tolist()[::-1]
                heapq.heappush(heap, (draws.pop() << bits) | len(pixel))
                pixel.append(nb)
                owner.append(cls)

    labels, remaining = np.array(labels), np.array(remaining)
    holes = np.flatnonzero(labels == -1)
    if holes.size:
        # stranded pockets, nearest first, each to its nearest class with quota left
        grid = labels.reshape(h, w)
        open_classes = np.flatnonzero(remaining > 0)
        dist = np.stack([distance_transform_edt(grid != c).ravel()[holes]
                         for c in open_classes])
        order = np.argsort(dist.min(axis=0), kind="stable")
        holes = holes[order]
        rank = open_classes[np.argsort(dist[:, order], axis=0, kind="stable")]
        done = 0
        while done < holes.size:
            left = rank[:, done:]
            pick = left[(remaining[left] > 0).argmax(axis=0), np.arange(left.shape[1])]
            seen = np.cumsum(pick[:, None] == np.arange(remaining.size), axis=0)
            over = seen[np.arange(pick.size), pick] > remaining[pick]
            run = over.argmax() if over.any() else pick.size
            labels[holes[done:done + run]] = pick[:run]
            remaining -= np.bincount(pick[:run], minlength=remaining.size)
            done += run
    if (labels < 0).any() or remaining.any():
        raise RuntimeError("scene repair left pixels unlabeled or quotas unmet")
    return LabelRaster(shape, labels.reshape(h, w))


def generate_investigator(truth: LabelRaster, spec: InvestigatorSpec) -> ProbabilityRaster:
    """Corrupt the truth per spec and emit per-pixel probability vectors."""
    shape = truth.shape
    if spec.confusion_kernel.shape[0] != shape.n_classes:
        raise ValueError("kernel size must match n_classes")
    if (truth.values == NODATA).any():
        raise ValueError("truth must not contain NODATA")
    y = truth.values.ravel().astype(np.int64)
    n = y.size
    rng = np.random.Generator(np.random.Philox(spec.seed))

    hit = rng.random(n) < spec.noise_rate
    cdf = np.cumsum(spec.confusion_kernel, axis=1)
    u = rng.random(n)
    redrawn = (u[:, None] > cdf[y]).sum(axis=1)
    y = np.where(hit, redrawn, y)

    alpha = np.ones((n, shape.n_classes))
    alpha[np.arange(n), y] += spec.softness
    planes = rng.gamma(alpha).T.reshape(shape.n_classes, shape.height, shape.width)
    return ProbabilityRaster(shape, regularize(planes / sum(planes)))


def _checked(value, *kinds):
    if type(value) not in kinds:
        raise TypeError(f"expected {' or '.join(k.__name__ for k in kinds)}, got {value!r}")
    return value


def _kernel_from_json(entry, n_classes: int) -> np.ndarray:
    if entry == "uniform":
        return uniform_kernel(n_classes)
    if isinstance(entry, dict) and "style" in entry:
        return style_kernel(n_classes, _checked(entry["style"], int))
    k = np.asarray(entry, dtype=np.float64)
    if k.shape != (n_classes, n_classes):
        raise ValueError(f"kernel must be {n_classes}x{n_classes}")
    return k


def load_scenario(path):
    """Parse a scenario JSON into (SceneSpec, [(map_id, InvestigatorSpec), ...]);
    a missing or wrongly typed field raises a ValueError naming the file."""
    doc = read_json(path, "scenario", ("scene", "investigators"))
    try:
        sc = doc["scene"]
        names = _checked(sc["class_names"], list)
        shape = GridShape(_checked(sc["width"], int), _checked(sc["height"], int),
                          len(names), tuple(names))
        scene = SceneSpec(shape=shape, n_blobs=_checked(sc["n_blobs"], int),
                          class_mix=tuple(_checked(share, int, float)
                                          for share in _checked(sc["class_mix"], list)),
                          seed=_checked(sc["seed"], int))
        investigators = []
        for inv in doc["investigators"]:
            spec = InvestigatorSpec(
                noise_rate=_checked(inv["noise_rate"], int, float),
                confusion_kernel=_kernel_from_json(inv.get("kernel", "uniform"),
                                                   shape.n_classes),
                softness=_checked(inv["softness"], int, float),
                seed=_checked(inv["seed"], int),
            )
            if not is_bare_file_name(map_id := _checked(inv["id"], str)):
                raise ValueError(f"investigator id {map_id!r} is not a bare file name")
            investigators.append((map_id, spec))
    except KeyError as exc:
        raise ValueError(f"scenario missing field {exc} in {path}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed scenario {path}: {exc}") from exc
    ids = [i for i, _ in investigators]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate investigator ids in {path}")
    # a raster is its payload plus a ".json" header; no two outputs share a file
    owner = dict.fromkeys(("truth", "truth.json", "index.json"))
    for map_id in ids:
        check_id_cell(map_id, path)
        for name in (map_id, map_id + ".json"):
            if owner.setdefault(name, map_id) != map_id:
                raise ValueError(f"investigator id {map_id!r} in {path} would "
                                 f"overwrite the output file {name!r}")
    return scene, investigators


def materialize_scenario(path, out_dir):
    """Generate all rasters a scenario describes and write them to out_dir.

    Produces truth + one probability raster per investigator plus an
    index.json naming them; returns (truth, [(id, raster), ...]).
    """
    check_output_dir(out_dir)
    scene, investigators = load_scenario(path)
    out = Path(out_dir)
    truth = generate_scene(scene)
    save_label_raster(truth, out / "truth")
    rasters = []
    for map_id, spec in investigators:
        raster = generate_investigator(truth, spec)
        save_probability_raster(raster, out / map_id)
        rasters.append((map_id, raster))
    index = {"truth": "truth", "investigators": [i for i, _ in investigators]}
    write_text_atomic(out / "index.json", json.dumps(index, indent=2))
    return truth, rasters


def two_style_scenario(width=128, height=128, n_classes=4, n_per_group=6,
                       scene_seed=7, noise=(0.05, 0.4), softness=(25.0, 4.0),
                       n_blobs=None, inv_seed0=1000) -> dict:
    """Scenario dict with two planted investigator groups.

    Group A (first half): careful, sharp, style-0 confusions. Group B:
    noisy, diffuse, style-1. The groups separate cleanly in entropy
    space, giving clustering checks a known partition.
    """
    names = [f"class{c}" for c in range(n_classes)]
    doc = {
        "scene": {
            "width": width, "height": height, "class_names": names,
            "n_blobs": n_blobs if n_blobs is not None else 6 * n_classes,
            "class_mix": [1.0 / n_classes] * n_classes,
            "seed": scene_seed,
        },
        "investigators": [],
    }
    for g, (nr, soft) in enumerate(zip(noise, softness)):
        for j in range(n_per_group):
            doc["investigators"].append({
                "id": f"g{g}inv{j:02d}",
                "noise_rate": nr,
                "softness": soft,
                "seed": inv_seed0 + 100 * g + j,
                "kernel": {"style": g},
            })
    return doc
