"""Span tracing around calls into the mapfuse package, from outside it.

The tracer wraps public functions of the package's modules in place:
every module attribute (in any ``mapfuse`` module) that refers to the
original function is replaced by the wrapper, so calls made through
``from .fusion import fuse`` in ``pipeline`` are seen as well as calls
made inside a module. Nothing under ``src/`` is edited.

A span records its layer, function, start, end, thread, parent span and
the thread CPU time (``time.thread_time``) spent inside it. Spans are
kept in memory; ``write_jsonl`` writes them out once the run ends.
Calls made on a pool thread that has no open span of its own are parented
to the innermost span open on the thread that entered the traced region.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float
    thread: int
    cpu: float
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _mb(n_bytes) -> float:
    return n_bytes / 1e6


def _file_mb(path) -> float:
    return _mb(os.path.getsize(path))


def _load_counts(args, kwargs, result):
    return {"mb": _file_mb(args[0])}


def _save_counts(args, kwargs, result):
    return {"mb": _file_mb(args[1])}


def _fuse_counts(args, kwargs, result):
    maps = args[0]
    s = maps[0].shape
    return {"stack_mb": _mb(len(maps) * s.height * s.width * s.n_classes * 8)}


def _fit_counts(args, kwargs, result):
    maps = args[0]
    s = maps[0].shape
    n = min(kwargs.get("subsample", 10_000), s.n_pixels)
    return {"iterations": result.iterations, "converged": int(result.converged),
            "panel_elems": len(maps) * n * s.n_classes}


def _mc_counts(args, kwargs, result):
    ref = args[1]
    return {"samples": args[2] * args[3] * ref.shape.n_classes}


# (module, function, counter) for every call the benchmark traces. The
# layer of a span is the module name.
TRACED = (
    ("io", "load_probability_raster", _load_counts),
    ("io", "load_label_raster", _load_counts),
    ("io", "save_probability_raster", _save_counts),
    ("io", "save_label_raster", _save_counts),
    ("synth", "generate_scene", None),
    ("synth", "generate_investigator", None),
    ("clustering", "entropy_features", None),
    ("clustering", "kmeans_cluster", None),
    ("clustering", "kmedoids_cluster", None),
    ("clustering", "save_cluster_model", None),
    ("weights", "estimate_weights", _fit_counts),
    ("weights", "save_weights_csv", None),
    ("fusion", "fuse", _fuse_counts),
    ("fusion", "fused_label_map", None),
    ("accuracy", "monte_carlo_assess", _mc_counts),
    ("accuracy", "write_mc_csv", None),
    ("accuracy", "paired_t_test", None),
    ("landscape", "iji", None),
    ("landscape", "write_iji_csv", None),
    ("pipeline", "discover_investigators", None),
    ("pipeline", "plurality_baseline", None),
    ("pipeline", "run_pipeline", None),
    ("cli", "main", None),
)


def replace_everywhere(original, replacement) -> list:
    """Point every mapfuse module attribute bound to ``original`` at
    ``replacement``; returns (module, attribute) pairs for ``restore``."""
    patched = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "mapfuse" or mod_name.startswith("mapfuse.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patched.append((mod, attr, original))
    return patched


def restore(patched) -> None:
    for mod, attr, original in reversed(patched):
        setattr(mod, attr, original)


class Tracer:
    """Collects spans from wrapped package functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._entry_stack: list[int] | None = None
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if tracer._entry_stack is None:
                tracer._entry_stack = stack
            if stack:
                parent = stack[-1]
            elif tracer._entry_stack:
                parent = tracer._entry_stack[-1]
            else:
                parent = None
            with tracer._lock:
                sid = next(tracer._ids)
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu = time.thread_time() - c0
                stack.pop()
            counts = counter(args, kwargs, result) if counter else {}
            span = Span(sid, parent, layer, name, t0, t1,
                        threading.get_ident(), cpu, counts)
            with tracer._lock:
                tracer.spans.append(span)
            return result

        return traced

    def install(self) -> None:
        import importlib

        for layer, name, counter in TRACED:
            module = importlib.import_module(f"mapfuse.{layer}")
            original = getattr(module, name)
            wrapper = self._wrap(layer, name, original, counter)
            self._patched += replace_everywhere(original, wrapper)

    def uninstall(self) -> None:
        restore(self._patched)
        self._patched = []
        self._entry_stack = None

    def take(self) -> list[Span]:
        """Return and forget the spans recorded so far."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children.get(s.id, ())]
        out[s.id] = s.duration - _union_length([iv for iv in covered if iv[1] > iv[0]])
    return out


def nesting_errors(spans) -> list[str]:
    """Spans whose parent is unknown or whose interval leaves the parent's."""
    by_id = {s.id: s for s in spans}
    errors = []
    for s in spans:
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            errors.append(f"span {s.id} {s.layer}.{s.name}: parent {s.parent} missing")
        elif s.start < p.start or s.end > p.end:
            errors.append(f"span {s.id} {s.layer}.{s.name} leaves parent "
                          f"{p.layer}.{p.name}")
    return errors


def write_jsonl(spans, path) -> None:
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s)) + "\n")
