"""Raster exchange format: JSON sidecar header plus raw binary payload.

A raster on disk is a pair of files: the payload at ``path`` holding raw
band-sequential samples (all of band 0 row-major, then band 1, ...) in
little-endian order, and the header at ``path + ".json"`` describing it:

    {"width": W, "height": H, "bands": B, "dtype": "f32"|"u8",
     "class_names": [str, ...], "nodata": 255|null, "byte_order": "little"}

with W, H, B positive ints. Probability rasters use dtype f32 (half the
size of float64) with bands = n_classes, and in memory hold the same class
planes as float64, so load and save do not transpose. Label rasters are u8
and entropy rasters f32, each with a single band.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

import numpy as np

from .grids import NODATA, GridShape, LabelRaster, ProbabilityRaster, regularize

_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}


def is_bare_file_name(name) -> bool:
    """True for a file name with no directory part ("x", not "../x" or "a/x")."""
    return isinstance(name, str) and name not in ("", "..") and Path(name).name == name


def check_id_cell(name, where) -> None:
    """Refuse an investigator id that cannot be one cell of weights.csv."""
    if {",", "\r", "\n"} & set(name):
        raise ValueError(f"investigator id {name!r} in {where} holds a comma or a "
                         "line break, which weights.csv cannot hold")


def check_output_dir(path) -> None:
    """Refuse an output directory path that names an existing file or lies under one."""
    base = Path(path)
    p = next((q for q in (base, *base.parents) if q.exists()), base)   # nearest existing
    if not p.is_dir() and p.exists():
        raise ValueError(f"output directory {path} names an existing file" if p == base
                         else f"output directory {path} lies under the existing file {p}")


def write_text_atomic(path, data: str | bytes, drop=None) -> None:
    """Replace ``path`` with ``data`` (text, or bytes as they are) via a temporary
    file beside it, named by the OS thread id, so a crash never leaves part of a
    file; the temporary file goes if the write fails, the file at ``drop`` (if
    given) just before the rename. A missing parent is made here, once checked."""
    path = Path(path)
    if not path.parent.is_dir():          # one stat when the directory is there
        check_output_dir(path.parent)
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{threading.get_native_id()}.tmp")
    try:
        if isinstance(data, bytes):
            tmp.write_bytes(data)
        else:
            tmp.write_text(data)
        if drop is not None:
            Path(drop).unlink(missing_ok=True)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        v = float(v)
        return "" if v != v else repr(v)             # v != v: NaN
    return str(v)


def write_csv(path, header, rows, *copies) -> None:
    """Write a table, one line per row and a trailing newline, to ``path`` and
    each of ``copies``, formatted once. The one cell format: a Python or NumPy
    float is ``repr(float(v))``, NaN an empty cell, any other cell ``str(v)``."""
    text = "\n".join(",".join(map(_cell, row)) for row in (header, *rows)) + "\n"
    for p in (path, *copies):
        write_text_atomic(p, text)


def _header_path(path) -> Path:
    return Path(str(path) + ".json")


def _write_pair(paths, shape: GridShape, payload: np.ndarray, nodata=None) -> None:
    """Write a band-sequential (B, H, W) f32 or u8 payload and its header to each path."""
    if "" in map(str, paths):
        raise ValueError("empty raster path")
    paths = [Path(p) for p in paths]
    if dirs := [p for p in paths if p.is_dir()]:
        raise ValueError(f"raster path {dirs[0]} is a directory")
    dtype = next(name for name, dt in _DTYPES.items() if dt == payload.dtype)
    header = {
        "width": shape.width,
        "height": shape.height,
        "bands": payload.shape[0],
        "dtype": dtype,
        "class_names": list(shape.class_names),
        "nodata": nodata,
        "byte_order": "little",
    }
    data, text = payload.tobytes(), json.dumps(header, indent=None, sort_keys=True)
    for path in paths:
        # the old header goes just before the new payload lands: a failure before
        # that rename leaves the old pair whole, one after it leaves no header
        write_text_atomic(path, data, drop=_header_path(path))
        write_text_atomic(_header_path(path), text)


def read_json(path, what: str, required=()) -> dict:
    """The JSON object in the file at ``path``; a syntax error, another kind of
    document or a missing ``required`` key raises a ValueError naming the file."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed {what} {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"malformed {what} {path}: expected a JSON object")
    if missing := set(required) - doc.keys():
        raise ValueError(f"{what} missing {sorted(missing)} in {path}")
    return doc


def read_header(path) -> tuple[GridShape, dict]:
    """Parse and check the header of the raster at ``path``; returns its
    grid and the header fields."""
    if str(path) == "":
        raise ValueError("empty raster path")
    path = Path(path)
    header = read_json(_header_path(path), "header", ("width", "height", "bands", "dtype",
                                                      "class_names", "nodata", "byte_order"))
    if header["byte_order"] != "little":
        raise ValueError(f"unsupported byte order {header['byte_order']!r} in {path}")
    w, h, b, names, nodata = (header[k] for k in
                              ("width", "height", "bands", "class_names", "nodata"))
    if not (all(type(v) is int and v > 0 for v in (w, h, b)) and isinstance(names, list)
            and (nodata is None or type(nodata) is int and nodata == NODATA)):
        raise ValueError(f"malformed header for {path}: width, height and bands must "
                         f"be positive integers, class_names a list of strings and "
                         f"nodata null or {NODATA}")
    try:
        return GridShape(w, h, len(names), tuple(names)), header
    except ValueError as exc:
        raise ValueError(f"malformed header for {path}: {exc}") from exc


def _read_pair(path, dtype: str, bands: int | None) -> tuple[GridShape, np.ndarray]:
    """Read a pair whose header must declare ``dtype`` and ``bands`` bands
    (None: one per class name); returns the grid and the (B, H, W) payload."""
    shape, header = read_header(path)
    path, b = Path(path), header["bands"]
    bands = shape.n_classes if bands is None else bands
    if header["dtype"] != dtype or b != bands:
        raise ValueError(f"{path} must hold {bands} {dtype} band(s), header has "
                         f"{b} of dtype {header['dtype']!r}")
    raw = path.read_bytes()
    expected = shape.n_pixels * b * _DTYPES[dtype].itemsize
    if len(raw) != expected:
        raise ValueError(
            f"dimension mismatch for {path}: header implies {expected} bytes, "
            f"payload has {len(raw)}"
        )
    return shape, np.frombuffer(raw, dtype=_DTYPES[dtype]).reshape(
        b, shape.height, shape.width)


def save_probability_raster(raster: ProbabilityRaster, path, *copies) -> None:
    _write_pair((path, *copies), raster.shape, raster.values.astype("<f4"))


def load_probability_raster(path) -> ProbabilityRaster:
    """Load and validate a probability raster, regularized on the way in by
    ``grids.regularize`` (zeros become a tiny epsilon and every pixel vector is
    renormalized), so Dirichlet math never sees a zero probability. Negative
    samples fail there, NaN and Inf in ProbabilityRaster's check; either error
    names the path."""
    shape, data = _read_pair(path, "f32", None)
    try:
        return ProbabilityRaster(shape, regularize(data))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_label_raster(raster: LabelRaster, path, *copies) -> None:
    _write_pair((path, *copies), raster.shape, raster.values[None, :, :], nodata=NODATA)


def load_label_raster(path) -> LabelRaster:
    shape, data = _read_pair(path, "u8", 1)
    return LabelRaster(shape, data[0])


def save_entropy_raster(shape: GridShape, values: np.ndarray, path) -> None:
    """Write an (H, W) entropy map (bits) as a single f32 band."""
    _write_pair((path,), shape, np.asarray(values, dtype="<f4")[None, :, :])
