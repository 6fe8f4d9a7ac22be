"""Raster exchange format: JSON sidecar header plus raw binary payload.

A raster on disk is a pair of files: the payload at ``path`` holding raw
band-sequential samples (all of band 0 row-major, then band 1, ...) in
little-endian order, and the header at ``path + ".json"`` describing it:

    {"width": W, "height": H, "bands": B, "dtype": "f32"|"u8",
     "class_names": [str, ...], "nodata": 255|null, "byte_order": "little"}

with W, H, B positive ints. Probability rasters use dtype f32 with
bands = n_classes; label rasters u8 and entropy rasters f32, each with
a single band. Probabilities are stored as 32-bit floats to halve file
size; in-memory computation is always float64.
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


def write_text_atomic(path, data: str | bytes, drop=None) -> None:
    """Replace ``path`` with ``data`` (text, or bytes written as they are) via
    a temporary file beside it, named by the OS thread id, so a crash never
    leaves part of a file; the temporary file is removed if the write fails.
    The file at ``drop``, if given, is removed just before the rename."""
    path = Path(path)
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
        return "" if np.isnan(v) else repr(float(v))
    return str(v)


def write_csv(path, header, rows) -> None:
    """Write a table, one line per row and a trailing newline. The one cell
    format: a Python or NumPy float is ``repr(float(v))``, NaN an empty cell,
    any other cell ``str(v)``."""
    lines = [",".join(map(_cell, row)) for row in (header, *rows)]
    write_text_atomic(path, "\n".join(lines) + "\n")


def _header_path(path) -> Path:
    return Path(str(path) + ".json")


def _write_pair(path, shape: GridShape, payload: np.ndarray, nodata=None) -> None:
    """Write a band-sequential (B, H, W) f32 or u8 payload, then its header."""
    if str(path) == "":
        raise ValueError("empty raster path")
    path = Path(path)
    if path.is_dir():
        raise ValueError(f"raster path {path} is a directory")
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
    path.parent.mkdir(parents=True, exist_ok=True)
    # the old header goes just before the new payload lands: a failure before
    # that rename leaves the old pair whole, one after it leaves no header
    write_text_atomic(path, np.ascontiguousarray(payload).tobytes(), drop=_header_path(path))
    write_text_atomic(_header_path(path), json.dumps(header, indent=None, sort_keys=True))


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


def save_probability_raster(raster: ProbabilityRaster, path) -> None:
    # (H, W, C) -> band-sequential (C, H, W)
    _write_pair(path, raster.shape, np.moveaxis(raster.values, 2, 0).astype("<f4"))


def load_probability_raster(path) -> ProbabilityRaster:
    """Load and validate a probability stack, regularizing on the way in.

    Zero components are replaced by a tiny epsilon and every pixel vector
    is renormalized to sum to one (``grids.regularize``), so downstream
    Dirichlet math never sees a zero probability. Negative samples fail
    there, NaN and Inf in ProbabilityRaster's check; either error names
    the path.
    """
    shape, data = _read_pair(path, "f32", None)
    try:
        return ProbabilityRaster(shape, regularize(np.moveaxis(data, 0, 2)))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_label_raster(raster: LabelRaster, path) -> None:
    _write_pair(path, raster.shape, raster.values[None, :, :], nodata=NODATA)


def load_label_raster(path) -> LabelRaster:
    shape, data = _read_pair(path, "u8", 1)
    return LabelRaster(shape, data[0])


def save_entropy_raster(shape: GridShape, values: np.ndarray, path) -> None:
    """Write an (H, W) entropy map (bits) as a single f32 band."""
    _write_pair(path, shape, np.asarray(values, dtype="<f4")[None, :, :])
