"""Raster exchange format: JSON sidecar header plus raw binary payload.

A raster on disk is a pair of files: the payload at ``path`` holding raw
band-sequential samples (all of band 0 row-major, then band 1, ...) in
little-endian order, and the header at ``path + ".json"`` describing it:

    {"width": W, "height": H, "bands": B, "dtype": "f32"|"u8",
     "class_names": [...], "nodata": int|null, "byte_order": "little"}

Probability rasters use dtype f32 with bands = n_classes; label rasters
use dtype u8 with a single band. Probabilities are stored as 32-bit
floats to halve file size; in-memory computation is always float64.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .fusion import regularize
from .grids import NODATA, EntropyRaster, GridShape, LabelRaster, ProbabilityRaster

_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}


def _header_path(path) -> Path:
    return Path(str(path) + ".json")


def _write_pair(path, header: dict, payload: np.ndarray) -> None:
    if str(path) == "":
        raise ValueError("empty raster path")
    path = Path(path)
    if path.is_dir():
        raise ValueError(f"raster path {path} is a directory")
    path.parent.mkdir(parents=True, exist_ok=True)
    _header_path(path).write_text(json.dumps(header, indent=None, sort_keys=True))
    path.write_bytes(np.ascontiguousarray(payload).tobytes())


def _read_pair(path) -> tuple[dict, np.ndarray]:
    if str(path) == "":
        raise ValueError("empty raster path")
    path = Path(path)
    try:
        header = json.loads(_header_path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed header for {path}: {exc}") from exc
    required = {"width", "height", "bands", "dtype", "class_names", "nodata", "byte_order"}
    missing = required - header.keys()
    if missing:
        raise ValueError(f"malformed header for {path}: missing {sorted(missing)}")
    if header["byte_order"] != "little":
        raise ValueError(f"unsupported byte order {header['byte_order']!r}")
    if header["dtype"] not in _DTYPES:
        raise ValueError(f"unsupported dtype {header['dtype']!r}")
    dtype = _DTYPES[header["dtype"]]
    w, h, b = header["width"], header["height"], header["bands"]
    raw = path.read_bytes()
    expected = w * h * b * dtype.itemsize
    if len(raw) != expected:
        raise ValueError(
            f"dimension mismatch for {path}: header implies {expected} bytes, "
            f"payload has {len(raw)}"
        )
    data = np.frombuffer(raw, dtype=dtype).reshape(b, h, w)
    return header, data


def save_probability_raster(raster: ProbabilityRaster, path) -> None:
    shape = raster.shape
    header = {
        "width": shape.width,
        "height": shape.height,
        "bands": shape.n_classes,
        "dtype": "f32",
        "class_names": list(shape.class_names),
        "nodata": None,
        "byte_order": "little",
    }
    # (H, W, C) -> band-sequential (C, H, W)
    payload = np.moveaxis(raster.values, 2, 0).astype("<f4")
    _write_pair(path, header, payload)


def load_probability_raster(path, epsilon: float = 1e-10) -> ProbabilityRaster:
    """Load and validate a probability stack, regularizing on the way in.

    Zero components are replaced by ``epsilon`` and every pixel vector is
    renormalized to sum to one, so downstream Dirichlet math never sees a
    zero probability.
    """
    header, data = _read_pair(path)
    if header["bands"] != len(header["class_names"]):
        raise ValueError(
            f"dimension mismatch for {path}: {header['bands']} bands vs "
            f"{len(header['class_names'])} class names"
        )
    if header["dtype"] != "f32":
        raise ValueError(f"probability raster {path} must be f32, got {header['dtype']}")
    shape = GridShape(header["width"], header["height"], header["bands"],
                      tuple(header["class_names"]))
    values = np.moveaxis(data, 0, 2).astype(np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"probability raster {path} contains NaN or Inf")
    if (values < 0).any():
        raise ValueError(f"probability raster {path} contains negative values")
    return ProbabilityRaster(shape, regularize(values, epsilon))


def save_label_raster(raster: LabelRaster, path) -> None:
    shape = raster.shape
    header = {
        "width": shape.width,
        "height": shape.height,
        "bands": 1,
        "dtype": "u8",
        "class_names": list(shape.class_names),
        "nodata": NODATA,
        "byte_order": "little",
    }
    _write_pair(path, header, raster.values[None, :, :])


def load_label_raster(path) -> LabelRaster:
    header, data = _read_pair(path)
    if header["dtype"] != "u8" or header["bands"] != 1:
        raise ValueError(f"label raster {path} must be single-band u8")
    shape = GridShape(header["width"], header["height"], len(header["class_names"]),
                      tuple(header["class_names"]))
    return LabelRaster(shape, data[0])


def save_entropy_raster(raster: EntropyRaster, path) -> None:
    save_float_raster(raster.values, raster.shape, path)


def load_entropy_raster(path) -> EntropyRaster:
    values, shape = load_float_raster(path)
    if values.ndim != 2:
        raise ValueError(f"entropy raster {path} must be single-band")
    return EntropyRaster(shape, values)


def save_float_raster(values: np.ndarray, shape: GridShape, path) -> None:
    """Persist an unconstrained f32 stack (entropy maps, posterior alpha)."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 2:
        payload = values[None, :, :]
    else:
        payload = np.moveaxis(values, 2, 0)
    header = {
        "width": shape.width,
        "height": shape.height,
        "bands": payload.shape[0],
        "dtype": "f32",
        "class_names": list(shape.class_names),
        "nodata": None,
        "byte_order": "little",
    }
    _write_pair(path, header, payload.astype("<f4"))


def load_float_raster(path) -> tuple[np.ndarray, GridShape]:
    header, data = _read_pair(path)
    if header["dtype"] != "f32":
        raise ValueError(f"float raster {path} must be f32")
    shape = GridShape(header["width"], header["height"], len(header["class_names"]),
                      tuple(header["class_names"]))
    values = data.astype(np.float64)
    if values.shape[0] == 1:
        return values[0], shape
    return np.moveaxis(values, 0, 2), shape


# Small fixed palette for quick visual inspection; rendering fidelity is
# not contractual.
_PALETTE = np.array(
    [(27, 120, 55), (230, 171, 2), (117, 112, 179), (44, 123, 182),
     (215, 48, 39), (166, 86, 40), (247, 129, 191), (153, 153, 153)],
    dtype=np.uint8,
)


def render_label_ppm(raster: LabelRaster, path) -> None:
    """Write an indexed-color binary PPM of a label map."""
    idx = raster.values.astype(np.int64) % len(_PALETTE)
    rgb = _PALETTE[idx]
    rgb[~raster.valid_mask()] = 0
    with open(path, "wb") as fh:
        fh.write(f"P6 {raster.shape.width} {raster.shape.height} 255\n".encode())
        fh.write(rgb.tobytes())
