"""On-disk formats: raster sidecar headers, payload layout, round-trips, and
the one CSV writer."""

import json
import os
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapfuse.grids import NODATA, GridShape, LabelRaster, ProbabilityRaster
from mapfuse.io import (load_label_raster, load_probability_raster, read_header,
                        save_entropy_raster, save_label_raster,
                        save_probability_raster, write_csv, write_text_atomic)

from conftest import make_labels, random_prob


def test_label_round_trip_is_exact(tmp_path):
    v = np.array([[0, 1, 2], [2, NODATA, 0]], dtype=np.uint8)
    r = LabelRaster(GridShape(3, 2, 3, ("water", "urban", "forest")), v)
    save_label_raster(r, tmp_path / "lab")
    back = load_label_raster(tmp_path / "lab")
    assert (back.values == v).all()
    assert back.shape == r.shape
    assert back.values[1, 1] == NODATA


def test_probability_round_trip_exact_on_representable_values(tmp_path):
    # Dyadic fractions k/64 are exact in f32 and f64 and sum to exactly 1,
    # so neither quantization nor the load-time renormalization may move them.
    rng = np.random.default_rng(0)
    counts = rng.multinomial(61, [1 / 3] * 3, size=5 * 4).reshape(5, 4, 3) + 1
    r = ProbabilityRaster(GridShape(4, 5, 3), counts.transpose(2, 0, 1) / 64.0)
    save_probability_raster(r, tmp_path / "a")
    once = load_probability_raster(tmp_path / "a")
    assert (once.values == r.values).all()
    save_probability_raster(once, tmp_path / "b")
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_probability_round_trip_quantizes_within_f32(tmp_path):
    rng = np.random.default_rng(1)
    r = random_prob(rng, 5, 4, 3)
    save_probability_raster(r, tmp_path / "a")
    once = load_probability_raster(tmp_path / "a")
    again = load_probability_raster(tmp_path / "a")
    assert np.abs(once.values - r.values).max() < 1e-6
    assert (once.values == again.values).all()      # loading is deterministic
    assert np.abs(once.values.sum(axis=0) - 1.0).max() < 1e-12
    # repeated generations may jitter by an f32 ulp but never drift further
    save_probability_raster(once, tmp_path / "b")
    twice = load_probability_raster(tmp_path / "b")
    assert np.abs(twice.values - r.values).max() < 2e-6


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=2, max_value=5))
def test_label_round_trip_property(tmp_path_factory, seed, h, w, c):
    rng = np.random.default_rng(seed)
    v = rng.integers(0, c, size=(h, w))
    v[rng.random(size=(h, w)) < 0.2] = NODATA
    r = LabelRaster(GridShape(w, h, c), v)
    d = tmp_path_factory.mktemp("rt")
    save_label_raster(r, d / "m")
    assert (load_label_raster(d / "m").values == r.values).all()


def test_entropy_round_trip(tmp_path):
    shape = GridShape(3, 2, 4)
    v = np.float64(np.array([[0.0, 1.5, 2.0], [0.25, 1.0, 0.125]], dtype=np.float32))
    save_entropy_raster(shape, v, tmp_path / "ent")
    assert read_header(tmp_path / "ent") == (shape, {
        "width": 3, "height": 2, "bands": 1, "dtype": "f32",
        "class_names": ["class0", "class1", "class2", "class3"], "nodata": None,
        "byte_order": "little"})
    back = np.frombuffer((tmp_path / "ent").read_bytes(), dtype="<f4")
    assert (back.reshape(2, 3) == v).all()


def test_header_contents(tmp_path):
    r = make_labels([[0, 1], [1, 0]], n_classes=2)
    save_label_raster(r, tmp_path / "m")
    header = json.loads((tmp_path / "m.json").read_text())
    assert header == {"width": 2, "height": 2, "bands": 1, "dtype": "u8",
                      "class_names": ["class0", "class1"], "nodata": NODATA,
                      "byte_order": "little"}


def test_band_sequential_layout(tmp_path):
    rng = np.random.default_rng(1)
    r = random_prob(rng, 2, 3, 4)
    save_probability_raster(r, tmp_path / "p")
    raw = np.frombuffer((tmp_path / "p").read_bytes(), dtype="<f4")
    # all of band 0 (row-major), then band 1, ...
    expected = r.values.astype("<f4").ravel()
    assert (raw == expected).all()


def test_missing_and_malformed_headers(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_label_raster(tmp_path / "absent")
    (tmp_path / "m").write_bytes(b"\x00")
    (tmp_path / "m.json").write_text("{not json")
    with pytest.raises(ValueError, match="malformed header"):
        load_label_raster(tmp_path / "m")
    (tmp_path / "m.json").write_text(json.dumps({"width": 1, "height": 1}))
    with pytest.raises(ValueError, match="missing"):
        load_label_raster(tmp_path / "m")


def test_byte_order_and_dtype_checks(tmp_path):
    r = make_labels([[0]], n_classes=2)
    save_label_raster(r, tmp_path / "m")
    header = json.loads((tmp_path / "m.json").read_text())
    header["byte_order"] = "big"
    (tmp_path / "m.json").write_text(json.dumps(header))
    with pytest.raises(ValueError, match="byte order"):
        load_label_raster(tmp_path / "m")
    header["byte_order"] = "little"
    header["dtype"] = "f64"
    (tmp_path / "m.json").write_text(json.dumps(header))
    with pytest.raises(ValueError, match="dtype"):
        load_label_raster(tmp_path / "m")


def test_payload_length_mismatch(tmp_path):
    rng = np.random.default_rng(2)
    save_probability_raster(random_prob(rng, 2, 2, 3), tmp_path / "p")
    payload = (tmp_path / "p").read_bytes()
    (tmp_path / "p").write_bytes(payload[:-4])
    with pytest.raises(ValueError, match="dimension mismatch"):
        load_probability_raster(tmp_path / "p")


def test_empty_path_rejected():
    r = make_labels([[0]], n_classes=2)
    with pytest.raises(ValueError, match="empty raster path"):
        save_label_raster(r, "")


def test_directory_target_rejected_before_any_write(tmp_path, monkeypatch):
    r = LabelRaster(GridShape(1, 1, 2), np.zeros((1, 1), dtype=np.uint8))
    target = tmp_path / "sub"
    target.mkdir()
    with pytest.raises(ValueError, match="is a directory"):
        save_label_raster(r, target)
    assert not (tmp_path / "sub.json").exists()
    monkeypatch.chdir(target)
    with pytest.raises(ValueError, match="is a directory"):
        save_label_raster(r, ".")
    assert sorted(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


def _fail_payload_write(monkeypatch):
    def failing(self, data):
        raise OSError("disk full")
    monkeypatch.setattr(Path, "write_bytes", failing)


def test_failed_payload_write_leaves_no_header_and_no_stray(tmp_path, monkeypatch):
    """The payload is written before the header, so a payload that never
    lands leaves nothing behind: no header claiming it, no temporary file."""
    _fail_payload_write(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        save_label_raster(make_labels([[0, 1], [1, 0]], n_classes=2), tmp_path / "m")
    assert list(tmp_path.iterdir()) == []


def test_failed_payload_write_keeps_the_old_pair(tmp_path, monkeypatch):
    save_label_raster(make_labels([[0, 1], [1, 0]], n_classes=2), tmp_path / "m")
    old = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    _fail_payload_write(monkeypatch)
    with pytest.raises(OSError, match="disk full"):
        save_probability_raster(random_prob(np.random.default_rng(5), 3, 3, 3),
                                tmp_path / "m")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == old
    assert sorted(old) == ["m", "m.json"]


def test_failed_header_overwrite_leaves_no_header(tmp_path, monkeypatch):
    """The old header is removed before the new payload takes its place, so
    a failure writing the new header leaves a payload that every loader
    refuses, never the new payload under the old header (both are 4 bytes
    here, so the loader's byte count could not tell them apart)."""
    save_label_raster(make_labels([[0, 1, 0, 1]], n_classes=2), tmp_path / "m")

    def failing(self, data):
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", failing)
    with pytest.raises(OSError, match="disk full"):
        save_label_raster(make_labels([[1, 1], [0, 0]], n_classes=2), tmp_path / "m")
    monkeypatch.undo()
    with pytest.raises(FileNotFoundError):
        load_label_raster(tmp_path / "m")
    assert [p.name for p in tmp_path.iterdir()] == ["m"]


def test_probability_load_allocates_one_float64_raster(tmp_path):
    """A load holds the f32 payload and fills one float64 array of class
    planes; a transposed copy copied again into pixel order would need a second
    float64 raster, past this bound of the payload plus 1.5 rasters."""
    h, w, c = 256, 256, 4
    save_probability_raster(random_prob(np.random.default_rng(4), h, w, c), tmp_path / "p")
    load_probability_raster(tmp_path / "p")      # imports and caches before the trace
    tracemalloc.start()
    try:
        r = load_probability_raster(tmp_path / "p")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.values.shape == (c, h, w)
    assert peak < h * w * c * 4 + 1.5 * (h * w * c * 8)


def test_loader_regularizes_zeros(tmp_path):
    shape = GridShape(1, 1, 3, ("a", "b", "c"))
    # hand-write a pair whose pixel contains an exact zero
    (tmp_path / "p").write_bytes(
        np.array([0.0, 0.25, 0.75], dtype="<f4").tobytes())
    (tmp_path / "p.json").write_text(json.dumps(
        {"width": 1, "height": 1, "bands": 3,
         "class_names": ["a", "b", "c"], "dtype": "f32", "nodata": None,
         "byte_order": "little"}))
    r = load_probability_raster(tmp_path / "p")
    assert (r.values > 0).all()
    assert abs(r.values.sum() - 1.0) < 1e-9
    assert shape == r.shape


@pytest.mark.parametrize("key,value", [
    ("width", 2.0), ("width", "2"), ("height", True), ("height", -2),
    ("bands", 0), ("nodata", 7), ("nodata", 255.0), ("class_names", "ab"),
    ("class_names", ["a", 1]), ("class_names", ["a", "a"]),
])
def test_header_fields_are_strict(tmp_path, key, value):
    save_label_raster(make_labels([[0, 1], [1, 0]], n_classes=2), tmp_path / "m")
    header = json.loads((tmp_path / "m.json").read_text())
    header[key] = value
    (tmp_path / "m.json").write_text(json.dumps(header))
    with pytest.raises(ValueError, match="malformed header") as info:
        load_label_raster(tmp_path / "m")
    assert str(tmp_path / "m") in str(info.value)


@pytest.mark.parametrize("cells", [
    pytest.param({5: np.nan}, id="nan"), pytest.param({5: np.inf}, id="inf"),
    pytest.param({5: -np.inf}, id="-inf"), pytest.param({5: -0.25}, id="-0.25"),
    # pixel 1 of each band: renormalising by its sum would make it valid
    pytest.param({1: -0.2, 5: -0.3, 9: -0.5}, id="all-negative-pixel"),
])
def test_probability_loader_rejects_non_probabilities(tmp_path, cells):
    save_probability_raster(random_prob(np.random.default_rng(3), 2, 2, 3),
                            tmp_path / "p")
    raw = np.frombuffer((tmp_path / "p").read_bytes(), dtype="<f4").copy()
    raw[list(cells)] = list(cells.values())
    (tmp_path / "p").write_bytes(raw.tobytes())
    with pytest.raises(ValueError, match="NaN or Inf|negative") as info:
        load_probability_raster(tmp_path / "p")
    assert str(tmp_path / "p") in str(info.value)


def test_loaders_check_dtype_and_band_count(tmp_path):
    rng = np.random.default_rng(4)
    save_probability_raster(random_prob(rng, 2, 2, 3), tmp_path / "p")
    save_label_raster(make_labels([[0, 1]], n_classes=2), tmp_path / "m")
    with pytest.raises(ValueError, match="1 u8 band"):
        load_label_raster(tmp_path / "p")
    with pytest.raises(ValueError, match="2 f32 band"):
        load_probability_raster(tmp_path / "m")


# ------------------------------------------------------------- tables

def test_write_csv_cell_format(tmp_path):
    write_csv(tmp_path / "t.csv", ["f64", "nan", "int", "str", "float"],
              [[np.float64(0.1), np.float64("nan"), 7, "kmeans-k2g1", 2.5]])
    assert (tmp_path / "t.csv").read_bytes() == \
        b"f64,nan,int,str,float\n0.1,,7,kmeans-k2g1,2.5\n"


def test_write_csv_failure_leaves_old_bytes_and_no_stray(tmp_path, monkeypatch):
    """A write that fails at the rename keeps an existing target's bytes,
    creates no partial target, and removes its temporary file."""
    target = tmp_path / "t.csv"
    write_csv(target, ["a"], [[1]])
    old = target.read_bytes()

    def failing(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(OSError, match="disk full"):
        write_csv(target, ["a"], [[2]])
    with pytest.raises(OSError, match="disk full"):
        write_csv(tmp_path / "new.csv", ["a"], [[2]])
    assert target.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_write_text_atomic_bytes_and_failure(tmp_path, monkeypatch):
    """Bytes are written as they are; a failed rename keeps the old bytes
    and leaves no temporary file."""
    target = tmp_path / "t.bin"
    write_text_atomic(target, b"\x00\xff\n")
    assert target.read_bytes() == b"\x00\xff\n"

    def failing(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(OSError, match="disk full"):
        write_text_atomic(target, b"\x01")
    assert target.read_bytes() == b"\x00\xff\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.bin"]


def test_write_makes_its_directory_and_refuses_one_under_a_file(tmp_path):
    """A write makes its missing parent directories; a parent at or under an
    existing file is refused before anything is created."""
    write_text_atomic(tmp_path / "a" / "b" / "t.txt", "x")
    assert (tmp_path / "a" / "b" / "t.txt").read_text() == "x"
    blocker = tmp_path / "file"
    blocker.write_text("in the way")
    with pytest.raises(ValueError, match=re.escape(f"output directory {blocker} names")):
        write_text_atomic(blocker / "t.txt", "x")
    with pytest.raises(ValueError, match=re.escape(f"{blocker / 'sub'} lies under the "
                                                   f"existing file {blocker}")):
        save_label_raster(make_labels([[0, 1]], n_classes=2), blocker / "sub" / "m")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "file"]
    assert blocker.read_text() == "in the way"
