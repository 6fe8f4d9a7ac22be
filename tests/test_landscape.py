"""Edge accounting and the interspersion index, with a brute-force oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapfuse.grids import NODATA, GridShape, LabelRaster
from mapfuse.landscape import EdgeTable, edge_table, iji, write_iji_csv

from conftest import make_labels


def brute_force_edges(values, n_classes):
    """Count rook-adjacent differing pairs by explicit enumeration."""
    e = np.zeros((n_classes, n_classes), dtype=np.int64)
    h, w = values.shape
    for r in range(h):
        for c in range(w):
            a = values[r, c]
            if a == NODATA:
                continue
            for dr, dc in ((0, 1), (1, 0)):
                rr, cc = r + dr, c + dc
                if rr >= h or cc >= w:
                    continue
                b = values[rr, cc]
                if b == NODATA or a == b:
                    continue
                e[a, b] += 1
                e[b, a] += 1
    return e


def reference_iji(values, n_classes):
    """Straight-from-the-formula evaluation used to cross-check iji()."""
    e = brute_force_edges(values, n_classes)
    present = sorted(set(int(v) for v in values.ravel() if v != NODATA))
    m = len(present)
    total = np.triu(e, 1).sum()
    if m < 3 or total == 0:
        return float("nan")
    h = 0.0
    for i, a in enumerate(present):
        for b in present[i + 1:]:
            share = e[a, b] / total
            if share > 0:
                h -= share * math.log(share)
    return 100.0 * h / math.log(m * (m - 1) / 2.0)


def test_single_class_map():
    t = edge_table(make_labels(np.zeros((4, 4), dtype=np.int64), n_classes=3))
    assert t.m == 1 and t.total == 0
    assert math.isnan(iji(make_labels(np.zeros((4, 4), dtype=np.int64), n_classes=3)))


def test_two_pixel_strip():
    r = make_labels(np.array([[0, 1]]), n_classes=2)
    t = edge_table(r)
    assert t.e[0, 1] == 1 and t.total == 1 and t.m == 2
    assert math.isnan(iji(r))                  # m = 2: normalizer vanishes


def test_pinned_two_by_two():
    # hand enumeration of [[0,1],[2,0]]: pairs (0,1)H, (2,0)H, (0,2)V, (1,0)V
    r = make_labels(np.array([[0, 1], [2, 0]]), n_classes=3)
    t = edge_table(r)
    assert t.e[0, 1] == 2
    assert t.e[0, 2] == 2
    assert t.e[1, 2] == 0
    assert t.total == 4
    assert t.m == 3


def test_pinned_strip_iji_value():
    # shares (e01, e02, e12) = (2, 1, 1)/4 -> hand arithmetic approx 94.639
    r = make_labels(np.array([[1, 2, 0, 1, 0]]), n_classes=3)
    t = edge_table(r)
    assert (t.e[0, 1], t.e[0, 2], t.e[1, 2]) == (2, 1, 1)
    hand = 100.0 * (-(0.5 * math.log(0.5) + 2 * 0.25 * math.log(0.25))) / math.log(3)
    assert iji(r) == pytest.approx(hand, abs=1e-9)
    assert iji(r) == pytest.approx(94.639, abs=1e-3)


def test_equal_share_construction_hits_100():
    # three classes, all three pair edges of equal length
    r = make_labels(np.array([[0, 1, 2, 0]]), n_classes=3)
    t = edge_table(r)
    assert (t.e[0, 1], t.e[0, 2], t.e[1, 2]) == (1, 1, 1)
    assert iji(r) == pytest.approx(100.0, abs=1e-9)


def test_nodata_contributes_nothing():
    with_hole = make_labels(np.array([[0, NODATA, 1], [2, 2, 1]]), n_classes=3)
    t = edge_table(with_hole)
    assert (t.e == brute_force_edges(with_hole.values, 3)).all()
    assert t.e.sum() // 2 == t.total


def test_present_classes_skip_nodata_and_absent_classes():
    v = np.array([[0, NODATA, 3], [3, NODATA, 0], [4, 4, 0]])
    t = edge_table(make_labels(v, n_classes=6))
    assert t.present == (0, 3, 4)
    assert t.present == tuple(int(c) for c in np.unique(v[v != NODATA]))
    assert edge_table(make_labels(np.full((2, 3), NODATA), n_classes=2)).present == ()


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=2, max_value=8),
       st.integers(min_value=2, max_value=8),
       st.integers(min_value=2, max_value=5))
def test_edge_table_matches_brute_force(seed, h, w, c):
    rng = np.random.default_rng(seed)
    v = rng.integers(0, c, size=(h, w))
    v[rng.random(size=(h, w)) < 0.15] = NODATA
    r = LabelRaster(GridShape(w, h, c), v)
    assert (edge_table(r).e == brute_force_edges(r.values, c)).all()
    got = iji(r)
    want = reference_iji(r.values, c)
    assert (math.isnan(got) and math.isnan(want)) or got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("n_classes", [200, 255])
def test_edge_table_with_labels_next_to_nodata(n_classes):
    # labels up to C - 1 (254 at C = 255) share a code row with NODATA (255)
    rng = np.random.default_rng(n_classes)
    top = np.array([0, 1, n_classes - 2, n_classes - 1])
    v = np.where(rng.random((12, 10)) < 0.5, rng.choice(top, size=(12, 10)),
                 rng.integers(0, n_classes, size=(12, 10)))
    v[rng.random(size=(12, 10)) < 0.15] = NODATA
    r = LabelRaster(GridShape(10, 12, n_classes), v)
    t = edge_table(r)
    assert (t.e == brute_force_edges(r.values, n_classes)).all()
    assert t.e[n_classes - 1].any()
    assert t.present == tuple(sorted(set(v[v != NODATA].tolist())))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_iji_invariances(seed):
    rng = np.random.default_rng(seed)
    v = rng.integers(0, 4, size=(6, 7))
    r = lambda a: LabelRaster(GridShape(a.shape[1], a.shape[0], 4), a)
    base = iji(r(v))
    perm = rng.permutation(4)
    relabeled = iji(r(perm[v]))
    rotated = iji(r(np.rot90(v).copy()))
    mirrored = iji(r(v[:, ::-1].copy()))
    for other in (relabeled, rotated, mirrored):
        assert (math.isnan(base) and math.isnan(other)) \
            or base == pytest.approx(other, abs=1e-9)
    if not math.isnan(base):
        assert 0.0 <= base <= 100.0


def test_growing_a_patch_inward_changes_nothing():
    v = np.array([[0, 0, 1, 1],
                  [0, 0, 1, 1],
                  [2, 2, 2, 2]])
    # enlarge the grid by duplicating the top row of the 0/1 halves
    grown = np.vstack([v[0], v])
    a = edge_table(make_labels(v, n_classes=3))
    b = edge_table(make_labels(grown, n_classes=3))
    # inter-class edges gained only along duplicated columns boundaries:
    # the 0|1 vertical boundary gains one pair; class 2 edges are untouched
    assert b.e[0, 2] == a.e[0, 2] and b.e[1, 2] == a.e[1, 2]
    assert b.e[0, 1] == a.e[0, 1] + 1


def test_write_iji_csv(tmp_path):
    rows = [("three", edge_table(make_labels(np.array([[1, 2, 0, 1, 0]]), n_classes=3))),
            ("flat", edge_table(make_labels(np.zeros((2, 2), dtype=np.int64), n_classes=3)))]
    write_iji_csv(rows, tmp_path / "iji.csv")
    lines = (tmp_path / "iji.csv").read_text().splitlines()
    assert lines[0] == "map_id,m,E,iji"
    assert lines[1].startswith("three,3,4,94.639")
    assert lines[2] == "flat,1,0,"


def test_edge_table_validation():
    with pytest.raises(ValueError, match="symmetric"):
        EdgeTable(present=(0, 1), e=np.array([[0, 1], [2, 0]]))
    with pytest.raises(ValueError, match="symmetric"):
        EdgeTable(present=(0, 1), e=np.array([[1, 2], [2, 0]]))
