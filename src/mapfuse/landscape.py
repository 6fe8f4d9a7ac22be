"""Interspersion and Juxtaposition Index at map level.

IJI measures how evenly the total inter-class edge length is spread over
the possible class pairs: 100 when every present pair shares an equal
edge length, low when a few pairs dominate. Scattered single-pixel
misclassifications create edges against many classes at once, so a noisy
("salt-and-pepper") map scores high and a cleanly patched map scores low.

Edges are rook adjacencies: each horizontally or vertically adjacent
pixel pair with differing classes contributes one pixel-side of edge.
NODATA pixels contribute nothing. IJI is undefined (NaN) for maps with
fewer than three patch types — the normalizer ln(m(m-1)/2) vanishes —
and for maps with no inter-class edge at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import LabelRaster, _freeze, pair_counts
from .io import write_csv


@dataclass(frozen=True)
class EdgeTable:
    present: tuple            # class indices with at least one valid pixel
    e: np.ndarray             # (C, C) symmetric shared-edge lengths, zero diagonal

    def __post_init__(self):
        e = np.asarray(self.e, dtype=np.int64)
        if (e < 0).any() or (e != e.T).any() or np.diag(e).any():
            raise ValueError("edge table must be symmetric, non-negative, hollow")
        object.__setattr__(self, "e", _freeze(e))
        object.__setattr__(self, "present", tuple(self.present))

    @property
    def m(self) -> int:
        return len(self.present)

    @property
    def total(self) -> int:
        """Total inter-class edge length E."""
        return int(np.triu(self.e, 1).sum())

    @property
    def iji(self) -> float:
        """Map-level IJI in [0, 100]; NaN when m < 3 or there are no edges."""
        m, total = self.m, self.total
        if m < 3 or total == 0:
            return float("nan")
        idx = np.array(self.present)
        pairs = self.e[np.ix_(idx, idx)][np.triu_indices(m, 1)]
        shares = pairs[pairs > 0] / total
        h = -(shares * np.log(shares)).sum()
        value = 100.0 * h / math.log(m * (m - 1) / 2.0)
        return float(np.clip(value, 0.0, 100.0))


def edge_table(raster: LabelRaster) -> EdgeTable:
    v, c = raster.values, raster.shape.n_classes
    # each rook pair (left, right), then (upper, lower); a pair with NODATA is
    # not counted, and the diagonal, pairs of equal labels, is no edge
    pairs = sum(pair_counts(a.reshape(1, -1), b.reshape(1, -1), c)[0]
                for a, b in ((v[:, :-1], v[:, 1:]), (v[:-1, :], v[1:, :])))
    e = pairs + pairs.T
    np.fill_diagonal(e, 0)
    present = np.bincount(v.ravel(), minlength=c)[:c]
    return EdgeTable(present=tuple(np.flatnonzero(present).tolist()), e=e)


def iji(raster: LabelRaster) -> float:
    """Map-level IJI of a label raster; see ``EdgeTable.iji``."""
    return edge_table(raster).iji


def write_iji_csv(rows, path) -> None:
    """rows: iterable of (map_id, EdgeTable). NaN serializes as empty."""
    write_csv(path, ["map_id", "m", "E", "iji"],
              ([map_id, t.m, t.total, t.iji] for map_id, t in rows))
