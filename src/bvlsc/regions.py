"""Compact set descriptors: points, segments and polygons with distance queries.

These describe the sets K whose neighborhoods (K)_delta enter tightness
diagnostics and decomposition covers.  A CompactSet is a finite union of
primitive pieces; dist() is the Euclidean distance to that union, so the
open delta-neighborhood is simply {x : dist(x) < delta}.
"""

import numpy as np

from .meshing import row_norms

__all__ = ["CompactSet", "point", "segment", "box", "polygon_region"]


def _as_points(x, dim):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {x.shape}")
    return x


def _dist_to_segment(x, a, b):
    """Distance from points x (k, d) to the closed segment [a, b]."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return row_norms(x - a)
    t = np.clip((x - a) @ ab / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return row_norms(x - proj)


def _points_in_polygon(x, verts):
    """Even-odd rule point-in-polygon test, vectorized over x (k, 2)."""
    inside = np.zeros(len(x), dtype=bool)
    n = len(verts)
    px, py = x[:, 0], x[:, 1]
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        cross = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        inside ^= cross & (px < np.where(cross, xint, np.inf))
    return inside


class CompactSet:
    """Finite union of points, segments and closed polygonal regions."""

    def __init__(self, dim, pieces=None):
        self.dim = int(dim)
        self.pieces = list(pieces) if pieces else []

    def add_point(self, p):
        self.pieces.append(("point", _as_points(p, self.dim)[0]))
        return self

    def add_segment(self, a, b):
        a = _as_points(a, self.dim)[0]
        b = _as_points(b, self.dim)[0]
        self.pieces.append(("segment", (a, b)))
        return self

    def add_polygon(self, verts):
        if self.dim != 2:
            raise ValueError("polygon pieces need dim == 2")
        verts = _as_points(verts, 2)
        if len(verts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        self.pieces.append(("polygon", verts))
        return self

    def dist(self, x):
        """Euclidean distance from points x to the set (0 inside region pieces)."""
        x = _as_points(x, self.dim)
        if not self.pieces:
            return np.full(len(x), np.inf)
        d = np.full(len(x), np.inf)
        for kind, data in self.pieces:
            if kind == "point":
                d = np.minimum(d, row_norms(x - data))
            elif kind == "segment":
                a, b = data
                d = np.minimum(d, _dist_to_segment(x, a, b))
            else:
                verts = data
                db = np.full(len(x), np.inf)
                for i in range(len(verts)):
                    db = np.minimum(
                        db, _dist_to_segment(x, verts[i], verts[(i + 1) % len(verts)])
                    )
                db[_points_in_polygon(x, verts)] = 0.0
                d = np.minimum(d, db)
        return d

    def contains(self, x, tol=1e-12):
        return self.dist(x) <= tol

    @classmethod
    def from_config(cls, dim, items):
        ks = cls(dim)
        for item in items:
            if "point" in item:
                ks.add_point(item["point"])
            elif "segment" in item:
                ks.add_segment(*item["segment"])
            elif "polygon" in item:
                ks.add_polygon(item["polygon"])
            else:
                raise ValueError(f"unknown compact-set piece {item!r}")
        return ks

    def __repr__(self):
        kinds = ", ".join(k for k, _ in self.pieces)
        return f"CompactSet(dim={self.dim}, pieces=[{kinds}])"


def point(p):
    p = np.atleast_1d(np.asarray(p, dtype=float))
    return CompactSet(len(p)).add_point(p)


def segment(a, b):
    a = np.atleast_1d(np.asarray(a, dtype=float))
    return CompactSet(len(a)).add_segment(a, b)


def box(lo, hi):
    """Closed interval [lo, hi] in 1D, or an axis-aligned rectangle in 2D."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if len(lo) == 1:
        return segment(lo, hi)
    verts = [
        [lo[0], lo[1]],
        [hi[0], lo[1]],
        [hi[0], hi[1]],
        [lo[0], hi[1]],
    ]
    return CompactSet(2).add_polygon(verts)


def polygon_region(verts):
    return CompactSet(2).add_polygon(verts)
