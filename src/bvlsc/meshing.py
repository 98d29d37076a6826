"""Computational domains (interval, polygon, half-ball) and simplicial meshes.

Conventions:
  * vertices are stored as an (nv, N) float array, also in 1D (N = 1);
  * cells are (nc, N+1) vertex index tuples (segments / triangles);
  * Mesh.facets() lists each facet (a vertex in 1D, an edge in 2D) once with
    the cells on its two sides; boundary facets are those with one cell;
  * the half-ball D_nu = {y in B_1(0) : y.nu < 0} is meshed in a canonical
    frame (nu = e1) and rotated, so the flat facet lies exactly on
    {y.nu = 0}.  The circular arc is approximated polygonally with sagitta
    <= h^2/8, which matters because the half-ball sign test integrates over
    the exact half-ball.

Every integral over cells uses one quadrature rule per dimension, the table
QUADRATURE of barycentric points and weights: two-point Gauss on segments
and the three edge midpoints on triangles.  Both are exact for quadratics,
so the integral of f(x, grad u) over a cell is exact whenever f is at most
quadratic in x (grad u is constant per cell).

Meshes are immutable after construction (arrays are locked).  The interval,
rectangle, polygon and half-ball constructors refuse meshes over MAX_CELLS
cells with MeshBudgetError before building anything.
"""

import functools

import numpy as np

__all__ = [
    "Domain",
    "Mesh",
    "MeshStack",
    "BoundaryPoint",
    "Patch",
    "build_mesh",
    "local_patch",
    "interval_mesh",
    "interval_mesh_with",
    "unit_square_mesh",
    "rectangle_mesh",
    "halfball_mesh",
    "MeshBudgetError",
]


MAX_CELLS = 200_000


class MeshBudgetError(ValueError):
    """Raised when a requested mesh would exceed the cell-count budget."""


def _check_budget(n_cells, request):
    if n_cells > MAX_CELLS:
        # Decimal formats a count of any size, where float() would overflow;
        # imported here, off the path of every mesh that fits
        from decimal import Decimal

        raise MeshBudgetError(
            f"{request} implies about {Decimal(n_cells):.0f} cells, over the budget "
            f"{MAX_CELLS}"
        )


def _segments_intersect(p1, p2, p3, p4):
    def orient(a, b, c):
        return np.sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))

    o1, o2 = orient(p1, p2, p3), orient(p1, p2, p4)
    o3, o4 = orient(p3, p4, p1), orient(p3, p4, p2)
    return o1 != o2 and o3 != o4


class Domain:
    """Interval [a, b], simple polygon, or canonical half-ball with normal nu."""

    def __init__(self, kind, dim, params):
        self.kind = kind
        self.dim = dim
        self.params = params

    @classmethod
    def interval(cls, a, b):
        a, b = float(a), float(b)
        if not a < b:
            raise ValueError(f"interval needs a < b, got [{a}, {b}]")
        return cls("interval", 1, {"a": a, "b": b})

    @classmethod
    def polygon(cls, vertices):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
            raise ValueError("polygon needs an (k, 2) vertex loop with k >= 3")
        area2 = 0.0
        n = len(verts)
        for i in range(n):
            x1, y1 = verts[i]
            x2, y2 = verts[(i + 1) % n]
            area2 += x1 * y2 - x2 * y1
        if area2 <= 0:
            raise ValueError("polygon vertex loop must be positively oriented")
        for i in range(n):
            for j in range(i + 1, n):
                if abs(i - j) in (0, 1) or (i == 0 and j == n - 1):
                    continue
                if _segments_intersect(
                    verts[i], verts[(i + 1) % n], verts[j], verts[(j + 1) % n]
                ):
                    raise ValueError("polygon vertex loop is self-intersecting")
        return cls("polygon", 2, {"vertices": verts})

    @classmethod
    def halfball(cls, normal):
        nu = np.atleast_1d(np.asarray(normal, dtype=float))
        norm = np.linalg.norm(nu)
        if norm == 0:
            raise ValueError("half-ball normal must be nonzero")
        if abs(norm - 1.0) > 1e-9:
            raise ValueError("half-ball normal must be a unit vector")
        nu = nu / np.linalg.norm(nu)
        return cls("halfball", len(nu), {"normal": nu})

    def measure(self):
        if self.kind == "interval":
            return self.params["b"] - self.params["a"]
        if self.kind == "polygon":
            v = self.params["vertices"]
            x, y = v[:, 0], v[:, 1]
            return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        if self.dim == 1:
            return 1.0
        return np.pi / 2.0

    def boundary_distance(self, x):
        """Distance to the topological boundary of the domain."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.kind == "interval":
            a, b = self.params["a"], self.params["b"]
            return np.minimum(np.abs(x[:, 0] - a), np.abs(x[:, 0] - b))
        if self.kind == "polygon":
            from .regions import _dist_to_loop

            return _dist_to_loop(x, self.params["vertices"])
        nu = self.params["normal"]
        if self.dim == 1:
            # D = {y in (-1,1): y*nu < 0}: endpoints are 0 and -nu.
            return np.minimum(np.abs(x[:, 0]), np.abs(x[:, 0] + nu[0]))
        from .regions import _dist_to_segment

        t = np.array([-nu[1], nu[0]])
        d_flat = _dist_to_segment(x, -t, t)
        r = np.linalg.norm(x, axis=1)
        d_arc = np.abs(r - 1.0)
        outward = x @ nu > 0
        d_arc = np.where(outward, np.inf, d_arc)
        return np.minimum(d_flat, d_arc)

    def boundary_point(self, x0):
        """Make a BoundaryPoint at x0, within 1e-9 of the boundary, computing
        the outward unit normal.

        Polygon corners have no single normal and are rejected; checks that
        need corners route through the eps-delta probe instead.
        """
        tol = 1e-9
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        if self.kind == "interval":
            a, b = self.params["a"], self.params["b"]
            if abs(x0[0] - a) <= tol:
                return BoundaryPoint(np.array([a]), np.array([-1.0]))
            if abs(x0[0] - b) <= tol:
                return BoundaryPoint(np.array([b]), np.array([1.0]))
            raise ValueError(f"{x0} is not an endpoint of [{a}, {b}]")
        if self.kind == "polygon":
            from .regions import _dist_to_segment

            verts = self.params["vertices"]
            n = len(verts)
            hits = []
            for i in range(n):
                a, b = verts[i], verts[(i + 1) % n]
                if _dist_to_segment(x0[None, :], a, b)[0] <= tol:
                    e = b - a
                    nrm = np.array([e[1], -e[0]])  # outward for ccw loops
                    hits.append(nrm / np.linalg.norm(nrm))
            if not hits:
                raise ValueError(f"{x0} does not lie on the polygon boundary")
            if len(hits) > 1 and np.linalg.norm(hits[0] - hits[1]) > 1e-9:
                raise ValueError(
                    f"{x0} is a polygon corner with normals {hits[0]} and {hits[1]}; "
                    "no single outward normal exists"
                )
            return BoundaryPoint(x0, hits[0])
        raise ValueError("boundary_point is defined for interval/polygon domains")


class BoundaryPoint:
    """A point on the domain boundary together with its outward unit normal."""

    def __init__(self, x0, normal):
        self.x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        nu = np.atleast_1d(np.asarray(normal, dtype=float))
        if abs(np.linalg.norm(nu) - 1.0) > 1e-12:
            raise ValueError("boundary normal must have unit length")
        self.normal = nu

    def __repr__(self):
        return f"BoundaryPoint(x0={self.x0.tolist()}, normal={self.normal.tolist()})"


def _lock(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


_G = 0.5 / np.sqrt(3.0)
# dim -> (barycentric points (nq, dim+1), weights (nq,) summing to 1)
QUADRATURE = {
    1: (_lock([[0.5 + _G, 0.5 - _G], [0.5 - _G, 0.5 + _G]]), _lock([0.5, 0.5])),
    2: (_lock([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        _lock([1 / 3, 1 / 3, 1 / 3])),
}


def row_norms(x):
    """Euclidean norms along the last axis, bit-equal to np.linalg.norm(x,
    axis=-1).  Rows of up to 4 entries are summed left to right, as numpy's
    reduction adds them, at a fraction of its per-call cost."""
    if x.shape[-1] > 4:
        return np.linalg.norm(x, axis=-1)
    s = x[..., 0] * x[..., 0]
    for j in range(1, x.shape[-1]):
        s += x[..., j] * x[..., j]
    return np.sqrt(s)


def segment_shape_gradients(length):
    """Gradients (nc, 2, 1) of the two hat functions of segments of the given
    signed lengths, left vertex first."""
    grads = np.empty((len(length), 2, 1))
    grads[:, 1, 0] = 1.0 / length
    grads[:, 0, 0] = -grads[:, 1, 0]
    return grads


def simplex_geometry(vertices, cells):
    """The geometry of the simplices cells (nc, dim+1) on vertices (nv, dim):
    the cells oriented (segments left to right, triangles counterclockwise),
    their measures (nc,), the gradients (nc, dim+1, dim) of their barycentric
    coordinates and their diameters (nc,).  Every entry is computed from its
    own cell alone.  Raises ValueError on a cell of zero measure.  Vertices
    are gathered by take, an order of magnitude faster than fancy indexing
    by the cells array."""
    if vertices.shape[1] == 1:
        x = vertices[:, 0].take(cells)  # (nc, 2)
        length = x[:, 1] - x[:, 0]
        if length.min() < 1e-15:
            if np.any(np.abs(length) < 1e-15):
                raise ValueError("degenerate cell (zero length)")
            # orient cells left-to-right
            flip = length < 0
            cells = cells.copy()
            cells[flip] = cells[flip][:, ::-1]
            x = vertices[:, 0].take(cells)
            length = x[:, 1] - x[:, 0]
        return cells, length, segment_shape_gradients(length), length

    def edges(cells):
        v0, v1, v2 = (vertices.take(cells[:, i], axis=0) for i in range(3))
        e1, e2 = v1 - v0, v2 - v0
        return e1, e2, e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]

    e1, e2, det = edges(cells)
    flip = det < 0
    if np.any(flip):
        cells = cells.copy()
        cells[flip] = cells[flip][:, [0, 2, 1]]
        e1, e2, det = edges(cells)
    if np.any(np.abs(det) < 1e-15):
        raise ValueError("degenerate cell (zero area)")
    g1 = np.stack([e2[:, 1], -e2[:, 0]], axis=1) / det[:, None]
    g2 = np.stack([-e1[:, 1], e1[:, 0]], axis=1) / det[:, None]
    g0 = -g1 - g2
    diameters = np.maximum(row_norms(e1), np.maximum(row_norms(e2), row_norms(e1 - e2)))
    return cells, 0.5 * det, np.stack([g0, g1, g2], axis=1), diameters


def cell_quadrature(vertices, cells, measures):
    """Points (nc, nq, dim) and weights (nc, nq) of the QUADRATURE rule on
    the simplices cells (nc, dim+1) on vertices (nv, dim) with measures
    (nc,).  The point q of a cell sums bary[q, i] * v[i] over its vertices
    v[i] left to right, the order in which einsum("qi,cid->cqd") sums them."""
    bary, w = QUADRATURE[vertices.shape[1]]
    corners = [vertices.take(cells[:, i], axis=0) for i in range(cells.shape[1])]
    pts = []
    for b in bary:
        p = corners[0] * b[0]
        for v, bi in zip(corners[1:], b[1:]):
            p += v * bi
        pts.append(p)
    return np.stack(pts, axis=1), np.outer(measures, w)


class Mesh:
    """Conforming simplicial mesh with a facet table built on first use."""

    def __init__(self, vertices, cells, domain=None):
        self.vertices = _lock(np.asarray(vertices, dtype=float))
        self.cells = _lock(np.asarray(cells, dtype=np.int64))
        self.dim = self.vertices.shape[1]
        self.domain = domain
        if self.cells.shape[1] != self.dim + 1:
            raise ValueError("cells must be simplices with dim+1 vertices")
        self._build_geometry()
        # built on first use: most refined meshes never integrate or look at
        # their facets
        self._quad = self._facets = None
        self._refine_cache = {}
        self._copies = (0, None, None)  # see _copies_for
        self._slots = {}  # see _p1_assemble

    # -- geometry ---------------------------------------------------------

    def _build_geometry(self):
        self.n_cells = len(self.cells)
        self.n_vertices = len(self.vertices)
        cells, measures, grads, diameters = simplex_geometry(self.vertices, self.cells)
        self.cells = _lock(cells)
        self.cell_measures = _lock(measures)
        self.shape_gradients = _lock(grads)
        self.h = float(np.max(diameters))
        v = self.vertices.take(self.cells, axis=0)
        self.centroids = _lock(0.5 * (v[:, 0] + v[:, 1]) if self.dim == 1 else v.mean(axis=1))

    def facets(self):
        """Each facet once, as its sorted vertex row, in lexicographic order,
        with the cells on its two sides: (facets (nf, dim), sides (nf, 2)),
        the lower cell id first and -1 on the open side of a boundary facet.
        Built on first use and cached."""
        if self._facets is None:
            if self.dim == 1:
                rows = self.cells.reshape(-1, 1)
                keys = rows[:, 0]
            else:
                rows = np.sort(self.cells[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2), axis=1)
                keys = rows[:, 0] * self.n_vertices + rows[:, 1]
            # stable: the slots of one facet stay in cell order, so its first
            # slot holds the lower cell id
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            first = np.ones(len(keys), dtype=bool)
            first[1:] = keys[1:] != keys[:-1]
            facet = np.cumsum(first) - 1
            sides = np.full((facet[-1] + 1, 2), -1)
            sides[facet, 1 - first] = order // (self.dim + 1)
            self._facets = (_lock(rows[order[first]]), _lock(sides))
        return self._facets

    @property
    def boundary_vertices(self):
        """Sorted ids of the vertices on facets with one cell."""
        facets, sides = self.facets()
        return np.unique(facets[sides[:, 1] < 0])

    # -- evaluation helpers -------------------------------------------------

    def quadrature(self):
        """Per-cell points and weights of the QUADRATURE rule: (nc, nq, dim),
        (nc, nq)."""
        if self._quad is None:
            self._quad = tuple(map(_lock, cell_quadrature(self.vertices, self.cells,
                                                           self.cell_measures)))
        return self._quad

    def refined_cells(self, subdivisions):
        """Sub-cells after `subdivisions` uniform refinements of the whole mesh.

        Returns read-only (sub-centroids (ns, dim), sub-measures (ns,), parent
        cell ids (ns,)), built once per subdivision count and then cached.
        """
        key = int(subdivisions)
        if key not in self._refine_cache:
            verts, cells = np.asarray(self.vertices), np.asarray(self.cells)
            parent = np.arange(len(cells))
            for _ in range(key):
                verts, cells = _refine_all(verts, cells, self.dim)
                parent = np.repeat(parent, 2 if self.dim == 1 else 4)
            self._refine_cache[key] = (
                _lock(verts[cells].mean(axis=1)),
                _lock(_sub_measures(verts, cells, self.dim)),
                _lock(parent),
            )
        return self._refine_cache[key]

    # a mesh is the one copy of a family (see MeshStack): every field of a
    # batch lies on it, whatever copies `on` names
    copies = 1

    def p1_gradient(self, values, on=None):
        """Cellwise gradient of a continuous P1 field; values (nv, M) -> (nc, M, dim).

        A batch (R, nv, M) of fields is one field on R disjoint copies of the
        mesh and gives (R, nc, M, dim), every entry summed as for one field.
        """
        return self._p1_gradient(values)

    def p1_assemble(self, per_cell, on=None):
        """Adjoint of p1_gradient: per-cell (nc, M, dim) -> vertex (nv, M).

        sum(p1_gradient(v) * G) == sum(v * p1_assemble(G)), so the gradient of
        sum_c G_c : grad v on cell c with respect to v is p1_assemble(G).  A
        batch (R, nc, M, dim) gives (R, nv, M).  Each vertex entry adds its
        cell contributions in cell order, starting from 0.0.
        """
        return self._p1_assemble(per_cell)

    def _p1_gradient(self, values, shapes=None):
        """p1_gradient; `shapes` (R, nc, dim+1, dim) gives each field of a
        batch the shape gradients of its own mesh with these cells."""
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        batch, M = values.shape[:-2], values.shape[-1]
        cells, grads = self._copies_for(batch, shapes)
        out = np.einsum("cim,cid->cmd", values.reshape(-1, M).take(cells, axis=0), grads)
        return out.reshape(batch + (self.n_cells, M, self.dim))

    def _p1_assemble(self, per_cell, shapes=None):
        """p1_assemble; `shapes` (R, nc, dim+1, dim) gives each entry of a
        batch the shape gradients of its own mesh with these cells."""
        batch, M = per_cell.shape[:-3], per_cell.shape[-2]
        cells, grads = self._copies_for(batch, shapes)
        contrib = np.einsum("cmn,cin->cim", per_cell.reshape(-1, M, self.dim), grads)
        # the scatter slots of cells, kept per M for the most rows asked so
        # far: the rows of fewer copies are their leading slice
        slots = self._slots.get(M)
        if slots is None or len(slots) < contrib.size:
            slots = self._slots[M] = _lock((cells[..., None] * M + np.arange(M)).ravel())
        size = len(cells) // self.n_cells * self.n_vertices * M
        out = np.bincount(slots[:contrib.size], contrib.ravel(), minlength=size)
        return out.reshape(batch + (self.n_vertices, M))

    def _copies_for(self, batch, shapes=None):
        """Cells and shape gradients for one field (batch == ()) or for R
        fields (batch == (R,)) on R disjoint copies of the mesh, copy r with
        its vertex ids offset by r * n_vertices and the shape gradients of
        this mesh or, given `shapes` (R, nc, dim+1, dim), shapes[r].  The tiling
        is built for the largest R asked so far; a smaller R takes its
        leading slice."""
        if not batch:
            if shapes is not None:
                raise ValueError("a MeshStack takes a batch of fields (R, nv, M)")
            return self.cells, self.shape_gradients
        R = batch[0]
        if R > self._copies[0]:
            offsets = np.arange(R)[:, None, None] * self.n_vertices
            cells = (self.cells[None] + offsets).reshape(-1, self.dim + 1)
            grads = np.tile(self.shape_gradients, (R, 1, 1))
            self._copies = (R, _lock(cells), _lock(grads))
        n = R * self.n_cells
        if shapes is None:
            return self._copies[1][:n], self._copies[2][:n]
        return self._copies[1][:n], shapes.reshape(-1, self.dim + 1, self.dim)

    def gradient_masses(self, grads):
        """Per-cell |g|_F * |cell| of cellwise gradients (nc, M, dim)."""
        return row_norms(grads.reshape(len(grads), -1)) * self.cell_measures

    def __repr__(self):
        return (
            f"Mesh(dim={self.dim}, vertices={self.n_vertices}, "
            f"cells={self.n_cells}, h={self.h:.4g})"
        )


class MeshStack:
    """Meshes with one cells array, such as the half-balls of different normals
    (rotations of one mesh), stacked as the copies of a family.

    The P1 operators take a batch of fields (R, nv, M) with field r on mesh
    on[r] (on None: field p on mesh p) and run as Mesh runs them on a batch,
    with each field's shape gradients, so every entry has the bits of its own
    mesh.
    """

    def __init__(self, meshes):
        self.meshes = tuple(meshes)
        base = self.meshes[0]
        if any(m.n_vertices != base.n_vertices or not np.array_equal(m.cells, base.cells)
               for m in self.meshes):
            raise ValueError("stacked meshes must share one cells array")
        self._base = base
        self.cells, self.dim = base.cells, base.dim
        self.n_cells, self.n_vertices = base.n_cells, base.n_vertices
        self.copies = len(self.meshes)
        self.shape_gradients = np.stack([m.shape_gradients for m in self.meshes])
        self.cell_measures = np.stack([m.cell_measures for m in self.meshes])

    def quadrature(self):
        """Per-copy quadrature points and weights: (P, nc, nq, dim), (P, nc, nq)."""
        pts, wts = zip(*(m.quadrature() for m in self.meshes))
        return np.stack(pts), np.stack(wts)

    def _shapes(self, on):
        return self.shape_gradients if on is None else self.shape_gradients[on]

    def p1_gradient(self, values, on=None):
        return self._base._p1_gradient(values, self._shapes(on))

    def p1_assemble(self, per_cell, on=None):
        return self._base._p1_assemble(per_cell, self._shapes(on))


# -- constructors -----------------------------------------------------------


def _interval_cells(a, b, h_target, extra=0):
    """Cells of the uniform grid of step h_target on [a, b], after checking
    that they and `extra` inserted points fit the budget."""
    cells = (b - a) / h_target
    # cells + extra > MAX_CELLS, compared without float() of an int extra
    # beyond the float range; the message is formatted only to be raised
    if extra > MAX_CELLS - cells:
        from decimal import Decimal

        more = f" with {extra} more points" if extra else ""
        _check_budget(Decimal(cells) + extra, f"h={h_target} on [{a}, {b}]{more}")
    return max(1, int(np.ceil(cells)))


def interval_mesh(a, b, h_target, domain=None):
    n = _interval_cells(a, b, h_target)
    verts = np.linspace(a, b, n + 1)[:, None]
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return Mesh(verts, cells, domain=domain or Domain.interval(a, b))


def interval_points(a, b, h_target, required_points=()):
    """Sorted distinct vertex coordinates of interval_mesh_with: the uniform
    grid of step h_target on [a, b] and the required points within it,
    rounded to 14 decimals.  The budget covers the grid cells plus the
    required points and is checked before any array is built."""
    return interval_grids(a, b, h_target, [required_points])[0]


def _within(pts, a, b):
    return (pts >= a - 1e-14) & (pts <= b + 1e-14)


def interval_grids(a, b, h_target, required):
    """interval_points of each member's required points (the list
    `required`), stacked: the members' vertex coordinates one after another
    and the number of each member's vertices.  Every member's budget is
    checked before any array is built.  The base grid is rounded once, and
    one sort on (member, coordinate) merges it into every member; of equal
    coordinates a member keeps the first, base points before its own."""
    required = [np.asarray(r, dtype=float).ravel() for r in required]
    for r in required:  # one base grid for all; only the extra points differ
        cells = _interval_cells(a, b, h_target, r.size)
    k = len(required)
    base = np.linspace(a, b, cells + 1)
    base = np.round(base[_within(base, a, b)], 14)
    extra = np.concatenate(required)
    inside = _within(extra, a, b)
    pts = np.concatenate([np.tile(base, k), np.round(extra[inside], 14)])
    member = np.concatenate([np.repeat(np.arange(k), len(base)),
                             np.repeat(np.arange(k), [r.size for r in required])[inside]])
    order = np.lexsort((pts, member))
    pts, member = pts[order], member[order]
    first = np.ones(len(pts), dtype=bool)
    first[1:] = (pts[1:] != pts[:-1]) | (member[1:] != member[:-1])
    return pts[first], np.bincount(member[first], minlength=k).tolist()


def interval_mesh_with(a, b, h_target, required_points=(), domain=None):
    """Uniform interval mesh with extra vertices inserted at required points."""
    pts = interval_points(a, b, h_target, required_points)
    cells = np.arange(len(pts) - 1)[:, None] + np.arange(2)
    return Mesh(pts[:, None], cells, domain=domain or Domain.interval(a, b))


def rectangle_lines(x0, x1, y0, y1, nx, ny):
    """The x and y lines of the structured nx x ny grid on [x0, x1] x
    [y0, y1], after checking its 2 nx ny cells against the budget."""
    _check_budget(2 * nx * ny, f"a {nx}x{ny} grid")
    return np.linspace(x0, x1, nx + 1), np.linspace(y0, y1, ny + 1)


def rectangle_grids(lines):
    """Vertices and cells of the structured grids on the lines [(xs, ys),
    ...], one after another: the vertices (xs[i], ys[j]) i-major, and per
    grid quad (i-major) the triangles [a, b, c] and [a, c, d], a its lower
    left vertex, each grid's vertex ids offset by the vertices before it."""
    sizes = [len(xs) * len(ys) for xs, ys in lines]
    vertices = np.column_stack([np.concatenate([np.repeat(xs, len(ys)) for xs, ys in lines]),
                                np.concatenate([np.tile(ys, len(xs)) for xs, ys in lines])])
    # quad q = i ny + j of a grid has the lower left vertex i (ny + 1) + j = q + i
    quads = [(len(xs) - 1) * (len(ys) - 1) for xs, ys in lines]
    ny = np.repeat([len(ys) - 1 for _, ys in lines], quads)
    q = np.arange(sum(quads)) - np.repeat(np.cumsum(quads) - quads, quads)
    a = q + q // ny + np.repeat(np.cumsum(sizes) - sizes, quads)
    b, c, d = a + ny + 1, a + ny + 2, a + 1
    return vertices, np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)


def rectangle_mesh(x0, x1, y0, y1, nx, ny, domain=None):
    """Structured rectangle mesh; each grid quad split into two triangles."""
    verts, cells = rectangle_grids([rectangle_lines(x0, x1, y0, y1, nx, ny)])
    if domain is None:
        domain = Domain.polygon([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])
    return Mesh(verts, cells, domain=domain)


def unit_square_mesh(n):
    return rectangle_mesh(0.0, 1.0, 0.0, 1.0, n, n)


def _polygon_mesh(domain, h):
    verts = domain.params["vertices"]
    pts = []
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        L = np.linalg.norm(b - a)
        k = max(1, int(np.ceil(L / h)))
        for t in np.arange(k) / k:
            pts.append(a + t * (b - a))
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    nx = int(np.ceil((hi[0] - lo[0]) / h))
    ny = int(np.ceil((hi[1] - lo[1]) / h))
    _check_budget(2 * nx * ny, f"h={h}")
    from .regions import polygon_region

    region = polygon_region(verts)
    xs = lo[0] + (np.arange(nx + 1)) * (hi[0] - lo[0]) / nx
    ys = lo[1] + (np.arange(ny + 1)) * (hi[1] - lo[1]) / ny
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    grid = np.column_stack([X.ravel(), Y.ravel()])
    bdist = domain.boundary_distance(grid)
    inside = region.contains(grid, tol=1e-12) & (bdist > 0.3 * h)
    pts = np.vstack([np.array(pts), grid[inside]])
    pts = np.unique(np.round(pts, 12), axis=0)
    # imported here, the one scipy use: after numpy, a fresh import takes
    # 0.32-0.37 s and raises peak RSS from 27 to 64 MB (2-CPU Xeon VM)
    from scipy.spatial import Delaunay

    tri = Delaunay(pts)
    cent = pts[tri.simplices].mean(axis=1)
    # relative to h^2: the rounding above moves boundary points off slanted
    # edges, and the near-flat triangles Delaunay spans over them are slivers
    keep = region.contains(cent, tol=1e-12) & (
        _sub_measures(pts, tri.simplices, 2) > 1e-9 * h * h)
    cells = tri.simplices[keep]
    used = np.unique(cells)
    remap = -np.ones(len(pts), dtype=np.int64)
    remap[used] = np.arange(len(used))
    mesh = Mesh(pts[used], remap[cells], domain=domain)
    return mesh


def _halfball_rings(h_target):
    """The point counts of the 2D half-ball's rings for h (ring k of nr has
    radius k / nr), after the cell budget check, which runs on every call."""
    nr = max(2, int(np.ceil(1.0 / h_target)))
    _check_budget(4 * nr * nr, f"h={h_target}")
    return tuple(max(3, int(np.ceil(np.pi * (k / nr) / h_target)) + 1)
                 for k in range(1, nr + 1))


def _canonical_halfball(h_target):
    """Ring points and cells of the 2D half-ball in the canonical frame nu =
    e1, after the cell budget check, which runs on every call."""
    return _triangulated_halfball(_halfball_rings(h_target))


def _zip_rings(sizes):
    """Counterclockwise triangles joining consecutive rings of points.

    Ring k holds sizes[k] points, numbered on from the rings before it, in
    counterclockwise order at equal angle steps over one angular span that
    every ring shares; a ring of one point is an apex.  Each pair of
    consecutive rings, a inside b, is zipped along the span: each edge of
    either ring makes one triangle with a point of the other, m_a + m_b - 2
    triangles in angle order.  Where a quad a_i a_i+1 b_j+1 b_j could take
    either diagonal, the zip takes the Delaunay one, by the in-circle test:
    the circle through a_i, a_i+1 and b_j is symmetric about the bisector of
    the edge a_i a_i+1 and, for rings as close as the half-ball's, centred
    outward along it, so it holds b_j+1 exactly when the edge b_j b_j+1 lies
    at the smaller mid-angle.  The zip is thus a merge of the two rings'
    edges by mid-angle, the fraction (2 i + 1) / (2 (m - 1)) of the span for
    edge i of a ring of m points, compared exactly in integers; at a tie (a
    co-circular quad) the inner edge goes first.
    """
    starts = np.cumsum((0, *sizes))
    cells = []
    for a, ma, b, mb in zip(starts[:-2], sizes[:-1], starts[1:-1], sizes[1:]):
        i, j = np.arange(ma - 1), np.arange(mb - 1)
        key_a, key_b = (2 * i + 1) * (mb - 1), (2 * j + 1) * (ma - 1)
        # edges of the other ring merged in before each edge
        j_of_i = np.searchsorted(key_b, key_a, side="left")
        i_of_j = np.searchsorted(key_a, key_b, side="right")
        zipped = np.empty((ma + mb - 2, 3), dtype=np.int64)
        zipped[i + j_of_i] = np.column_stack([a + i, b + j_of_i, a + i + 1])
        zipped[j + i_of_j] = np.column_stack([a + i_of_j, b + j, b + j + 1])
        cells.append(zipped)
    return np.vstack(cells)


@functools.lru_cache(maxsize=8)
def _triangulated_halfball(rings):
    """_canonical_halfball's points and cells, locked, built once per ring
    sizes and shared by every normal.  The centre and the rings, each over
    the angles [pi/2, 3pi/2], are joined by _zip_rings: a fan from the
    centre, then a Delaunay zip of each pair of consecutive rings.  Its
    cells are counterclockwise, as Mesh orients them, so every rotation
    keeps this one array."""
    pts = [np.zeros(2)]
    for k, m in enumerate(rings, 1):
        r = k / len(rings)
        theta = np.linspace(np.pi / 2.0, 3.0 * np.pi / 2.0, m)
        ring = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        ring[0] = [0.0, r]
        ring[-1] = [0.0, -r]
        pts.append(ring)
    pts = np.vstack(pts)
    pts[np.abs(pts[:, 0]) < 1e-14, 0] = 0.0
    return _lock(pts), _lock(_zip_rings((1,) + rings))


def halfball_mesh(normal, h_target):
    """Mesh of D_nu = {y in B_1(0): y.nu < 0}.

    1D: D_nu is the unit interval on the side opposite the normal.
    2D: concentric polar rings in the canonical frame nu = e1 (left half-disk,
    flat facet exactly on {y1 = 0}), zipped ring to ring into a Delaunay
    triangulation once per h, without scipy, then rotated so the flat facet
    lies on {y.nu = 0}.
    """
    nu = np.atleast_1d(np.asarray(normal, dtype=float))
    nu = nu / np.linalg.norm(nu)
    domain = Domain.halfball(nu)
    if len(nu) == 1:
        a = -1.0 if nu[0] > 0 else 0.0  # the unit interval opposite nu
        return interval_mesh(a, a + 1.0, h_target, domain=domain)
    pts, cells = _canonical_halfball(h_target)
    # rotate canonical frame (nu = e1) onto the requested normal
    R = np.array([[nu[0], -nu[1]], [nu[1], nu[0]]])
    return Mesh(pts @ R.T, cells, domain=domain)


def build_mesh(domain, h_target):
    """Conforming simplicial mesh of the domain.  h_target spaces the
    boundary points and the grid: 1D cells are at most h_target across,
    2D cells up to about sqrt(2) h_target (Mesh.h of the unit square at
    0.125 is 0.177)."""
    if h_target <= 0:
        raise ValueError("h_target must be positive")
    if domain.kind == "interval":
        a, b = domain.params["a"], domain.params["b"]
        return interval_mesh(a, b, h_target, domain=domain)
    if domain.kind == "polygon":
        return _polygon_mesh(domain, h_target)
    if domain.kind == "halfball":
        return halfball_mesh(domain.params["normal"], h_target)
    raise ValueError(f"unknown domain kind {domain.kind!r}")


# -- local patches -----------------------------------------------------------


class Patch:
    """Submesh covering Omega with a ball around a boundary/interior point.

    clamped_vertices: vertex ids where admissible test fields vanish (the
    interface created by the ball); free boundary parts lie on the original
    domain boundary.
    """

    def __init__(self, mesh, clamped_vertices, free_vertices, delta):
        self.mesh = mesh
        self.clamped_vertices = np.asarray(clamped_vertices, dtype=np.int64)
        self.free_vertices = np.asarray(free_vertices, dtype=np.int64)
        self.delta = delta

    def __repr__(self):
        return (
            f"Patch(cells={self.mesh.n_cells}, clamped={len(self.clamped_vertices)}, "
            f"free={len(self.free_vertices)}, delta={self.delta})"
        )


def _refine_all(vertices, cells, dim):
    """One uniform red refinement of a conforming submesh."""
    if dim == 1:
        # cell i = [a, b] gets the midpoint vertex nv + i and becomes [a, m], [m, b]
        a, b = cells[:, 0], cells[:, 1]
        m = len(vertices) + np.arange(len(cells))
        verts = np.concatenate([vertices, 0.5 * (vertices[a] + vertices[b])])
        return verts, np.stack([a, m, m, b], axis=1).reshape(-1, 2)
    # the edges ab, bc, ca of each cell, keyed as Mesh.facets keys them; each
    # edge's midpoint vertex is numbered in the order the cells first meet it
    ends = cells[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
    rows = np.sort(ends, axis=1)
    _, first, edge = np.unique(rows[:, 0] * len(vertices) + rows[:, 1],
                               return_index=True, return_inverse=True)
    met = np.argsort(first)
    rank = np.empty_like(met)
    rank[met] = np.arange(len(met))
    e = ends[first[met]]
    verts = np.concatenate([vertices, 0.5 * (vertices[e[:, 0]] + vertices[e[:, 1]])])
    (a, b, c), (ab, bc, ca) = cells.T, (len(vertices) + rank[edge]).reshape(-1, 3).T
    return verts, np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca],
                           axis=1).reshape(-1, 3)


def _sub_measures(verts, cells, dim):
    v = verts[cells]
    if dim == 1:
        return np.abs(v[:, 1, 0] - v[:, 0, 0])
    e1 = v[:, 1] - v[:, 0]
    e2 = v[:, 2] - v[:, 0]
    return 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def local_patch(mesh, x0, delta, refine_levels=1):
    """Submesh of the cells around x0 within distance delta.

    Cells are selected by centroid; the selected submesh is then uniformly
    refined `refine_levels` times with re-selection, sharpening the resolution
    of the ball interface without hanging nodes.  Patch boundary facets on the
    original domain boundary are free; the rest (the interface near the ball
    boundary) is clamped.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if isinstance(x0, BoundaryPoint):
        center = x0.x0
    else:
        center = np.atleast_1d(np.asarray(x0, dtype=float))

    verts = np.asarray(mesh.vertices)
    cells = np.asarray(mesh.cells)
    for _ in range(refine_levels):
        # keep every candidate touching the ball, then refine; the final
        # centroid rule below sees the refined interface
        d = np.linalg.norm(verts - center, axis=1)
        touching = np.min(d[cells], axis=1) < delta
        cells = cells[touching]
        if len(cells) == 0:
            break
        if not _any_cell_straddles(verts, cells, center, delta):
            break
        verts, cells = _refine_all(verts, cells, mesh.dim)
    cent = verts[cells].mean(axis=1) if len(cells) else np.zeros((0, mesh.dim))
    keep = np.linalg.norm(cent - center, axis=1) < delta
    cells = cells[keep]
    if len(cells) == 0:
        raise ValueError(
            f"patch around {center} with delta={delta} contains no cells"
        )

    used = np.unique(cells)
    remap = -np.ones(len(verts), dtype=np.int64)
    remap[used] = np.arange(len(used))
    sub = Mesh(verts[used], remap[cells], domain=mesh.domain)
    bverts = sub.boundary_vertices
    free = np.zeros(len(bverts), dtype=bool)
    if mesh.domain is not None:
        free = mesh.domain.boundary_distance(sub.vertices[bverts]) <= 1e-9 * max(mesh.h, 1.0)
    return Patch(sub, bverts[~free], bverts[free], delta)


def _any_cell_straddles(verts, cells, center, delta):
    d = np.linalg.norm(verts - center, axis=1)
    dc = d[cells]
    return bool(np.any((dc.min(axis=1) < delta) & (dc.max(axis=1) > delta)))
