"""Discrete BV functions and matrix-valued Radon measures.

A BVFunction is piecewise affine per cell (values stored per cell corner, so
fields may be discontinuous across facets) together with an explicit singular
part: point atoms (location, jump vector) in 1D, facet jumps (facet, jump
vector, orientation normal) in 2D.  Its derivative splits as

    Du = (cellwise gradient) * Lebesgue  +  singular charges,

where a 1D atom with jump j contributes the M x 1 charge j, and a 2D facet
with jump j and unit normal n contributes j (x) n weighted by facet length.
Jump vectors follow the convention jump = trace on the +n side minus trace on
the -n side (in 1D: right minus left).

MatrixMeasure stores the absolutely continuous density per cell plus the
singular charges in polar form: the position of each (the atom, or the facet
midpoint), its unit-Frobenius polar matrix and its positive mass.

Both types are immutable values; operations never mutate their inputs.
"""

import warnings

import numpy as np

from .meshing import QUADRATURE, Mesh, row_norms

__all__ = [
    "BVFunction",
    "MatrixMeasure",
    "derivative",
    "total_variation",
    "tv_on_neighborhood",
    "tv_on_neighborhoods",
    "does_not_charge",
    "cutoff_multiply",
    "l1_distance",
    "weakstar_diagnostics",
]

_ATOL = 1e-14


def _rows(vectors):
    """The vectors, k >= 1 of them, as the rows of one float array (k, n)."""
    return np.asarray(vectors, dtype=float).reshape(len(vectors), -1)


def _frobenius(mats):
    """np.linalg.norm of each matrix (or vector) of the stack mats (k, ...),
    bit for bit: one array pass where each holds a single number, else one
    np.linalg.norm apiece, whose BLAS dot over two or more numbers need not
    round as an array pass does."""
    flat = mats.reshape(-1)
    if flat.size == len(mats):
        return np.sqrt(flat * flat)
    return np.array([np.linalg.norm(m) for m in mats.reshape(len(mats), -1)])


class BVFunction:
    """Piecewise-affine function with explicit singular derivative data."""

    def __init__(self, mesh, cell_values, atoms=(), jump_facets=()):
        self.mesh = mesh
        cv = np.asarray(cell_values, dtype=float)
        if cv.ndim == 2:
            cv = cv[:, :, None]
        if cv.shape[0] != mesh.n_cells or cv.shape[1] != mesh.dim + 1:
            raise ValueError(
                f"cell_values must be (n_cells, dim+1, M), got {cv.shape}"
            )
        self.cell_values = cv
        self.M = cv.shape[2]

        # one norm pass over the jumps and, in 1D, one boundary_distance call
        # over the atoms; the per-atom decisions are read off as lists
        atoms = sorted(((float(loc), jump) for loc, jump in atoms), key=lambda a: a[0])
        if atoms:
            jumps = _rows([j for _, j in atoms])
            keep = [not n <= _ATOL for n in _frobenius(jumps).tolist()]
            if mesh.dim == 1 and mesh.domain is not None and any(keep):
                bdist = mesh.domain.boundary_distance([[loc] for loc, _ in atoms])
                for i, d in enumerate(bdist.tolist()):
                    if keep[i] and d <= 1e-12:
                        warnings.warn(
                            f"pruning atom at {atoms[i][0]}: jumps on the domain boundary "
                            "are not part of the derivative measure on the open domain"
                        )
                        keep[i] = False
            atoms = [(loc, j) for (loc, _), j, k in zip(atoms, jumps, keep) if k]
        self.atoms = tuple(atoms)

        jump_facets = sorted(((tuple(sorted(map(int, facet))), jump, normal)
                              for facet, jump, normal in jump_facets), key=lambda a: a[0])
        if jump_facets:
            jumps = _rows([j for _, j, _ in jump_facets])
            keep = [not n <= _ATOL for n in _frobenius(jumps).tolist()]
            jump_facets = [(facet, j, np.asarray(normal, dtype=float))
                           for (facet, _, normal), j, k in zip(jump_facets, jumps, keep) if k]
        self.jump_facets = tuple(jump_facets)
        if mesh.dim == 1 and self.jump_facets:
            raise ValueError("facet jumps are a 2D feature; use atoms in 1D")
        if mesh.dim == 2 and self.atoms:
            raise ValueError("point atoms are a 1D feature; use facet jumps in 2D")
        for a in (self.cell_values,):
            a.flags.writeable = False

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, mesh, M=1):
        return cls(mesh, np.zeros((mesh.n_cells, mesh.dim + 1, M)))

    @classmethod
    def from_vertex_values(cls, mesh, values):
        """Continuous P1 function from vertex values (nv, M) or (nv,)."""
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        return cls(mesh, values.take(mesh.cells, axis=0))

    @classmethod
    def affine(cls, mesh, xi, b=None):
        """u(x) = xi @ x + b with xi an (M, dim) matrix."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        vals = mesh.vertices @ xi.T
        if b is not None:
            vals = vals + np.atleast_1d(b)
        return cls.from_vertex_values(mesh, vals)

    @classmethod
    def from_cellwise_constant(cls, mesh, values_per_cell):
        """Piecewise-constant function; jumps are read off the cell interfaces.

        In 1D the cells are taken in x order, and two neighbours that share
        a vertex jump there by the right cell's value minus the left one's
        (neighbours across a gap in the mesh share none and do not jump).
        In 2D each interior facet of the facet table jumps by the value on
        the +n side minus the one on the -n side, n the unit normal of the
        edge.  The constructor drops the negligible jumps and sorts the rest.
        """
        vpc = np.asarray(values_per_cell, dtype=float)
        if vpc.ndim == 1:
            vpc = vpc[:, None]
        cv = np.repeat(vpc[:, None, :], mesh.dim + 1, axis=1)
        if mesh.dim == 1:
            order = np.argsort(mesh.centroids[:, 0])
            left, right = order[:-1], order[1:]
            jumps = vpc[right] - vpc[left]
            nz = (mesh.cells[left, 1] == mesh.cells[right, 0]) & (jumps != 0).any(axis=1)
            at = mesh.vertices[mesh.cells[left[nz], 1], 0]
            return cls(mesh, cv, atoms=zip(at.tolist(), jumps[nz]))
        facets, sides = mesh.facets()
        inner = sides[:, 1] >= 0
        f, (c0, c1) = facets[inner], sides[inner].T
        v = mesh.vertices[f]
        e = v[:, 1] - v[:, 0]
        n = np.stack([e[:, 1], -e[:, 0]], axis=1)
        n /= row_norms(n)[:, None]
        mid = 0.5 * (v[:, 0] + v[:, 1])
        ahead = (n * (mesh.centroids[c0] - mid)).sum(axis=1) > 0  # c0 on the +n side
        jumps = vpc[np.where(ahead, c0, c1)] - vpc[np.where(ahead, c1, c0)]
        nz = (jumps != 0).any(axis=1)
        return cls(mesh, cv, jump_facets=zip(f[nz], jumps[nz], n[nz]))

    @classmethod
    def indicator_1d(cls, mesh, a, b):
        """Characteristic function of (a, b) on a 1D mesh resolving a and b."""
        inside = (mesh.centroids[:, 0] > a) & (mesh.centroids[:, 0] < b)
        return cls.from_cellwise_constant(mesh, inside.astype(float))

    # -- algebra -------------------------------------------------------------

    def _merged_singular(self, other, sign=1.0):
        atoms = {}
        for loc, j in self.atoms:
            atoms[round(loc, 12)] = (loc, j.copy())
        for loc, j in other.atoms:
            key = round(loc, 12)
            if key in atoms:
                atoms[key] = (atoms[key][0], atoms[key][1] + sign * j)
            else:
                atoms[key] = (loc, sign * j)
        jumps = {}
        for f, j, n in self.jump_facets:
            jumps[f] = (j.copy(), n)
        for f, j, n in other.jump_facets:
            if f in jumps:
                j0, n0 = jumps[f]
                j_adj = j if np.allclose(n, n0) else -j
                jumps[f] = (j0 + sign * j_adj, n0)
            else:
                jumps[f] = (sign * j, n)
        return (
            list(atoms.values()),
            [(f, j, n) for f, (j, n) in jumps.items()],
        )

    def __add__(self, other):
        self._check_same_mesh(other)
        atoms, jumps = self._merged_singular(other, sign=1.0)
        return BVFunction(
            self.mesh, self.cell_values + other.cell_values, atoms, jumps
        )

    def __sub__(self, other):
        self._check_same_mesh(other)
        atoms, jumps = self._merged_singular(other, sign=-1.0)
        return BVFunction(
            self.mesh, self.cell_values - other.cell_values, atoms, jumps
        )

    def __mul__(self, alpha):
        alpha = float(alpha)
        return BVFunction(
            self.mesh,
            alpha * self.cell_values,
            [(loc, alpha * j) for loc, j in self.atoms],
            [(f, alpha * j, n) for f, j, n in self.jump_facets],
        )

    __rmul__ = __mul__

    def _check_same_mesh(self, other):
        if self.mesh is not other.mesh:
            if not (
                self.mesh.dim == other.mesh.dim
                and self.mesh.n_vertices == other.mesh.n_vertices
                and np.array_equal(self.mesh.vertices, other.mesh.vertices)
                and np.array_equal(self.mesh.cells, other.mesh.cells)
            ):
                raise ValueError("operands live on different meshes")
        if self.M != other.M:
            raise ValueError(f"target dimensions differ: {self.M} vs {other.M}")

    # -- evaluation ----------------------------------------------------------

    def gradients(self):
        """Cellwise gradient (nc, M, dim) of the affine part."""
        return np.einsum("cim,cid->cmd", self.cell_values, self.mesh.shape_gradients)

    def values_at_quadrature(self):
        """Points (nc, nq, dim), weights (nc, nq) and values (nc, nq, M) of
        the affine part at the mesh's quadrature rule."""
        pts, wts = self.mesh.quadrature()
        bary = QUADRATURE[self.mesh.dim][0]
        return pts, wts, np.einsum("qi,cim->cqm", bary, self.cell_values)

    def l1_norm(self):
        _, wts, vals = self.values_at_quadrature()
        return float(np.sum(wts * np.linalg.norm(vals, axis=2)))

    def linf_norm(self):
        return float(np.max(np.linalg.norm(self.cell_values, axis=2), initial=0.0))

    def support_cells(self):
        """Cells with a value above 1e-13 in norm."""
        mags = np.max(np.linalg.norm(self.cell_values, axis=2), axis=1)
        return np.where(mags > 1e-13)[0]

    def __repr__(self):
        return (
            f"BVFunction(M={self.M}, cells={self.mesh.n_cells}, "
            f"atoms={len(self.atoms)}, jump_facets={len(self.jump_facets)})"
        )


class MatrixMeasure:
    """Matrix-valued measure: cellwise density + singular charges in polar form.

    Charge i sits at positions[i] (k, dim), the atom in 1D and the facet
    midpoint in 2D, and equals polars[i] * masses[i]: its polar matrix (k, M,
    N) has unit Frobenius norm and its mass (k,) is positive.  The
    constructor takes the raw charge matrices and drops those of mass at most
    1e-14; every array is read-only.
    """

    def __init__(self, mesh, density, positions=(), matrices=()):
        self.mesh = mesh
        dens = np.asarray(density, dtype=float)
        if dens.ndim == 2:
            dens = dens[:, None, :]
        if dens.shape[0] != mesh.n_cells:
            raise ValueError("density must have one matrix per cell")
        self.density = dens
        self.M, self.N = dens.shape[1], dens.shape[2]
        mats = np.asarray(matrices, dtype=float).reshape(-1, self.M, self.N)
        positions = np.asarray(positions, dtype=float).reshape(len(mats), mesh.dim)
        masses = _frobenius(mats)
        keep = ~(masses <= _ATOL)  # a NaN mass is kept
        self.positions, self.masses = positions[keep], masses[keep]
        self.polars = mats[keep] / self.masses[:, None, None]
        for a in (self.density, self.positions, self.polars, self.masses):
            a.flags.writeable = False

    def __sub__(self, other):
        if self.mesh is not other.mesh and not np.array_equal(
            self.mesh.vertices, other.mesh.vertices
        ):
            raise ValueError("measures live on different meshes")
        # the raw charges, those at one position (to 12 digits) merged
        raw = {}
        for mu, sign in ((self, 1.0), (other, -1.0)):
            for x, p, m in zip(mu.positions, mu.polars, mu.masses.tolist()):
                key = tuple(round(c, 12) for c in x.tolist())
                if key in raw:
                    raw[key] = (raw[key][0], raw[key][1] + sign * (p * m))
                else:
                    raw[key] = (x, sign * (p * m))
        return MatrixMeasure(self.mesh, self.density - other.density,
                             [x for x, _ in raw.values()], [m for _, m in raw.values()])

    def __repr__(self):
        return (
            f"MatrixMeasure({self.M}x{self.N}, cells={self.mesh.n_cells}, "
            f"charges={len(self.masses)})"
        )


def derivative(u):
    """Derivative measure of a BVFunction: cell gradients + singular charges."""
    mesh = u.mesh
    if mesh.dim == 1:
        return MatrixMeasure(mesh, u.gradients(), [loc for loc, _ in u.atoms],
                             [j[:, None] for _, j in u.atoms])
    v = mesh.vertices
    ij = np.array([f for f, _, _ in u.jump_facets], dtype=np.int64).reshape(-1, 2)
    return MatrixMeasure(mesh, u.gradients(), 0.5 * (v[ij[:, 0]] + v[ij[:, 1]]),
                         [np.outer(j, n) * np.linalg.norm(v[f[1]] - v[f[0]])
                          for f, j, n in u.jump_facets])


def total_variation(mu):
    """|mu|(Omega): the density's mass plus the singular charges' masses."""
    bulk = float(np.sum(mu.mesh.gradient_masses(mu.density)))
    sing = float(sum(mu.masses.tolist()))
    return bulk + sing


def tv_on_neighborhood(mu, kset, delta):
    """|mu| of the open delta-neighborhood of a compact set, intersected with
    the meshed region: tv_on_neighborhoods of the one measure.  `delta` may
    be one radius, giving a float, or a sequence of radii, giving a list with
    one value per radius."""
    values = tv_on_neighborhoods([mu], kset, [np.atleast_1d(delta)])[0]
    return values[0] if np.ndim(delta) == 0 else values


def tv_on_neighborhoods(measures, kset, radii_per_measure, subdivisions=2):
    """|mu| of the open delta-neighborhoods of a compact set, intersected with
    the meshed region, for a family of measures: one list per measure mu,
    holding |mu|((K)_delta) for each radius delta of mu's row of
    `radii_per_measure` (a NaN radius holds nothing).

    The absolutely continuous part is integrated over the sub-cells of each
    mesh refined `subdivisions` times (`Mesh.refined_cells`, built once per
    mesh), classified by their centroids; singular charges are included
    exactly by their position.  The whole family takes one kset.dist call,
    over every measure's sub-centroids and charge positions stacked.

    A value has the bits of the per-radius sums weights[dist < delta].sum()
    plus the charges' masses added left to right in charge order.  Open
    neighborhoods are nested, so a radius holding c sub-cells holds the c
    nearest ones; the (measure, count) pairs of one count c are summed as
    one (pairs, c) matrix of those sub-cells in cell order, whose row sums
    are numpy's pairwise sums of the single rows.  The charges are summed by
    one sequential accumulate over the masses masked per radius.
    """
    measures = list(measures)
    if not measures:
        return []
    radii = [np.atleast_1d(np.asarray(r, dtype=float)) for r in radii_per_measure]
    if len(radii) != len(measures):
        raise ValueError(f"{len(radii)} rows of radii for {len(measures)} measures")
    refined = [mu.mesh.refined_cells(subdivisions) for mu in measures]
    positions = [mu.positions for mu in measures]
    n_sub = [len(parent) for _, _, parent in refined]
    n_charge = [len(p) for p in positions]
    # stacked sub-cells: measure m holds the rows sub_off[m]:sub_off[m + 1]
    sub_off = np.cumsum([0] + n_sub)
    weights = np.concatenate([row_norms(mu.density.reshape(mu.mesh.n_cells, -1))[parent] * sub
                              for mu, (_, sub, parent) in zip(measures, refined)])
    dist = kset.dist(np.concatenate([c for c, _, _ in refined] + positions))
    dist, cdist = dist[:sub_off[-1]], dist[sub_off[-1]:]

    # per radius, the number c of sub-cells nearer than it, read off each
    # measure's sorted distances; the c nearest sub-cells are the ones held
    owner = np.repeat(np.arange(len(measures)), n_sub)
    order = np.lexsort((dist, owner))
    near = dist[order]
    counts = np.concatenate([
        np.where(np.isnan(r), 0, np.searchsorted(near[a:b], r))
        for a, b, r in zip(sub_off[:-1].tolist(), sub_off[1:].tolist(), radii)])
    q_owner = np.repeat(np.arange(len(measures)), [len(r) for r in radii])
    span = max(n_sub) + 1
    pairs, which = np.unique(q_owner * span + counts, return_inverse=True)
    p_owner, p_count = np.divmod(pairs, span)
    bulk = np.empty(len(pairs))
    for c in np.unique(p_count).tolist():
        at = np.flatnonzero(p_count == c)
        cells = order[sub_off[p_owner[at], None] + np.arange(c)]
        cells.sort(axis=1)
        bulk[at] = weights[cells].sum(axis=1)
    values = bulk[which]

    if max(n_charge):
        # charges padded to (measures, most charges); a pad is +inf away
        k_owner = np.repeat(np.arange(len(measures)), n_charge)
        k_slot = np.arange(len(cdist)) - np.repeat(np.cumsum([0] + n_charge[:-1]), n_charge)
        far = np.full((len(measures), max(n_charge)), np.inf)
        mass = np.zeros(far.shape)
        far[k_owner, k_slot] = cdist
        mass[k_owner, k_slot] = np.concatenate([mu.masses for mu in measures])
        q_radii = np.concatenate(radii)
        held = np.where(far[q_owner] < q_radii[:, None], mass[q_owner], 0.0)
        values = values + np.add.accumulate(held, axis=1)[:, -1]
    values = values.tolist()
    q_off = np.cumsum([0] + [len(r) for r in radii]).tolist()
    return [values[a:b] for a, b in zip(q_off[:-1], q_off[1:])]


def does_not_charge(measures, kset, deltas, threshold=1e-2, subdivisions=2):
    """Tightness table for a sequence of measures against a compact set.

    Returns {"table": [(delta, sup_n |mu_n|((K)_delta)], "verdict": ...} with
    verdict "tight" iff the table is non-increasing (up to 1e-12) and its
    entry at the smallest delta is below the threshold; otherwise "charges K".
    The whole sequence is measured at once, one row of deltas per measure
    (one tv_on_neighborhoods call, one distance pass).  Only the given
    finite prefix is scanned, so deltas below the scale the prefix resolves
    say nothing about the full sequence.
    """
    measures = list(measures)
    if not measures:
        raise ValueError("empty sequence of measures")
    deltas = sorted(set(float(d) for d in deltas), reverse=True)
    if any(d <= 0 for d in deltas):
        raise ValueError("deltas must be positive")
    per_measure = tv_on_neighborhoods(measures, kset, [deltas] * len(measures),
                                      subdivisions)
    table = [(d, max(vals[i] for vals in per_measure))
             for i, d in enumerate(deltas)]
    values = [v for _, v in table]
    decreasing = all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))
    verdict = "tight" if (decreasing and values[-1] < threshold) else "charges K"
    return {"table": table, "verdict": verdict, "threshold": threshold}


def cutoff_multiply(u, phi_vertex_values):
    """Product of a BVFunction with a continuous piecewise-affine cutoff.

    The affine part is the cornerwise product re-interpolated per cell (exact
    product rule in 1D, O(h) projection error in 2D); atoms are scaled by the
    cutoff value at their location, facet jumps by the value at the facet
    midpoint.
    """
    mesh = u.mesh
    phi = np.asarray(phi_vertex_values, dtype=float)
    if phi.shape != (mesh.n_vertices,):
        raise ValueError("cutoff must be scalar vertex values on the same mesh")
    if phi.min() < -1e-12 or phi.max() > 1.0 + 1e-12:
        raise ValueError("cutoff must take values in [0, 1]")
    cv = u.cell_values * phi[mesh.cells][:, :, None]
    atoms = [
        (loc, mesh.eval_p1(phi, [loc]) * j) for loc, j in u.atoms
    ]
    jumps = []
    for f, j, n in u.jump_facets:
        scale = 0.5 * (phi[f[0]] + phi[f[1]])
        jumps.append((f, scale * j, n))
    return BVFunction(mesh, cv, atoms, jumps)


def l1_distance(u, v=None):
    """L1 distance between BVFunctions on the same mesh (v=None means 0)."""
    if v is None:
        return u.l1_norm()
    u._check_same_mesh(v)
    return (u - v).l1_norm()


def weakstar_diagnostics(members, limit=None, l1_threshold=1e-2):
    """Necessary-condition diagnostics for weak* convergence toward a limit.

    Reports the L1-distance trend and the TV bound; the verdict is
    "weak* plausible" when distances fall below the threshold and total
    variations stay below 1e6.  This certifies only the computable necessary
    conditions, not weak* convergence itself.
    """
    members = list(members)
    if not members:
        raise ValueError("empty sequence")
    if limit is not None:
        for m in members:
            if m.M != limit.M or m.mesh.dim != limit.mesh.dim:
                raise ValueError("limit has mismatched dimensions")
    l1 = []
    tv = []
    for m in members:
        if limit is None:
            l1.append(m.l1_norm())
        else:
            if m.mesh is limit.mesh or np.array_equal(
                m.mesh.vertices, limit.mesh.vertices
            ):
                l1.append(l1_distance(m, limit))
            else:
                # cross-mesh distance only against the zero limit
                if limit.linf_norm() > 0:
                    raise ValueError(
                        "cross-mesh diagnostics support only the zero limit"
                    )
                l1.append(m.l1_norm())
        tv.append(total_variation(derivative(m)))
    tv_sup = max(tv)
    tail = l1[-max(1, len(l1) // 4):]
    converging = max(tail) < l1_threshold
    if tv_sup > 1e6:
        verdict = "TV unbounded"
    elif converging:
        verdict = "weak* plausible"
    else:
        verdict = "not L1-converging to limit"
    return {
        "l1_distances": l1,
        "tv": tv,
        "tv_sup": tv_sup,
        "verdict": verdict,
    }


def refine_bv_1d(u, coords):
    """Exact re-representation of a 1D BVFunction on a refined mesh.

    New vertices at `coords` are inserted; cell data is re-evaluated affinely
    within each parent cell (exact, also across discontinuities), atoms are
    untouched.
    """
    return refined_bv(u, *refined_1d(u, coords))


def refined_bv(u, pts, cell_values):
    """The BVFunction of refined_1d's arrays: u's atoms and the cell values
    on the mesh of the vertices pts, in u's domain."""
    n = len(pts) - 1
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    return BVFunction(Mesh(pts[:, None], cells, domain=u.mesh.domain), cell_values,
                      atoms=u.atoms)


def refined_1d(u, coords):
    """The arrays of refine_bv_1d(u, coords) without the mesh and function:
    the sorted vertex coordinates (n + 1,) and the cell values (n, 2, M) of
    the cells between consecutive vertices."""
    mesh = u.mesh
    if mesh.dim != 1:
        raise ValueError("refine_bv_1d needs a 1D mesh")
    old = mesh.vertices[:, 0]
    a, b = float(old.min()), float(old.max())
    coords = np.asarray(coords, dtype=float)
    coords = coords[(coords > a + 1e-14) & (coords < b - 1e-14)]
    pts = np.unique(np.concatenate([old, np.round(coords, 14)]))
    pts = pts[np.concatenate([[True], np.diff(pts) > 1e-14])]
    old_cells = mesh.vertices[mesh.cells][:, :, 0]
    lefts = old_cells[:, 0]
    mid = 0.5 * (pts[:-1] + pts[1:])
    parent = np.searchsorted(np.sort(lefts), mid, side="right") - 1
    pi = np.argsort(lefts)[parent]
    x0, x1 = old_cells[pi, :1], old_cells[pi, 1:]
    t = (np.column_stack([pts[:-1], pts[1:]]) - x0) / (x1 - x0)  # (n, 2)
    v0, v1 = u.cell_values[pi, :1], u.cell_values[pi, 1:]  # (n, 1, M)
    return pts, v0 + t[..., None] * (v1 - v0)
