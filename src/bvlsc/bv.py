"""Discrete BV functions and matrix-valued Radon measures.

A BVFunction is piecewise affine per cell (values stored per cell corner, so
fields may be discontinuous across facets) together with its jumps: the
facets it jumps on, `facets` (k, dim), each a row of sorted vertex ids as
Mesh.facets lists them (one vertex in 1D, one edge in 2D), and the jump
vectors `jumps` (k, M).  A jump is the trace on the +n side of its facet
minus the trace on the -n side, n the facet's own unit normal: +1 in 1D
(right minus left), and in 2D the edge a -> b (a < b) turned clockwise,
(e_y, -e_x) / |e|.  Its derivative splits as

    Du = (cellwise gradient) * Lebesgue  +  singular charges,

where the jump j on a facet contributes the M x dim charge j (x) n |facet|
at the facet's midpoint, |facet| being 1 for a 1D vertex and the edge
length in 2D.

MatrixMeasure stores the absolutely continuous density per cell plus the
singular charges in polar form: the position of each (the vertex, or the
facet midpoint), its unit-Frobenius polar matrix and its positive mass.

A Family1D stacks many 1D functions in one set of arrays (vertex
coordinates, cells, cell values, jump rows and offsets), so that slopes,
dense jumps and variation measures of a whole family are array passes; a
VariationStack holds what tv_on_neighborhoods reads of a family of
measures, built from MatrixMeasures or from a Family1D with the same bits.
reassembly_deviations checks a stack of members against their components,
and reassembly_deviation is its case of one function.

Both types are immutable values; operations never mutate their inputs.
"""

import warnings
from typing import NamedTuple

import numpy as np

from .meshing import QUADRATURE, Mesh, row_norms, segment_shape_gradients

__all__ = [
    "BVFunction",
    "Family1D",
    "MatrixMeasure",
    "VariationStack",
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
    """Piecewise-affine function with its jumps on mesh facets.

    The constructor sorts each facet row, drops the jumps of norm at most
    1e-14 and, in 1D, those on the domain boundary (with a warning), and
    sorts the rest by facet; every array is read-only.  A function derived
    from built ones (a sum, difference, multiple, cutoff product or
    refinement) keeps jumps that were already inside the domain, so its
    jumps skip the boundary test; the sort and the drop of negligible jumps,
    which a sum can cancel, stay.
    """

    def __init__(self, mesh, cell_values, facets=(), jumps=()):
        self._build(mesh, cell_values, facets, jumps, checked=False)

    @classmethod
    def _derived(cls, mesh, cell_values, facets, jumps):
        """The function with these arrays, whose jumps come from built
        functions: no boundary test."""
        u = cls.__new__(cls)
        u._build(mesh, cell_values, facets, jumps, checked=True)
        return u

    def _build(self, mesh, cell_values, facets, jumps, checked):
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

        facets = np.array(facets, dtype=np.int64).reshape(-1, mesh.dim)
        jumps = np.array(jumps, dtype=float).reshape(len(facets), self.M)
        if len(facets):
            if mesh.dim > 1:
                facets.sort(axis=1)
            # one norm pass over the jumps and, in 1D, one boundary_distance
            # call over their vertices; the per-jump decisions are read off
            # as lists
            keep = [not n <= _ATOL for n in _frobenius(jumps).tolist()]
            if mesh.dim == 1 and mesh.domain is not None and not checked and any(keep):
                at = mesh.vertices[facets[:, 0]]
                bdist = mesh.domain.boundary_distance(at)
                for i, (x, d) in enumerate(zip(at[:, 0].tolist(), bdist.tolist())):
                    if keep[i] and d <= 1e-12:
                        warnings.warn(
                            f"pruning atom at {x}: jumps on the domain boundary "
                            "are not part of the derivative measure on the open domain"
                        )
                        keep[i] = False
            rows = facets.tolist()
            order = sorted((i for i, k in enumerate(keep) if k), key=rows.__getitem__)
            if order != list(range(len(rows))):
                facets, jumps = facets[order], jumps[order]
        self.facets, self.jumps = facets, jumps
        for a in (self.cell_values, self.facets, self.jumps):
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
            return cls(mesh, cv, mesh.cells[left[nz], 1], jumps[nz])
        facets, sides = mesh.facets()
        inner = sides[:, 1] >= 0
        f, (c0, c1) = facets[inner], sides[inner].T
        mid, n, _ = _facet_frames(mesh, f)
        ahead = (n * (mesh.centroids[c0] - mid)).sum(axis=1) > 0  # c0 on the +n side
        jumps = vpc[np.where(ahead, c0, c1)] - vpc[np.where(ahead, c1, c0)]
        nz = (jumps != 0).any(axis=1)
        return cls(mesh, cv, f[nz], jumps[nz])

    @classmethod
    def indicator_1d(cls, mesh, a, b):
        """Characteristic function of (a, b) on a 1D mesh resolving a and b."""
        inside = (mesh.centroids[:, 0] > a) & (mesh.centroids[:, 0] < b)
        return cls.from_cellwise_constant(mesh, inside.astype(float))

    # -- algebra -------------------------------------------------------------

    def _summed_jumps(self, other, sign):
        """The facets and jumps of self's jumps plus sign times other's,
        those on one facet summed."""
        summed = dict(zip(map(tuple, self.facets.tolist()), self.jumps))
        for f, j in zip(map(tuple, other.facets.tolist()), other.jumps):
            summed[f] = summed[f] + sign * j if f in summed else sign * j
        return list(summed), list(summed.values())

    def __add__(self, other):
        self._check_same_mesh(other)
        return BVFunction._derived(self.mesh, self.cell_values + other.cell_values,
                                   *self._summed_jumps(other, 1.0))

    def __sub__(self, other):
        self._check_same_mesh(other)
        return BVFunction._derived(self.mesh, self.cell_values - other.cell_values,
                                   *self._summed_jumps(other, -1.0))

    def __mul__(self, alpha):
        alpha = float(alpha)
        return BVFunction._derived(self.mesh, alpha * self.cell_values, self.facets,
                                   alpha * self.jumps)

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
            f"jumps={len(self.jumps)})"
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


def _facet_frames(mesh, facets):
    """Midpoints (k, 2), unit normals (k, 2) and lengths (k,) of the 2D
    facets (k, 2) of sorted vertex ids: the normal of the edge a -> b is
    e = b - a turned clockwise, (e_y, -e_x) / |e|."""
    v = mesh.vertices[facets]
    e = v[:, 1] - v[:, 0]
    length = row_norms(e)
    return (0.5 * (v[:, 0] + v[:, 1]), np.stack([e[:, 1], -e[:, 0]], axis=1) / length[:, None],
            length)


def derivative(u):
    """Derivative measure of a BVFunction: the cell gradients, and on each
    jump facet the charge jump (x) n |facet| at its midpoint."""
    mesh = u.mesh
    if mesh.dim == 1:
        return MatrixMeasure(mesh, u.gradients(), mesh.vertices[u.facets[:, 0]],
                             u.jumps[:, :, None])
    mid, normal, length = _facet_frames(mesh, u.facets)
    return MatrixMeasure(mesh, u.gradients(), mid,
                         u.jumps[:, :, None] * normal[:, None, :] * length[:, None, None])


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
    values = tv_on_neighborhoods(VariationStack.of([mu]), kset,
                                 np.atleast_1d(delta)[None])[0].tolist()
    return values[0] if np.ndim(delta) == 0 else values


class VariationStack(NamedTuple):
    """The variation measures |mu| of a family, as tv_on_neighborhoods reads
    them, member after member: the centroids (S, dim) of each member's
    sub-cells and the mass of its density on each (S,), its charges'
    positions (K, dim) and masses (K,), and per member the number of its
    sub-cells and of its charges (arrays, members long)."""

    centroids: np.ndarray
    weights: np.ndarray
    n_sub: np.ndarray
    positions: np.ndarray
    masses: np.ndarray
    n_charge: np.ndarray

    @classmethod
    def of(cls, measures, subdivisions=2):
        """The stack of the MatrixMeasures, their meshes refined
        `subdivisions` times (`Mesh.refined_cells`, built once per mesh)."""
        refined = [mu.mesh.refined_cells(subdivisions) for mu in measures]
        weights = [row_norms(mu.density.reshape(mu.mesh.n_cells, -1))[parent] * sub
                   for mu, (_, sub, parent) in zip(measures, refined)]
        return cls(np.concatenate([c for c, _, _ in refined]), np.concatenate(weights),
                   np.array([len(w) for w in weights]),
                   np.concatenate([mu.positions for mu in measures]),
                   np.concatenate([mu.masses for mu in measures]),
                   np.array([len(mu.masses) for mu in measures]))


def tv_on_neighborhoods(stack, kset, radii):
    """|mu|((K)_delta) for a family of measures and radii: the open
    delta-neighborhoods of a compact set, intersected with the meshed
    region.  `stack` is the family's VariationStack and radii (members, R)
    holds a row of radii per member; returns the values (members, R), of
    shape (0, R) for a family of no members.  A NaN radius holds nothing.

    The absolutely continuous part is integrated over the sub-cells,
    classified by their centroids; singular charges are included exactly by
    their position.  The whole family takes one kset.dist call, over every
    sub-centroid and charge position stacked.

    A value has the bits of the per-radius sums weights[dist < delta].sum()
    over the member's sub-cells plus its charges' masses added left to right
    in charge order.  Open neighborhoods are nested, so a radius holding c
    sub-cells holds the c nearest ones; the (member, count) pairs of one
    count c are summed as one (pairs, c) matrix of those sub-cells in cell
    order, whose row sums are numpy's pairwise sums of the single rows.  The
    charges are summed by one sequential accumulate over the masses masked
    per radius.
    """
    radii = np.asarray(radii, dtype=float)
    members = len(stack.n_sub)
    if len(radii) != members:
        raise ValueError(f"{len(radii)} rows of radii for {members} measures")
    if not members:
        return np.zeros(radii.shape)
    n_sub, n_charge = stack.n_sub, stack.n_charge
    sub_off = _offsets(n_sub)
    dist = kset.dist(np.concatenate([stack.centroids, stack.positions]))
    dist, cdist = dist[:sub_off[-1]], dist[sub_off[-1]:]

    # per radius, the number c of sub-cells nearer than it, read off the
    # member's sorted distances; the c nearest sub-cells are the ones held
    owner = _owners(sub_off)
    order = np.lexsort((dist, owner))
    q_owner = np.repeat(np.arange(members), radii.shape[1])
    q_radii = radii.ravel()
    counts = np.searchsorted(_member_keys(owner, dist[order]), _member_keys(q_owner, q_radii))
    counts = np.where(np.isnan(q_radii), 0, counts - sub_off[q_owner])
    span = n_sub.max() + 1
    pairs, which = np.unique(q_owner * span + counts, return_inverse=True)
    p_owner, p_count = np.divmod(pairs, span)
    bulk = np.empty(len(pairs))
    for c in np.unique(p_count).tolist():
        at = np.flatnonzero(p_count == c)
        cells = order[sub_off[p_owner[at], None] + np.arange(c)]
        cells.sort(axis=1)
        bulk[at] = stack.weights[cells].sum(axis=1)
    values = bulk[which]

    if len(cdist):
        # charges padded to (members, most charges); a pad is +inf away
        charge_off = _offsets(n_charge)
        k_owner = _owners(charge_off)
        k_slot = np.arange(len(cdist)) - charge_off[k_owner]
        far = np.full((members, n_charge.max()), np.inf)
        mass = np.zeros(far.shape)
        far[k_owner, k_slot] = cdist
        mass[k_owner, k_slot] = stack.masses
        held = np.where(far[q_owner] < q_radii[:, None], mass[q_owner], 0.0)
        values = values + np.add.accumulate(held, axis=1)[:, -1]
    return values.reshape(radii.shape)


def does_not_charge(stack, kset, deltas, threshold=1e-2):
    """Tightness table for a sequence of measures against a compact set.

    Returns {"table": [(delta, sup_n |mu_n|((K)_delta)], "verdict": ...} with
    verdict "tight" iff the table is non-increasing (up to 1e-12) and its
    entry at the smallest delta is below the threshold; otherwise "charges K".
    The sequence is given as its VariationStack and measured at once, every
    member at every delta (one tv_on_neighborhoods call, one distance
    pass).  Only the given finite prefix is scanned, so deltas below the
    scale the prefix resolves say nothing about the full sequence.
    """
    if not len(stack.n_sub):
        raise ValueError("empty sequence of measures")
    deltas = sorted(set(float(d) for d in deltas), reverse=True)
    if any(d <= 0 for d in deltas):
        raise ValueError("deltas must be positive")
    per_delta = tv_on_neighborhoods(stack, kset, np.tile(deltas, (len(stack.n_sub), 1)))
    table = [(d, max(vals)) for d, vals in zip(deltas, per_delta.T.tolist())]
    values = [v for _, v in table]
    decreasing = all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))
    verdict = "tight" if (decreasing and values[-1] < threshold) else "charges K"
    return {"table": table, "verdict": verdict, "threshold": threshold}


def cutoff_multiply(u, phi_vertex_values):
    """Product of a BVFunction with a continuous piecewise-affine cutoff.

    The affine part is the cornerwise product re-interpolated per cell (exact
    product rule in 1D, O(h) projection error in 2D); each jump is scaled by
    the mean of the cutoff over its facet's vertices, the value at the
    vertex in 1D and at the edge midpoint in 2D.
    """
    mesh = u.mesh
    phi = np.asarray(phi_vertex_values, dtype=float)
    if phi.shape != (mesh.n_vertices,):
        raise ValueError("cutoff must be scalar vertex values on the same mesh")
    if phi.min() < -1e-12 or phi.max() > 1.0 + 1e-12:
        raise ValueError("cutoff must take values in [0, 1]")
    cv = u.cell_values * phi[mesh.cells][:, :, None]
    scale = phi[u.facets].sum(axis=1) / mesh.dim
    return BVFunction._derived(mesh, cv, u.facets, u.jumps * scale[:, None])


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


def reassembly_deviation(u, components):
    """How far u is from the sum of the components, all on one mesh: the
    largest norm of a cell value of u minus the sum, plus the norms of its
    jumps (reassembly_deviations of the one member, the jumps dense over the
    facets of u and the components)."""
    for c in components:
        u._check_same_mesh(c)
    funcs = [u, *components]
    facets, at = np.unique(np.concatenate([f.facets for f in funcs]), axis=0,
                           return_inverse=True)
    off = _offsets([len(f.facets) for f in funcs])
    dense = []
    for f, a, b in zip(funcs, off[:-1], off[1:]):
        dense.append(np.zeros((len(facets), u.M)))
        dense[-1][at.reshape(-1)[a:b]] = f.jumps
    return float(reassembly_deviations(
        u.cell_values, dense[0], [(c.cell_values, j) for c, j in zip(components, dense[1:])],
        np.array([0, u.mesh.n_cells]), np.array([0, len(facets)]))[0])


def reassembly_deviations(values, jumps, parts, c_off, f_off):
    """reassembly_deviation of each member of a stack: values (C, k, M) the
    members' cell values and jumps (F, M) their jumps dense over the facets
    (zero where a facet does not jump), parts a (cell values, dense jumps)
    pair per component slot, and c_off, f_off where each member's cells and
    facets start.  The slots are summed in order, each sum dropping its
    negligible jumps, as u_1 + u_2 + ... drops them; a member's jumps left
    over are added left to right in facet order.  Returns (members,)."""
    summed, summed_jumps = parts[0]
    for v, j in parts[1:]:
        summed = summed + v
        summed_jumps = summed_jumps + j
        summed_jumps[_dense_norms(summed_jumps) <= _ATOL] = 0.0
    deviation = np.maximum.reduceat(
        np.max(np.linalg.norm(values - summed, axis=2), axis=1), c_off[:-1])
    left = _dense_norms(jumps - summed_jumps)
    kept = ~(left <= _ATOL)
    for i in np.unique(_owners(f_off)[kept]).tolist():
        a, b = f_off[i], f_off[i + 1]
        deviation[i] += sum(left[a:b][kept[a:b]].tolist())
    return deviation


def _dense_norms(jumps):
    """The norm of each row of dense jumps, as _frobenius takes it, on the
    rows that are not zero only."""
    norms = np.zeros(len(jumps))
    rows = np.flatnonzero(np.any(jumps != 0.0, axis=1))
    norms[rows] = _frobenius(jumps[rows])
    return norms


def refine_bv_1d(u, coords):
    """Exact re-representation of a 1D BVFunction on a refined mesh.

    New vertices at `coords` are inserted; cell data is re-evaluated affinely
    within each parent cell (exact, also across discontinuities), and each
    jump stays at its vertex.
    """
    return refined_bv(u, *refined_1d(u, coords))


def refined_bv(u, pts, cell_values):
    """The BVFunction of refined_1d's arrays: the cell values on the mesh of
    the vertices pts, in u's domain, and u's jumps, each at the vertex of
    pts with its coordinate."""
    n = len(pts) - 1
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    at = np.searchsorted(pts, u.mesh.vertices[u.facets[:, 0], 0])
    return BVFunction._derived(Mesh(pts[:, None], cells, domain=u.mesh.domain), cell_values,
                               at, u.jumps)


def refined_1d(u, coords):
    """The arrays of refine_bv_1d(u, coords) without the mesh and function:
    the sorted vertex coordinates (n + 1,) and the cell values (n, 2, M) of
    the cells between consecutive vertices.

    Every vertex of u's mesh stays, so each jump stays at a vertex; a new
    point within 1e-14 of one, or of the new point before it, is dropped."""
    mesh = u.mesh
    if mesh.dim != 1:
        raise ValueError("refine_bv_1d needs a 1D mesh")
    old = np.sort(mesh.vertices[:, 0])
    coords = np.asarray(coords, dtype=float)
    new = np.round(coords[(coords > old[0] + 1e-14) & (coords < old[-1] - 1e-14)], 14)
    new.sort()
    i = np.searchsorted(old, new)  # old[i - 1] < new <= old[i]
    gap = np.minimum(new - old[i - 1], old[i] - new)
    gap[1:] = np.minimum(gap[1:], np.diff(new))
    pts = np.sort(np.concatenate([old, new[gap > 1e-14]]))
    old_cells = mesh.vertices[mesh.cells][:, :, 0]
    lefts = old_cells[:, 0]
    mid = 0.5 * (pts[:-1] + pts[1:])
    parent = np.searchsorted(np.sort(lefts), mid, side="right") - 1
    pi = np.argsort(lefts)[parent]
    x0, x1 = old_cells[pi, :1], old_cells[pi, 1:]
    t = (np.column_stack([pts[:-1], pts[1:]]) - x0) / (x1 - x0)  # (n, 2)
    v0, v1 = u.cell_values[pi, :1], u.cell_values[pi, 1:]  # (n, 1, M)
    return pts, v0 + t[..., None] * (v1 - v0)


def _offsets(counts):
    """Where each of consecutive runs of the counts starts, and the total."""
    return np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _owners(off):
    """The run each position of consecutive runs starting at off belongs to."""
    return np.arange(len(off) - 1).repeat(off[1:] - off[:-1])


def _member_keys(owner, x):
    """The pairs (owner, x) as complex numbers, which numpy orders by owner,
    then x: member slices sorted in x make one sorted array, so one
    np.searchsorted of keyed values finds each within its own member."""
    keys = np.empty(len(x), dtype=complex)
    keys.real, keys.imag = owner, x
    return keys


class Family1D(NamedTuple):
    """1D BV functions stacked member after member in one set of arrays: the
    vertex x-coordinates (V,), the cells (C, 2) as rows of ids into them,
    left end first, the cell values (C, 2, M), and the jumps as rows of a
    vertex id (K,) and a jump (K, M).  Each member keeps its mesh's vertex,
    cell and facet order.  v_off, c_off and j_off (members + 1,) hold where
    each member's vertices, cells and jumps start, and the totals."""

    vertices: np.ndarray
    cells: np.ndarray
    values: np.ndarray
    jump_at: np.ndarray
    jumps: np.ndarray
    v_off: np.ndarray
    c_off: np.ndarray
    j_off: np.ndarray

    @classmethod
    def of(cls, functions):
        """The family of the BVFunctions on 1D meshes, in order."""
        meshes = [u.mesh for u in functions]
        if any(mesh.dim != 1 for mesh in meshes):
            raise ValueError("a 1D family needs functions on 1D meshes")
        v_off = _offsets([mesh.n_vertices for mesh in meshes])
        c_off = _offsets([mesh.n_cells for mesh in meshes])
        j_off = _offsets([len(u.jumps) for u in functions])
        return cls(np.concatenate([mesh.vertices[:, 0] for mesh in meshes]),
                   np.concatenate([mesh.cells for mesh in meshes])
                   + v_off[_owners(c_off)][:, None],
                   np.concatenate([u.cell_values for u in functions]),
                   np.concatenate([u.facets[:, 0] for u in functions]) + v_off[_owners(j_off)],
                   np.concatenate([u.jumps for u in functions]), v_off, c_off, j_off)

    def take(self, a, b):
        """Members a, ..., b - 1 as a family of their own."""
        v, c, j = self.v_off, self.c_off, self.j_off
        return Family1D(self.vertices[v[a]:v[b]], self.cells[c[a]:c[b]] - v[a],
                        self.values[c[a]:c[b]], self.jump_at[j[a]:j[b]] - v[a],
                        self.jumps[j[a]:j[b]], v[a:b + 1] - v[a], c[a:b + 1] - c[a],
                        j[a:b + 1] - j[a])

    def dense_jumps(self):
        """The jumps as rows (V, M) indexed by vertex id, zero where a vertex
        does not jump."""
        out = np.zeros((len(self.vertices), self.jumps.shape[1]))
        out[self.jump_at] = self.jumps
        return out

    def lengths(self):
        """The cell lengths (C,), as Mesh.cell_measures gives them."""
        x = self.vertices[self.cells]
        return x[:, 1] - x[:, 0]

    def slopes(self):
        """The slope of each cell (C, M), as BVFunction.gradients gives it."""
        grads = segment_shape_gradients(self.lengths())
        return np.einsum("cim,cid->cmd", self.values, grads)[:, :, 0]

    def variation(self):
        """The family's VariationStack: each cell halved twice, into the
        sub-cells of Mesh.refined_cells(2) in their order and with their
        bits (a midpoint is 0.5 (a + b), a centroid the mean of its ends, a
        length |b - a|)."""
        ends = self.vertices[self.cells]
        for _ in range(2):
            mid = 0.5 * (ends[:, 0] + ends[:, 1])
            ends = np.column_stack([ends[:, 0], mid, mid, ends[:, 1]]).reshape(-1, 2)
        return VariationStack(ends.mean(axis=1)[:, None],
                              row_norms(self.slopes()).repeat(4) * np.abs(ends[:, 1] - ends[:, 0]),
                              (self.c_off[1:] - self.c_off[:-1]) * 4,
                              self.vertices[self.jump_at][:, None], _frobenius(self.jumps),
                              self.j_off[1:] - self.j_off[:-1])
