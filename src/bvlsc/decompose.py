"""Local decomposition of vanishing BV sequences against a compact cover.

Given compact sets K_1, ..., K_J covering the closed domain and a sequence
(u_n) going to zero in L1, a subsequence u_{k(n)} is split as

    u_{k(n)} = u_{1,n} + ... + u_{J,n},

where u_{1,n} = phi_n u_{k(n)} with a piecewise-affine cutoff phi_n equal to 1
on the 1/(2n)-neighborhood of K_1, 0 outside the 1/n-neighborhood (gradient
at most 2n).  The subsequence index k(n) is the smallest one past the
previous pick that keeps the mixed term integral |u_k| |grad phi_n| below a
vanishing bound (SELECTION_BOUND_FACTOR / n = 0.5/n).

A cover of J sets runs J - 1 such stages in a loop, stage j against K_j on
the remainders u_k - phi_n u_k of stage j - 1, so a pick of stage j indexes
the picks of stage j - 1, and stage j - 1 picks only as far as stage j
reads.  A final pick's components are the first pieces of its earlier
picks, refined onto its mesh, then its own first piece and its remainder.

Only 1D meshes are supported: cutoff level sets are then mesh-exact after a
refinement that inserts the neighborhood breakpoints.  A stage scans its
candidates in blocks of BLOCK: as a level scans one candidate or more, the
i-th candidate of a block starting at level n0 is scanned at one of the
levels n0, ..., n0 + i, and the block refines, cuts off and measures each
candidate at each of these levels in one stacked pass (Family1D.refined_at,
one distance pass, one integration), then walks its candidates in order.
The last stage's block never holds more candidates than the stage has
levels left, n_max - n + 1, so it pulls no input it does not read; an
earlier stage's block has no such bound, so a middle stage of a cover of
four or more sets may make the stage before it build up to BLOCK - 1 picks
it never reads.  The S-table measures the members as one Family1D stack
(bv.py) in one tv_on_neighborhoods call.

verify_properties re-checks the discrete surrogates of the two
decomposition guarantees: the component derivative masses exceed the parent
ones by at most |cell|/n plus the (recorded and capped) cutoff slack, cell
by cell and atom by atom, and the later components do not charge the
earlier compact sets.  The members and their components are stacked over
all n, so the reassembly, the cutoff gradients, the slack, the mass bounds
and the support points are each one array pass (one distance pass per set),
as is each charge table; only the flagged cells, atoms and supports become
records one by one.
"""

import itertools
import warnings

import numpy as np

from .bv import (Family1D, _frobenius, _owners, cutoff_multiply, does_not_charge,
                 reassembly_deviations, refine_bv_1d, refined_bv, tv_on_neighborhoods)
from .meshing import row_norms, segment_shape_gradients

__all__ = [
    "CoverSpec",
    "DecompositionResult",
    "PrefixTooShortError",
    "local_decompose",
    "verify_properties",
]

SELECTION_BOUND_FACTOR = 0.5
BLOCK = 8  # members per block of a stage's scan
_PAIRS = np.tril_indices(BLOCK)  # (member, level) of a block's pairs, in scan order
GRAD_SLACK = 0.05  # a cutoff gradient may exceed its bound 2n by 1 + GRAD_SLACK


class PrefixTooShortError(RuntimeError):
    def __init__(self, n, achieved, bound):
        super().__init__(
            f"prefix too short: no member past the previous pick achieves the "
            f"mixed-term bound {bound:.3g} at n={n} (best achieved {achieved:.3g})"
        )
        self.n = n
        self.achieved = achieved
        self.bound = bound


class CoverSpec:
    """Compact sets K_1..K_J whose union must cover the closed domain."""

    def __init__(self, sets):
        self.sets = list(sets)
        if len(self.sets) < 2:
            raise ValueError("a cover needs at least two compact sets")

    def validate_covers(self, mesh):
        """Largest gap between the mesh vertices and the set union (0 = covers)."""
        verts = np.asarray(mesh.vertices)
        dists = np.min(np.stack([k.dist(verts) for k in self.sets]), axis=0)
        return float(np.max(dists))


class DecompositionResult:
    def __init__(self, cover, n_values, k_map, subsequence, components,
                 cutoffs, s_table):
        self.cover = cover
        self.n_values = list(n_values)
        self.k_map = dict(k_map)  # n -> 0-based index into the members
        self.subsequence = dict(subsequence)  # n -> refined member
        self.components = dict(components)  # n -> [u_{1,n}, ..., u_{J,n}]
        self.cutoffs = dict(cutoffs)  # n -> [(phi values, radius index, stage input)]
        self.s_table = s_table

    def to_json(self):
        """The result as plain JSON data; component_tv holds each
        component's total_variation(derivative(c)), read off one Family1D
        stack of all components."""
        pieces = [c for comps in self.components.values() for c in comps]
        tvs = iter(_total_variations(Family1D.of(pieces)) if pieces else [])
        return {
            "n_values": self.n_values,
            "k_map": {str(n): int(k) for n, k in self.k_map.items()},
            "selection_bound_factor": SELECTION_BOUND_FACTOR,
            "grad_slack": GRAD_SLACK,
            "s_table": self.s_table,
            "component_tv": {str(n): [next(tvs) for _ in comps]
                             for n, comps in self.components.items()},
        }


def _total_variations(family):
    """total_variation(derivative(u)) of each member u of the family, bit
    for bit: the np.sum of its cell masses plus its jump masses summed left
    to right (a BVFunction keeps no jump that MatrixMeasure would drop)."""
    bulk = _segment_sums(row_norms(family.slopes()) * family.lengths(), family.c_off)
    return (bulk + _row_totals(_frobenius(family.jumps), family.j_off)).tolist()


def _abs_integral_times_grad(pts, cell_values, phi_values):
    """Integral of |u| |grad phi| for u affine with the cell values (n, 2, M)
    on the cells between the sorted vertices pts (n + 1,) and phi continuous
    P1 with the vertex values phi_values: _mixed_terms of the one run."""
    return float(_mixed_terms(pts, cell_values, np.array([0, len(pts)]), phi_values)[0])


def _mixed_terms(pts, cell_values, off, phi):
    """Per run pts[off[r]:off[r + 1]] of sorted vertices, the integral of
    |u| |grad phi|: u affine with the cell values (C, 2, M) on the cells
    between the run's consecutive vertices (run r's cells start at off[r] -
    r), phi continuous P1 with the vertex values phi (cellwise-constant
    grad phi, taken as Mesh.p1_gradient takes it).  Exact for M = 1; for
    M > 1 the 9-point trapezoid rule of the convex |u| is an upper bound (at
    most about 1.5% high), so the selection bound stays conservative.  A
    run's cell terms, over its cells where grad phi is not zero, are added
    in cell order from 0.0."""
    starts = np.ones(len(pts), dtype=bool)  # every vertex of a run but its last
    starts[off[1:] - 1] = False
    length = pts[1:][starts[:-1]] - pts[starts]
    corners = np.stack([phi[starts], phi[1:][starts[:-1]]], axis=1)[:, :, None]
    gphi = np.abs(np.einsum("cim,cid->cmd", corners, segment_shape_gradients(length))[:, 0, 0])
    v0, v1 = cell_values[:, 0], cell_values[:, 1]
    if cell_values.shape[2] == 1:
        a, b = v0[:, 0], v1[:, 0]
        same = a * b >= 0
        t = a / np.where(same, 1.0, a - b)
        area = np.where(same, 0.5 * np.abs(a + b) * length,
                        0.5 * length * (np.abs(a) * t + np.abs(b) * (1 - t)))
    else:
        ts = np.linspace(0.0, 1.0, 9)[:, None]
        area = np.trapezoid(np.linalg.norm(v0[:, None] * (1 - ts) + v1[:, None] * ts, axis=2),
                            dx=length[:, None] / 8.0, axis=1)
    return _row_totals(np.where(gphi > 1e-15, area * gphi, 0.0), off - np.arange(len(off)))


def _cutoff_values(vertices, kset, n):
    d = kset.dist(vertices)
    r_out, r_in = 1.0 / n, 0.5 / n
    return np.clip((r_out - d) / (r_out - r_in), 0.0, 1.0)


def _breakpoints(kset, ns, lo, hi):
    """The cutoff breakpoints a -+ 0.5/n, a -+ 1/n of each anchor a of the
    set (a point, or an end of a segment) at each level of ns, one row per
    level: those inside (lo, hi) sorted, then +inf for the others."""
    anchors = np.array([a for kind, data in kset.pieces
                        for a in ([data[0]] if kind == "point" else [data[0][0], data[1][0]])])
    r = np.array([-1.0, -0.5, 0.5, 1.0]) / np.asarray(ns)[:, None]
    pts = (anchors[:, None] + r[:, None, :]).reshape(len(r), -1)
    return np.sort(np.where((lo < pts) & (pts < hi), pts, np.inf), axis=1)


def require_1d(dim):
    """Raise unless dim is 1: only 1D meshes make cutoff level sets mesh-exact."""
    if dim != 1:
        raise ValueError(
            "decomposition is implemented for 1D meshes (cutoff level sets "
            "must be mesh-exact); 2D sequences are not supported"
        )


def local_decompose(members, cover, n_max=None):
    """Decompose a 1D vanishing sequence against a compact cover.

    The result's s_table compares, per m <= n_max, the members' |Du| on the
    0.5/m-neighborhood of the first set, from the m-th member on: the
    members are stacked as one Family1D, whose variation takes one
    tv_on_neighborhoods call (one distance pass).
    """
    members = list(members)
    if not members:
        raise ValueError("empty sequence")
    mesh0 = members[0].mesh
    require_1d(mesh0.dim)
    cover_gap = cover.validate_covers(mesh0)
    if cover_gap > 1e-9:
        warnings.warn(
            f"compact sets leave a cover gap of {cover_gap:.3g}; the "
            "construction proceeds but support inclusions may not hold there"
        )
    if n_max is None:
        n_max = len(members) // 2
    lo = float(mesh0.vertices.min())
    hi = float(mesh0.vertices.max())

    # one cutoff stage per set but the last, each on the previous stage's
    # remainders: a stage picks only when the next one asks for its next
    # inputs, and the last must reach n_max
    stages, rests, last = [], members, len(cover.sets) - 2
    for j, kset in enumerate(cover.sets[:-1]):
        stages.append([])
        rests = _stage(rests, kset, lo, hi, stages[-1], n_max if j == last else None)
    remainders = []
    while len(remainders) < n_max:
        try:
            remainders.append(next(rests))
        except StopIteration as short:  # the last stage ran out of members
            raise PrefixTooShortError(*short.value) from None

    # a final pick's k indexes the previous stage's picks: walk the chain
    # back, carrying each earlier pick, first piece and cutoff onto its mesh
    n_values, k_map, subsequence, components, cutoffs = [], {}, {}, {}, {}
    for (n, k, uk, phi, first), rest in zip(stages[-1], remainders):
        coords = uk.mesh.vertices[:, 0]
        comps, cuts = [first, rest], [(phi, n, uk)]
        for picks in reversed(stages[:-1]):
            m, k, um, phi_m, first_m = picks[k]
            uk = refine_bv_1d(um, coords)
            comps.insert(0, refine_bv_1d(first_m, coords))
            cuts.insert(0, (np.interp(coords, um.mesh.vertices[:, 0], phi_m), m, uk))
        n_values.append(n)
        k_map[n], subsequence[n], components[n], cutoffs[n] = k, uk, comps, cuts

    # member k enters the rows m <= k + 1, at the radii 0.5 / m (a NaN radius
    # elsewhere): one distance pass over the whole family
    entered = np.arange(len(members))[:, None] >= np.arange(n_max)
    tvs = tv_on_neighborhoods(Family1D.of(members).variation(), cover.sets[0],
                              np.where(entered, 0.5 / np.arange(1, n_max + 1), np.nan))
    last = tvs[-1]
    sup_dev = np.max(np.abs(np.where(entered, tvs, last) - last), axis=0)
    rows = [{"m": m, "last": v, "sup_dev": d}
            for m, v, d in zip(range(1, n_max + 1), last.tolist(), sup_dev.tolist())]
    s_table = {"rows": rows, "monotone": bool(np.all(last[1:] <= last[:-1] + 1e-12))}

    return DecompositionResult(cover, n_values, k_map, subsequence, components,
                               cutoffs, s_table)


def _stage(members, kset, lo, hi, picks, levels=None):
    """Cutoff stage against one compact set, as a generator over the
    iterable members: per n = 1, 2, ..., pick the first member past the
    previous pick that keeps the mixed term within its bound, split off its
    component near the set, append the pick (n, k, refined member, cutoff
    phi, first piece) to picks and yield its remainder.  Where the members
    run out, returns the (n, best achieved, bound) of the shortfall.

    The members are scanned in blocks of the next BLOCK of them.  The last
    stage, which stops at n = levels, takes no more than the levels it has
    left, levels - n + 1: each level takes at least one member, so it pulls
    no input it does not read.  An earlier stage (levels None) takes whole
    blocks, so a middle stage of a cover of four or more sets may make the
    stage before it build up to BLOCK - 1 picks it never reads.
    _scan_block measures each member of a block at every level it can be
    scanned at, in one pass; the block is then walked member after member
    with the rule above, and a pick takes its refined points, cell values
    and cutoff from the block's arrays."""
    members = enumerate(members)
    n, best = 1, np.inf
    while True:
        block = list(itertools.islice(members, BLOCK if levels is None
                                      else min(BLOCK, levels - n + 1)))
        if not block:
            return n, best, SELECTION_BOUND_FACTOR / n
        n0 = n
        pts, cell_values, off, phi, mixed = _scan_block([u for _, u in block], kset, n0, lo, hi)
        for i, (k, member) in enumerate(block):
            p = i * (i + 1) // 2 + n - n0  # member i at level n
            best = min(best, mixed[p])
            if mixed[p] <= SELECTION_BOUND_FACTOR / n:
                a, b = off[p], off[p + 1]
                uk = refined_bv(member, pts[a:b], cell_values[a - p:b - p - 1])
                first = cutoff_multiply(uk, phi[a:b])
                picks.append((n, k, uk, phi[a:b], first))
                yield uk - first
                n, best = n + 1, np.inf


def _scan_block(block, kset, n0, lo, hi):
    """Block member i refined, cut off and measured at each level n0, ...,
    n0 + i: the pairs (i, d) of level n0 + d, d <= i, in the order i, then
    d, pair p = i (i + 1) / 2 + d.  Returns the refined points, cell values,
    vertex offsets and cutoff values of the pairs, stacked as
    Family1D.refined_at stacks them, and each pair's mixed term as a list:
    one refinement, one distance pass and one integration for the block."""
    member, level = (a[:len(block) * (len(block) + 1) // 2] for a in _PAIRS)
    coords = _breakpoints(kset, n0 + np.arange(len(block)), lo, hi)[level]
    pts, cell_values, off = Family1D.of(block).refined_at(member, coords)
    phi = _cutoff_values(pts[:, None], kset, (n0 + level).repeat(np.diff(off)))
    return pts, cell_values, off, phi, _mixed_terms(pts, cell_values, off, phi).tolist()


def verify_properties(result, deltas=(0.2, 0.1, 0.05, 0.02), charge_threshold=1e-2):
    """Re-check the decomposition guarantees on the discrete data.

    Returns a report with per-check verdicts and the list of flagged entities;
    violations are reported, never raised.  Masses may exceed their bounds
    by 1e-12.  The report is plain JSON data: charge_tables is keyed by the
    component number as a string ("2", ...).

    The subsequence members are stacked as one Family1D and the components
    as another, component slot after slot; every n must have as many
    components and as many cutoffs as the first, and its components must
    live on its member's mesh.  Each check is one array pass over all n;
    the flags are then listed per n, and within it per cutoff, then per
    component: mass, atom, inclusion and exclusion flags.
    """
    tol = 1e-12
    sets = result.cover.sets
    J = len(sets)
    ns = result.n_values
    N = len(ns)
    if not N:
        raise ValueError("empty sequence of measures")
    comps = [result.components[n] for n in ns]
    cuts = [result.cutoffs[n] for n in ns]
    K, R = len(comps[0]), len(cuts[0])
    if any(len(c) != K for c in comps) or any(len(c) != R for c in cuts):
        raise ValueError("every n needs as many components and cutoffs as the first")
    parents = Family1D.of([result.subsequence[n] for n in ns])
    pieces = Family1D.of([c[j] for j in range(K) for c in comps])
    slots = [pieces.take(j * N, (j + 1) * N) for j in range(K)]
    for part in slots:
        if not all(np.array_equal(a, b) for a, b in zip(
                (part.vertices, part.cells, part.v_off, part.c_off, part.values.shape),
                (parents.vertices, parents.cells, parents.v_off, parents.c_off,
                 parents.values.shape))):
            raise ValueError("components must live on their member's mesh")
    C, V = len(parents.cells), len(parents.vertices)
    starts = parents.c_off[:-1]
    cell_of, vertex_of = _owners(parents.c_off), _owners(parents.v_off)
    cell_n = np.asarray(ns)[cell_of]
    x = parents.vertices[parents.cells]
    length = x[:, 1] - x[:, 0]
    shapes = segment_shape_gradients(length)
    flags = []  # (order key (n index, component or -1, kind, item), flag)

    # reassembly: u_k minus the sum of its components, slot after slot
    deviation = reassembly_deviations(parents.values, parents.dense_jumps(),
                                      [(p.values, p.dense_jumps()) for p in slots],
                                      parents.c_off, parents.v_off)
    reassembly_dev = max([0.0] + deviation.tolist())

    # cutoff gradients and the slack they record, cutoff slot by slot
    allowed_grad = 2.0 * cell_n * (1.0 + GRAD_SLACK)
    measured = np.zeros(C)
    for r in range(R):
        phi = np.concatenate([c[r][0] for c in cuts])
        g = np.abs(np.einsum("cim,cid->cmd", phi[parents.cells][:, :, None], shapes)[:, 0, 0])
        g_max = np.maximum.reduceat(g, starts)
        allowed = 2.0 * np.array([c[r][1] for c in cuts]) * (1.0 + GRAD_SLACK)
        for i in np.flatnonzero(g_max > allowed).tolist():
            flags.append(((i, -1, 0, r), {"n": ns[i], "check": "cutoff_gradient",
                                          "max_grad": float(g_max[i]),
                                          "allowed": float(allowed[i])}))
        si_max = np.max(np.linalg.norm(np.concatenate([c[r][2].cell_values for c in cuts]),
                                       axis=2), axis=1)
        measured += np.minimum(si_max * g, si_max * allowed_grad)
    slack_cells = measured * length
    slack_recorded = _segment_sums(slack_cells, parents.c_off).tolist()

    # mass bounds per cell, then atom bounds per jump, of every component
    rhs = row_norms(parents.slopes()) * length + length / cell_n + slack_cells + tol
    lhs = row_norms(pieces.slopes()) * np.tile(length, K)
    for q in np.flatnonzero(lhs > np.tile(rhs, K)).tolist():
        j, p = divmod(q, C)
        i = int(cell_of[p])
        flags.append(((i, j, 0, p), {"n": ns[i], "component": j + 1, "check": "mass_bound",
                                     "cell": p - int(starts[i]), "mass": float(lhs[q]),
                                     "bound": float(rhs[p])}))
    parent_atom = np.zeros(V)
    parent_atom[parents.jump_at] = _frobenius(parents.jumps)
    atom = _frobenius(pieces.jumps)
    bound = parent_atom[pieces.jump_at % V]
    for q in np.flatnonzero(atom > bound + tol).tolist():
        j, v = divmod(int(pieces.jump_at[q]), V)
        i = int(vertex_of[v])
        flags.append(((i, j, 1, q), {"n": ns[i], "component": j + 1, "check": "atom_bound",
                                     "x": float(parents.vertices[v]), "mass": float(atom[q]),
                                     "bound": float(bound[q])}))

    # support inclusions against the cover neighborhoods: the centroids of
    # each component's support cells and its jump vertices, one distance
    # pass per set, read per (component slot, n) as the largest and smallest
    # distance
    support = np.max(np.linalg.norm(pieces.values, axis=2), axis=1) > 1e-13
    seg = np.concatenate([_owners(pieces.c_off)[support], _owners(pieces.j_off)])
    if len(seg):
        points = np.concatenate([np.tile(0.5 * (x[:, 0] + x[:, 1]), K)[support],
                                 parents.vertices[pieces.jump_at % V]])[:, None]
        far, near = np.full((2, J, K * N), np.nan)
        for kset, largest, smallest in zip(sets, far, near):
            d = kset.dist(points)
            largest[seg], smallest[seg] = -np.inf, np.inf
            np.maximum.at(largest, seg, d)
            np.minimum.at(smallest, seg, d)
        h = np.tile(np.maximum.reduceat(length, starts), K)
        n_seg = np.tile(np.asarray(ns), K)
        seg_j = np.repeat(np.arange(K), N)
        own = far[np.minimum(seg_j, J - 1), np.arange(K * N)]
        for s in np.flatnonzero(own > 1.0 / n_seg + 2 * h).tolist():
            j, i = divmod(s, N)
            flags.append(((i, j, 2, 0), {"n": ns[i], "component": j + 1,
                                         "check": "support_inclusion",
                                         "max_dist": float(own[s])}))
        for e, smallest in enumerate(near):
            close = (seg_j > e) & (smallest < 0.5 / n_seg - 2 * h - 1e-12)
            for s in np.flatnonzero(close).tolist():
                j, i = divmod(s, N)
                flags.append(((i, j, 3, e), {"n": ns[i], "component": j + 1,
                                             "check": "support_exclusion", "earlier_set": e,
                                             "min_dist": float(smallest[s])}))
    flags = [f for _, f in sorted(flags, key=lambda kf: kf[0])]

    charge_tables = {}
    for j in range(1, J):
        union = sets[0]
        for s in sets[1:j]:
            union = _union(union, s)
        charge_tables[str(j + 1)] = does_not_charge(
            slots[j].variation(), union, deltas, threshold=charge_threshold)

    return {
        "reassembly_dev": reassembly_dev,
        "reassembly_ok": reassembly_dev <= 1e-14 * 10,
        "cutoff_gradient_ok": not any(f["check"] == "cutoff_gradient" for f in flags),
        "mass_bound_ok": not any(f["check"] == "mass_bound" for f in flags),
        "slack_recorded": slack_recorded,
        "charge_tables": {
            j: {"verdict": t["verdict"], "table": t["table"]}
            for j, t in charge_tables.items()
        },
        "charge_ok": all(t["verdict"] == "tight" for t in charge_tables.values()),
        "s_table": result.s_table,
        "flags": flags,
    }


def _row_totals(values, off):
    """Each segment values[off[i]:off[i + 1]] summed left to right from 0.0,
    as a loop adds it: the segments as rows after a column of zeros, padded
    with zeros, added by one sequential np.add.accumulate."""
    counts = np.diff(off)
    owner = _owners(off)
    table = np.zeros((len(counts), 1 + counts.max(initial=0)))
    table[owner, 1 + np.arange(len(owner)) - off[owner]] = values
    return np.add.accumulate(table, axis=1)[:, -1]


def _segment_sums(values, off):
    """np.sum of each segment values[off[i]:off[i + 1]], bit for bit: the
    segments of one length are summed as the rows of one matrix, whose row
    sums are numpy's pairwise sums of the single rows."""
    counts = np.diff(off)
    out = np.empty(len(counts))
    for c in np.unique(counts).tolist():
        at = np.flatnonzero(counts == c)
        out[at] = values[off[at, None] + np.arange(c)].sum(axis=1)
    return out


def _union(a, b):
    from .regions import CompactSet

    return CompactSet(a.dim, list(a.pieces) + list(b.pieces))
