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
refinement that inserts the neighborhood breakpoints.  The decomposition
runs on bv.Family1D stacks and builds no Mesh.  The members are stacked
once, for the S-table and the first stage.  A stage scans its candidates
in blocks of BLOCK: the i-th candidate of a block starting at level n0 is
scanned at one of the levels n0, ..., n0 + i, so the block refines, cuts
off and measures each candidate at each of them in one stacked pass, then
walks its candidates in order.  A pick is a row of the block's arrays; the
first pieces and remainders of a stage's picks are array passes over those
rows.  The result holds stacks over n, and reading an n builds its
BVFunctions on one Mesh.

verify_properties re-checks the discrete surrogates of the two
decomposition guarantees on those stacks: the component derivative masses
exceed the parent ones by at most |cell|/n plus the (recorded and capped)
cutoff slack, cell by cell and atom by atom, and the later components do
not charge the earlier compact sets.  Each check is one array pass over all
n (one distance pass per set); only the flagged cells, atoms and supports
become records one by one.
"""

import itertools
import warnings
from collections.abc import Mapping

import numpy as np

from .bv import (_ATOL, BVFunction, Family1D, _frobenius, _gather, _member_keys, _offsets,
                 _owners, does_not_charge, reassembly_deviations, tv_on_neighborhoods)
from .meshing import Mesh, row_norms, segment_shape_gradients

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
    """A decomposition as stacks over n, in n_values order, on the meshes of
    `members`, the Family1D of the subsequence: `parts`, a Family1D per
    component slot, and `cuts`, per cutoff slot the cutoff values at the
    members' vertices, each n's radius index and the Family1D of the stage
    inputs.  k_map maps n to its 0-based index into the members.

    subsequence, components and cutoffs are mappings over n_values: n ->
    member, n -> [u_{1,n}, ..., u_{J,n}] and n -> [(phi values, radius
    index, stage input)].  Reading an n builds its BVFunctions from the
    stacks on one Mesh, built at the first read of that n.  The constructor
    stacks a decomposition given as such mappings: every n needs as many
    components and cutoffs as the first, all on its member's mesh.
    """

    def __init__(self, cover, n_values, k_map, subsequence, components,
                 cutoffs, s_table):
        ns = list(n_values)
        comps, cuts = [list(components[n]) for n in ns], [list(cutoffs[n]) for n in ns]
        if (any(len(c) != len(comps[0]) for c in comps)
                or any(len(c) != len(cuts[0]) for c in cuts)):
            raise ValueError("every n needs as many components and cutoffs as the first")
        members = Family1D.of([subsequence[n] for n in ns])
        parts = [Family1D.of(slot) for slot in zip(*comps)]
        if not all(_on_mesh(p, members) for p in parts):
            raise ValueError("components must live on their member's mesh")
        cut_stacks = [(np.concatenate([c[0] for c in slot]), [c[1] for c in slot],
                       Family1D.of([c[2] for c in slot])) for slot in zip(*cuts)]
        if not all(len(phi) == len(members.vertices) and _on_mesh(inputs, members)
                   for phi, _, inputs in cut_stacks):
            raise ValueError("cutoffs must live on their member's mesh")
        self._hold(cover, ns, k_map, members, parts, cut_stacks,
                   [subsequence[n].mesh.domain for n in ns], s_table)

    def _hold(self, cover, n_values, k_map, members, parts, cuts, domains, s_table):
        """Keep the stacks and the mappings that read them; returns self.
        The mappings hold no reference to self, so that a result dropped is
        freed at once, not at the next garbage collection."""
        self.cover, self.n_values, self.k_map = cover, list(n_values), dict(k_map)
        self.members, self.parts, self.cuts, self.s_table = members, parts, cuts, s_table
        meshes, v, c = {}, members.v_off, members.c_off

        def read(family, i):
            """Member i of a stack as a BVFunction on the mesh of the i-th n."""
            if i not in meshes:
                meshes[i] = Mesh(members.vertices[v[i]:v[i + 1], None],
                                 members.cells[c[i]:c[i + 1]] - v[i], domain=domains[i])
            j0, j1 = family.j_off[i:i + 2]
            return BVFunction._derived(meshes[i], family.values[c[i]:c[i + 1]],
                                       family.jump_at[j0:j1] - v[i], family.jumps[j0:j1])

        at = {n: i for i, n in enumerate(self.n_values)}
        self.subsequence = _ByN(at, lambda i: read(members, i))
        self.components = _ByN(at, lambda i: [read(p, i) for p in parts])
        self.cutoffs = _ByN(at, lambda i: [(phi[v[i]:v[i + 1]], radii[i], read(s, i))
                                           for phi, radii, s in cuts])
        return self

    def to_json(self):
        """The result as plain JSON data; component_tv holds each
        component's total_variation(derivative(c)), read off the component
        stacks."""
        tvs = [_total_variations(p) for p in self.parts]
        return {
            "n_values": self.n_values,
            "k_map": {str(n): int(k) for n, k in self.k_map.items()},
            "selection_bound_factor": SELECTION_BOUND_FACTOR,
            "grad_slack": GRAD_SLACK,
            "s_table": self.s_table,
            "component_tv": {str(n): [tv[i] for tv in tvs] for i, n in enumerate(self.n_values)},
        }


class _ByN(Mapping):
    """The mapping n -> read(at[n]) over the keys of at."""

    def __init__(self, at, read):
        self._at, self._read = at, read

    def __getitem__(self, n):
        return self._read(self._at[n])

    def __iter__(self):
        return iter(self._at)

    def __len__(self):
        return len(self._at)


def _on_mesh(stack, members):
    """Whether each member of the stack lives on its member's mesh."""
    return stack.values.shape == members.values.shape and all(
        np.array_equal(getattr(stack, a), getattr(members, a))
        for a in ("vertices", "cells", "v_off", "c_off"))


def _total_variations(family):
    """total_variation(derivative(u)) of each member u of the family, bit
    for bit: the np.sum of its cell masses plus its jump masses summed left
    to right (a BVFunction keeps no jump that MatrixMeasure would drop)."""
    bulk = _segment_sums(row_norms(family.slopes()) * family.lengths(), family.c_off)
    return (bulk + _row_totals(_frobenius(family.jumps), family.j_off)).tolist()


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

    The members are stacked once, as one Family1D, which the first stage
    scans in slices.  The result's s_table compares, per m <= n_max, the
    members' |Du| on the 0.5/m-neighborhood of the first set, from the m-th
    member on, in one tv_on_neighborhoods call over that stack.  The result
    holds stacks over n and no Mesh: reading an n builds that n's
    BVFunctions on one Mesh.
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

    # member k enters the rows m <= k + 1, at the radii 0.5 / m (a NaN radius
    # elsewhere): one distance pass over the whole family
    family = Family1D.of(members)
    entered = np.arange(len(members))[:, None] >= np.arange(n_max)
    tvs = tv_on_neighborhoods(family.variation(), cover.sets[0],
                              np.where(entered, 0.5 / np.arange(1, n_max + 1), np.nan))
    last = tvs[-1]
    sup_dev = np.max(np.abs(np.where(entered, tvs, last) - last), axis=0)
    rows = [{"m": m, "last": v, "sup_dev": d}
            for m, v, d in zip(range(1, n_max + 1), last.tolist(), sup_dev.tolist())]
    s_table = {"rows": rows, "monotone": bool(np.all(last[1:] <= last[:-1] + 1e-12))}
    if n_max < 1:
        return DecompositionResult(cover, [], {}, {}, {}, {}, s_table)

    # one cutoff stage per set but the last, each on the previous stage's
    # remainders: a stage picks only when the next one asks for its next
    # inputs, and the last must reach n_max
    stages, rests = [], ((family, k) for k in range(len(members)))
    for j, kset in enumerate(cover.sets[:-1]):
        stages.append([])
        rests = _stage(rests, kset, lo, hi, stages[-1],
                       n_max if j == len(cover.sets) - 2 else None)
    for _ in range(n_max):
        try:
            next(rests)
        except StopIteration as short:  # the last stage ran out of members
            raise PrefixTooShortError(*short.value) from None

    # a final pick's k indexes the previous stage's picks: walk the chain
    # back, one refinement of the earlier picks and first pieces onto the
    # final points per stage (each stage keeps every vertex of its input,
    # so the refined points are the final ones)
    ns, ks, pairs, phi, at = _joined(stages[-1])
    uk, phi, first, rest = _pieces(pairs, phi, at)
    parts, cuts, final = [first, rest], [(phi, ns, uk)], uk
    owner = _owners(final.v_off)
    coords = np.full((len(ns), np.diff(final.v_off).max()), np.inf)
    coords[owner, np.arange(len(owner)) - final.v_off[owner]] = final.vertices
    for picks in reversed(stages[:-1]):
        ms, prev, pairs, phi_m, at = _joined(picks)
        um, phi_m, first_m, _ = _pieces(pairs, phi_m, at[ks])
        both = Family1D.concat([um, first_m]).refined_at(
            np.arange(2 * len(ns)), np.concatenate([coords, coords]))
        uk = both.take(0, len(ns))
        parts.insert(0, both.take(len(ns), 2 * len(ns)))
        cuts.insert(0, (_interp(final, um, phi_m), [ms[k] for k in ks], uk))
        ks = [prev[k] for k in ks]
    return DecompositionResult.__new__(DecompositionResult)._hold(
        cover, ns, dict(zip(ns, ks)), uk, parts, cuts, [members[k].mesh.domain for k in ks],
        s_table)


def _joined(picks):
    """A stage's picks over all its blocks as one entry of them: the blocks'
    pairs and cutoff values joined, each pick's pair among them."""
    ns, ks, pairs, phi, at = zip(*picks)
    base = _offsets([len(p.v_off) - 1 for p in pairs]).tolist()
    return ([*itertools.chain(*ns)], [*itertools.chain(*ks)], Family1D.concat(pairs),
            np.concatenate(phi), np.concatenate([a + b for a, b in zip(at, base)]))


def _interp(x, xp, fp):
    """np.interp(x_r, xp_r, fp_r) for each member r of the families x and
    xp, with its bits, fp holding the values at xp's vertices: at a vertex
    xp[j], fp[j]; elsewhere the slope of the cell [xp[j], xp[j + 1]]
    holding the point, times its distance from xp[j], plus fp[j]."""
    j = _member_keys(_owners(xp.v_off), xp.vertices).searchsorted(
        _member_keys(_owners(x.v_off), x.vertices), side="right") - 1
    out = fp[j]
    inner = np.flatnonzero(xp.vertices[j] != x.vertices)
    j = j[inner]
    out[inner] = ((fp[j + 1] - fp[j]) / (xp.vertices[j + 1] - xp.vertices[j])
                  * (x.vertices[inner] - xp.vertices[j]) + fp[j])
    return out


def _stage(candidates, kset, lo, hi, picks, levels=None):
    """Cutoff stage against one compact set, as a generator over the
    candidates, (Family1D, row) pairs: per n = 1, 2, ..., pick the first
    candidate past the previous pick that keeps the mixed term within its
    bound.  Each block's picks go to picks as one entry (their n, k, the
    block's pairs and cutoff values, and each pick's pair), and the stage
    yields one item per pick: an earlier stage (levels None) the pick's
    remainder as a (Family1D, row) pair, the last stage None.  Where the
    candidates run out, returns the (n, best achieved, bound) of the
    shortfall.

    A block is the next BLOCK candidates, or for the last stage, which stops
    at n = levels, at most levels - n + 1 of them: each level takes at least
    one, so the last stage pulls no input it does not read.  A middle stage
    of a cover of four or more sets may thus make the stage before it build
    up to BLOCK - 1 picks it never reads."""
    candidates = enumerate(candidates)
    n, best = 1, np.inf
    while True:
        block = list(itertools.islice(candidates, BLOCK if levels is None
                                      else min(BLOCK, levels - n + 1)))
        if not block:
            return n, best, SELECTION_BOUND_FACTOR / n
        n0, chosen = n, []
        pairs, phi, mixed = _scan_block([c for _, c in block], kset, n0, lo, hi)
        for i, (k, _) in enumerate(block):
            p = i * (i + 1) // 2 + n - n0  # candidate i at level n
            best = min(best, mixed[p])
            if mixed[p] <= SELECTION_BOUND_FACTOR / n:
                chosen.append((n, k, p))
                n, best = n + 1, np.inf
        if chosen:
            ns, ks, at = zip(*chosen)
            picks.append((ns, ks, pairs, phi, np.array(at)))
            rest = None if levels else _pieces(pairs, phi, picks[-1][4])[3]
            yield from ((rest, r) for r in range(len(chosen)))


def _scan_block(block, kset, n0, lo, hi):
    """Block candidate i refined, cut off and measured at each level n0,
    ..., n0 + i: the pairs (i, d) of level n0 + d, d <= i, in the order i,
    then d, pair p = i (i + 1) / 2 + d.  The candidates are stacked as one
    slice per run of rows of one family.  Returns the refined pairs as a
    Family1D, their cutoff values and their mixed terms as a list: one
    refinement, one distance pass and one integration for the block."""
    runs = [list(run) for _, run in itertools.groupby(block, key=lambda c: id(c[0]))]
    family = Family1D.concat([run[0][0].take(run[0][1], run[-1][1] + 1) for run in runs])
    member, level = (a[:len(block) * (len(block) + 1) // 2] for a in _PAIRS)
    coords = _breakpoints(kset, n0 + np.arange(len(block)), lo, hi)[level]
    pairs = family.refined_at(member, coords)
    phi = _cutoff_values(pairs.vertices[:, None], kset, (n0 + level).repeat(np.diff(pairs.v_off)))
    return pairs, phi, _mixed_terms(pairs.vertices, pairs.values, pairs.v_off, phi).tolist()


def _pieces(pairs, phi, at):
    """The picks at the pairs at, rows copied out of the pairs: the refined
    members, their cutoff values, first pieces and remainders.  A first
    piece has the cell values times phi at the cell's ends and each jump
    times phi at its vertex, as cutoff_multiply; a remainder has the values
    less the first piece's and each jump less the first piece's where that
    is kept, as BVFunction subtraction.  Each drops its jumps of norm at
    most 1e-14, as BVFunction does."""
    uk = pairs.rows(at)
    phi = phi[_gather(pairs.v_off, at)[0]]
    values = uk.values * phi[uk.cells][:, :, None]
    jumps = uk.jumps * phi[uk.jump_at][:, None]
    kept = ~(_frobenius(jumps) <= _ATOL)
    rest = np.where(kept[:, None], uk.jumps - jumps, uk.jumps)
    return (uk, phi, _with(uk, values, jumps, kept),
            _with(uk, uk.values - values, rest, ~(_frobenius(rest) <= _ATOL)))


def _with(family, values, jumps, kept):
    """The family with these cell values and jumps, less the jumps not kept."""
    counts = np.bincount(_owners(family.j_off)[kept], minlength=len(family.j_off) - 1)
    return family._replace(values=values, jump_at=family.jump_at[kept], jumps=jumps[kept],
                           j_off=_offsets(counts))


def verify_properties(result, deltas=(0.2, 0.1, 0.05, 0.02), charge_threshold=1e-2):
    """Re-check the decomposition guarantees on the discrete data.

    Returns a report with per-check verdicts and the list of flagged entities;
    violations are reported, never raised.  Masses may exceed their bounds
    by 1e-12.  The report is plain JSON data: charge_tables is keyed by the
    component number as a string ("2", ...).

    Each check is one array pass over the result's stacks; the flags are
    then listed per n, and within it per cutoff, then per component: mass,
    atom, inclusion and exclusion flags.
    """
    tol = 1e-12
    sets = result.cover.sets
    J = len(sets)
    ns = result.n_values
    N = len(ns)
    if not N:
        raise ValueError("empty sequence of measures")
    parents, slots = result.members, result.parts
    pieces = Family1D.concat(slots)
    K = len(slots)
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
    for r, (phi, radii, inputs) in enumerate(result.cuts):
        g = np.abs(np.einsum("cim,cid->cmd", phi[parents.cells][:, :, None], shapes)[:, 0, 0])
        g_max = np.maximum.reduceat(g, starts)
        allowed = 2.0 * np.array(radii) * (1.0 + GRAD_SLACK)
        for i in np.flatnonzero(g_max > allowed).tolist():
            flags.append(((i, -1, 0, r), {"n": ns[i], "check": "cutoff_gradient",
                                          "max_grad": float(g_max[i]),
                                          "allowed": float(allowed[i])}))
        si_max = np.max(np.linalg.norm(inputs.values, axis=2), axis=1)
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

    charge_tables, union = {}, sets[0]
    for j in range(1, J):
        charge_tables[str(j + 1)] = does_not_charge(
            slots[j].variation(), union, deltas, threshold=charge_threshold)
        union = _union(union, sets[j])

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
