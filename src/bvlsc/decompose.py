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
the picks of stage j - 1.  A final pick's components are the first pieces of
its earlier picks, refined onto its mesh, then its own first piece and its
remainder.

Only 1D meshes are supported: cutoff level sets are then mesh-exact after a
refinement that inserts the neighborhood breakpoints.  verify_properties
re-checks, per cell and per atom, the discrete surrogates of the two
decomposition guarantees: the component derivative masses exceed the parent
ones by at most |cell|/n plus the (recorded and capped) cutoff slack, and the
later components do not charge the earlier compact sets.
"""

import warnings

import numpy as np

from .bv import (cutoff_multiply, derivative, does_not_charge, reassembly_deviation,
                 refine_bv_1d, refined_1d, refined_bv, total_variation, tv_on_neighborhoods)
from .meshing import segment_shape_gradients

__all__ = [
    "CoverSpec",
    "DecompositionResult",
    "PrefixTooShortError",
    "local_decompose",
    "verify_properties",
]

SELECTION_BOUND_FACTOR = 0.5
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
        return {
            "n_values": self.n_values,
            "k_map": {str(n): int(k) for n, k in self.k_map.items()},
            "selection_bound_factor": SELECTION_BOUND_FACTOR,
            "grad_slack": GRAD_SLACK,
            "s_table": self.s_table,
            "component_tv": {
                str(n): [total_variation(derivative(c)) for c in comps]
                for n, comps in self.components.items()
            },
        }


def _abs_integral_times_grad(pts, cell_values, phi_values):
    """Integral of |u| |grad phi| for u affine with the cell values (n, 2, M)
    on the cells between the sorted vertices pts (n + 1,) and phi continuous
    P1 with the vertex values phi_values (cellwise-constant grad phi, taken
    as Mesh.p1_gradient takes it).  Exact for M = 1; for M > 1 the 9-point
    trapezoid rule of the convex |u| is an upper bound (at most about 1.5%
    high), so the selection bound stays conservative."""
    x = np.column_stack([pts[:-1], pts[1:]])
    corners = np.column_stack([phi_values[:-1], phi_values[1:]])[:, :, None]
    gphi = np.einsum("cim,cid->cmd", corners,
                     segment_shape_gradients(x[:, 1] - x[:, 0]))[:, 0, 0]
    total = 0.0
    for ci in np.where(np.abs(gphi) > 1e-15)[0]:
        v0, v1 = cell_values[ci, 0], cell_values[ci, 1]
        length = x[ci, 1] - x[ci, 0]
        if cell_values.shape[2] == 1:
            a, b = float(v0[0]), float(v1[0])
            if a * b >= 0:
                area = 0.5 * abs(a + b) * length
            else:
                t = a / (a - b)
                area = 0.5 * length * (abs(a) * t + abs(b) * (1 - t))
        else:
            ts = np.linspace(0.0, 1.0, 9)
            vals = np.linalg.norm(v0[None, :] * (1 - ts)[:, None]
                                  + v1[None, :] * ts[:, None], axis=1)
            area = float(np.trapezoid(vals, dx=length / 8.0))
        total += area * abs(gphi[ci])
    return total


def _cutoff_values(vertices, kset, n):
    d = kset.dist(vertices)
    r_out, r_in = 1.0 / n, 0.5 / n
    return np.clip((r_out - d) / (r_out - r_in), 0.0, 1.0)


def _breakpoints_1d(kset, n, lo, hi):
    pts = []
    for kind, data in kset.pieces:
        anchors = [data[0]] if kind == "point" else [data[0][0], data[1][0]]
        for a in anchors:
            for r in (0.5 / n, 1.0 / n):
                pts.extend([a - r, a + r])
    return [p for p in pts if lo < p < hi]


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
    0.5/m-neighborhood of the first set, from the m-th member on; the whole
    family takes one tv_on_neighborhoods call (one distance pass).
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
    # remainders; an earlier stage picks as many n as its members allow
    # (at most 4 n_max + 8), the last must reach n_max
    stages, inputs = [], members
    for j, kset in enumerate(cover.sets[:-1]):
        last = j == len(cover.sets) - 2
        n_target = n_max if last else min(len(inputs), 4 * n_max + 8)
        picks, shortfall = _stage(inputs, kset, n_target, lo, hi)
        if last and shortfall:
            raise PrefixTooShortError(*shortfall)
        inputs = [uk - first for _, _, uk, _, first in picks]
        stages.append(picks)

    # a final pick's k indexes the previous stage's picks: walk the chain
    # back, carrying each earlier pick, first piece and cutoff onto its mesh
    n_values, k_map, subsequence, components, cutoffs = [], {}, {}, {}, {}
    for (n, k, uk, phi, first), rest in zip(stages[-1], inputs):
        coords = uk.mesh.vertices[:, 0]
        comps, cuts = [first, rest], [(phi, n, uk)]
        for picks in reversed(stages[:-1]):
            m, k, um, phi_m, first_m = picks[k]
            uk = refine_bv_1d(um, coords)
            comps.insert(0, refine_bv_1d(first_m, coords))
            cuts.insert(0, (np.interp(coords, um.mesh.vertices[:, 0], phi_m), m, uk))
        n_values.append(n)
        k_map[n], subsequence[n], components[n], cutoffs[n] = k, uk, comps, cuts

    # member k enters the rows m <= k + 1, at the radii 0.5 / m: one
    # distance pass over the whole family
    radii = [0.5 / m for m in range(1, n_max + 1)]
    tvs = tv_on_neighborhoods([derivative(u) for u in members], cover.sets[0],
                              [radii[:k + 1] for k in range(len(members))])
    rows = []
    for m in range(1, n_max + 1):
        vals = [tvs[k][m - 1] for k in range(m - 1, len(members))]
        rows.append({
            "m": m,
            "last": vals[-1],
            "sup_dev": float(np.max(np.abs(np.asarray(vals) - vals[-1]))),
        })
    lasts = [row["last"] for row in rows]
    monotone = all(lasts[i + 1] <= lasts[i] + 1e-12 for i in range(len(lasts) - 1))
    s_table = {"rows": rows, "monotone": monotone}

    return DecompositionResult(cover, n_values, k_map, subsequence, components,
                               cutoffs, s_table)


def _stage(members, kset, n_target, lo, hi):
    """Cutoff stage against one compact set: per n = 1..n_target, pick the
    first member past the previous pick that keeps the mixed term within
    its bound, and split off its component near the set.  Returns the picks
    (n, k, refined member, cutoff phi, first piece) and, where the members
    run out, the (n, best achieved, bound) of the shortfall (else None)."""
    picks, k_prev = [], -1
    for n in range(1, n_target + 1):
        bound = SELECTION_BOUND_FACTOR / n
        brk = _breakpoints_1d(kset, n, lo, hi)
        best = np.inf
        for k in range(k_prev + 1, len(members)):
            pts, cell_values = refined_1d(members[k], brk)
            phi = _cutoff_values(pts[:, None], kset, n)
            mixed = _abs_integral_times_grad(pts, cell_values, phi)
            best = min(best, mixed)
            if mixed <= bound:
                break
        else:
            return picks, (n, best, bound)
        uk = refined_bv(members[k], pts, cell_values)
        picks.append((n, k, uk, phi, cutoff_multiply(uk, phi)))
        k_prev = k
    return picks, None


def verify_properties(result, deltas=(0.2, 0.1, 0.05, 0.02), charge_threshold=1e-2):
    """Re-check the decomposition guarantees on the discrete data.

    Returns a report with per-check verdicts and the list of flagged entities;
    violations are reported, never raised.  Masses may exceed their bounds
    by 1e-12.  The report is plain JSON data: charge_tables is keyed by the
    component number as a string ("2", ...).
    """
    tol = 1e-12
    sets = result.cover.sets
    J = len(sets)
    flags = []
    reassembly_dev = 0.0
    slack_recorded = []
    grad_bound_ok = True
    # the support points of every (n, component), stacked: one distance pass
    # per set, read per (n, component) as the largest and smallest distance
    supports = [_support_points(c) for n in result.n_values
                for c in result.components[n]]
    far, near = _segment_extremes(sets, supports)
    at = 0

    for n in result.n_values:
        uk = result.subsequence[n]
        comps = result.components[n]
        reassembly_dev = max(reassembly_dev, reassembly_deviation(uk, comps))

        allowed_grad = 2.0 * n * (1.0 + GRAD_SLACK)
        measured = np.zeros(uk.mesh.n_cells)
        for phi, rad, stage_input in result.cutoffs[n]:
            g = np.abs(uk.mesh.p1_gradient(phi)[:, 0, 0])
            if np.max(g, initial=0.0) > 2.0 * rad * (1.0 + GRAD_SLACK):
                grad_bound_ok = False
                flags.append({"n": n, "check": "cutoff_gradient",
                              "max_grad": float(np.max(g)),
                              "allowed": 2.0 * rad * (1.0 + GRAD_SLACK)})
            si_max = np.max(np.linalg.norm(stage_input.cell_values, axis=2), axis=1)
            measured += np.minimum(si_max * g, si_max * allowed_grad)
        slack_cells = measured * uk.mesh.cell_measures
        slack_recorded.append(float(np.sum(slack_cells)))

        parent_mass = uk.mesh.gradient_masses(uk.gradients())
        # the components live on uk's vertices (the reassembly above
        # subtracts them), so a jump is matched to uk's by its vertex
        parent_jumps = dict(zip(uk.facets[:, 0].tolist(), map(np.linalg.norm, uk.jumps)))
        for j_idx, c in enumerate(comps):
            lhs = c.mesh.gradient_masses(c.gradients())
            rhs = parent_mass + uk.mesh.cell_measures / n + slack_cells + tol
            bad = np.where(lhs > rhs)[0]
            for ci in bad:
                flags.append({
                    "n": n, "component": j_idx + 1, "check": "mass_bound",
                    "cell": int(ci), "mass": float(lhs[ci]), "bound": float(rhs[ci]),
                })
            for v, jv in zip(c.facets[:, 0].tolist(), c.jumps):
                pm = parent_jumps.get(v, 0.0)
                if np.linalg.norm(jv) > pm + tol:
                    flags.append({
                        "n": n, "component": j_idx + 1, "check": "atom_bound",
                        "x": float(c.mesh.vertices[v, 0]), "mass": float(np.linalg.norm(jv)),
                        "bound": pm,
                    })
            # support inclusions against the cover neighborhoods
            h = uk.mesh.h
            if len(supports[at]):
                d_own = far[min(j_idx, J - 1)][at]
                if d_own > 1.0 / n + 2 * h:
                    flags.append({"n": n, "component": j_idx + 1,
                                  "check": "support_inclusion",
                                  "max_dist": d_own})
                for i in range(j_idx):
                    if near[i][at] < 0.5 / n - 2 * h - 1e-12:
                        flags.append({"n": n, "component": j_idx + 1,
                                      "check": "support_exclusion",
                                      "earlier_set": i,
                                      "min_dist": near[i][at]})
            at += 1

    charge_tables = {}
    for j_idx in range(1, J):
        union = sets[0]
        for s in sets[1:j_idx]:
            union = _union(union, s)
        seq = [derivative(result.components[n][j_idx]) for n in result.n_values]
        charge_tables[str(j_idx + 1)] = does_not_charge(
            seq, union, deltas, threshold=charge_threshold
        )

    return {
        "reassembly_dev": reassembly_dev,
        "reassembly_ok": reassembly_dev <= 1e-14 * 10,
        "cutoff_gradient_ok": grad_bound_ok,
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


def _union(a, b):
    from .regions import CompactSet

    return CompactSet(a.dim, list(a.pieces) + list(b.pieces))


def _segment_extremes(sets, segments):
    """Per set, the largest and the smallest distance to it of each
    segment's points, as lists of floats (NaN for a segment without points):
    one dist call per set over the segments stacked, split by reduceat."""
    lengths = np.array([len(p) for p in segments], dtype=np.int64)
    full = lengths > 0
    starts = (np.cumsum(lengths) - lengths)[full]
    points = np.concatenate(segments) if full.any() else None
    far, near = [], []
    for kset in sets:
        hi, lo = np.full((2, len(segments)), np.nan)
        if points is not None:
            d = kset.dist(points)
            hi[full] = np.maximum.reduceat(d, starts)
            lo[full] = np.minimum.reduceat(d, starts)
        far.append(hi.tolist())
        near.append(lo.tolist())
    return far, near


def _support_points(u):
    """The centroids of u's support cells and the vertices u jumps at."""
    mesh = u.mesh
    return np.concatenate([mesh.centroids[u.support_cells()], mesh.vertices[u.facets[:, 0]]])
